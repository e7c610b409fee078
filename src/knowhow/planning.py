"""Plan verification and uniform plan search over a model.

A plan ``a1 .. an`` is *strongly executable* at a state ``s`` when, for
every ``k < n``, every state reachable from ``s`` by the length-``k``
prefix has at least one ``a_{k+1}``-successor; the plan can never get
stuck.  :func:`verify_plan` checks this definition literally, one start
state at a time, together with "every endpoint satisfies the goal".

:func:`find_plan` decides whether *some* plan works from every start
state, by breadth-first search over belief states.  A belief state is a
set of states held as an ``int`` mask, bit *i* for the *i*-th declared
state in declaration order, so equal sets are equal ints and need no
sorting:

* the root is the start set ``B0``;
* ``B`` has an ``a``-edge to its image (the union of the successor masks
  of its members) iff every member of ``B`` has an ``a``-successor, that
  is ``B & ~can_a == 0``;
* ``B`` is a goal iff ``B`` is a subset of the goal set,
  ``B & ~goal == 0`` (so an empty start set succeeds immediately with the
  empty plan).

Why this is equivalent to "there exists a plan that verify_plan accepts":
for a fixed plan, the set of states reachable from *some* start by the
length-``k`` prefix is exactly the belief state ``B_k`` after ``k`` BFS
edges, because images distribute over unions.  Requiring every member of
``B_k`` to have a successor is the same as requiring it separately for
the reachable sets of each start (their union is ``B_k``), so a plan is
strongly executable from every start iff each of its steps is an edge in
the belief graph, and its endpoints all satisfy the goal iff the final
belief state does.  The graph has at most ``2^|S|`` nodes, so the search
terminates; BFS returns a shortest witness, and expanding actions in
declaration order makes it the lexicographically least shortest one (in
action-index order).

Both functions read the model's one successor table, built at
construction.  State *s*'s *column* holds its successor mask under the
*i*-th action at bit offset ``i * |S|``, so the OR of a set's columns
holds every action's image side by side, and the *i*-th image is
``images >> i * |S|`` cut to ``|S|`` bits.  find_plan reads that OR from
an *image table*, built from the columns once per call: for each group
of four consecutive states, the OR for each subset of the group.  A
belief costs one lookup per nonzero group, found from its highest set
bit down, so never more lookups than members, and one walk serves all
actions.  The search keeps only the belief each one was first reached
from, and reports what it found: the first goal belief it dequeued, if
any, the parent links of every belief it reached, and how many it
dequeued.  find_plan alone turns that into a :class:`PlanResult`, and
rebuilds the witness once, on success: each step is the first action,
in declaration order, that takes the parent to the child.  A ``Kh``
decision (see :mod:`~knowhow.semantics`) reads only whether a goal
belief was found.

The two functions deliberately share no traversal code, only the
columns: verify_plan never reads the image table, so it stays the
independent oracle for find_plan.  verify_plan keeps
two memos on the model, so that the work that repeats across its calls
runs once per model.  ``Model._images`` holds each action's image of a
reached set, so a step it has walked before is one dict lookup.
``Model._set_masks`` maps a start or goal set to its mask, for arguments
whose type is exactly ``frozenset`` (any other iterable, a frozenset
subclass included, is read afresh on each call): at most ``2^|S|``
entries, one per subset, and a set with an unknown state is never
stored.  Writes to both are idempotent, so two threads that miss store
equal values; both are freed with the model, and the set memo keeps the
frozensets it holds alive that long.  The memos are verify_plan's alone:
find_plan neither reads nor writes them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import length_hint
from typing import Iterable, NamedTuple, Optional

from .models import Model, Plan

__all__ = ["PlanCheck", "PlanResult", "verify_plan", "find_plan"]


class PlanCheck(NamedTuple):
    """Outcome of :func:`verify_plan`.

    On failure, ``kind`` is ``"stuck"`` (with ``step`` the 0-based index of
    the action that cannot be taken, ``state`` the reached state with no
    successor) or ``"endpoint"`` (with ``state`` the offending final
    state); ``start`` is the start state whose check failed.
    """

    ok: bool
    kind: Optional[str] = None
    start: Optional[str] = None
    step: Optional[int] = None
    action: Optional[str] = None
    state: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "ok"
        if self.kind == "stuck":
            return (
                f"step {self.step + 1} at state {self.state}: "
                f"no {self.action}-successor (from start {self.start})"
            )
        return f"endpoint {self.state} is not a goal state (from start {self.start})"


@dataclass(frozen=True, slots=True)
class PlanResult:
    """Outcome of :func:`find_plan`.

    ``witness`` is present iff ``decision`` is true; ``explored`` counts
    the belief states dequeued and examined by the search.
    """

    decision: bool
    witness: Optional[Plan]
    explored: int


_PLAN_OK = PlanCheck(True)


def verify_plan(
    model: Model,
    starts: Iterable[str],
    goals: Iterable[str],
    plan: Iterable[str],
) -> PlanCheck:
    """Check the plan against the raw definition, start state by start state.

    True iff the plan is strongly executable at every start and every state
    it can reach from a start is a goal state.  The empty plan succeeds iff
    every start is a goal.  Reports the first violation, scanning starts in
    declaration order, then prefix length, then reached states in
    declaration order.
    """
    sets = model._set_masks
    if type(starts) is frozenset:
        start_mask = sets.get(starts)
        if start_mask is None:
            start_mask = sets[starts] = model._mask(starts, "start set mentions ")
    else:
        start_mask = model._mask(starts, "start set mentions ")
    if type(goals) is frozenset:
        goal_mask = sets.get(goals)
        if goal_mask is None:
            goal_mask = sets[goals] = model._mask(goals, "goal set mentions ")
    else:
        goal_mask = model._mask(goals, "goal set mentions ")
    steps: Plan = tuple(plan)
    try:
        # A list, not tuple(map(...)): such a tuple is allocated at a guessed
        # size and shrunk, so the freed ones pile up in CPython's per-size
        # tuple free lists, about 1 MB more peak memory on the oracle sweep.
        memos = list(map(model._images.__getitem__, steps))
    except (KeyError, TypeError):
        raise model._unknown_action(steps) from None
    states = model.states

    rest = start_mask
    while rest:
        first = rest & -rest  # the start's bit; its name is looked up only on failure
        rest ^= first
        reached = first
        ahead = iter(memos)
        for memo in ahead:
            image = memo.get(reached, -2)
            if image < 0:
                k = len(steps) - length_hint(ahead) - 1  # ahead holds the later steps
                cannot, offset = model._moves[steps[k]]
                if image == -2:  # a miss: compute the image and store it
                    image = memo[reached] = -1 if reached & cannot else _image(model, reached, offset)
                if image < 0:
                    stuck = reached & cannot
                    state = states[(stuck & -stuck).bit_length() - 1]
                    start = states[first.bit_length() - 1]
                    return tuple.__new__(PlanCheck, (False, "stuck", start, k, steps[k], state))
            reached = image
        bad = reached & ~goal_mask
        if bad:
            state = states[(bad & -bad).bit_length() - 1]
            start = states[first.bit_length() - 1]
            return tuple.__new__(PlanCheck, (False, "endpoint", start, None, None, state))
    return _PLAN_OK


def _image(model: Model, reached: int, offset: int) -> int:
    """verify_plan's image of ``reached`` under the action at bit ``offset``
    of the columns.  It runs only on a memo miss, so it is kept out of the
    step loop, whose common case, a memo hit, stays short."""
    images = 0
    columns = model._columns
    while reached:
        low = reached & -reached
        images |= columns[low.bit_length() - 1]
        reached ^= low
    return images >> offset & (1 << len(model.states)) - 1


def find_plan(model: Model, starts: Iterable[str], goals: Iterable[str]) -> PlanResult:
    """Decide whether some plan takes every start to goals, never stuck.

    Breadth-first search over belief states as described in the module
    docstring.  Deterministic: on success the witness is the shortest
    plan, ties broken by action declaration order.
    """
    root = model._mask(starts, "start set mentions ")
    goal = model._mask(goals, "goal set mentions ")
    table = _image_table(model)
    found, parents, explored = _search(model, table, root, goal)
    witness = None if found is None else _witness(model, table, parents, found)
    return PlanResult(found is not None, witness, explored)


def _image_table(model: Model) -> list[Optional[list[int]]]:
    """The images of every set of up to four consecutive states.  Entry
    ``4 * c`` lists, for each 4-bit value ``v``, the OR of the columns of
    the states ``4 * c + b`` for the set bits ``b`` of ``v``; in the last
    group, a state that does not exist has an empty column.  The entries
    between are ``None``, so a group is found by its first state's bit
    offset."""
    columns = model._columns
    padded = columns + (0, 0, 0)
    table: list[Optional[list[int]]] = []
    for first in range(0, len(columns), 4):
        a, b, c, d = padded[first : first + 4]
        ab, cd = a | b, c | d
        entries = [0, a, b, ab, c, a | c, b | c, ab | c, d, a | d, b | d, ab | d, cd, a | cd, b | cd, ab | cd]
        table += (entries, None, None, None)
    return table


def _search(model: Model, table: list, root: int, goal: int) -> tuple[Optional[int], dict, int]:
    """The search of :func:`find_plan` on masks: the start mask ``root``
    and the goal mask ``goal``, with ``table`` the model's
    :func:`_image_table`.  Returns the first belief it dequeues inside the
    goal, or ``None``; the belief each reached belief was first reached
    from, so its keys are every belief reached (the root's parent is
    ``None``); and the number of beliefs dequeued.  Each reached belief is
    queued once, so that number is the reached ones not still queued."""
    outside_goal = ~goal
    # Walked once per belief, and a tuple iterates faster than a dict view.
    moves = tuple(model._moves.values())
    full = (1 << len(model.states)) - 1

    queue: deque[int] = deque([root])
    parents: dict[int, Optional[int]] = {root: None}
    while queue:
        belief = queue.popleft()
        if not belief & outside_goal:
            return belief, parents, len(parents) - len(queue)
        # _images(table, belief), inlined: a call per belief costs about 5% of a search.
        images = 0
        rest = belief
        while rest:
            shift = rest.bit_length() - 1 & -4
            nibble = rest >> shift
            images |= table[shift][nibble]
            rest ^= nibble << shift
        for stuck, offset in moves:
            if belief & stuck:
                continue
            image = images >> offset & full
            if image not in parents:
                parents[image] = belief
                queue.append(image)
    return None, parents, len(parents)


def _images(table: list, belief: int) -> int:
    """The OR of the columns of the members of ``belief``: one table entry
    per nonzero group of four states, highest first, so never more
    lookups than members."""
    images = 0
    while belief:
        shift = belief.bit_length() - 1 & -4
        nibble = belief >> shift
        images |= table[shift][nibble]
        belief ^= nibble << shift
    return images


def _witness(model: Model, table: list, parents: dict[int, Optional[int]], belief: int) -> Plan:
    """The plan that reached ``belief``.  Each step is the first action, in
    declaration order, that takes the belief's parent to it, never stuck:
    the search expands actions in that order, so that action reached it
    first."""
    moves = model._moves.items()
    full = (1 << len(model.states)) - 1
    plan = []
    while (parent := parents[belief]) is not None:
        images = _images(table, parent)
        for action, (stuck, offset) in moves:
            if not parent & stuck and images >> offset & full == belief:
                break
        plan.append(action)
        belief = parent
    return tuple(reversed(plan))
