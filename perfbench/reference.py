"""Independent references the benchmark checks the program against.

Nothing here imports ``knowhow.planning`` or ``knowhow.semantics``: the
desk-scale models, the PRE/GOAL formulas and the plan search used for
``plan_cli`` live in plain dictionaries, tuples and frozensets.  The
brute-force plan enumeration for ``oracle_sweep`` goes through
``verify_plan`` on purpose, because that function is the program's own
independent oracle (it shares no traversal code with ``find_plan``).
"""

from __future__ import annotations

import random
from collections import deque
from itertools import product

LETTERS = ("p", "q", "r", "o")
DESK_ACTIONS = ("a", "b", "c")


# --- desk-scale models for plan_cli -----------------------------------------


def desk_model(rng: random.Random) -> dict:
    """12-16 states, 3 actions, 1-2 successors per state and action (so no
    belief is ever stuck), each letter true at each state with chance 1/2."""
    states = tuple(f"s{i}" for i in range(1, rng.randint(12, 16) + 1))
    succ = {
        a: {s: tuple(sorted(rng.sample(states, rng.randint(1, 2)))) for s in states}
        for a in DESK_ACTIONS
    }
    valuation = {s: tuple(x for x in LETTERS if rng.getrandbits(1)) for s in states}
    return {"states": states, "succ": succ, "valuation": valuation}


def model_text(model: dict) -> str:
    """The model in the line-based file format the program reads."""
    lines = [f"state {s} [{' '.join(model['valuation'][s])}]" for s in model["states"]]
    lines += [f"action {a}" for a in DESK_ACTIONS]
    for a in DESK_ACTIONS:
        for s in model["states"]:
            lines += [f"trans {s} {a} {t}" for t in model["succ"][a][s]]
    return "\n".join(lines) + "\n"


# --- small Boolean formulas as tuples ----------------------------------------


def boolean_formula(rng: random.Random, depth: int) -> tuple:
    """A random formula over ~, &, | and the letters, at most ``depth`` deep."""
    if depth == 0 or rng.random() < 0.3:
        return ("atom", rng.choice(LETTERS))
    kind = rng.choice(("not", "and", "or"))
    if kind == "not":
        return ("not", boolean_formula(rng, depth - 1))
    return (kind, boolean_formula(rng, depth - 1), boolean_formula(rng, depth - 1))


def render(phi: tuple) -> str:
    """Fully parenthesised concrete syntax, so no precedence rule is needed."""
    if phi[0] == "atom":
        return phi[1]
    if phi[0] == "not":
        return f"~({render(phi[1])})"
    op = "&" if phi[0] == "and" else "|"
    return f"({render(phi[1])} {op} {render(phi[2])})"


def extension(model: dict, phi: tuple) -> frozenset:
    if phi[0] == "atom":
        return frozenset(s for s in model["states"] if phi[1] in model["valuation"][s])
    if phi[0] == "not":
        return frozenset(model["states"]) - extension(model, phi[1])
    left, right = extension(model, phi[1]), extension(model, phi[2])
    return left & right if phi[0] == "and" else left | right


# --- reference plan search ----------------------------------------------------


def reference_plan(model: dict, starts: frozenset, goals: frozenset):
    """Breadth-first search over frozensets of states.

    Returns the lexicographically least shortest plan (actions compared in
    declaration order) as a list, or None when no plan exists.  A belief
    has an ``a``-edge only when every member has an ``a``-successor.
    """
    queue = deque([(starts, [])])
    seen = {starts}
    while queue:
        belief, plan = queue.popleft()
        if belief <= goals:
            return plan
        for a in DESK_ACTIONS:
            edges = model["succ"][a]
            if any(not edges.get(s) for s in belief):
                continue
            image = frozenset(t for s in belief for t in edges[s])
            if image not in seen:
                seen.add(image)
                queue.append((image, plan + [a]))
    return None


# --- brute-force oracle for oracle_sweep --------------------------------------


def brute_force_plan(verify_plan, model, starts, goals):
    """First plan that ``verify_plan`` accepts, enumerating by length up to
    ``2^|S|`` and then in action declaration order; None when there is none.

    Stops early once every plan of some length gets stuck: each longer plan
    then has a stuck prefix.  This is the enumeration of the exhaustive
    oracle acceptance criterion, returning the plan instead of a boolean.
    """
    for length in range(2 ** len(model.states) + 1):
        executable = False
        for plan in product(model.actions, repeat=length):
            check = verify_plan(model, starts, goals, plan)
            if check.ok:
                return plan
            executable = executable or check.kind == "endpoint"
        if not executable:
            return None
    return None
