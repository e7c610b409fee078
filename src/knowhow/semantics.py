"""Global evaluation of formulas over a model.

Truth is computed as *extensions* (sets of states) bottom-up rather than
pointwise.  A set of states is an ``int`` mask, bit *i* for the *i*-th
declared state, as in the planner.  A formula is normalized to the core
connectives and compiled, each time it is evaluated, into a program that
lists each distinct node once, after its operands.  Like every formula
operation, compiling and running the program walk explicit stacks and
loops, never recursion, so formulas nested to the 10,000-level limit
evaluate on the caller's thread.

A program runs on one slice or many.  The value of a node is a wide
``int`` that concatenates one slice per evaluation, low slice first.  With
``n`` states a slice is ``w = 8*ceil(n/8)`` bits, so slices are whole
bytes, and the padding bits above the ``n``-th of each slice are always
0.  ``NOT``, ``AND`` and ``TOP`` act on all slices at once, with the
caller's all-true value (every slice full) in place of the full mask.
:func:`ext` and :func:`holds` run one slice, the model's own valuation;
the soundness audit runs one slice per letter assignment, and one program
per letter set that holds every row over those letters, so each row runs
once per model.  A program may have several roots; a run returns one
wide int per op, each ``slices * w`` bits, and the caller reads its roots'
values from that list.

``Kh(cond, goal)`` holds either at every state or at none, and reads only
the extensions of its two arguments.  A ``Kh`` op splits its operands into
slices and looks every pair ``(cond mask, goal mask)`` up in one C-level
``map`` over the caller's decision memo, a ``dict`` whose misses run the
plan search and store its decision, which is only whether the search
found a goal belief.  So each distinct pair costs one plan search
however many Kh nodes, slices and programs share it.  The memo
builds the model's image table (see :mod:`~knowhow.planning`) on its
first miss and gives it to every search it runs, so a formula with no
``Kh`` builds none, and the audit builds one per model.  The memo
belongs to one model and one caller, never to the module: decisions are
never cached across calls, so concurrent evaluations over the same
immutable model are safe.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .models import Model
from .planning import _image_table, _search
from .syntax import And, Atom, Formula, Kh, Not, _subterms, normalize

__all__ = ["ext", "holds", "check_U"]

# Op codes of a compiled program.  An op is (code, a, b): for _ATOM, ``a``
# is the atom name; for _NOT, ``a`` is the operand's position; for _AND and
# _KH, ``a`` and ``b`` are the positions of the two operands.
_TOP, _ATOM, _NOT, _AND, _KH = range(5)

Program = tuple[tuple, ...]


class _Decisions(dict):
    """The decision memo of one model: maps a pair ``(cond mask, goal
    mask)`` to the mask of a ``Kh`` node with those operand extensions,
    every state or none.  A missing pair runs the plan search and is
    stored, so a lookup never misses twice."""

    __slots__ = ("model", "everything", "table")

    def __init__(self, model: Model) -> None:
        self.model = model
        self.everything = (1 << len(model.states)) - 1
        self.table: list | None = None  # the model's image table, built on the first miss

    def __missing__(self, pair: tuple[int, int]) -> int:
        if self.table is None:
            self.table = _image_table(self.model)
        # _search is looked up here, at call time, so that it can be wrapped.
        mask = self[pair] = self.everything if _search(self.model, self.table, *pair)[0] is not None else 0
        return mask


def _compile(*roots: Formula) -> tuple[Program, tuple[int, ...]]:
    """The program of the normal forms of ``roots``, and the position of
    each root's value in it.  The program lists every distinct node of
    them once (equal nodes are one object), each after its operands, so
    with one root the last op is that root.  It holds only ints, atom names
    and ``None``, never a node, so a caller may keep it without keeping the
    formulas alive."""
    normal = [normalize(root) for root in roots]
    slot: dict[Formula, int] = {}
    for root in normal:
        for node in _subterms(root):
            slot.setdefault(node, len(slot))
    ops: list[tuple] = []
    for node in slot:
        kind = type(node)
        if kind is Not:
            ops.append((_NOT, slot[node.child], None))
        elif kind is And:
            ops.append((_AND, slot[node.left], slot[node.right]))
        elif kind is Atom:
            ops.append((_ATOM, node.name, None))
        elif kind is Kh:
            ops.append((_KH, slot[node.cond], slot[node.goal]))
        else:  # Top
            ops.append((_TOP, None, None))
    return tuple(ops), tuple(slot[root] for root in normal)


def _run(program: Program, env: Mapping[str, int], decisions: _Decisions, full: int) -> list[int]:
    """The value of every op of the program, in the layout of ``full``,
    the all-true value: one slice per evaluation, ``8*ceil(n/8)`` bits for
    ``n`` states, with the padding bits above the ``n``-th 0.  The value of
    one slice is a mask.  ``env`` gives each atom's value in the same
    layout (absent atoms hold nowhere).  ``decisions`` is the memo of the
    model the values are over."""
    size = (len(decisions.model.states) + 7) >> 3  # bytes in one slice
    width = (full.bit_length() + 7) >> 3  # bytes in all slices
    decide = decisions.__getitem__
    values: list[int] = []
    for code, a, b in program:
        if code == _NOT:
            values.append(full ^ values[a])
        elif code == _AND:
            values.append(values[a] & values[b])
        elif code == _ATOM:
            values.append(env.get(a, 0))
        elif code == _KH:
            pairs = zip(_slices(values[a], width, size), _slices(values[b], width, size))
            values.append(_joined(map(decide, pairs), size))
        else:
            values.append(full)
    return values


def _slices(value: int, width: int, size: int) -> Sequence[int]:
    """The slices of ``value``, ``size`` bytes each, in order."""
    data = value.to_bytes(width, "little")
    if size == 1:
        return data
    return [int.from_bytes(data[i : i + size], "little") for i in range(0, width, size)]


def _joined(slices: Iterable[int], size: int) -> int:
    """The value whose slices, ``size`` bytes each, are ``slices``."""
    if size == 1:
        return int.from_bytes(bytes(slices), "little")
    return int.from_bytes(b"".join(s.to_bytes(size, "little") for s in slices), "little")


def ext(model: Model, phi: Formula) -> frozenset[str]:
    """The extension of ``phi``: the set of states where it is true."""
    program, (root,) = _compile(phi)
    decisions = _Decisions(model)
    mask = _run(program, model._letters, decisions, decisions.everything)[root]
    return frozenset(model._names(mask))


def holds(model: Model, state: str, phi: Formula) -> bool:
    """True iff ``phi`` is true at ``state``."""
    model.index(state)  # raises for unknown states
    return state in ext(model, phi)


def check_U(model: Model, phi: Formula) -> bool:
    """True iff ``phi`` holds at every state.

    By definition this coincides with ``ext(model, U(phi)) == all states``
    computed through the ``Kh(~phi, bot)`` expansion; the redundancy is
    deliberate and property-tested.
    """
    return ext(model, phi) == frozenset(model.states)
