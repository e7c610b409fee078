"""Finite labelled transition systems with a line-based text format.

A model is a nonempty set of states, a finite action alphabet, one
transition relation per action and a valuation assigning proposition
letters to states.  Models are immutable after construction; all queries
are pure, so concurrent reads are safe.  A state or action name that the
model does not declare, an unhashable one included, raises ``ValueError``.
The successor relation is one table, built at construction: ``|S|`` ints
of ``|A| * |S|`` bits each, which both :func:`~knowhow.planning.find_plan`
and :func:`~knowhow.planning.verify_plan` read.  After construction a
model writes only two memos, both ``verify_plan``'s alone (``find_plan``
never reads them), and neither changes a result:

* a memo of action images.  Its writes are idempotent (two threads that
  miss store the same image), it holds at most ``|A| * 2^|S|`` entries
  and no more than the steps already walked, and it is freed with the
  model;
* a memo of start and goal set masks.  It stores only arguments whose
  type is exactly ``frozenset`` and only when every state in them is
  known, so it holds at most ``2^|S|`` entries.  Its writes are
  idempotent, and it is freed with the model, keeping those frozensets
  alive as long as the model.

File format (UTF-8, one declaration per line)::

    # comment lines and blank lines are ignored
    state <id> [<prop> ... <prop>]   # valuation bracket may be empty
    action <name>                    # optional explicit declaration
    trans <src> <action> <dst>       # one labelled edge

Ids match ``[A-Za-z0-9_]+``; letters are formula atom names.  The order
of ``state`` lines fixes the canonical state order; actions are ordered by
first mention (``action`` or ``trans`` line).  Duplicate ``trans`` lines
are idempotent.  Transitions may reference states declared later.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

from .syntax import _ATOM_NAME

__all__ = ["Model", "ModelFormatError", "parse_model", "format_model", "Plan"]

# A plan is a finite, possibly empty sequence of action names.
Plan = tuple[str, ...]

_ID = re.compile(r"[A-Za-z0-9_]+\Z")
_STATE_LINE = re.compile(r"state\s+(\S+)\s+\[\s*([^\[\]]*?)\s*\]\s*\Z")
# A whole well-formed trans line, comment included.  Regex ``\s`` is
# ``str.isspace``, the whitespace that ``str.split`` and ``str.strip`` use.
_TRANS_LINE = re.compile(r"\s*trans\s+([A-Za-z0-9_]+)\s+([A-Za-z0-9_]+)\s+([A-Za-z0-9_]+)\s*(?:#.*)?\Z", re.S)


class ModelFormatError(ValueError):
    """Raised for malformed model text; ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class Model:
    """A finite ability map: states, actions, labelled edges, valuation.

    The masks are the record.  A set of states is an ``int`` with bit *i*
    for the *i*-th declared state, so equal sets are equal ints.
    ``_columns`` is the successor relation: state *s*'s column holds its
    successor mask under the *i*-th action at bit offset ``i * |S|``.
    ``_moves`` maps each action, in declaration order, to ``~can`` (the
    complement of the states with an edge labelled by it) and its offset.
    ``_letters`` maps each letter true somewhere to the mask of the states
    labelled with it.  ``transitions`` and ``valuation`` are views of the
    masks, in the shape the constructor takes.  ``_images`` is
    ``verify_plan``'s memo: per action, a dict from a mask to its image,
    or to ``-1`` when some member of the mask has no successor.
    ``_set_masks`` is ``verify_plan``'s too: the mask of each exact
    ``frozenset`` it was passed as a start or goal set.  ``_mask``
    resolves every state name a caller passes, ``_unknown_action`` names
    the first unknown action of a plan; an unhashable name is never known.
    ``__init__`` validates what a Python caller passes, and
    :func:`parse_model` validates a model file line by line.
    ``_of_masks``, called only by :func:`parse_model` and
    :mod:`~knowhow.modelgen`, takes the masks as stored and checks nothing.
    """

    __slots__ = ("states", "actions", "_index", "_columns", "_moves", "_letters", "_images", "_set_masks")

    def __init__(
        self,
        states: Sequence[str],
        actions: Sequence[str],
        transitions: Mapping[str, Iterable[tuple[str, str]]],
        valuation: Mapping[str, Iterable[str]],
    ):
        states, actions = tuple(states), tuple(actions)
        if not states:
            raise ValueError("a model needs at least one state")
        index = _positions(states, "state id")
        declared = _positions(actions, "action name")
        for label in transitions:
            if label not in declared:
                raise ValueError(f"transition label {label!r} is not a declared action")
        columns = [0] * len(states)
        for offset, a in zip(range(0, len(actions) * len(states), len(states)), actions):
            edges = transitions.get(a, ())
            try:
                edges = tuple(edges)
                for edge in edges:
                    if not _is_pair(edge):
                        raise TypeError
                    src, dst = edge
                    columns[index[src]] |= 1 << index[dst] + offset
            except (KeyError, TypeError):
                raise _edge_error(a, edges, index) from None
        for s in valuation:
            if s not in index:
                raise ValueError(f"valuation mentions undeclared state {s!r}")
        letters: dict[str, int] = {}
        for i, s in enumerate(states):
            try:
                for letter in valuation.get(s, ()):
                    letters[letter] = letters.get(letter, 0) | 1 << i
            except TypeError:
                raise ValueError(
                    f"valuation of state {s!r} is not a collection of hashable letters: "
                    f"{valuation[s]!r}"
                ) from None
        columns = tuple(columns)
        self._store(states, actions, index, columns, letters, _moves_of(actions, columns))

    @classmethod
    def _of_masks(
        cls, states: tuple, actions: tuple, index: dict, columns: tuple, letters: dict, moves: dict | None = None
    ) -> Model:
        """The model of ``columns`` (each state's successor masks) and nonzero
        ``letters``, unchecked.  ``moves``, if given, is ``_moves_of(actions,
        columns)``, which models with the same columns may share."""
        if moves is None:
            moves = _moves_of(actions, columns)
        return object.__new__(cls)._store(states, actions, index, columns, letters, moves)

    def _store(
        self, states: tuple, actions: tuple, index: dict, columns: tuple, letters: dict, moves: dict
    ) -> Model:
        """The one storing step: set the slots, with fresh ``_images`` and
        ``_set_masks`` memos."""
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "actions", actions)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_columns", columns)
        object.__setattr__(self, "_moves", moves)
        object.__setattr__(self, "_letters", letters)
        object.__setattr__(self, "_images", {a: {} for a in actions})
        object.__setattr__(self, "_set_masks", {})
        return self

    @property
    def transitions(self) -> dict[str, frozenset[tuple[str, str]]]:
        """Each action's edges as (source, target) pairs."""
        return {
            a: frozenset((s, t) for s, col in zip(self.states, self._columns) for t in self._names(col >> offset))
            for a, (_, offset) in self._moves.items()
        }

    @property
    def valuation(self) -> dict[str, frozenset[str]]:
        """Each state's letters."""
        return {
            s: frozenset(letter for letter, mask in self._letters.items() if mask >> i & 1)
            for i, s in enumerate(self.states)
        }

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Model is immutable")

    def __reduce__(self):
        # Pickle and copy rebuild through the unchecked constructor, so the
        # copy starts with empty memos.
        return self._of_masks, (self.states, self.actions, self._index, self._columns, self._letters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return (
            self.states == other.states
            and self.actions == other.actions
            and self._columns == other._columns
            and self._letters == other._letters
        )

    def __hash__(self) -> int:
        return hash((self.states, self.actions))

    def __repr__(self) -> str:
        edges = sum(column.bit_count() for column in self._columns)
        return f"<Model |S|={len(self.states)} |A|={len(self.actions)} edges={edges}>"

    # -- queries ------------------------------------------------------

    def index(self, state: str) -> int:
        """Declaration-order position of ``state``."""
        return self._mask((state,)).bit_length() - 1

    def canonical(self, states: Iterable[str]) -> tuple[str, ...]:
        """Duplicate-free tuple ordered by declaration order."""
        return self._names(self._mask(states))

    def _mask(self, states: Iterable[str], what: str = "") -> int:
        """The mask of ``states``, read in one pass.  An unknown state
        raises ``ValueError`` naming the least unknown one, after the
        prefix ``what`` (such as ``"start set mentions "``)."""
        index = self._index
        mask = 0
        items = iter(states)
        for s in items:
            try:
                mask |= 1 << index[s]
            except (KeyError, TypeError):
                least = _least(t for t in (s, *items) if not _declared(t, index))
                raise ValueError(f"{what}unknown state {least!r}") from None
        return mask

    def _unknown_action(self, plan: Sequence[str]) -> ValueError:
        """The error for the first action of ``plan`` that is not declared."""
        return ValueError(f"unknown action {next(a for a in plan if not _declared(a, self._moves))!r}")

    def _names(self, mask: int) -> tuple[str, ...]:
        """The states in the low ``|S|`` bits of ``mask``, in declaration order."""
        return tuple(s for i, s in enumerate(self.states) if mask >> i & 1)

    def successors(self, state: str, action: str) -> frozenset[str]:
        """All ``action``-successors of ``state``."""
        if not _declared(action, self._moves):
            raise self._unknown_action((action,))
        return frozenset(self._names(self._columns[self.index(state)] >> self._moves[action][1]))

    def labelled(self, letter: str) -> frozenset[str]:
        """States whose valuation contains ``letter``; none for an unhashable one."""
        if not _declared(letter, self._letters):
            return frozenset()
        return frozenset(self._names(self._letters[letter]))


def _moves_of(actions: tuple, columns: tuple) -> dict[str, tuple[int, int]]:
    """Each action's ``_moves`` entry: ``~can``, the complement of the
    states with an edge labelled by it, and its bit offset in a column."""
    n = len(columns)
    moves: dict[str, tuple[int, int]] = {}
    offset, field = 0, (1 << n) - 1  # an action's place in a column
    for a in actions:
        can = 0
        for i, column in enumerate(columns):
            if column & field:
                can |= 1 << i
        moves[a] = (~can, offset)
        offset += n
        field <<= n
    return moves


def _is_pair(edge: object) -> bool:
    """The one rule for an edge: a ``tuple`` of length 2."""
    return isinstance(edge, tuple) and len(edge) == 2


def _edge_error(action: str, edges: object, index: Mapping[str, int]) -> ValueError:
    """Why ``Model`` could not read ``edges`` of ``action``: not a collection,
    else the least-repr edge that is not a pair, else the least undeclared state."""
    if not isinstance(edges, tuple):
        return ValueError(f"action {action!r} has edges that are not a collection: {edges!r}")
    bad = [repr(edge) for edge in edges if not _is_pair(edge)]
    if bad:
        return ValueError(f"action {action!r} has an edge that is not a (source, target) pair: {_least(bad)}")
    least = _least(s for edge in edges for s in edge if not _declared(s, index))
    return ValueError(f"transition references undeclared state {least!r}")


def _declared(name: object, index: Mapping[str, object]) -> bool:
    try:
        return name in index
    except TypeError:  # unhashable, so never declared
        return False


def _positions(names: tuple, what: str) -> dict:
    """Each name's position in ``names``, which must be hashable, comparable
    and distinct; else ``ValueError`` names the first unhashable one, two
    that do not compare, or the first repeat."""
    try:
        positions = {name: i for i, name in enumerate(names)}
    except TypeError:
        for name in names:
            try:
                hash(name)
            except TypeError:
                raise ValueError(f"unhashable {what} {name!r}") from None
        # Every name hashes, so comparing two with one hash raised.
        for i, name in enumerate(names):
            for other in names[:i]:
                try:
                    hash(other) == hash(name) and other == name
                except TypeError:
                    raise ValueError(f"{what}s {other!r} and {name!r} do not compare") from None
        raise ValueError(f"{what}s that do not compare among {names!r}") from None
    if len(positions) < len(names):
        raise ValueError(f"duplicate {what} {next(n for i, n in enumerate(names) if n in names[:i])!r}")
    return positions


def _least(names: Iterable[object]) -> object:
    """The least of ``names``, ordered by ``repr`` when they do not compare."""
    names = list(names)
    try:
        return min(names)
    except TypeError:
        return min(names, key=repr)


def _check_id(token: str, what: str, line: int | None = None) -> str:
    if not (isinstance(token, str) and _ID.match(token)):
        raise ModelFormatError(f"bad {what} id {token!r}", line)
    return token


def _check_letter(token: str, line: int | None = None) -> str:
    if not (isinstance(token, str) and _ATOM_NAME.match(token)):
        raise ModelFormatError(f"bad proposition letter {token!r}", line)
    return token


def parse_model(text: str) -> Model:
    """Parse the line-based model format into a :class:`Model`.

    Each line is checked once, and the masks are built from the checked
    lines, so the model is stored unchecked.  A well-formed ``trans`` line
    is one match of :data:`_TRANS_LINE`, and every ``trans`` line that
    does not match is an error; any other line is split into tokens, and
    the first bad token names the error.  An edge's states are
    looked up after the last line, since they may be declared later."""
    index: dict[str, int] = {}  # each state's position, in declaration order
    letters: dict[str, int] = {}
    actions: dict[str, None] = {}  # in order of first mention
    edges: list[tuple[int, str, str, str]] = []  # line, src, action, dst

    for line_no, raw in enumerate(text.splitlines(), start=1):
        edge = _TRANS_LINE.match(raw)
        if edge is not None:
            src, act, dst = edge.groups()
            actions.setdefault(act)
            edges.append((line_no, src, act, dst))
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        if head == "state":
            m = _STATE_LINE.match(line)
            if not m:
                raise ModelFormatError("malformed state line (want: state <id> [<props>])", line_no)
            sid = _check_id(m.group(1), "state", line_no)
            if sid in index:
                raise ModelFormatError(f"duplicate state id {sid!r}", line_no)
            bit = 1 << len(index)
            index[sid] = len(index)
            for p in m.group(2).split():
                _check_letter(p, line_no)
                letters[p] = letters.get(p, 0) | bit
        elif head == "action":
            parts = line.split()
            if len(parts) != 2:
                raise ModelFormatError("malformed action line (want: action <name>)", line_no)
            actions.setdefault(_check_id(parts[1], "action", line_no))
        elif head == "trans":  # not a match of _TRANS_LINE, so some check fails
            parts = line.split()
            if len(parts) != 4:
                raise ModelFormatError("malformed trans line (want: trans <src> <action> <dst>)", line_no)
            _, src, act, dst = parts
            _check_id(src, "state", line_no)
            _check_id(dst, "state", line_no)
            raise ModelFormatError(f"bad action id {act!r}", line_no)
        else:
            raise ModelFormatError(f"unknown directive {head!r}", line_no)

    if not index:
        raise ModelFormatError("model declares no states")
    n = len(index)
    offsets = {a: k * n for k, a in enumerate(actions)}
    columns = [0] * n
    for line_no, src, act, dst in edges:
        try:
            columns[index[src]] |= 1 << index[dst] + offsets[act]
        except KeyError:
            endpoint = dst if src in index else src
            raise ModelFormatError(f"transition references undeclared state {endpoint!r}", line_no) from None
    return Model._of_masks(tuple(index), tuple(actions), index, tuple(columns), letters)


def format_model(model: Model) -> str:
    """Serialize ``model`` in the model file format.

    Deterministic: states and actions in declaration order, each action's
    edges in (source, target) declaration order.  ``parse_model``
    inverts it exactly.  A state id, action name or letter that the format
    cannot express raises :class:`ModelFormatError`, with no line.
    """
    lines: list[str] = []
    for s, letters in model.valuation.items():
        sid = _check_id(s, "state")
        props = " ".join(sorted(_check_letter(p) for p in letters))
        lines.append(f"state {sid} [{props}]")
    for a in model.actions:
        lines.append(f"action {_check_id(a, 'action')}")
    for a, (_, offset) in model._moves.items():
        for src, column in zip(model.states, model._columns):
            for dst in model._names(column >> offset):
                lines.append(f"trans {src} {a} {dst}")
    return "\n".join(lines) + "\n"
