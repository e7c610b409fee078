"""Formula language: AST, concrete syntax, normalization, substitution.

The core connectives are ``top``, atoms, ``~`` (negation), ``&``
(conjunction) and the binary modality ``Kh(condition, goal)`` ("there is a
single plan that is guaranteed to take every condition-state to a
goal-state").  The surface syntax additionally admits derived forms --
``bot``, ``|``, ``->``, ``<->``, the universal modality ``U`` and the
non-trivial variant ``Khp`` -- which :func:`normalize` rewrites into the
core.  ``U phi`` abbreviates ``Kh(~phi, bot)`` and ``Khp(a, b)``
abbreviates ``Kh(a, b) & ~U(a -> b)``.

Grammar (whitespace between tokens is insignificant)::

    phi   ::= disj ('->' phi | '<->' disj)?      # '->' right-associative,
    disj  ::= conj ('|' conj)*                   # '<->' non-chaining
    conj  ::= unary ('&' unary)*
    unary ::= '~' unary | 'U' unary
            | 'Kh' '(' phi ',' phi ')' | 'Khp' '(' phi ',' phi ')'
            | 'top' | 'bot' | ident | '(' phi ')'

The tokens are ``<->``, ``->``, ``(``, ``)``, ``,``, ``&``, ``|``, ``~``
and words ``[A-Za-z][A-Za-z0-9_]*``.  A word is a keyword (``top``,
``bot``, ``Kh``, ``Khp``, ``U``), else an identifier if it starts with a
letter in a-z, else an unknown keyword; any other non-whitespace character
is an error.  The whole text is tokenized before it is parsed, so an
unknown keyword or character is reported at the first one in the text,
before any grammar error.  Error offsets are 1-based, and the end of input
is at ``len(text) + 1``.

Atom names match ``[a-z][a-zA-Z0-9_]*`` and must not be keywords.  The
maximum nesting depth of a parsed formula is 10,000; deeper input is a
hard error.

Formula nodes are immutable and interned through one process-wide weak
table, whose miss path publishes under a lock (see :class:`Formula`), so
structurally equal formulas are one object and ``==`` is ``is``.  Each node
is built with its normal form and never written after it is published.
Apart from the table, which never changes a result, all functions are pure.

A formula argument that is not a :class:`Formula` raises ``TypeError("not
a formula: ...")`` at :func:`normalize` or ``_subterms``, the two doors of
evaluation, tautology checks, atom_names and substitution, or in
:func:`print_formula` and :func:`formula_height`.
"""

from __future__ import annotations

import copyreg
import re
import threading
import weakref
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping

__all__ = [
    "Formula",
    "Top",
    "Bot",
    "Atom",
    "Not",
    "And",
    "Or",
    "Implies",
    "Iff",
    "U",
    "Kh",
    "KhPlus",
    "FormulaSyntaxError",
    "parse_formula",
    "print_formula",
    "normalize",
    "substitute",
    "substitute_all",
    "formula_height",
    "atom_names",
    "MAX_NESTING_DEPTH",
]

MAX_NESTING_DEPTH = 10_000

KEYWORDS = frozenset({"top", "bot", "Kh", "Khp", "U"})

# The one rule for a proposition letter, in formulas, model files and
# GenConfig.  ``top`` and ``bot`` are the only keywords of this shape.
_ATOM_NAME = re.compile(r"(?!(?:top|bot)\Z)[a-z][a-zA-Z0-9_]*\Z")


class Formula:
    """Base class of all formula nodes.

    Nodes are interned (hash-consed): constructing a node looks it up in
    one process-wide table keyed by ``(class, *kids)``, or ``(Atom, name)``,
    and only a miss builds a new node.  So structurally equal formulas are
    one object, ``==`` is ``is`` and the hash is the identity hash.  The
    table holds its nodes weakly: an entry leaves it when its node dies, so
    it holds only live formulas.  A miss validates the atom name (or the
    arity and operands), builds the node and then, under ``_TABLE_LOCK``,
    publishes it unless another thread published the same formula first,
    in which case that node is returned; so two threads building the same
    formula get the same object.

    A miss also gives the node its children (``kids``, left to right), its
    ``height`` (a leaf has height 1) and its normal form (``_normal``, or
    None for a node that is its own, so that no node holds itself), the
    last two from its children's.  All of this is set before the node is
    published, and a published node is never written again.
    """

    def __new__(cls, *args: object) -> Formula:
        try:
            entry = _TABLE.get((cls, *args))
        except TypeError:  # an unhashable operand, which _intern names
            entry = None
        node = entry() if entry is not None else None
        return node if node is not None else _intern(cls, args)

    def __reduce__(self):
        # The distinct subterms, children first: an atom as its name, any
        # other node as its type and its children's positions.  _rebuilt
        # builds them in that order, through the constructor, which
        # re-interns each node; neither side recurses.
        nodes = _subterms(self)
        slot = {node: i for i, node in enumerate(nodes)}
        ops = [node.name if type(node) is Atom else (type(node), *map(slot.get, node.kids)) for node in nodes]
        return _rebuilt, (ops,)

    def __copy__(self) -> Formula:
        return self

    def __deepcopy__(self, memo: dict) -> Formula:
        return self

    def __repr__(self) -> str:
        return f"parse_formula({print_formula(self)!r})"

    def __str__(self) -> str:
        return print_formula(self)


def _rebuilt(ops: list) -> Formula:
    """The last node of ``ops``, listed as :meth:`Formula.__reduce__` lists them."""
    nodes: list[Formula] = []
    for op in ops:
        nodes.append(Atom(op) if type(op) is str else op[0](*[nodes[i] for i in op[1:]]))
    return nodes[-1]


class _Entry(weakref.ref):
    """A table entry: a weak reference to a node, which knows its key."""

    __slots__ = ("key",)


_TABLE: dict[tuple, _Entry] = {}
# Held while an entry is published or removed.  Reentrant, so that a node
# dying while a thread holds it, whose _forget then runs on that same
# thread, cannot deadlock.
_TABLE_LOCK = threading.RLock()


def _forget(entry: _Entry, table=_TABLE, lock=_TABLE_LOCK) -> None:
    # Called when the node dies.  The entry may already have been replaced
    # by a newer node of the same formula, which must stay.  Defaults bind
    # the table, so this still works while the interpreter shuts down.
    with lock:
        if table.get(entry.key) is entry:
            del table[entry.key]


def _intern(cls: type, args: tuple) -> Formula:
    fields = cls.__dataclass_fields__
    if len(args) != len(fields):
        raise TypeError(f"{cls.__name__} takes {len(fields)} arguments, got {len(args)}")
    kids = args
    if cls is Atom:
        name = args[0]
        if not (isinstance(name, str) and _ATOM_NAME.match(name)):
            raise ValueError(f"invalid atom name {name!r}")
        kids = ()
    node = object.__new__(cls)
    cache = node.__dict__
    cache.update(zip(fields, args))
    cache["kids"] = kids
    try:
        cache["height"] = 1 + max([k.height for k in kids], default=0)
    except AttributeError:
        bad = next(k for k in kids if not isinstance(k, Formula))
        raise TypeError(f"{cls.__name__} operand is not a formula: {bad!r}") from None
    # The normal form, from the children's: a derived type's expansion, a
    # core node rebuilt if some child (of at most two) is not normal, or None.
    expand = _EXPANSIONS.get(cls)
    if expand is not None:
        normal = expand(*[k._normal or k for k in kids])
    elif kids and (kids[0]._normal or kids[-1]._normal):
        normal = cls(*[k._normal or k for k in kids])
    else:
        normal = None
    cache["_normal"] = normal
    key = (cls, *args)
    entry = _Entry(node, _forget)
    entry.key = key
    with _TABLE_LOCK:
        published = _TABLE.get(key)
        found = published() if published is not None else None
        if found is None:
            _TABLE[key] = entry
            return node
    return found


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Top(Formula):
    pass


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Bot(Formula):
    pass


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, eq=False, init=False, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, init=False, repr=False)
class U(Formula):
    child: Formula


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Kh(Formula):
    cond: Formula
    goal: Formula


@dataclass(frozen=True, eq=False, init=False, repr=False)
class KhPlus(Formula):
    cond: Formula
    goal: Formula


def formula_height(phi: Formula) -> int:
    """Height of the AST (a leaf has height 1)."""
    if not isinstance(phi, Formula):
        raise TypeError(f"not a formula: {phi!r}")
    return phi.height


_HEIGHT = attrgetter("height")


def _subterms(phi: Formula, leaves: tuple[type, ...] = ()) -> list[Formula]:
    """The distinct subterms of ``phi`` (equal nodes are one object), each
    after its children, so ``phi`` comes last.  The children of a node whose
    type is in ``leaves`` are not visited, unless another path reaches
    them.  A node is higher than each of its children, so ordering the
    nodes by their cached height puts children first."""
    if not isinstance(phi, Formula):
        raise TypeError(f"not a formula: {phi!r}")
    seen: dict[Formula, None] = {}  # insertion-ordered, for a deterministic order
    stack = [phi]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen[node] = None
            if type(node) not in leaves:
                stack += node.kids
    return sorted(seen, key=_HEIGHT)


def atom_names(phi: Formula) -> frozenset[str]:
    """All atom names occurring in ``phi``."""
    return frozenset(node.name for node in _subterms(phi) if type(node) is Atom)


# --- Tokenizer ------------------------------------------------------------

# One token per match, punctuation first: '<->', '->', one of "(),&|~", a
# word, or any other non-whitespace character.  Whitespace (Unicode's, so
# also U+00A0) matches nothing, so findall skips it.  The pattern has no
# groups, so findall returns the token texts in one C-level pass, and the
# parser works on those texts alone, with "" appended as the end of input.
# Offsets are computed by _offsets, from the same pattern, only when an
# error is raised.
_TOKEN = re.compile(r"<->|->|[(),&|~]|[A-Za-z][A-Za-z0-9_]*|\S")

# The texts the grammar names; "" is the end of input.  Any other text is
# an identifier if it starts with an ASCII lowercase letter, and no token
# otherwise.
_FIXED = frozenset({"<->", "->", "(", ")", ",", "&", "|", "~", "", *KEYWORDS})


class FormulaSyntaxError(ValueError):
    """Raised for malformed formula text.

    ``offset`` is the 1-based character position of the offending input;
    ``expected`` lists the token kinds that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)

    def __reduce__(self):
        # Rebuild from ``args``, the formatted message, without __init__.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


def _bad(words: Iterable[str]) -> list[str]:
    """The distinct texts among ``words`` that are no token: outside
    ``_FIXED`` and not starting with a letter in a-z ("{" follows "z")."""
    return [w for w in set(words) - _FIXED if not "a" <= w < "{"]


def _tokenize(text: str) -> list[str]:
    """The token texts of ``text``, then "" for the end of input."""
    tokens = _TOKEN.findall(text)
    tokens.append("")
    if _bad(tokens):
        _offsets(text)  # raises at the first bad token
    return tokens


def _offsets(text: str) -> list[int]:
    """The 1-based offset of each token of ``text``, then ``len(text) + 1``
    for the end of input.  Computed only for an error message; raises at
    the first text that is no token."""
    offsets = []
    for match in _TOKEN.finditer(text):
        word, pos = match.group(), match.start() + 1
        if _bad((word,)):
            # A word starting with a letter in A-Z ("[" follows "Z").
            what = "unknown keyword" if "A" <= word < "[" else "unexpected character"
            raise FormulaSyntaxError(f"{what} {word!r}", pos)
        offsets.append(pos)
    offsets.append(len(text) + 1)
    return offsets


# --- Parser ---------------------------------------------------------------
#
# Recursive descent over the grammar above, run as one loop.  Where the
# grammar would call itself for an operand, the parser pushes a continuation
# (what is left to do once that operand is complete) and parses the operand;
# a complete operand pops the top continuation and is handed to it.  Every
# continuation records the nesting depth of the operands it waits for.
#
#   (_CONJ, d, left)     conj: unary operands at depth d; `left` is the
#                        conjunction so far, None before the first operand
#   (_DISJ, d, left)     disj, the same over conj operands
#   (_PHI, d)            phi at depth d, once its disj is complete
#   (_APPLY, cls, *args) the last operand of cls: of '~' or 'U', or the
#                        right side of `left ->` (a phi) or `left <->` (a disj)
#   (_KH, cls, d, cond)  the condition (cond None) or goal of Kh or Khp
#   (_PAREN,)            the phi inside '(' ... ')'
#   (_END,)              the whole formula, which must end the input

_CONJ, _DISJ, _PHI, _APPLY, _KH, _PAREN, _END = range(7)

_UNARY_EXPECTED = ("'~'", "'U'", "'Kh'", "'Khp'", "'top'", "'bot'", "identifier", "'('")
_END_EXPECTED = ("'->'", "'<->'", "'|'", "'&'", "end of input")


def _unexpected(text: str, tokens: list[str], i: int, expected: tuple[str, ...]) -> FormulaSyntaxError:
    what = f"token {tokens[i]!r}" if tokens[i] else "end of input"
    return FormulaSyntaxError(f"unexpected {what}", _offsets(text)[i], expected)


def _too_deep(text: str, i: int) -> FormulaSyntaxError:
    return FormulaSyntaxError(f"nesting depth exceeds {MAX_NESTING_DEPTH}", _offsets(text)[i])


def parse_formula(text: str) -> Formula:
    """Parse ``text`` into a :class:`Formula`.

    Raises :class:`FormulaSyntaxError` with a 1-based character offset and
    the set of expected tokens on malformed input.
    """
    tokens = _tokenize(text)
    i = 0
    depth = 1  # of the unary formula to parse next
    stack: list[tuple] = [(_END,), (_PHI, 1), (_DISJ, 1, None), (_CONJ, 1, None)]
    value = None  # the operand just completed; None while parsing a unary
    while True:
        kind = tokens[i]
        if value is None:
            if depth > MAX_NESTING_DEPTH:
                raise _too_deep(text, i)
            i += 1
            if kind not in _FIXED:
                value = Atom(kind)
            elif kind == "~" or kind == "U":
                stack.append((_APPLY, Not if kind == "~" else U))
                depth += 1
            elif kind == "(":
                depth += 1
                stack += (_PAREN,), (_PHI, depth), (_DISJ, depth, None), (_CONJ, depth, None)
            elif kind == "Kh" or kind == "Khp":
                if tokens[i] != "(":
                    raise _unexpected(text, tokens, i, ("'('",))
                i += 1
                depth += 1
                cls = Kh if kind == "Kh" else KhPlus
                stack += (_KH, cls, depth, None), (_PHI, depth), (_DISJ, depth, None), (_CONJ, depth, None)
            elif kind == "top":
                value = Top()
            elif kind == "bot":
                value = Bot()
            else:
                raise _unexpected(text, tokens, i - 1, _UNARY_EXPECTED)
            continue
        frame = stack.pop()
        code = frame[0]
        if code == _CONJ:
            if frame[2] is not None:
                value = And(frame[2], value)
            if kind == "&":
                depth = frame[1] + 1
                if depth > MAX_NESTING_DEPTH:
                    raise _too_deep(text, i)
                i += 1
                stack.append((_CONJ, depth, value))
                value = None
        elif code == _DISJ:
            if frame[2] is not None:
                value = Or(frame[2], value)
            if kind == "|":
                depth = frame[1] + 1
                if depth > MAX_NESTING_DEPTH:
                    raise _too_deep(text, i)
                i += 1
                stack += (_DISJ, depth, value), (_CONJ, depth, None)
                value = None
        elif code == _PHI:
            if kind == "->" or kind == "<->":
                depth = frame[1] + 1
                if depth > MAX_NESTING_DEPTH:
                    raise _too_deep(text, i)
                i += 1
                if kind == "->":
                    stack += (_APPLY, Implies, value), (_PHI, depth), (_DISJ, depth, None), (_CONJ, depth, None)
                else:
                    stack += (_APPLY, Iff, value), (_DISJ, depth, None), (_CONJ, depth, None)
                value = None
        elif code == _APPLY:
            value = frame[1](*frame[2:], value)
        elif code == _PAREN:
            if kind != ")":
                raise _unexpected(text, tokens, i, ("')'",))
            i += 1
        elif code == _KH:
            _, cls, d, cond = frame
            if cond is None:
                if kind != ",":
                    raise _unexpected(text, tokens, i, ("','",))
                i += 1
                depth = d
                stack += (_KH, cls, d, value), (_PHI, d), (_DISJ, d, None), (_CONJ, d, None)
                value = None
            else:
                if kind != ")":
                    raise _unexpected(text, tokens, i, ("')'",))
                i += 1
                value = cls(cond, value)
        else:  # _END
            if kind:
                raise _unexpected(text, tokens, i, _END_EXPECTED)
            return value


# --- Printer --------------------------------------------------------------

# Binding strength; higher binds tighter.  Atoms and Kh/Khp applications are
# self-delimiting.
_LEVEL_IMP = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNARY = 4
_LEVEL_ATOM = 5

# Each node type's level, the text before its first child and, for each
# child, the level below which it is printed in parentheses and the text
# after it.
_LAYOUT: dict[type, tuple[int, str, tuple[tuple[int, str], ...]]] = {
    Top: (_LEVEL_ATOM, "top", ()),
    Bot: (_LEVEL_ATOM, "bot", ()),
    Not: (_LEVEL_UNARY, "~", ((_LEVEL_UNARY, ""),)),
    U: (_LEVEL_UNARY, "U ", ((_LEVEL_UNARY, ""),)),
    And: (_LEVEL_AND, "", ((_LEVEL_AND, " & "), (_LEVEL_AND + 1, ""))),
    Or: (_LEVEL_OR, "", ((_LEVEL_OR, " | "), (_LEVEL_OR + 1, ""))),
    Implies: (_LEVEL_IMP, "", ((_LEVEL_IMP + 1, " -> "), (_LEVEL_IMP, ""))),
    Iff: (_LEVEL_IMP, "", ((_LEVEL_IMP + 1, " <-> "), (_LEVEL_IMP + 1, ""))),
    Kh: (_LEVEL_ATOM, "Kh(", ((0, ", "), (0, ")"))),
    KhPlus: (_LEVEL_ATOM, "Khp(", ((0, ", "), (0, ")"))),
}


def print_formula(phi: Formula) -> str:
    """Concrete syntax for ``phi``.  ``parse_formula`` inverts it exactly
    while the printed text nests at most 10,000 levels, and the text can
    nest deeper than ``phi`` is high: a right-nested conjunction
    ``And(q, And(q, ... p))`` prints as ``q & (q & (...))``, where each
    level's ``&`` and ``(`` both count toward the parser's nesting depth,
    so it round-trips up to height 5,001 and its text is rejected from
    height 5,002."""
    out: list[str] = []
    stack: list = [(phi, 0)]  # (node, min level) pairs and text still to print
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, min_level = item
        if type(node) is Atom:
            out.append(node.name)
            continue
        layout = _LAYOUT.get(type(node))
        if layout is None:
            raise TypeError(f"not a formula: {node!r}")
        level, prefix, slots = layout
        if level < min_level:
            out.append("(")
            stack.append(")")
        out.append(prefix)
        for kid, (kid_level, after) in zip(reversed(node.kids), reversed(slots)):
            stack.append(after)
            stack.append((kid, kid_level))
    return "".join(out)


# --- Normalization --------------------------------------------------------


# Each derived type's expansion into the core, applied by _intern to the
# normal forms of a new node's children.  Every node an expansion builds has
# normal children, so it is its own normal form.
_EXPANSIONS = {
    Bot: lambda: Not(Top()),
    Or: lambda a, b: Not(And(Not(a), Not(b))),
    Implies: lambda a, b: Not(And(a, Not(b))),
    Iff: lambda a, b: And(Not(And(a, Not(b))), Not(And(b, Not(a)))),  # (a -> b) & (b -> a)
    U: lambda a: Kh(Not(a), Not(Top())),
    KhPlus: lambda a, b: And(Kh(a, b), Not(Kh(Not(Not(And(a, Not(b)))), Not(Top())))),  # Kh(a, b) & ~U(a -> b)
}


def normalize(phi: Formula) -> Formula:
    """Rewrite ``phi`` to use only Top, Atom, Not, And and Kh.

    ``bot``, ``|``, ``->`` and ``<->`` expand classically; ``U a`` becomes
    ``Kh(~a, ~top)`` and ``Khp(a, b)`` becomes ``Kh(a, b) & ~U(a -> b)``
    (then expanded recursively).  Idempotent, and ``normalize(c) is c`` for
    a core formula ``c``.  Every node is built with its normal form (see
    :class:`Formula`), so this is one read.  Although ``<->`` and ``Khp``
    mention their operands twice, the result shares them, so it has size
    linear in the input.
    """
    if not isinstance(phi, Formula):
        raise TypeError(f"not a formula: {phi!r}")
    return phi._normal or phi


# --- Substitution ---------------------------------------------------------


def substitute_all(phi: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace every atom named in ``mapping``."""
    for letter, replacement in mapping.items():
        if not isinstance(replacement, Formula):
            raise TypeError(f"replacement for {letter!r} is not a formula: {replacement!r}")
    image: dict[Formula, Formula] = {}
    for node in _subterms(phi):
        if type(node) is Atom:
            image[node] = mapping.get(node.name, node)
        else:
            image[node] = type(node)(*[image[k] for k in node.kids])
    return image[phi]


def substitute(phi: Formula, letter: str, replacement: Formula) -> Formula:
    """Uniformly replace every occurrence of the atom ``letter`` in ``phi``."""
    return substitute_all(phi, {letter: replacement})
