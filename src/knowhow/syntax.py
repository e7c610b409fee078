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

Atom names match ``[a-z][a-zA-Z0-9_]*`` and must not be keywords.  The
maximum nesting depth of a parsed formula is 10,000; deeper input is a
hard error.

Formula nodes are immutable and interned through one process-wide weak
table, whose miss path publishes under a lock (see :class:`Formula`), so
structurally equal formulas are one object and ``==`` is ``is``.  Each node
caches its normal form.  Apart from the table and those caches, which never
change a result, all functions are pure.
"""

from __future__ import annotations

import re
import sys
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, TypeVar

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
    "children",
    "formula_height",
    "atom_names",
    "MAX_NESTING_DEPTH",
]

MAX_NESTING_DEPTH = 10_000

KEYWORDS = frozenset({"top", "bot", "Kh", "Khp", "U"})

_ATOM_NAME = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")


class Formula:
    """Base class of all formula nodes.

    Nodes are interned (hash-consed): constructing a node looks it up in
    one process-wide table keyed by ``(class, *kids)``, or ``(Atom, name)``,
    and only a miss builds a new node.  So structurally equal formulas are
    one object, ``==`` is ``is`` and the hash is the identity hash.  The
    table holds its nodes weakly: an entry leaves it when its node dies, so
    it holds only live formulas.  A miss validates the atom name (or the
    arity), builds the node and then, under ``_TABLE_LOCK``, publishes it
    unless another thread published the same formula first, in which case
    that node is returned; so two threads building the same formula get the
    same object.

    Each node caches its children (``kids``, left to right), its ``height``
    (a leaf has height 1) and, once :func:`normalize` has seen it, its
    normal form.
    """

    def __new__(cls, *args: object) -> Formula:
        entry = _TABLE.get((cls, *args))
        node = entry() if entry is not None else None
        return node if node is not None else _intern(cls, args)

    def __reduce__(self):
        # Rebuild through the constructor, which re-interns the node.
        return type(self), tuple(getattr(self, f) for f in self.__dataclass_fields__)

    def __str__(self) -> str:
        return print_formula(self)


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
        if not _ATOM_NAME.match(name) or name in KEYWORDS:
            raise ValueError(f"invalid atom name {name!r}")
        kids = ()
    node = object.__new__(cls)
    cache = node.__dict__
    cache.update(zip(fields, args))
    cache["kids"] = kids
    cache["height"] = 1 + max([k.height for k in kids], default=0)
    cache["_normal"] = None  # see normalize
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


@dataclass(frozen=True, eq=False, init=False)
class Top(Formula):
    pass


@dataclass(frozen=True, eq=False, init=False)
class Bot(Formula):
    pass


@dataclass(frozen=True, eq=False, init=False)
class Atom(Formula):
    name: str


@dataclass(frozen=True, eq=False, init=False)
class Not(Formula):
    child: Formula


@dataclass(frozen=True, eq=False, init=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, init=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, init=False)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, init=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False, init=False)
class U(Formula):
    child: Formula


@dataclass(frozen=True, eq=False, init=False)
class Kh(Formula):
    cond: Formula
    goal: Formula


@dataclass(frozen=True, eq=False, init=False)
class KhPlus(Formula):
    cond: Formula
    goal: Formula


def children(phi: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of ``phi``, left to right."""
    return phi.kids


def formula_height(phi: Formula) -> int:
    """Height of the AST (a leaf has height 1)."""
    return phi.height


def atom_names(phi: Formula) -> frozenset[str]:
    """All atom names occurring in ``phi``."""
    names: set[str] = set()
    stack = [phi]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            names.add(node.name)
        else:
            stack.extend(children(node))
    return frozenset(names)


# --- Deep-recursion guard -------------------------------------------------
#
# CPython's main thread segfaults well below the recursion depths the
# 10,000-level nesting contract requires, so operations on large inputs are
# shipped to a worker thread with a big stack.  `threading.stack_size` and
# the recursion limit are process-global, hence the lock: the first deep
# call raises the limit before its worker starts, and the last one to finish
# restores it, so concurrent deep calls never lower it under each other.

_INLINE_TOKEN_LIMIT = 1_500
_INLINE_HEIGHT_LIMIT = 1_500
_WORKER_STACK_BYTES = 256 * 1024 * 1024
_WORKER_RECURSION_LIMIT = 150_000
_SPAWN_LOCK = threading.Lock()
_deep_workers = 0  # running deep workers; guarded by _SPAWN_LOCK
_saved_recursion_limit = 0  # the limit before the first of them started

_T = TypeVar("_T")


def _run_deep(fn: Callable[[], _T]) -> _T:
    global _deep_workers, _saved_recursion_limit
    results: list[_T] = []
    errors: list[BaseException] = []

    def runner() -> None:
        try:
            results.append(fn())
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    with _SPAWN_LOCK:
        if _deep_workers == 0:
            _saved_recursion_limit = sys.getrecursionlimit()
            sys.setrecursionlimit(max(_saved_recursion_limit, _WORKER_RECURSION_LIMIT))
        _deep_workers += 1
    try:
        with _SPAWN_LOCK:
            old_size = threading.stack_size(_WORKER_STACK_BYTES)
            try:
                thread = threading.Thread(target=runner, name="knowhow-deep")
                thread.start()
            finally:
                threading.stack_size(old_size)
        thread.join()
    finally:
        with _SPAWN_LOCK:
            _deep_workers -= 1
            if _deep_workers == 0:
                sys.setrecursionlimit(_saved_recursion_limit)
    if errors:
        raise errors[0]
    return results[0]


def _guarded(phi: Formula, fn: Callable[[], _T]) -> _T:
    if formula_height(phi) > _INLINE_HEIGHT_LIMIT:
        return _run_deep(fn)
    return fn()


# --- Tokenizer ------------------------------------------------------------

# One token per match, punctuation first; whitespace matches nothing, so
# finditer skips it, and any other character falls through to the last group.
_TOKEN = re.compile(r"(<->|->|[(),&|~])|([A-Za-z][A-Za-z0-9_]*)|(\S)")


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


class _Token(NamedTuple):
    kind: str  # punctuation, keyword, "ident" or "end"
    text: str
    pos: int  # 1-based character offset


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for match in _TOKEN.finditer(text):
        punct, word, other = match.groups()
        pos = match.start() + 1
        if punct:
            tokens.append(_Token(punct, punct, pos))
        elif word in KEYWORDS:
            tokens.append(_Token(word, word, pos))
        elif word and word[0].islower():
            tokens.append(_Token("ident", word, pos))
        elif word:
            raise FormulaSyntaxError(f"unknown keyword {word!r}", pos)
        else:
            raise FormulaSyntaxError(f"unexpected character {other!r}", pos)
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


# --- Parser ---------------------------------------------------------------

_UNARY_EXPECTED = ("'~'", "'U'", "'Kh'", "'Khp'", "'top'", "'bot'", "identifier", "'('")


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise FormulaSyntaxError(
                f"unexpected {self._describe(tok)}", tok.pos, expected
            )
        return self.advance()

    @staticmethod
    def _describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "end" else f"token {tok.text!r}"

    def _check_depth(self, depth: int, pos: int) -> None:
        if depth > MAX_NESTING_DEPTH:
            raise FormulaSyntaxError(
                f"nesting depth exceeds {MAX_NESTING_DEPTH}", pos
            )

    def parse(self) -> Formula:
        phi = self.phi(1)
        tok = self.peek()
        if tok.kind != "end":
            raise FormulaSyntaxError(
                f"unexpected {self._describe(tok)}",
                tok.pos,
                ("'->'", "'<->'", "'|'", "'&'", "end of input"),
            )
        return phi

    def phi(self, depth: int) -> Formula:
        left = self.disj(depth)
        tok = self.peek()
        if tok.kind == "->":
            self.advance()
            self._check_depth(depth + 1, tok.pos)
            return Implies(left, self.phi(depth + 1))
        if tok.kind == "<->":
            self.advance()
            self._check_depth(depth + 1, tok.pos)
            return Iff(left, self.disj(depth + 1))
        return left

    def disj(self, depth: int) -> Formula:
        node = self.conj(depth)
        d = depth
        while self.peek().kind == "|":
            tok = self.advance()
            d += 1
            self._check_depth(d, tok.pos)
            node = Or(node, self.conj(d))
        return node

    def conj(self, depth: int) -> Formula:
        node = self.unary(depth)
        d = depth
        while self.peek().kind == "&":
            tok = self.advance()
            d += 1
            self._check_depth(d, tok.pos)
            node = And(node, self.unary(d))
        return node

    def unary(self, depth: int) -> Formula:
        tok = self.peek()
        self._check_depth(depth, tok.pos)
        if tok.kind == "~":
            self.advance()
            return Not(self.unary(depth + 1))
        if tok.kind == "U":
            self.advance()
            return U(self.unary(depth + 1))
        if tok.kind in ("Kh", "Khp"):
            self.advance()
            self.expect("(", ("'('",))
            cond = self.phi(depth + 1)
            self.expect(",", ("','",))
            goal = self.phi(depth + 1)
            self.expect(")", ("')'",))
            return Kh(cond, goal) if tok.kind == "Kh" else KhPlus(cond, goal)
        if tok.kind == "top":
            self.advance()
            return Top()
        if tok.kind == "bot":
            self.advance()
            return Bot()
        if tok.kind == "ident":
            self.advance()
            return Atom(tok.text)
        if tok.kind == "(":
            self.advance()
            inner = self.phi(depth + 1)
            self.expect(")", ("')'",))
            return inner
        raise FormulaSyntaxError(
            f"unexpected {self._describe(tok)}", tok.pos, _UNARY_EXPECTED
        )


def parse_formula(text: str) -> Formula:
    """Parse ``text`` into a :class:`Formula`.

    Raises :class:`FormulaSyntaxError` with a 1-based character offset and
    the set of expected tokens on malformed input.
    """
    tokens = _tokenize(text)
    if len(tokens) > _INLINE_TOKEN_LIMIT:
        return _run_deep(_Parser(tokens).parse)
    return _Parser(tokens).parse()


# --- Printer --------------------------------------------------------------

# Binding strength; higher binds tighter.  Atoms and Kh/Khp applications are
# self-delimiting.
_LEVEL_IMP = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNARY = 4
_LEVEL_ATOM = 5


def _level(phi: Formula) -> int:
    if isinstance(phi, (Implies, Iff)):
        return _LEVEL_IMP
    if isinstance(phi, Or):
        return _LEVEL_OR
    if isinstance(phi, And):
        return _LEVEL_AND
    if isinstance(phi, (Not, U)):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def _print(phi: Formula) -> str:
    if isinstance(phi, Top):
        return "top"
    if isinstance(phi, Bot):
        return "bot"
    if isinstance(phi, Atom):
        return phi.name
    if isinstance(phi, Not):
        return "~" + _print_at(phi.child, _LEVEL_UNARY)
    if isinstance(phi, U):
        return "U " + _print_at(phi.child, _LEVEL_UNARY)
    if isinstance(phi, And):
        return _print_at(phi.left, _LEVEL_AND) + " & " + _print_at(phi.right, _LEVEL_AND + 1)
    if isinstance(phi, Or):
        return _print_at(phi.left, _LEVEL_OR) + " | " + _print_at(phi.right, _LEVEL_OR + 1)
    if isinstance(phi, Implies):
        return _print_at(phi.left, _LEVEL_IMP + 1) + " -> " + _print_at(phi.right, _LEVEL_IMP)
    if isinstance(phi, Iff):
        return _print_at(phi.left, _LEVEL_IMP + 1) + " <-> " + _print_at(phi.right, _LEVEL_IMP + 1)
    if isinstance(phi, Kh):
        return f"Kh({_print(phi.cond)}, {_print(phi.goal)})"
    if isinstance(phi, KhPlus):
        return f"Khp({_print(phi.cond)}, {_print(phi.goal)})"
    raise TypeError(f"not a formula: {phi!r}")


def _print_at(phi: Formula, min_level: int) -> str:
    text = _print(phi)
    return "(" + text + ")" if _level(phi) < min_level else text


def print_formula(phi: Formula) -> str:
    """Concrete syntax for ``phi``; ``parse_formula`` inverts it exactly."""
    return _guarded(phi, lambda: _print(phi))


# --- Normalization --------------------------------------------------------


_UNCHANGED = object()  # cached on a node that is its own normal form


def _normalize(phi: Formula) -> Formula:
    normal = phi._normal
    if normal is not None:
        return phi if normal is _UNCHANGED else normal
    kids = [_normalize(k) for k in phi.kids]
    if isinstance(phi, (Top, Atom)):
        result = phi
    elif isinstance(phi, Bot):
        result = Not(Top())
    elif isinstance(phi, (Not, And, Kh)):
        result = type(phi)(*kids)
    elif isinstance(phi, Or):
        result = Not(And(Not(kids[0]), Not(kids[1])))
    elif isinstance(phi, Implies):
        result = Not(And(kids[0], Not(kids[1])))
    elif isinstance(phi, Iff):  # (a -> b) & (b -> a)
        result = And(Not(And(kids[0], Not(kids[1]))), Not(And(kids[1], Not(kids[0]))))
    elif isinstance(phi, U):
        result = Kh(Not(kids[0]), Not(Top()))
    elif isinstance(phi, KhPlus):  # Kh(a, b) & ~U(a -> b)
        implies = Not(And(kids[0], Not(kids[1])))
        result = And(Kh(*kids), Not(Kh(Not(implies), Not(Top()))))
    else:
        raise TypeError(f"not a formula: {phi!r}")
    # A node never holds itself, which would be a reference cycle that
    # keeps dead formulas alive until the garbage collector runs.  Threads
    # that race here compute the same interned result, so either write wins.
    result.__dict__["_normal"] = _UNCHANGED
    if result is not phi:
        phi.__dict__["_normal"] = result
    return result


def normalize(phi: Formula) -> Formula:
    """Rewrite ``phi`` to use only Top, Atom, Not, And and Kh.

    ``bot``, ``|``, ``->`` and ``<->`` expand classically; ``U a`` becomes
    ``Kh(~a, ~top)`` and ``Khp(a, b)`` becomes ``Kh(a, b) & ~U(a -> b)``
    (then expanded recursively).  Idempotent, and ``normalize(c) is c`` for
    a core formula ``c``.  The normal form is cached on the node (a normal
    form is marked as its own), so each interned subterm is normalized once
    per process and a repeated call is O(1).  Although ``<->`` and ``Khp``
    mention their operands twice, the result shares them, so it has size
    linear in the input.
    """
    if phi._normal is None:
        return _guarded(phi, lambda: _normalize(phi))
    return _normalize(phi)


# --- Substitution ---------------------------------------------------------


def _substitute_all(phi: Formula, mapping: Mapping[str, Formula]) -> Formula:
    if isinstance(phi, Atom):
        return mapping.get(phi.name, phi)
    if not phi.kids:
        return phi
    return type(phi)(*(_substitute_all(k, mapping) for k in phi.kids))


def substitute_all(phi: Formula, mapping: Mapping[str, Formula]) -> Formula:
    """Simultaneously replace every atom named in ``mapping``."""
    if not mapping:
        return phi
    return _guarded(phi, lambda: _substitute_all(phi, mapping))


def substitute(phi: Formula, letter: str, replacement: Formula) -> Formula:
    """Uniformly replace every occurrence of the atom ``letter`` in ``phi``."""
    return substitute_all(phi, {letter: replacement})
