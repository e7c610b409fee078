"""Hilbert-style proof checking.

A proof is a numbered list of lines, each carrying a formula and a
justification: ``taut`` (propositional tautology over abstracted modal
units), a named axiom schema instance with an explicit letter binding,
modus ponens, universal necessitation (from ``phi`` infer ``U phi``),
uniform substitution of an earlier line, or (in hypothesis mode) a
reference to a numbered hypothesis.

Axiom schemas::

    DISTU   U p & U(p -> q) -> U q
    COMPKh  Kh(p, r) & Kh(r, q) -> Kh(p, q)
    EMP     U(p -> q) -> Kh(p, q)
    TU      U p -> p
    4KU     Kh(p, q) -> U Kh(p, q)
    5KU     ~Kh(p, q) -> U ~Kh(p, q)

Equality of formulas is taken up to :func:`~knowhow.syntax.normalize` for
axiom instances, modus ponens and necessitation, so lines spelled with
``U`` unify with their ``Kh(~phi, bot)`` expansions; substitution and
hypothesis citations are checked structurally, since substitution is a
purely syntactic rule.  Formulas are interned, so both checks compare
identities: structural equality is ``is``, and equality up to
normalization is ``normalize(a) is normalize(b)``, O(1) since every node
is built with its normal form.

Proof file format (UTF-8; ``#`` starts a comment)::

    hypothesis <formula>                  # optional, numbered 1.. in order
    <n>. <formula> ; taut
    <n>. <formula> ; axiom <NAME> <letter>=<formula> ...
    <n>. <formula> ; mp <i> <j>           # line j is (line i -> this)
    <n>. <formula> ; necu <i>
    <n>. <formula> ; sub <i> <letter> <formula>
    <n>. <formula> ; hyp <h>

Each rule of the format is stated once.  Line labels and references are
ASCII digits (``_LINE_NUMBER``).  A ``sub`` letter and a bound letter
follow the formula language's atom rule (``syntax._ATOM_NAME``); a
binding starts at the beginning of the binding text or after whitespace,
and :func:`instantiate_axiom` alone decides which letters a schema takes.
``mp``, ``necu`` and ``sub`` check the lines they cite in one place,
before the rule's own check.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .syntax import (
    And,
    Atom,
    Formula,
    FormulaSyntaxError,
    Implies,
    Kh,
    Not,
    U,
    _ATOM_NAME,
    _subterms,
    atom_names,
    normalize,
    parse_formula,
    substitute,
    substitute_all,
)

__all__ = [
    "Taut",
    "AxiomInst",
    "MP",
    "NecU",
    "Sub",
    "Hyp",
    "Justification",
    "ProofLine",
    "Proof",
    "ProofVerdict",
    "ProofFormatError",
    "TautologyBudgetError",
    "ProofDocument",
    "TheoremEntry",
    "AXIOM_SCHEMAS",
    "instantiate_axiom",
    "is_tautology",
    "check_proof",
    "check_proof_under",
    "theorem_db",
    "parse_proof",
]

AXIOM_SCHEMAS: dict[str, Formula] = {
    "DISTU": parse_formula("U p & U(p -> q) -> U q"),
    "COMPKh": parse_formula("Kh(p, r) & Kh(r, q) -> Kh(p, q)"),
    "EMP": parse_formula("U(p -> q) -> Kh(p, q)"),
    "TU": parse_formula("U p -> p"),
    "4KU": parse_formula("Kh(p, q) -> U Kh(p, q)"),
    "5KU": parse_formula("~Kh(p, q) -> U ~Kh(p, q)"),
}

TAUTOLOGY_LETTER_BUDGET = 20


class TautologyBudgetError(ValueError):
    """Raised when a tautology check would need more than 20 distinct units."""


class ProofFormatError(ValueError):
    """Raised for malformed proof text; ``line`` is the 1-based file line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


# --- Justifications -------------------------------------------------------


@dataclass(frozen=True)
class Taut:
    pass


@dataclass(frozen=True)
class AxiomInst:
    name: str
    binding: Mapping[str, Formula]

    def __post_init__(self) -> None:
        object.__setattr__(self, "binding", dict(self.binding))

    def __hash__(self) -> int:
        return hash((self.name, frozenset(self.binding.items())))


@dataclass(frozen=True)
class MP:
    premise: int
    implication: int


@dataclass(frozen=True)
class NecU:
    premise: int


@dataclass(frozen=True)
class Sub:
    premise: int
    letter: str
    replacement: Formula


@dataclass(frozen=True)
class Hyp:
    index: int


Justification = Union[Taut, AxiomInst, MP, NecU, Sub, Hyp]


@dataclass(frozen=True)
class ProofLine:
    index: int
    formula: Formula
    justification: Justification


@dataclass(frozen=True)
class Proof:
    lines: tuple[ProofLine, ...]


@dataclass(frozen=True)
class ProofVerdict:
    """``accepted`` or rejected at ``line`` with ``reason``."""

    accepted: bool
    line: Optional[int] = None
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.accepted


@dataclass(frozen=True)
class ProofDocument:
    """A parsed proof file: hypotheses (possibly none) plus the derivation."""

    hypotheses: tuple[Formula, ...]
    proof: Proof


@dataclass(frozen=True)
class TheoremEntry:
    name: str
    formula: Formula
    proof: Proof


# --- Axiom instantiation ---------------------------------------------------


# The letters of a schema, taken from the schema being instantiated, so that
# an edited AXIOM_SCHEMAS is read as it is at call time.  Formulas are
# interned, so the memo is keyed by the schema itself; it is bounded, so
# schemas swapped in and out do not pile up.
_schema_letters = functools.lru_cache(maxsize=64)(atom_names)


def instantiate_axiom(name: str, binding: Mapping[str, Formula]) -> Formula:
    """The named schema with its letters simultaneously replaced.

    Raises ``KeyError`` for an unknown schema and ``ValueError`` when the
    binding leaves out a letter of the schema or names one it does not use.
    """
    schema = AXIOM_SCHEMAS[name]
    letters = _schema_letters(schema)
    missing = letters - set(binding)
    if missing:
        raise ValueError(f"binding for axiom {name} is missing letter {min(missing)!r}")
    extra = set(binding) - letters
    if extra:
        raise ValueError(f"axiom {name} does not use letter {min(extra)!r}")
    return substitute_all(schema, binding)


# --- Tautology check -------------------------------------------------------


# A block of truth-table rows holds every assignment to the first 12
# units, one row per bit of an int (4,096 bits, 512 bytes, per node).
_BLOCK_UNITS = 12


def is_tautology(phi: Formula) -> bool:
    """Decide propositional validity of ``phi`` by truth table.

    Each maximal Kh-rooted subformula of the normalization (``U`` and
    ``Khp`` included, via their expansions) is abstracted to a fresh
    propositional unit; identical subformulas share a unit.  Raises
    :class:`TautologyBudgetError` beyond 20 distinct units.

    The truth table is computed in row blocks: a node's value over a block
    is an ``int`` with one bit per row, the first 12 units vary within a
    block, and each block fixes the remaining units.  Each distinct
    Boolean node is evaluated once per block, children first.
    """
    core = normalize(phi)
    nodes = _subterms(core, (Kh,))
    units = [node for node in nodes if type(node) in (Atom, Kh)]
    connectives = [node for node in nodes if type(node) not in (Atom, Kh)]  # Top, Not, And
    if len(units) > TAUTOLOGY_LETTER_BUDGET:
        raise TautologyBudgetError(
            f"{len(units)} abstraction units exceed the budget of {TAUTOLOGY_LETTER_BUDGET}"
        )
    inner = min(len(units), _BLOCK_UNITS)
    full = (1 << (1 << inner)) - 1  # every row of a block
    # Unit j < inner is true in row r iff bit j of r is set, so its column
    # repeats 2**j clear bits, then 2**j set bits.  full // (2**2**j + 1)
    # sets the low 2**j bits of each such pair of runs; the shift moves them up.
    columns = [full // ((1 << (1 << j)) + 1) << (1 << j) for j in range(inner)]
    for block in range(1 << (len(units) - inner)):
        outer = [full if block >> j & 1 else 0 for j in range(len(units) - inner)]
        value = dict(zip(units, columns + outer))
        for node in connectives:
            kind = type(node)
            if kind is Not:
                value[node] = full ^ value[node.child]
            elif kind is And:
                value[node] = value[node.left] & value[node.right]
            else:
                value[node] = full
        if value[core] != full:
            return False
    return True


# --- Proof checking --------------------------------------------------------


def _norm_equal(a: Formula, b: Formula) -> bool:
    return normalize(a) is normalize(b)


def _check_line(
    line: ProofLine, earlier: list[Formula], hypotheses: tuple[Formula, ...]
) -> Optional[str]:
    just = line.justification
    if isinstance(just, Taut):
        if not is_tautology(line.formula):
            return "not a propositional tautology"
        return None
    if isinstance(just, AxiomInst):
        if just.name not in AXIOM_SCHEMAS:
            return f"unknown axiom {just.name!r}"
        try:
            instance = instantiate_axiom(just.name, just.binding)
        except ValueError as exc:
            return str(exc)
        if not _norm_equal(line.formula, instance):
            return f"does not match axiom {just.name} under the given binding"
        return None
    if isinstance(just, (MP, NecU, Sub)):
        cited = (just.premise, just.implication) if isinstance(just, MP) else (just.premise,)
        for ref in cited:
            if not 1 <= ref < line.index:
                return f"reference to line {ref} is out of range"
        premise = earlier[just.premise - 1]
        if isinstance(just, MP):
            if not _norm_equal(earlier[just.implication - 1], Implies(premise, line.formula)):
                return (
                    f"line {just.implication} is not (line {just.premise} -> this line) "
                    "up to normalization"
                )
        elif isinstance(just, NecU):
            if not _norm_equal(line.formula, U(premise)):
                return f"not U applied to line {just.premise} up to normalization"
        elif line.formula is not substitute(premise, just.letter, just.replacement):
            return f"not the result of substituting {just.letter!r} in line {just.premise}"
        return None
    if isinstance(just, Hyp):
        if not 1 <= just.index <= len(hypotheses):
            return f"hypothesis index {just.index} is out of range"
        if line.formula is not hypotheses[just.index - 1]:
            return f"does not match hypothesis {just.index}"
        return None
    return f"unknown justification {just!r}"


def check_proof_under(proof: Proof, hypotheses: Sequence[Formula] = ()) -> ProofVerdict:
    """Check every line; hypotheses may be cited with ``Hyp`` justifications.

    Hypotheses are treated as given theorems (necessitation and
    substitution may be applied to their consequences), which is the
    reading needed to replay rule-admissibility derivations.  A ``taut``
    line over the unit budget raises :class:`TautologyBudgetError` naming it.
    """
    hyps = tuple(hypotheses)
    if not proof.lines:
        return ProofVerdict(False, None, "proof has no lines")
    earlier: list[Formula] = []
    for position, line in enumerate(proof.lines, start=1):
        if line.index != position:
            return ProofVerdict(
                False, position, f"line numbered {line.index}, expected {position}"
            )
        try:
            reason = _check_line(line, earlier, hyps)
        except TautologyBudgetError as exc:
            raise TautologyBudgetError(f"line {line.index}: {exc}") from exc
        if reason is not None:
            return ProofVerdict(False, line.index, reason)
        earlier.append(line.formula)
    return ProofVerdict(True)


def check_proof(proof: Proof) -> ProofVerdict:
    """Check a hypothesis-free proof."""
    return check_proof_under(proof, ())


# --- Bundled theorem derivations -------------------------------------------


class _Builder:
    """Assembles proofs line by line; formulas may be given as text."""

    def __init__(self) -> None:
        self.lines: list[ProofLine] = []

    @staticmethod
    def _f(formula: Union[str, Formula]) -> Formula:
        return parse_formula(formula) if isinstance(formula, str) else formula

    def _add(self, formula: Union[str, Formula], just: Justification) -> int:
        index = len(self.lines) + 1
        self.lines.append(ProofLine(index, self._f(formula), just))
        return index

    def formula(self, index: int) -> Formula:
        return self.lines[index - 1].formula

    def taut(self, formula: Union[str, Formula]) -> int:
        return self._add(formula, Taut())

    def axiom(self, name: str, **binding: Union[str, Formula]) -> int:
        bound = {letter: self._f(f) for letter, f in binding.items()}
        return self._add(instantiate_axiom(name, bound), AxiomInst(name, bound))

    def axiom_shown(self, formula: Union[str, Formula], name: str, **binding: Union[str, Formula]) -> int:
        # Display formula spelled with U; matches the schema up to normalization.
        bound = {letter: self._f(f) for letter, f in binding.items()}
        return self._add(formula, AxiomInst(name, bound))

    def mp(self, premise: int, implication: int) -> int:
        impl = self.formula(implication)
        assert isinstance(impl, Implies) and impl.left == self.formula(premise)
        return self._add(impl.right, MP(premise, implication))

    def necu(self, premise: int) -> int:
        return self._add(U(self.formula(premise)), NecU(premise))

    def chain(self, premises: Sequence[int], conclusion: Union[str, Formula]) -> int:
        """Derive ``conclusion`` from earlier lines by one curried tautology
        (premise_1 -> ... -> premise_k -> conclusion) and k modus ponens."""
        target = self._f(conclusion)
        curried = target
        for index in reversed(premises):
            curried = Implies(self.formula(index), curried)
        step = self.taut(curried)
        for index in premises:
            step = self.mp(index, step)
        return step


def _prove_tri(b: _Builder) -> None:
    t = b.taut("p -> p")
    u = b.necu(t)
    emp = b.axiom("EMP", p="p", q="p")
    b.mp(u, emp)


def _prove_wskh(b: _Builder) -> None:
    e1 = b.axiom("EMP", p="p", q="r")
    e2 = b.axiom("EMP", p="o", q="q")
    c1 = b.axiom("COMPKh", p="p", r="r", q="o")
    c2 = b.axiom("COMPKh", p="p", r="o", q="q")
    b.chain([e1, e2, c1, c2], "U(p -> r) & U(o -> q) & Kh(r, o) -> Kh(p, q)")


def _prove_4u(b: _Builder) -> None:
    b.axiom_shown("U p -> U U p", "4KU", p="~p", q="bot")


def _prove_5u(b: _Builder) -> None:
    b.axiom_shown("~U p -> U ~U p", "5KU", p="~p", q="bot")


def _prove_cond(b: _Builder) -> None:
    t = b.taut("bot -> p")
    u = b.necu(t)
    emp = b.axiom("EMP", p="bot", q="p")
    b.mp(u, emp)


def _prove_uconj(b: _Builder) -> None:
    u1 = b.necu(b.taut("p & q -> p"))
    d1 = b.axiom("DISTU", p="p & q", q="p")
    u2 = b.necu(b.taut("p & q -> q"))
    d2 = b.axiom("DISTU", p="p & q", q="q")
    u3 = b.necu(b.taut("p -> (q -> p & q)"))
    d3 = b.axiom("DISTU", p="p", q="q -> p & q")
    d4 = b.axiom("DISTU", p="q", q="p & q")
    b.chain([u1, d1, u2, d2, u3, d3, d4], "U(p & q) <-> U p & U q")


def _prekh_lines(b: _Builder) -> int:
    # Case Kh(p, q): weaken the condition (Kh(p,q) & p entails p) and compose.
    cond = "Kh(p, q) & p"
    u1 = b.necu(b.taut(f"{cond} -> p"))
    e1 = b.axiom("EMP", p=cond, q="p")
    k1 = b.mp(u1, e1)
    c1 = b.axiom("COMPKh", p=cond, r="p", q="q")
    # Case ~Kh(p, q): the condition is then impossible, so compose through bot.
    f1 = b.axiom("5KU", p="p", q="q")
    u2 = b.necu(b.taut(f"~Kh(p, q) -> ({cond} -> bot)"))
    d1 = b.axiom("DISTU", p="~Kh(p, q)", q=f"{cond} -> bot")
    e2 = b.axiom("EMP", p=cond, q="bot")
    u3 = b.necu(b.taut("bot -> q"))
    e3 = b.axiom("EMP", p="bot", q="q")
    k2 = b.mp(u3, e3)
    c2 = b.axiom("COMPKh", p=cond, r="bot", q="q")
    return b.chain([k1, c1, f1, u2, d1, e2, k2, c2], f"Kh({cond}, q)")


def _prove_postkh(b: _Builder) -> None:
    prekh = _prekh_lines(b)
    comp = b.axiom("COMPKh", p="r", r="Kh(p, q) & p", q="q")
    b.chain([prekh, comp], "Kh(r, Kh(p, q) & p) -> Kh(r, q)")


def _prove_neckh_demo(b: _Builder) -> None:
    # The admissible necessitation for Kh, demonstrated on the theorem q -> q.
    t = b.taut("q -> q")
    weaken = b.taut("(q -> q) -> (p -> (q -> q))")
    imp = b.mp(t, weaken)
    u = b.necu(imp)
    emp = b.axiom("EMP", p="p", q="q -> q")
    b.mp(u, emp)


# Each row: name, the statement the derivation must end in, and the
# function that writes the derivation into the builder it is given.
_THEOREMS = (
    ("TRI", "Kh(p, p)", _prove_tri),
    ("WSKh", "U(p -> r) & U(o -> q) & Kh(r, o) -> Kh(p, q)", _prove_wskh),
    ("4U", "U p -> U U p", _prove_4u),
    ("5U", "~U p -> U ~U p", _prove_5u),
    ("COND", "Kh(bot, p)", _prove_cond),
    ("UCONJ", "U(p & q) <-> U p & U q", _prove_uconj),
    ("PREKh", "Kh(Kh(p, q) & p, q)", _prekh_lines),
    ("POSTKh", "Kh(r, Kh(p, q) & p) -> Kh(r, q)", _prove_postkh),
    ("NECKh", "Kh(p, q -> q)", _prove_neckh_demo),
)


@functools.lru_cache(maxsize=1)
def theorem_db() -> tuple[TheoremEntry, ...]:
    """Machine-checked derivations of the derivable theorems.

    Every entry's proof is hypothesis-free, ends in the entry's formula and
    is accepted by :func:`check_proof` (the test suite re-checks this; the
    NECKh entry demonstrates the admissible Kh-necessitation rule on one
    instance).
    """
    entries = []
    for name, statement, derive in _THEOREMS:
        b = _Builder()
        derive(b)
        entry = TheoremEntry(name, parse_formula(statement), Proof(tuple(b.lines)))
        assert entry.proof.lines[-1].formula == entry.formula
        entries.append(entry)
    return tuple(entries)


# --- Proof file parsing -----------------------------------------------------

# Line labels and references are ASCII digits; ``int()`` alone would also
# take other scripts' digits, signs, underscores and surrounding spaces.
_LINE_NUMBER = "[0-9]+"
_NUMBERED = re.compile(rf"({_LINE_NUMBER})\.\s*(.*)\Z")
_REFERENCE = re.compile(rf"{_LINE_NUMBER}\Z")
# A binding starts at the beginning of the text or after whitespace; the
# token before its '=' is a binding letter only if it passes ``_ATOM_NAME``.
_BINDING_START = re.compile(r"(?<!\S)([^\s=]+)=")


def _parse_formula_at(text: str, line_no: int, what: str = "formula") -> Formula:
    try:
        return parse_formula(text)
    except FormulaSyntaxError as exc:
        raise ProofFormatError(f"bad {what}: {exc}", line_no) from exc


def _parse_binding(text: str, line_no: int) -> dict[str, Formula]:
    matches = [m for m in _BINDING_START.finditer(text) if _ATOM_NAME.match(m.group(1))]
    if not matches:
        raise ProofFormatError("axiom justification needs letter bindings like p=<formula>", line_no)
    if text[: matches[0].start()].strip():
        raise ProofFormatError("unexpected text before first axiom binding", line_no)
    binding: dict[str, Formula] = {}
    for current, nxt in zip(matches, list(matches[1:]) + [None]):
        letter = current.group(1)
        if letter in binding:
            raise ProofFormatError(f"duplicate binding for letter {letter!r}", line_no)
        segment = text[current.end() : nxt.start() if nxt else len(text)].strip()
        if not segment:
            raise ProofFormatError(f"empty binding for letter {letter!r}", line_no)
        binding[letter] = _parse_formula_at(segment, line_no, f"binding for {letter!r}")
    return binding


def _parse_int(token: str, line_no: int) -> int:
    if not _REFERENCE.match(token):
        raise ProofFormatError(f"expected a line number, got {token!r}", line_no)
    try:
        return int(token)
    except ValueError:  # more digits than the interpreter converts
        raise ProofFormatError(f"line number of {len(token)} digits is too long", line_no) from None


def _parse_justification(text: str, line_no: int) -> Justification:
    parts = text.split(None, 1)
    if not parts:
        raise ProofFormatError("missing justification after ';'", line_no)
    keyword, rest = parts[0], parts[1] if len(parts) > 1 else ""
    if keyword == "taut":
        if rest:
            raise ProofFormatError("taut takes no arguments", line_no)
        return Taut()
    if keyword == "axiom":
        name_and_binding = rest.split(None, 1)
        if len(name_and_binding) != 2:
            raise ProofFormatError("want: axiom <NAME> p=<formula> ...", line_no)
        name, binding_text = name_and_binding
        return AxiomInst(name, _parse_binding(binding_text, line_no))
    if keyword == "mp":
        refs = rest.split()
        if len(refs) != 2:
            raise ProofFormatError("want: mp <premise-line> <implication-line>", line_no)
        return MP(_parse_int(refs[0], line_no), _parse_int(refs[1], line_no))
    if keyword == "necu":
        refs = rest.split()
        if len(refs) != 1:
            raise ProofFormatError("want: necu <line>", line_no)
        return NecU(_parse_int(refs[0], line_no))
    if keyword == "sub":
        pieces = rest.split(None, 2)
        if len(pieces) != 3:
            raise ProofFormatError("want: sub <line> <letter> <formula>", line_no)
        premise = _parse_int(pieces[0], line_no)
        if not _ATOM_NAME.match(pieces[1]):
            raise ProofFormatError(f"bad proposition letter {pieces[1]!r}", line_no)
        return Sub(
            premise, pieces[1], _parse_formula_at(pieces[2], line_no, "substitution replacement")
        )
    if keyword == "hyp":
        refs = rest.split()
        if len(refs) != 1:
            raise ProofFormatError("want: hyp <hypothesis-number>", line_no)
        return Hyp(_parse_int(refs[0], line_no))
    raise ProofFormatError(f"unknown justification keyword {keyword!r}", line_no)


def parse_proof(text: str) -> ProofDocument:
    """Parse the proof file format into hypotheses plus a :class:`Proof`."""
    hypotheses: list[Formula] = []
    lines: list[ProofLine] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        parts = stripped.split(None, 1)
        if parts[0] == "hypothesis":
            if len(parts) != 2:
                raise ProofFormatError("want: hypothesis <formula>", line_no)
            hypotheses.append(_parse_formula_at(parts[1], line_no, "hypothesis"))
            continue
        numbered = _NUMBERED.match(stripped)
        if not numbered:
            raise ProofFormatError("want: <n>. <formula> ; <justification>", line_no)
        index = _parse_int(numbered.group(1), line_no)
        body = numbered.group(2)
        if ";" not in body:
            raise ProofFormatError("missing ';' between formula and justification", line_no)
        formula_text, just_text = body.split(";", 1)
        formula = _parse_formula_at(formula_text.strip(), line_no)
        justification = _parse_justification(just_text.strip(), line_no)
        lines.append(ProofLine(index, formula, justification))
    return ProofDocument(tuple(hypotheses), Proof(tuple(lines)))


def format_verdict(verdict: ProofVerdict) -> str:
    """Render a verdict the way the command line prints it."""
    if verdict.accepted:
        return "ACCEPTED"
    if verdict.line is None:
        return f"REJECTED: {verdict.reason}"
    return f"REJECTED line {verdict.line}: {verdict.reason}"
