"""Model generation, bounded countermodel search and the soundness audit.

Random mode draws a deterministic stream from a seed: state count uniform
in ``[1, max_states]``, every possible labelled edge present independently
with probability 1/2, every letter true at every state with probability
1/2 (draw order: state count, then edges by action/source/target, then
valuation by state/letter).  Exhaustive mode enumerates every model with
exactly ``max_states`` states and ``max_actions`` actions in a fixed
canonical order (edge bitmask outer, valuation bitmask inner, low bits
first), so sparse models come first; the closed-form count is
:func:`exhaustive_size`.  Both streams are deterministic functions of the
configuration: identical configurations yield identical streams.  Both
modes build the masks that :class:`~knowhow.models.Model` stores, in that
order, for its unchecked constructor.  Exhaustive mode shares an edge
bitmask's successor rows across its valuations, but never a memo.

Bounded countermodel search is enumerate-then-check: it is a falsifier
for non-valid formulas, not a decision procedure for validity.
"""

from __future__ import annotations

import functools
import random
import string
from dataclasses import dataclass
from itertools import islice, product
from typing import Iterator, Optional

from .models import Model
from .proofs import AXIOM_SCHEMAS, theorem_db
from .semantics import Program, _compile, _run, _slices
from .syntax import _ATOM_NAME, Formula, atom_names, parse_formula

__all__ = [
    "GenConfig",
    "generate",
    "exhaustive_size",
    "find_countermodel",
    "soundness_audit",
    "AuditReport",
    "AuditViolation",
]

EXHAUSTIVE_MAX_STATES = 4
EXHAUSTIVE_MAX_ACTIONS = 2


@dataclass(frozen=True)
class GenConfig:
    """Configuration for model generation."""

    max_states: int
    max_actions: int
    letters: tuple[str, ...] = ()
    seed: int = 0
    mode: str = "random"

    def __post_init__(self) -> None:
        if not isinstance(self.letters, (tuple, list)):
            raise ValueError(f"letters must be a tuple or list of str, got {self.letters!r}")
        object.__setattr__(self, "letters", tuple(self.letters))
        for field in ("max_states", "max_actions", "seed"):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{field} must be an int, got {value!r}")
        for field in ("max_states", "max_actions"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be at least 1")
        if self.max_actions > len(string.ascii_lowercase):
            raise ValueError("at most 26 actions are supported")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.mode not in ("random", "exhaustive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "exhaustive" and (
            self.max_states > EXHAUSTIVE_MAX_STATES or self.max_actions > EXHAUSTIVE_MAX_ACTIONS
        ):
            raise ValueError(
                "exhaustive bounds exceeded: need max_states <= "
                f"{EXHAUSTIVE_MAX_STATES} and max_actions <= {EXHAUSTIVE_MAX_ACTIONS}"
            )
        for i, letter in enumerate(self.letters):
            if not (isinstance(letter, str) and _ATOM_NAME.match(letter)):
                raise ValueError(f"bad proposition letter {letter!r}")
            if letter in self.letters[:i]:
                raise ValueError(f"duplicate proposition letter {letter!r}")


def _state_names(n: int) -> tuple[str, ...]:
    # From a list, not a generator: CPython sizes a tuple built from a
    # generator by guessing and resizing, so each one freed would add to
    # its size's free list, up to 2,000 tuples each (0.86 MB for 1-6 states).
    return tuple([f"s{i}" for i in range(1, n + 1)])


def _random_models(cfg: GenConfig) -> Iterator[Model]:
    rng = random.Random(cfg.seed)
    actions = tuple(string.ascii_lowercase[: cfg.max_actions])
    while True:
        states = _state_names(rng.randint(1, cfg.max_states))
        rows = []
        for _a in actions:
            succ = []
            for _src in states:
                row = 0
                for dst in range(len(states)):
                    if rng.getrandbits(1):
                        row |= 1 << dst
                succ.append(row)
            rows.append(tuple(succ))
        letters: dict[str, int] = {}
        for i in range(len(states)):
            for letter in cfg.letters:
                if rng.getrandbits(1):
                    letters[letter] = letters.get(letter, 0) | 1 << i
        yield Model._of_masks(states, actions, {s: i for i, s in enumerate(states)}, rows, letters)


def _exhaustive_models(cfg: GenConfig) -> Iterator[Model]:
    states = _state_names(cfg.max_states)
    actions = tuple(string.ascii_lowercase[: cfg.max_actions])
    index = {s: i for i, s in enumerate(states)}
    n, field = len(states), (1 << len(states)) - 1
    for edges in range(1 << len(actions) * n * n):
        # Action k's successor row of state i, and letter j's mask, are n-bit fields.
        rows = tuple([tuple([edges >> (k * n + i) * n & field for i in range(n)]) for k in range(len(actions))])
        for valuation in range(1 << len(cfg.letters) * n):
            letters = {x: mask for j, x in enumerate(cfg.letters) if (mask := valuation >> j * n & field)}
            yield Model._of_masks(states, actions, index, rows, letters)


def exhaustive_size(cfg: GenConfig) -> int:
    """Closed-form size of the exhaustive stream for ``cfg``."""
    n, k, nletters = cfg.max_states, cfg.max_actions, len(cfg.letters)
    return 1 << (k * n * n + nletters * n)


def generate(cfg: GenConfig, count: Optional[int] = None) -> Iterator[Model]:
    """Stream models per ``cfg``; ``count`` caps the stream.

    Random mode requires an explicit ``count``; exhaustive mode emits the
    whole space when ``count`` is None, else ``count`` is an ``int`` >= 0.
    """
    if count is None:
        if cfg.mode == "random":
            raise ValueError("random generation needs an explicit count")
    elif not isinstance(count, int) or isinstance(count, bool):
        raise ValueError(f"model count must be an int, got {count!r}")
    elif count < 0:
        raise ValueError(f"model count must be non-negative, got {count}")
    return islice(_random_models(cfg) if cfg.mode == "random" else _exhaustive_models(cfg), count)


def find_countermodel(
    phi: Formula, cfg: GenConfig, limit: Optional[int] = None
) -> Optional[tuple[Model, str]]:
    """First generated model and state falsifying ``phi``, or None.

    Deterministic given ``cfg``.  ``limit`` caps how many models are tried
    (required for random mode).  ``phi`` is normalized and compiled once
    for the whole search, and each model runs that program once.
    """
    program = _compile(phi)
    for model in generate(cfg, limit):
        everything = (1 << len(model.states)) - 1
        missing = everything & ~_run(program, model, model._letters, {}, everything)
        if missing:
            return model, model.states[(missing & -missing).bit_length() - 1]
    return None


@dataclass(frozen=True)
class AuditViolation:
    model_number: int  # 1-based position in the generated stream
    schema: str
    assignment: tuple[tuple[str, str], ...]
    model: Model


@dataclass(frozen=True)
class AuditReport:
    models_checked: int
    instances_checked: int
    violations: tuple[AuditViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# The two definitions besides the axioms, stated over schema letters as
# the schemas are.  A U-ROUTE row pairs phi with U phi, which normalizes to
# Kh(~phi, bot), and fails when one holds everywhere and the other does
# not.  KHPLUS-DEF is a validity, like a schema.
_ROUTES: tuple[tuple[str, Formula, Optional[Formula]], ...] = (
    ("U-ROUTE", parse_formula("p"), parse_formula("U p")),
    ("U-ROUTE", parse_formula("p -> q"), parse_formula("U(p -> q)")),
    ("KHPLUS-DEF", parse_formula("Khp(p, q) <-> Kh(p, q) & ~U(p -> q)"), None),
)


@functools.lru_cache(maxsize=1)
def _audit_rows(
    schemas: tuple[tuple[str, Formula], ...], routes: tuple[tuple[str, Formula, Optional[Formula]], ...]
) -> tuple[tuple[str, Program, Optional[Program], tuple[str, ...]], ...]:
    """Name, compiled program, compiled U twin (None for a validity) and
    sorted letters of every audited row: ``schemas`` (the axioms), the
    derived theorems, then ``routes``.  Called with the current
    :data:`~knowhow.proofs.AXIOM_SCHEMAS` and :data:`_ROUTES`, so the rows
    are built again only when either has changed."""
    named: list[tuple[str, Formula, Optional[Formula]]] = [
        (name, schema, None) for name, schema in schemas
    ]
    named += [(entry.name, entry.formula, None) for entry in theorem_db()]
    named += routes
    rows = []
    for name, phi, twin in named:
        letters = atom_names(phi)
        if twin is not None:
            letters |= atom_names(twin)
            twin = _compile(twin)
        rows.append((name, _compile(phi), twin, tuple(sorted(letters))))
    return tuple(rows)


def soundness_audit(cfg: GenConfig, count: int) -> AuditReport:
    """Evaluate the axiom validities, the derived theorems, the two
    evaluation routes for ``U`` and the ``Khp`` expansion on every
    generated model, under all assignments of schema letters to
    ``cfg.letters``.  The report lists violations by model, then in the
    row order of :func:`_audit_rows`, then by assignment in ``product``
    order; expected none.

    No instance is built.  By the substitution lemma, the extension of
    ``schema[x := y, ...]`` on a model is the extension of ``schema`` with
    each letter ``x`` read as the extension of ``y``; it holds by induction
    on the schema, because ``Kh`` reads only the extensions of its two
    arguments.  So each row's programs run once per model, over a wide int
    that concatenates one slice per assignment in ``product`` order.  For
    ``n`` states a slice is ``w = 8*ceil(n/8)`` bits, and its padding bits
    are always 0.  A row with ``k`` letters reads letter ``x`` as the wide
    int whose slices are the masks ``x`` takes in each assignment; these
    values and the all-true value are built once per model and arity.
    ``Kh`` splits its operands into slices and looks each pair up in the
    model's one decision memo.  A validity row fails on the slices that are
    not full, a ``U`` pair on the slices where exactly one of its two
    programs is full.  The memo and the wide ints (one per op, each
    ``len(cfg.letters)**k * w`` bits) are freed with the model.  The rows
    are built once while the schemas and routes stay the same, and a
    program is cached on its normal form, so a repeat audit builds and
    compiles no formula."""
    if not cfg.letters:
        raise ValueError("the audit needs at least one proposition letter")
    rows = _audit_rows(tuple(AXIOM_SCHEMAS.items()), _ROUTES)
    arities = {len(row_letters) for *_, row_letters in rows}
    base = len(cfg.letters)
    violations: list[AuditViolation] = []
    number = instances = 0
    for number, model in enumerate(generate(cfg, count), start=1):
        size = (len(model.states) + 7) >> 3
        everything = (1 << len(model.states)) - 1
        masks = [model._letters.get(y, 0).to_bytes(size, "little") for y in cfg.letters]
        # Per arity k: the all-true value, and the value of each letter j,
        # whose slices repeat each mask base**(k-1-j) times in turn.
        wide = {}
        for k in arities:
            atoms = []
            for j in range(k):
                run = b"".join(mask * base ** (k - 1 - j) for mask in masks)
                atoms.append(int.from_bytes(run * base**j, "little"))
            wide[k] = int.from_bytes(everything.to_bytes(size, "little") * base**k, "little"), atoms
        decisions: dict[tuple[int, int], int] = {}
        for name, program, twin, row_letters in rows:
            full, atoms = wide[len(row_letters)]
            env = dict(zip(row_letters, atoms))
            value = _run(program, model, env, decisions, full)
            # A validity must be full; a U pair must be full on both or neither.
            other = full if twin is None else _run(twin, model, env, decisions, full)
            instances += base ** len(row_letters)
            if value != other:
                width = base ** len(row_letters) * size
                slices = zip(_slices(value, width, size), _slices(other, width, size))
                for combo, (x, y) in zip(product(cfg.letters, repeat=len(row_letters)), slices):
                    if (x == everything) != (y == everything):
                        assignment = tuple(zip(row_letters, combo))
                        violations.append(AuditViolation(number, name, assignment, model))
    return AuditReport(number, instances, tuple(violations))
