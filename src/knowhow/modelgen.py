"""Model generation, bounded countermodel search and the soundness audit.

Random mode draws a deterministic stream from a seed: state count uniform
in ``[1, max_states]``, every possible labelled edge present independently
with probability 1/2, every letter true at every state with probability
1/2 (draw order: state count, then edges by action/source/target, then
valuation by state/letter), with at most ``RANDOM_MAX_STATES`` (1,024)
states.  Exhaustive mode enumerates every model with
exactly ``max_states`` states and ``max_actions`` actions in a fixed
canonical order (edge bitmask outer, valuation bitmask inner, low bits
first), so sparse models come first; the closed-form count is
:func:`exhaustive_size`.  Both streams are deterministic functions of the
configuration: identical configurations yield identical streams.  Both
modes build the masks that :class:`~knowhow.models.Model` stores, in that
order, for its unchecked constructor: one column per state, holding its
successor masks under all actions.  Exhaustive mode shares one columns
tuple, and the per-action moves read from it, across an edge bitmask's
valuations, but never a memo.

Bounded countermodel search is enumerate-then-check: it is a falsifier
for non-valid formulas, not a decision procedure for validity.
"""

from __future__ import annotations

import functools
import random
from itertools import islice, product
from typing import Iterator, Optional

from .models import Model, _moves_of
from .proofs import AXIOM_SCHEMAS, theorem_db
from .semantics import Program, _compile, _Decisions, _run, _slices
from .syntax import _ATOM_NAME, Formula, Top, _Record, atom_names, parse_formula

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
RANDOM_MAX_STATES = 1024  # a 26-action model this size takes about 4 s to draw on a 2-vCPU Xeon
# Action names, in order: a model with n actions has the first n.
_ACTIONS = "abcdefghijklmnopqrstuvwxyz"


class GenConfig(_Record):
    """Configuration for model generation."""

    max_states: int
    max_actions: int
    letters: tuple[str, ...] = ()
    seed: int = 0
    mode: str = "random"

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)
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
        if self.max_actions > len(_ACTIONS):
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
        if self.mode == "random" and self.max_states > RANDOM_MAX_STATES:
            raise ValueError(f"random bounds exceeded: need max_states <= {RANDOM_MAX_STATES}")
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
    actions = tuple(_ACTIONS[: cfg.max_actions])
    while True:
        states = _state_names(rng.randint(1, cfg.max_states))
        n = len(states)
        columns = [0] * n
        offset = 0
        for _a in actions:
            for src in range(n):
                row = 0
                for dst in range(n):
                    if rng.getrandbits(1):
                        row |= 1 << dst
                columns[src] |= row << offset
            offset += n
        letters: dict[str, int] = {}
        for i in range(len(states)):
            for letter in cfg.letters:
                if rng.getrandbits(1):
                    letters[letter] = letters.get(letter, 0) | 1 << i
        yield Model._of_masks(states, actions, {s: i for i, s in enumerate(states)}, tuple(columns), letters)


def _exhaustive_models(cfg: GenConfig) -> Iterator[Model]:
    states = _state_names(cfg.max_states)
    actions = tuple(_ACTIONS[: cfg.max_actions])
    index = {s: i for i, s in enumerate(states)}
    n, field = len(states), (1 << len(states)) - 1
    offsets = range(0, len(actions) * n, n)
    for edges in range(1 << len(actions) * n * n):
        # Action k's successor row of state i, at edge bit (k*n + i)*n, and
        # letter j's mask are n-bit fields; the row goes to bit k*n of
        # state i's column.
        columns = tuple(
            [sum((edges >> (offset + i) * n & field) << offset for offset in offsets) for i in range(n)]
        )
        moves = _moves_of(actions, columns)
        for valuation in range(1 << len(cfg.letters) * n):
            letters = {x: mask for j, x in enumerate(cfg.letters) if (mask := valuation >> j * n & field)}
            yield Model._of_masks(states, actions, index, columns, letters, moves)


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
    program, (root,) = _compile(phi)
    for model in generate(cfg, limit):
        decisions = _Decisions(model)
        everything = decisions.everything
        missing = everything & ~_run(program, model._letters, decisions, everything)[root]
        if missing:
            return model, model.states[(missing & -missing).bit_length() - 1]
    return None


class AuditViolation(_Record):
    """An audit row that fails on the numbered model under ``assignment``."""

    model_number: int  # 1-based position in the generated stream
    schema: str
    assignment: tuple[tuple[str, str], ...]
    model: Model


class AuditReport(_Record):
    """What :func:`soundness_audit` checked, and the violations it found."""

    models_checked: int
    instances_checked: int
    violations: tuple[AuditViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# The two definitions besides the axioms, stated over schema letters as
# the schemas are, each a pair that must be full on the same slices.  A
# U-ROUTE row pairs phi with U phi, which normalizes to Kh(~phi, bot).
# KHPLUS-DEF is a validity, like a schema, so its twin is top.
_ROUTES: tuple[tuple[str, Formula, Formula], ...] = (
    ("U-ROUTE", parse_formula("p"), parse_formula("U p")),
    ("U-ROUTE", parse_formula("p -> q"), parse_formula("U(p -> q)")),
    ("KHPLUS-DEF", parse_formula("Khp(p, q) <-> Kh(p, q) & ~U(p -> q)"), parse_formula("top")),
)


@functools.lru_cache(maxsize=1)
def _audit_rows(
    schemas: tuple[tuple[str, Formula], ...], routes: tuple[tuple[str, Formula, Formula], ...]
) -> tuple[tuple[tuple[tuple[str, ...], Program, int], ...], tuple[tuple[str, int, int, int], ...]]:
    """The audited rows, ``schemas`` (the axioms), the derived theorems,
    then ``routes``, as pairs whose twin is ``top`` for a validity.
    Returns the groups of rows over the same sorted letters, each as its
    letters, one program of all their formulas and twins, and its number of
    rows; and the rows in order, each as its name, its group's index and
    the slots of its formula and of its twin.  Called with the current
    :data:`~knowhow.proofs.AXIOM_SCHEMAS` and :data:`_ROUTES`, so the rows
    are built again only when either has changed."""
    top = Top()
    named = [(name, schema, top) for name, schema in schemas]
    named += [(entry.name, entry.formula, top) for entry in theorem_db()]
    named += routes
    groups: dict[tuple[str, ...], list[Formula]] = {}
    placed = []  # each row's name, group index and position among its group's roots
    for name, phi, twin in named:
        letters = tuple(sorted(atom_names(phi) | atom_names(twin)))
        roots = groups.setdefault(letters, [])
        placed.append((name, list(groups).index(letters), len(roots)))
        roots += phi, twin
    compiled = [_compile(*roots) for roots in groups.values()]
    rows = tuple((name, group, compiled[group][1][k], compiled[group][1][k + 1]) for name, group, k in placed)
    return tuple((letters, program, len(slots) // 2) for letters, (program, slots) in zip(groups, compiled)), rows


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
    arguments.  So the rows run once per model, over a wide int that
    concatenates one slice per assignment in ``product`` order.  Every row
    is a pair, a formula and its twin (``top`` for a validity, ``U phi``
    for a U-ROUTE row ``phi``), that fails on the slices where exactly one
    of the two is full.  Rows over the same letters share one program,
    which lists every distinct node of all their formulas and twins once,
    so a model runs one program per letter set.  For ``n`` states a slice
    is ``w = 8*ceil(n/8)`` bits, and its padding bits are always 0.  A
    program over ``k`` letters reads letter ``x`` as the wide int whose
    slices are the masks ``x`` takes in each assignment.  ``Kh`` splits
    its operands into slices and looks each pair up in the model's one
    decision memo, whose misses run the plan search.  Then the rows are
    checked in row order against the model's runs (one wide int per op,
    each ``len(cfg.letters)**k * w`` bits).  The rows are built once while
    the schemas and routes stay the same, so a repeat audit builds and
    compiles no formula."""
    if not cfg.letters:
        raise ValueError("the audit needs at least one proposition letter")
    groups, rows = _audit_rows(tuple(AXIOM_SCHEMAS.items()), _ROUTES)
    base = len(cfg.letters)
    violations: list[AuditViolation] = []
    number = 0
    for number, model in enumerate(generate(cfg, count), start=1):
        size = (len(model.states) + 7) >> 3
        decisions = _Decisions(model)
        everything = decisions.everything
        masks = [model._letters.get(y, 0).to_bytes(size, "little") for y in cfg.letters]
        runs = []
        for letters, program, _ in groups:
            k = len(letters)
            # Letter j's slices repeat each mask base**(k-1-j) times in turn.
            atoms = [
                int.from_bytes(b"".join(mask * base ** (k - 1 - j) for mask in masks) * base**j, "little")
                for j in range(k)
            ]
            full = int.from_bytes(everything.to_bytes(size, "little") * base**k, "little")
            runs.append((letters, _run(program, dict(zip(letters, atoms)), decisions, full)))
        for name, group, root, twin in rows:
            letters, values = runs[group]
            if values[root] != values[twin]:
                width = base ** len(letters) * size
                slices = zip(_slices(values[root], width, size), _slices(values[twin], width, size))
                for combo, (x, y) in zip(product(cfg.letters, repeat=len(letters)), slices):
                    if (x == everything) != (y == everything):
                        violations.append(AuditViolation(number, name, tuple(zip(letters, combo)), model))
    instances = number * sum(length * base ** len(letters) for letters, _, length in groups)
    return AuditReport(number, instances, tuple(violations))
