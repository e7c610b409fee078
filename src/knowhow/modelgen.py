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
configuration: identical configurations yield identical streams.

Bounded countermodel search is enumerate-then-check: it is a falsifier
for non-valid formulas, not a decision procedure for validity.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .models import Model
from .proofs import AXIOM_SCHEMAS, theorem_db
from .semantics import Program, _compile, _run, holds
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
        object.__setattr__(self, "letters", tuple(self.letters))
        for field in ("max_states", "max_actions", "seed"):
            value = getattr(self, field)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{field} must be an int, got {value!r}")
        if self.max_states < 1:
            raise ValueError("max_states must be at least 1")
        if self.max_actions < 1:
            raise ValueError("max_actions must be at least 1")
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
    return tuple(f"s{i}" for i in range(1, n + 1))


def _action_names(k: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:k])


def _random_models(cfg: GenConfig, count: int) -> Iterator[Model]:
    rng = random.Random(cfg.seed)
    actions = _action_names(cfg.max_actions)
    for _ in range(count):
        states = _state_names(rng.randint(1, cfg.max_states))
        transitions: dict[str, set[tuple[str, str]]] = {}
        for a in actions:
            pairs = set()
            for src in states:
                for dst in states:
                    if rng.getrandbits(1):
                        pairs.add((src, dst))
            transitions[a] = pairs
        valuation: dict[str, set[str]] = {}
        for s in states:
            valuation[s] = {letter for letter in cfg.letters if rng.getrandbits(1)}
        yield Model(states, actions, transitions, valuation)


def _exhaustive_models(cfg: GenConfig, count: Optional[int]) -> Iterator[Model]:
    states = _state_names(cfg.max_states)
    actions = _action_names(cfg.max_actions)
    edge_slots = [(a, src, dst) for a in actions for src in states for dst in states]
    val_slots = [(letter, s) for letter in cfg.letters for s in states]
    emitted = 0
    for edge_mask in range(1 << len(edge_slots)):
        transitions: dict[str, set[tuple[str, str]]] = {a: set() for a in actions}
        for bit, (a, src, dst) in enumerate(edge_slots):
            if edge_mask >> bit & 1:
                transitions[a].add((src, dst))
        for val_mask in range(1 << len(val_slots)):
            if count is not None and emitted >= count:
                return
            valuation: dict[str, set[str]] = {s: set() for s in states}
            for bit, (letter, s) in enumerate(val_slots):
                if val_mask >> bit & 1:
                    valuation[s].add(letter)
            emitted += 1
            yield Model(states, actions, transitions, valuation)


def exhaustive_size(cfg: GenConfig) -> int:
    """Closed-form size of the exhaustive stream for ``cfg``."""
    n, k, nletters = cfg.max_states, cfg.max_actions, len(cfg.letters)
    return 1 << (k * n * n + nletters * n)


def generate(cfg: GenConfig, count: Optional[int] = None) -> Iterator[Model]:
    """Stream models per ``cfg``; ``count`` caps the stream.

    Random mode requires an explicit ``count``; exhaustive mode emits the
    whole space when ``count`` is None.  A negative ``count`` is an error.
    """
    if count is not None and count < 0:
        raise ValueError(f"model count must be non-negative, got {count}")
    if cfg.mode == "random":
        if count is None:
            raise ValueError("random generation needs an explicit count")
        return _random_models(cfg, count)
    return _exhaustive_models(cfg, count)


def find_countermodel(
    phi: Formula, cfg: GenConfig, limit: Optional[int] = None
) -> Optional[tuple[Model, str]]:
    """First generated model and state falsifying ``phi``, or None.

    Deterministic given ``cfg``.  ``limit`` caps how many models are tried
    (required for random mode).  ``phi`` is normalized and compiled once
    for the whole search.  A hit is confirmed by an independent
    re-evaluation through :func:`holds` before being returned.
    """
    program = _compile(phi)
    for model in generate(cfg, limit):
        everything = (1 << len(model.states)) - 1
        missing = everything & ~_run(program, model, model._letters, {})
        if missing:
            state = model.states[(missing & -missing).bit_length() - 1]
            if holds(model, state, phi):
                raise RuntimeError("countermodel confirmation failed")
            return model, state
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


def _audit_schemas() -> tuple[tuple[str, Program, Optional[Program], tuple[str, ...]], ...]:
    """Name, compiled program, compiled U twin (None for a validity) and
    sorted letters of every audited row: the axiom schemas, the derived
    theorems, then :data:`_ROUTES`."""
    named: list[tuple[str, Formula, Optional[Formula]]] = [
        (name, schema, None) for name, schema in AXIOM_SCHEMAS.items()
    ]
    named += [(entry.name, entry.formula, None) for entry in theorem_db()]
    named += _ROUTES
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
    row order of :func:`_audit_schemas`; expected none.

    No instance is built.  By the substitution lemma, the extension of
    ``schema[x := y, ...]`` on a model is the extension of ``schema`` with
    each letter ``x`` read as the extension of ``y``; it holds by induction
    on the schema, because ``Kh`` reads only the extensions of its two
    arguments.  So each row's programs are run once per model and
    assignment over the letter masks, with one ``Kh`` decision memo per
    model.  A program is cached on its normal form, and the route rows live
    as long as the module, so a repeat audit builds and compiles no
    formula."""
    if not cfg.letters:
        raise ValueError("the audit needs at least one proposition letter")
    rows = _audit_schemas()
    violations: list[AuditViolation] = []
    models_checked = 0
    instances = 0
    for number, model in enumerate(generate(cfg, count), start=1):
        models_checked += 1
        full = (1 << len(model.states)) - 1
        masks = model._letters
        decisions: dict[tuple[int, int], int] = {}
        for name, program, twin, row_letters in rows:
            for combo in product(cfg.letters, repeat=len(row_letters)):
                env = {x: masks.get(y, 0) for x, y in zip(row_letters, combo)}
                instances += 1
                ok = _run(program, model, env, decisions) == full
                if twin is not None:  # both hold everywhere, or neither does
                    ok = ok == (_run(twin, model, env, decisions) == full)
                if not ok:
                    violations.append(
                        AuditViolation(number, name, tuple(zip(row_letters, combo)), model)
                    )
    return AuditReport(models_checked, instances, tuple(violations))
