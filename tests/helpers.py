"""Shared test helpers: independent oracles, generators, CLI harness."""

from __future__ import annotations

import contextlib
import io
import random
from itertools import product

from knowhow import (
    MP,
    And,
    Atom,
    AxiomInst,
    Bot,
    Formula,
    GenConfig,
    Hyp,
    Iff,
    Implies,
    Kh,
    KhPlus,
    Model,
    NecU,
    Not,
    Or,
    ProofLine,
    Sub,
    Taut,
    Top,
    U,
    find_plan,
    generate,
    normalize,
    print_formula,
    verify_plan,
)
from knowhow.cli import main


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Run the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


# --- Brute-force plan existence (the oracle for find_plan) -----------------


def plan_exists_pure(model: Model, starts, goals, max_len: int) -> bool:
    """Enumerate every plan of length <= max_len through verify_plan."""
    for length in range(max_len + 1):
        for plan in product(model.actions, repeat=length):
            if verify_plan(model, starts, goals, plan).ok:
                return True
    return False


def plan_exists_bruteforce(model: Model, starts, goals, max_len: int) -> bool:
    """Same decision as :func:`plan_exists_pure`, with a sound cutoff.

    If every plan of some length gets stuck, every longer plan inherits a
    stuck prefix (the violating reachable state persists), so enumeration
    can stop.  Decisions still come only from verify_plan verdicts.
    """
    for length in range(max_len + 1):
        any_executable = False
        for plan in product(model.actions, repeat=length):
            check = verify_plan(model, starts, goals, plan)
            if check.ok:
                return True
            if check.kind == "endpoint":
                any_executable = True
        if not any_executable:
            return False
    return False


def ext_reference(model: Model, phi: Formula) -> frozenset[str]:
    """Independent evaluator: the literal truth definition, pointwise, with
    plan existence decided by brute-force enumeration through verify_plan."""
    phi = normalize(phi)
    if isinstance(phi, Top):
        return frozenset(model.states)
    if isinstance(phi, Atom):
        return frozenset(s for s in model.states if phi.name in model.valuation[s])
    if isinstance(phi, Not):
        return frozenset(model.states) - ext_reference(model, phi.child)
    if isinstance(phi, And):
        return ext_reference(model, phi.left) & ext_reference(model, phi.right)
    assert isinstance(phi, Kh)
    cond = ext_reference(model, phi.cond)
    goal = ext_reference(model, phi.goal)
    works = plan_exists_bruteforce(model, cond, goal, 2 ** len(model.states))
    return frozenset(model.states) if works else frozenset()


def random_state_sets(model: Model, rng: random.Random) -> tuple[frozenset[str], frozenset[str]]:
    starts = frozenset(s for s in model.states if rng.getrandbits(1))
    goals = frozenset(s for s in model.states if rng.getrandbits(1))
    return starts, goals


def oracle_worker(task: tuple[str, int, int, int, int]) -> tuple[int, int, int]:
    """Compare find_plan with the brute-force oracle on a stride of a model
    stream ("sweep": the exhaustive 3-state/2-action space; "random": seeded
    4-state models).  Start/goal pairs are derived from the stream position,
    so results are independent of how positions are split across workers.

    Returns (models checked, disagreements, pure-oracle cross-checks).
    """
    kind, worker_id, workers, count, seed = task
    if kind == "sweep":
        cfg = GenConfig(max_states=3, max_actions=2, letters=(), mode="exhaustive")
    else:
        cfg = GenConfig(max_states=4, max_actions=2, letters=(), seed=seed)
    checked = disagreements = crosschecked = 0
    for position, model in enumerate(generate(cfg, count)):
        if position % workers != worker_id:
            continue
        rng = random.Random(seed + position)
        starts, goals = random_state_sets(model, rng)
        bound = 2 ** len(model.states)
        fast = find_plan(model, starts, goals).decision
        slow = plan_exists_bruteforce(model, starts, goals, bound)
        checked += 1
        if fast != slow:
            disagreements += 1
        if position % 1009 == 0:
            crosschecked += 1
            if slow != plan_exists_pure(model, starts, goals, bound):
                disagreements += 1
    return checked, disagreements, crosschecked


# --- Seeded random formulas -------------------------------------------------

_LEAF_WEIGHT = 0.35


def random_formula(rng: random.Random, letters: tuple[str, ...] = ("p", "q", "r"), depth: int = 6) -> Formula:
    """A random formula over all constructors, sugar included."""
    if depth <= 0 or rng.random() < _LEAF_WEIGHT:
        roll = rng.random()
        if roll < 0.1:
            return Top()
        if roll < 0.2:
            return Bot()
        return Atom(rng.choice(letters))
    kind = rng.randrange(8)
    if kind == 0:
        return Not(random_formula(rng, letters, depth - 1))
    if kind == 1:
        return U(random_formula(rng, letters, depth - 1))
    left = random_formula(rng, letters, depth - 1)
    right = random_formula(rng, letters, depth - 1)
    if kind == 2:
        return And(left, right)
    if kind == 3:
        return Or(left, right)
    if kind == 4:
        return Implies(left, right)
    if kind == 5:
        return Iff(left, right)
    if kind == 6:
        return Kh(left, right)
    return KhPlus(left, right)


# --- Proof mutation ---------------------------------------------------------


def flip_root_connective(phi: Formula) -> Formula | None:
    """Swap the root connective with its dual; None for atoms."""
    if isinstance(phi, Top):
        return Bot()
    if isinstance(phi, Bot):
        return Top()
    if isinstance(phi, Not):
        return U(phi.child)
    if isinstance(phi, U):
        return Not(phi.child)
    if isinstance(phi, And):
        return Or(phi.left, phi.right)
    if isinstance(phi, Or):
        return And(phi.left, phi.right)
    if isinstance(phi, Implies):
        return Iff(phi.left, phi.right)
    if isinstance(phi, Iff):
        return Implies(phi.left, phi.right)
    if isinstance(phi, Kh):
        return KhPlus(phi.cond, phi.goal)
    if isinstance(phi, KhPlus):
        return Kh(phi.cond, phi.goal)
    return None


# --- Proof files ------------------------------------------------------------


def _justification_text(just) -> str:
    if isinstance(just, Taut):
        return "taut"
    if isinstance(just, AxiomInst):
        bindings = " ".join(f"{x}={print_formula(f)}" for x, f in just.binding.items())
        return f"axiom {just.name} {bindings}"
    if isinstance(just, MP):
        return f"mp {just.premise} {just.implication}"
    if isinstance(just, NecU):
        return f"necu {just.premise}"
    if isinstance(just, Sub):
        return f"sub {just.premise} {just.letter} {print_formula(just.replacement)}"
    assert isinstance(just, Hyp)
    return f"hyp {just.index}"


def proof_file_text(lines: tuple[ProofLine, ...], hypotheses: tuple[Formula, ...] = ()) -> str:
    """Write a derivation in the proof file format."""
    out = [f"hypothesis {print_formula(h)}" for h in hypotheses]
    out += [
        f"{line.index}. {print_formula(line.formula)} ; {_justification_text(line.justification)}"
        for line in lines
    ]
    return "\n".join(out) + "\n"
