"""The four workloads.

Each workload turns ``(seed, i)`` into its i-th item, runs the item through
the program's public API (the only timed part) and checks the output
against a reference that does not come from the code under test.  Items
are a pure function of the seed and the index, so the same seed always
yields the same inputs, whatever the run length.

The program is reached through module attributes looked up at call time
(``planning.find_plan``, not a name bound at import), so that the tracer
can rebind them for the traced run.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import knowhow.cli as cli
import knowhow.modelgen as modelgen
import knowhow.planning as planning
import knowhow.proofs as proofs
import knowhow.syntax as syntax

from reference import (
    LETTERS,
    boolean_formula,
    brute_force_plan,
    desk_model,
    extension,
    model_text,
    reference_plan,
    render,
)


FIXTURES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "fixtures")


def _rng(seed: int, workload: str, i: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{i}")


class OracleSweep:
    """Criterion 3 at reduced size: random 3-state/2-action models, decided
    by ``find_plan`` and by brute-force enumeration through ``verify_plan``."""

    name = "oracle_sweep"
    states = ("s1", "s2", "s3")  # the generator's names for 3-state models

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        cfg = modelgen.GenConfig(max_states=3, max_actions=2, seed=seed % 2**64)
        self.models = modelgen.generate(cfg, 2**62)

    def prepare(self, i: int):
        rng = _rng(self.seed, self.name, i)
        starts = frozenset(s for s in self.states if rng.getrandbits(1))
        goals = frozenset(s for s in self.states if rng.getrandbits(1))
        return starts, goals

    def run(self, item):
        starts, goals = item
        model = next(self.models)
        while len(model.states) != 3:
            model = next(self.models)
        found = planning.find_plan(model, starts, goals)
        return found, brute_force_plan(planning.verify_plan, model, starts, goals)

    def check(self, item, output):
        found, brute = output
        ok = found.decision == (brute is not None) and found.witness == brute
        return ok, {}


class PlanCli:
    """What ``knowhow plan MODEL PRE GOAL --json`` users wait for, called
    in-process on seeded desk-scale model files."""

    name = "plan_cli"
    pool = 256  # model files written at set-up; item i uses file i mod pool

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.models = []
        self.paths = []
        for j in range(self.pool):
            model = desk_model(_rng(seed, "plan_cli-model", j))
            path = os.path.join(workdir, f"m{j:03d}.lts")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(model_text(model))
            self.models.append(model)
            self.paths.append(path)

    def prepare(self, i: int):
        rng = _rng(self.seed, self.name, i)
        pre, goal = boolean_formula(rng, 2), boolean_formula(rng, 2)
        j = i % self.pool
        return j, pre, goal, ["plan", self.paths[j], render(pre), render(goal), "--json"]

    def run(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(item[3])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()

    def check(self, item, output):
        j, pre, goal, _ = item
        code, text = output
        if code not in (0, 1):
            return False, {}
        doc = json.loads(text)
        model = self.models[j]
        expected = reference_plan(model, extension(model, pre), extension(model, goal))
        ok = (
            doc["found"] == (expected is not None)
            and doc["plan"] == expected
            and code == (0 if doc["found"] else 1)
        )
        return ok, {}


class Audit:
    """Criterion 4 at reduced size: one seeded 6-state/3-action model per
    item, every schema instance under every assignment to p, q, r, o."""

    name = "audit"
    instances_per_model = 552

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def prepare(self, i: int):
        return _rng(self.seed, self.name, i).getrandbits(63)

    def run(self, item):
        cfg = modelgen.GenConfig(max_states=6, max_actions=3, letters=LETTERS, seed=item)
        return modelgen.soundness_audit(cfg, 1)

    def check(self, item, report):
        ok = (
            report.models_checked == 1
            and report.instances_checked == self.instances_per_model
            and not report.violations
        )
        return ok, {"audit_instances": report.instances_checked}


# --- proof_check ---------------------------------------------------------------

TAUTOLOGY_UNITS = 20  # the documented budget of is_tautology
MUTANT_EVERY = 4  # every 4th item is a mutant, the rest are instances


def _random_formula(rng: random.Random, depth: int) -> syntax.Formula:
    """A random formula over every constructor, at most ``depth`` deep."""
    if depth == 0 or rng.random() < 0.5:
        roll = rng.random()
        if roll < 0.1:
            return syntax.Top()
        if roll < 0.2:
            return syntax.Bot()
        return syntax.Atom(rng.choice(LETTERS))
    kind = rng.randrange(8)
    if kind == 0:
        return syntax.Not(_random_formula(rng, depth - 1))
    if kind == 1:
        return syntax.U(_random_formula(rng, depth - 1))
    binary = (syntax.And, syntax.Or, syntax.Implies, syntax.Iff, syntax.Kh, syntax.KhPlus)
    return binary[kind - 2](_random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def _units(phi: syntax.Formula) -> int:
    """Distinct abstraction units of ``phi``: the maximal atoms and
    Kh-rooted subformulas of its normalization."""
    units, stack = set(), [syntax.normalize(phi)]
    while stack:
        node = stack.pop()
        if isinstance(node, (syntax.Atom, syntax.Kh)):
            units.add(node)
        elif isinstance(node, syntax.Not):
            stack.append(node.child)
        elif isinstance(node, syntax.And):
            stack += [node.left, node.right]
    return len(units)


def _flip(phi: syntax.Formula) -> syntax.Formula:
    """Swap the root connective with its dual (the criterion 6 mutation)."""
    s = syntax
    pairs = {s.Not: s.U, s.U: s.Not, s.And: s.Or, s.Or: s.And, s.Implies: s.Iff,
             s.Iff: s.Implies, s.Kh: s.KhPlus, s.KhPlus: s.Kh}
    if isinstance(phi, s.Top):
        return s.Bot()
    if isinstance(phi, s.Bot):
        return s.Top()
    return pairs[type(phi)](*(getattr(phi, f) for f in phi.__dataclass_fields__))


def _justification(just) -> str:
    p = syntax.print_formula
    if isinstance(just, proofs.Taut):
        return "taut"
    if isinstance(just, proofs.AxiomInst):
        binding = " ".join(f"{x}={p(f)}" for x, f in sorted(just.binding.items()))
        return f"axiom {just.name} {binding}"
    if isinstance(just, proofs.MP):
        return f"mp {just.premise} {just.implication}"
    if isinstance(just, proofs.NecU):
        return f"necu {just.premise}"
    if isinstance(just, proofs.Sub):
        return f"sub {just.premise} {just.letter} {p(just.replacement)}"
    return f"hyp {just.index}"


def proof_text(lines, hypotheses=()) -> str:
    """Render a derivation in the proof file format."""
    out = [f"hypothesis {syntax.print_formula(h)}" for h in hypotheses]
    out += [
        f"{line.index}. {syntax.print_formula(line.formula)} ; {_justification(line.justification)}"
        for line in lines
    ]
    return "\n".join(out) + "\n"


def _substituted(lines, sigma):
    """The derivation with ``sigma`` applied to every formula; a
    substitution instance of a proof without ``sub`` lines is a proof."""
    out = []
    for line in lines:
        just = line.justification
        if isinstance(just, proofs.AxiomInst):
            just = proofs.AxiomInst(
                just.name, {x: syntax.substitute_all(f, sigma) for x, f in just.binding.items()}
            )
        out.append(proofs.ProofLine(line.index, syntax.substitute_all(line.formula, sigma), just))
    return out


class ProofCheck:
    """Criterion 6 at larger scale: substitution instances of the bundled
    derivations, which must be accepted, and one-connective mutants of the
    unsubstituted fixtures, which must be rejected."""

    name = "proof_check"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.theorems = proofs.theorem_db()
        fixture_proofs = [(entry.proof, ()) for entry in self.theorems]
        with open(os.path.join(FIXTURES, "replacement.prf"), encoding="utf-8") as handle:
            document = proofs.parse_proof(handle.read())
        fixture_proofs.append((document.proof, document.hypotheses))
        self.mutants = []
        for proof, hypotheses in fixture_proofs:
            for position, line in enumerate(proof.lines):
                lines = list(proof.lines)
                lines[position] = proofs.ProofLine(line.index, _flip(line.formula), line.justification)
                self.mutants.append((proof_text(lines, hypotheses), len(lines)))
        random.Random(f"{seed}:{self.name}-mutants").shuffle(self.mutants)

    def prepare(self, i: int):
        if i % MUTANT_EVERY == MUTANT_EVERY - 1:
            text, length = self.mutants[i // MUTANT_EVERY % len(self.mutants)]
            return text, False, length
        # Instances cycle through the theorems, whose costs differ by two
        # orders of magnitude, so that the mix does not depend on the seed.
        instance = i - i // MUTANT_EVERY
        entry = self.theorems[instance % len(self.theorems)]
        rng = _rng(self.seed, self.name, i)
        while True:
            sigma = {x: _random_formula(rng, 3) for x in LETTERS}
            lines = _substituted(entry.proof.lines, sigma)
            if all(
                _units(line.formula) <= TAUTOLOGY_UNITS
                for line in lines
                if isinstance(line.justification, proofs.Taut)
            ):
                return proof_text(lines), True, len(lines)

    def run(self, item):
        document = proofs.parse_proof(item[0])
        return proofs.check_proof_under(document.proof, document.hypotheses)

    def check(self, item, verdict):
        text, expected, length = item
        checked = length if verdict.accepted else verdict.line or 0
        return verdict.accepted == expected, {"proof_lines": checked}


WORKLOADS = {w.name: w for w in (OracleSweep, PlanCli, Audit, ProofCheck)}
