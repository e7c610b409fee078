from __future__ import annotations

from itertools import product

import pytest

from knowhow import (
    AuditReport,
    AuditViolation,
    Atom,
    Formula,
    GenConfig,
    Implies,
    Kh,
    KhPlus,
    Not,
    U,
    atom_names,
    check_U,
    exhaustive_size,
    ext,
    find_countermodel,
    format_model,
    generate,
    holds,
    parse_formula,
    soundness_audit,
    substitute_all,
    theorem_db,
)
import knowhow.proofs as proofs
from knowhow.semantics import _compile, _run


class TestGenConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenConfig(max_states=0, max_actions=1)
        with pytest.raises(ValueError):
            GenConfig(max_states=1, max_actions=0)
        with pytest.raises(ValueError, match="mode"):
            GenConfig(max_states=1, max_actions=1, mode="weird")
        with pytest.raises(ValueError, match="exhaustive bounds"):
            GenConfig(max_states=5, max_actions=2, mode="exhaustive")
        with pytest.raises(ValueError, match="exhaustive bounds"):
            GenConfig(max_states=4, max_actions=3, mode="exhaustive")
        with pytest.raises(ValueError, match="letter"):
            GenConfig(max_states=2, max_actions=1, letters=("P",))
        with pytest.raises(ValueError, match="letter"):
            GenConfig(max_states=2, max_actions=1, letters=("top",))
        with pytest.raises(ValueError, match="duplicate proposition letter 'p'"):
            GenConfig(max_states=2, max_actions=1, letters=("p", "q", "p"))
        with pytest.raises(ValueError, match="duplicate proposition letter 'q'"):
            GenConfig(max_states=2, max_actions=1, letters=("q", "q"), mode="exhaustive")
        with pytest.raises(ValueError, match="seed"):
            GenConfig(max_states=2, max_actions=1, seed=-1)
        with pytest.raises(ValueError, match="seed"):
            GenConfig(max_states=2, max_actions=1, seed=2**64)

    def test_letters_tuple_coercion(self):
        cfg = GenConfig(max_states=2, max_actions=1, letters=["p", "q"])
        assert cfg.letters == ("p", "q")


class TestGenerate:
    def test_same_seed_same_stream(self):
        cfg = GenConfig(max_states=4, max_actions=2, letters=("p", "q"), seed=42)
        first = [format_model(m) for m in generate(cfg, 25)]
        second = [format_model(m) for m in generate(cfg, 25)]
        assert first == second

    def test_different_seeds_differ(self):
        a = [format_model(m) for m in generate(GenConfig(4, 2, ("p",), seed=1), 10)]
        b = [format_model(m) for m in generate(GenConfig(4, 2, ("p",), seed=2), 10)]
        assert a != b

    def test_prefix_property(self):
        cfg = GenConfig(max_states=3, max_actions=2, letters=("p",), seed=9)
        long = [format_model(m) for m in generate(cfg, 20)]
        short = [format_model(m) for m in generate(cfg, 5)]
        assert long[:5] == short

    def test_random_needs_count(self):
        cfg = GenConfig(max_states=2, max_actions=1)
        with pytest.raises(ValueError, match="count"):
            list(generate(cfg))

    def test_random_respects_bounds(self):
        cfg = GenConfig(max_states=3, max_actions=2, letters=("p",), seed=8)
        for model in generate(cfg, 50):
            assert 1 <= len(model.states) <= 3
            assert model.actions == ("a", "b")

    def test_exhaustive_one_state_one_action_one_letter(self):
        cfg = GenConfig(max_states=1, max_actions=1, letters=("p",), mode="exhaustive")
        models = list(generate(cfg))
        assert len(models) == 4
        assert exhaustive_size(cfg) == 4
        # edge absent/present x letter false/true
        signatures = {
            (bool(m.transitions["a"]), "p" in m.valuation["s1"]) for m in models
        }
        assert len(signatures) == 4

    def test_exhaustive_two_states_one_action(self):
        cfg = GenConfig(max_states=2, max_actions=1, letters=(), mode="exhaustive")
        models = list(generate(cfg))
        assert len(models) == 16
        assert exhaustive_size(cfg) == 16
        assert len({format_model(m) for m in models}) == 16

    def test_exhaustive_count_caps(self):
        cfg = GenConfig(max_states=2, max_actions=1, letters=(), mode="exhaustive")
        assert len(list(generate(cfg, 5))) == 5

    def test_exhaustive_self_count_with_letters(self):
        cfg = GenConfig(max_states=2, max_actions=1, letters=("p",), mode="exhaustive")
        models = list(generate(cfg))
        assert len(models) == exhaustive_size(cfg) == 64
        assert len({format_model(m) for m in models}) == 64

    def test_exhaustive_deterministic(self):
        cfg = GenConfig(max_states=2, max_actions=2, letters=("p",), mode="exhaustive")
        assert [format_model(m) for m in generate(cfg, 40)] == [
            format_model(m) for m in generate(cfg, 40)
        ]


class TestFindCountermodel:
    def test_bot_found_immediately(self):
        cfg = GenConfig(max_states=1, max_actions=1, letters=("p",), mode="exhaustive")
        found = find_countermodel(parse_formula("bot"), cfg)
        assert found is not None
        model, state = found
        assert state == "s1"

    def test_validity_has_no_countermodel(self):
        cfg = GenConfig(max_states=2, max_actions=1, letters=("p",), mode="exhaustive")
        assert find_countermodel(parse_formula("U p -> p"), cfg) is None

    def test_goal_conjunction_schema_falsified(self):
        phi = parse_formula("Kh(p, q) & Kh(p, r) -> Kh(p, q & r)")
        cfg = GenConfig(
            max_states=4, max_actions=2, letters=("p", "q", "r"), mode="exhaustive"
        )
        found = find_countermodel(phi, cfg)
        assert found is not None
        model, state = found
        assert not holds(model, state, phi)
        assert ext(model, phi) != frozenset(model.states)

    def test_random_mode_requires_limit(self):
        cfg = GenConfig(max_states=3, max_actions=2, letters=("p",), seed=3)
        with pytest.raises(ValueError):
            find_countermodel(parse_formula("p"), cfg)
        found = find_countermodel(parse_formula("p"), cfg, limit=50)
        assert found is not None
        model, state = found
        assert not holds(model, state, parse_formula("p"))

    def test_deterministic(self):
        cfg = GenConfig(max_states=3, max_actions=2, letters=("p", "q"), seed=5)
        phi = parse_formula("Kh(p, q)")
        first = find_countermodel(phi, cfg, limit=200)
        second = find_countermodel(phi, cfg, limit=200)
        assert first is not None and second is not None
        assert format_model(first[0]) == format_model(second[0])
        assert first[1] == second[1]


class TestSoundnessAudit:
    def test_zero_count_empty_report(self):
        cfg = GenConfig(max_states=3, max_actions=2, letters=("p", "q"), seed=1)
        report = soundness_audit(cfg, 0)
        assert report.models_checked == 0
        assert report.instances_checked == 0
        assert report.ok

    def test_needs_letters(self):
        cfg = GenConfig(max_states=3, max_actions=2, letters=(), seed=1)
        with pytest.raises(ValueError, match="letter"):
            soundness_audit(cfg, 1)

    def test_random_audit_clean(self):
        cfg = GenConfig(max_states=4, max_actions=2, letters=("p", "q"), seed=77)
        report = soundness_audit(cfg, 40)
        assert report.models_checked == 40
        assert report.ok, report.violations[:3]

    def test_exhaustive_full_small_space_clean(self):
        cfg = GenConfig(max_states=2, max_actions=1, letters=("p",), mode="exhaustive")
        report = soundness_audit(cfg, exhaustive_size(cfg))
        assert report.models_checked == 64
        assert report.ok

    def test_route_formulas_built_once_per_letter_tuple(self, monkeypatch):
        # The warm-up builds the theorem database and the routes for p, q;
        # a repeat audit over the same letters then builds no formula.
        cfg = GenConfig(max_states=3, max_actions=2, letters=("p", "q"), seed=4)
        soundness_audit(cfg, 1)
        built = []
        construct = Formula.__new__

        def counting(cls, *args):
            built.append(cls)
            return construct(cls, *args)

        monkeypatch.setattr(Formula, "__new__", staticmethod(counting))
        for count in (1, 20):
            assert soundness_audit(cfg, count).ok
            assert built == []
        other = GenConfig(max_states=3, max_actions=2, letters=("p", "q", "r"), seed=4)
        assert soundness_audit(other, 1).ok
        assert built

    def test_exhaustive_prefix_of_three_state_space_clean(self):
        cfg = GenConfig(max_states=3, max_actions=2, letters=("p", "q"), mode="exhaustive")
        report = soundness_audit(cfg, 40)
        assert report.models_checked == 40
        assert report.ok


def _schemas():
    named = list(proofs.AXIOM_SCHEMAS.items()) + [(e.name, e.formula) for e in theorem_db()]
    return [(name, schema, sorted(atom_names(schema))) for name, schema in named]


def _substitute_route_audit(cfg, count):
    """The audit by its definition: every instance built with
    substitute_all and evaluated afresh through ext."""
    violations = []
    instances = 0
    models = list(generate(cfg, count))
    for number, model in enumerate(models, start=1):
        everything = frozenset(model.states)
        for name, schema, letters in _schemas():
            for combo in product(cfg.letters, repeat=len(letters)):
                instances += 1
                instance = substitute_all(schema, {x: Atom(y) for x, y in zip(letters, combo)})
                if ext(model, instance) != everything:
                    violations.append(AuditViolation(number, name, tuple(zip(letters, combo)), model))
        for x in cfg.letters:
            instances += 1
            if check_U(model, Atom(x)) != (ext(model, U(Atom(x))) == everything):
                violations.append(AuditViolation(number, "U-ROUTE", (("p", x),), model))
        for x, y in product(cfg.letters, repeat=2):
            phi = Implies(Atom(x), Atom(y))
            instances += 1
            if check_U(model, phi) != (ext(model, U(phi)) == everything):
                violations.append(AuditViolation(number, "U-ROUTE", (("p", x), ("q", y)), model))
            instances += 1
            expanded = ext(model, Kh(Atom(x), Atom(y))) & ext(model, Not(U(phi)))
            if ext(model, KhPlus(Atom(x), Atom(y))) != expanded:
                violations.append(AuditViolation(number, "KHPLUS-DEF", (("p", x), ("q", y)), model))
    return AuditReport(len(models), instances, tuple(violations))


class TestAuditRoutes:
    """The audit runs each compiled schema over letter masks; by the
    substitution lemma that must equal evaluating each built instance."""

    def test_compiled_schema_equals_built_instance(self):
        cfg = GenConfig(max_states=4, max_actions=2, letters=("p", "q", "r"), seed=606)
        programs = [(schema, _compile(schema), letters) for _, schema, letters in _schemas()]
        compared = 0
        for model in generate(cfg, 200):
            masks = model._letters
            decisions = {}
            for schema, program, letters in programs:
                for combo in product(cfg.letters, repeat=len(letters)):
                    env = {x: masks.get(y, 0) for x, y in zip(letters, combo)}
                    compiled = model._names(_run(program, model, env, decisions))
                    instance = substitute_all(schema, {x: Atom(y) for x, y in zip(letters, combo)})
                    assert frozenset(compiled) == ext(model, instance), (schema, combo)
                    compared += 1
        assert compared > 200 * len(programs)

    def test_clean_report_equals_substitute_route(self):
        cfg = GenConfig(max_states=4, max_actions=2, letters=("p", "q"), seed=607)
        assert soundness_audit(cfg, 30) == _substitute_route_audit(cfg, 30)

    def test_planted_wrong_schema_same_violations_in_same_order(self, monkeypatch):
        wrong = parse_formula("Kh(p, q) & Kh(p, r) -> Kh(p, q & r)")
        monkeypatch.setitem(proofs.AXIOM_SCHEMAS, "GOAL-CONJ", wrong)
        cfg = GenConfig(max_states=4, max_actions=2, letters=("p", "q", "r"), seed=608)
        report = soundness_audit(cfg, 40)
        assert report == _substitute_route_audit(cfg, 40)
        assert report.violations and {v.schema for v in report.violations} == {"GOAL-CONJ"}
