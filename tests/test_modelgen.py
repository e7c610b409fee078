from __future__ import annotations

import hashlib
import random
import re
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
    Model,
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
    parse_model,
    soundness_audit,
    substitute_all,
    theorem_db,
    verify_plan,
)
import knowhow.modelgen as modelgen
import knowhow.proofs as proofs
from knowhow.semantics import _compile, _run

from helpers import ext_reference, random_formula


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
        with pytest.raises(ValueError, match="^bad proposition letter 1$"):
            GenConfig(3, 2, letters=(1,))
        with pytest.raises(ValueError, match="max_states must be an int, got '3'"):
            GenConfig("3", 2)
        with pytest.raises(ValueError, match="max_actions must be an int, got 2.0"):
            GenConfig(3, 2.0)
        with pytest.raises(ValueError, match="seed must be an int, got 1.5"):
            GenConfig(3, 2, seed=1.5)
        with pytest.raises(ValueError, match="max_states must be an int, got True"):
            GenConfig(True, 2)

    def test_letters_tuple_coercion(self):
        cfg = GenConfig(max_states=2, max_actions=1, letters=["p", "q"])
        assert cfg.letters == ("p", "q")

    @pytest.mark.parametrize(
        "letters, shown",
        [("pq", "'pq'"), (None, "None"), ({"p"}, "{'p'}"), ((x for x in "pq"), "<generator")],
    )
    def test_letters_must_be_tuple_or_list(self, letters, shown):
        with pytest.raises(ValueError, match=f"^letters must be a tuple or list of str, got {re.escape(shown)}"):
            GenConfig(max_states=2, max_actions=1, letters=letters)


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

    @pytest.mark.parametrize("mode", ["random", "exhaustive"])
    @pytest.mark.parametrize("count, shown", [(1.5, "1.5"), ("2", "'2'"), (True, "True"), (2.0, "2.0")])
    def test_count_must_be_an_int(self, mode, count, shown):
        cfg = GenConfig(max_states=2, max_actions=1, letters=("p",), mode=mode)
        message = f"^model count must be an int, got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            generate(cfg, count)
        with pytest.raises(ValueError, match=message):
            find_countermodel(parse_formula("p"), cfg, count)
        with pytest.raises(ValueError, match=message):
            soundness_audit(cfg, count)
        with pytest.raises(ValueError, match="^model count must be non-negative, got -5$"):
            generate(cfg, -5)

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


_LETTERS = ("p", "q", "r", "o")
# Every exhaustive space up to 2 states x 2 actions x 2 letters, 10,000-model
# prefixes of random configs (states, actions, letters, seed), and prefixes
# of three larger exhaustive spaces.
_EXHAUSTIVE_SPACES = [(n, k, _LETTERS[:j]) for n in (1, 2) for k in (1, 2) for j in range(3)]
_RANDOM_PREFIXES = [
    (1, 1, 0, 0), (4, 3, 2, 0),
    (2, 2, 4, 7), (6, 1, 1, 7),
    (3, 3, 3, 2**64 - 1), (6, 3, 4, 2**64 - 1),
]
_EXHAUSTIVE_PREFIXES = [(3, 2, ("p", "q"), 10_000), (4, 1, ("p",), 10_000), (4, 2, ("p", "q", "r"), 5_000)]


def _pinned_streams():
    for n, k, letters in _EXHAUSTIVE_SPACES:
        yield GenConfig(n, k, letters, mode="exhaustive"), None
    for n, k, j, seed in _RANDOM_PREFIXES:
        yield GenConfig(n, k, _LETTERS[:j], seed=seed), 10_000
    for n, k, letters, count in _EXHAUSTIVE_PREFIXES:
        yield GenConfig(n, k, letters, mode="exhaustive"), count


class TestStreamPins:
    def test_golden_digest(self):
        """One sha256 over ``format_model`` of every pinned model, computed
        before the generators built masks directly, while they still built
        each model from (source, target) name pairs through ``Model``."""
        digest = hashlib.sha256()
        total = 0
        for cfg, count in _pinned_streams():
            digest.update(repr((cfg, count)).encode())
            for model in generate(cfg, count):
                digest.update(format_model(model).encode())
                total += 1
        assert total == 90_754
        assert digest.hexdigest() == "1f8d3dcc86f22aa7e1e43f42f05475416cbbf5043b1bed7085390595dae72831"

    def test_exhaustive_size_pinned(self):
        spaces = [GenConfig(n, k, letters, mode="exhaustive") for n, k, letters in _EXHAUSTIVE_SPACES]
        sizes = [exhaustive_size(cfg) for cfg in spaces]
        assert sizes == [2, 4, 8, 4, 8, 16, 16, 64, 256, 256, 1024, 4096]
        assert [sum(1 for _ in generate(cfg)) for cfg in spaces] == sizes
        assert exhaustive_size(GenConfig(3, 2, ("p", "q"), mode="exhaustive")) == 2**24
        assert exhaustive_size(GenConfig(4, 2, ("p", "q", "r"), mode="exhaustive")) == 2**44

    def test_generated_model_equals_checked_construction(self):
        # A generated model is the one the validating constructor builds
        # from its views: a stored zero letter mask would break == here,
        # though format_model cannot show it.
        for cfg, count in _pinned_streams():
            for model in generate(cfg, count):
                checked = Model(model.states, model.actions, model.transitions, model.valuation)
                assert model == checked and hash(model) == hash(checked)
                assert model.transitions == checked.transitions
                assert model.valuation == checked.valuation
                assert repr(model) == repr(checked)
                assert model._letters == checked._letters and model._index == checked._index

    def test_consecutive_exhaustive_models_keep_their_own_memo(self):
        # Models that differ only in their valuation share edge rows, but
        # verify_plan on one must leave the next one's memo empty.
        cfg = GenConfig(max_states=2, max_actions=2, letters=("p", "q"), mode="exhaustive")
        models = list(generate(cfg, 16 * 40))
        used = 0
        for model, following in zip(models, models[1:]):
            assert following._images is not model._images
            for action in model.actions:
                verify_plan(model, model.states, model.states, (action, action))
            used += any(model._images.values())
            assert not any(following._images.values())
        assert used


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

    def test_hits_confirmed_by_pointwise_reference(self):
        # Each hit, read back from its text form, is checked by the literal
        # truth definition, which shares no code with the compiled program:
        # the state is the first one falsifying the formula, in the first
        # model of the stream that has one.
        rng = random.Random(2718)
        cfg = GenConfig(max_states=3, max_actions=2, letters=("p", "q", "r"), seed=2718)
        formulas = [random_formula(rng, depth=4) for _ in range(40)]
        formulas.append(parse_formula("Kh(p, q) & Kh(p, r) -> Kh(p, q & r)"))
        falsified = []
        for phi in formulas:
            found = find_countermodel(phi, cfg, limit=300)
            if found is None:
                continue
            model, state = found
            reparsed = parse_model(format_model(model))
            truth = ext_reference(reparsed, phi)
            assert state not in truth
            assert set(reparsed.states[: reparsed.index(state)]) <= truth
            for earlier in generate(cfg, 300):
                if earlier == model:
                    break
                assert ext_reference(earlier, phi) == frozenset(earlier.states)
            falsified.append(phi)
        assert len(falsified) >= 30 and falsified[-1] is formulas[-1]

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

    def test_audits_build_no_formula(self, monkeypatch):
        # The warm-up builds the theorem database; the route rows are
        # stated over schema letters, so no audit over any letters builds
        # a formula after it.
        soundness_audit(GenConfig(max_states=3, max_actions=2, letters=("p",), seed=4), 1)
        built = []
        construct = Formula.__new__

        def counting(cls, *args):
            built.append(cls)
            return construct(cls, *args)

        monkeypatch.setattr(Formula, "__new__", staticmethod(counting))
        for letters in (("p", "q"), ("p", "q", "r"), ("p", "q", "r", "o")):
            cfg = GenConfig(max_states=3, max_actions=2, letters=letters, seed=4)
            assert soundness_audit(cfg, 3).ok
            assert built == []

    @pytest.mark.parametrize("mode", ["random", "exhaustive"])
    def test_instances_per_model(self, mode):
        for letters, per_model in zip(("p", "pq", "pqr", "pqro"), (18, 80, 234, 552)):
            cfg = GenConfig(max_states=3, max_actions=2, letters=tuple(letters), seed=5, mode=mode)
            report = soundness_audit(cfg, 3)
            assert report.models_checked == 3
            assert report.instances_checked == 3 * per_model

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
        for x, y in product(cfg.letters, repeat=2):
            phi = Implies(Atom(x), Atom(y))
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
                    compiled = model._names(_run(program, model, env, decisions, (1 << len(model.states)) - 1))
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

    def test_schema_planted_after_a_clean_audit_is_reported(self, monkeypatch):
        # The rows are built once; a schema planted after an audit must
        # still be audited.
        cfg = GenConfig(max_states=4, max_actions=2, letters=("p", "q", "r"), seed=608)
        assert soundness_audit(cfg, 40).ok
        monkeypatch.setitem(
            proofs.AXIOM_SCHEMAS, "GOAL-CONJ", parse_formula("Kh(p, q) & Kh(p, r) -> Kh(p, q & r)")
        )
        report = soundness_audit(cfg, 40)
        assert report == _substitute_route_audit(cfg, 40)
        assert report.violations and {v.schema for v in report.violations} == {"GOAL-CONJ"}
        monkeypatch.undo()
        assert soundness_audit(cfg, 40).ok

    def test_planted_routes_confirmed_through_ext_in_row_order(self, monkeypatch):
        # A non-valid KHPLUS-DEF and a U pair that does not match: every
        # violation reported must be confirmed through ext and check_U on
        # the built instance, none may be missed, and they come row by row.
        p, q = Atom("p"), Atom("q")
        monkeypatch.setattr(modelgen, "_ROUTES", (
            ("U-ROUTE", Implies(p, q), U(Implies(q, p))),
            ("KHPLUS-DEF", parse_formula("Khp(p, q) <-> Kh(p, q)"), None),
        ))
        cfg = GenConfig(max_states=3, max_actions=2, letters=("p", "q", "r"), seed=609)
        report = soundness_audit(cfg, 60)
        expected = []
        for number, model in enumerate(generate(cfg, 60), start=1):
            everything = frozenset(model.states)
            for x, y in product(cfg.letters, repeat=2):
                phi = Implies(Atom(x), Atom(y))
                if check_U(model, phi) != (ext(model, U(Implies(Atom(y), Atom(x)))) == everything):
                    expected.append((number, "U-ROUTE", (("p", x), ("q", y))))
            for x, y in product(cfg.letters, repeat=2):
                if ext(model, KhPlus(Atom(x), Atom(y))) != ext(model, Kh(Atom(x), Atom(y))):
                    expected.append((number, "KHPLUS-DEF", (("p", x), ("q", y))))
        routes = [
            (v.model_number, v.schema, v.assignment)
            for v in report.violations
            if v.schema in ("U-ROUTE", "KHPLUS-DEF")
        ]
        assert routes == expected
        assert {"U-ROUTE", "KHPLUS-DEF"} <= {schema for _, schema, _ in routes}
        assert len(routes) == len(report.violations)


class TestAuditSlices:
    """The audit runs each row once per model over one slice per
    assignment, 8*ceil(n/8) bits each; the boundaries of that layout must
    not change the report."""

    @staticmethod
    def _configs(states, letters, how_many):
        """The first ``how_many`` configurations, by seed, whose first
        model has exactly ``states`` states."""
        found = []
        for seed in range(10_000):
            cfg = GenConfig(max_states=states, max_actions=2, letters=letters, seed=seed)
            (model,) = generate(cfg, 1)
            if len(model.states) == states:
                found.append(cfg)
                if len(found) == how_many:
                    return found
        raise AssertionError("no such seed")

    @pytest.mark.parametrize(
        "states, letters, how_many",
        [
            (1, ("p", "q", "r"), 20),  # slices one state wide
            (8, ("p", "q"), 4),  # the widest one-byte slices
            (9, ("p", "q", "r"), 3),  # two-byte slices
            (3, ("p", "q", "r", "o", "s"), 2),  # 625 slices in the arity-4 row
        ],
    )
    def test_report_equals_substitute_route(self, states, letters, how_many):
        for cfg in self._configs(states, letters, how_many):
            report = soundness_audit(cfg, 1)
            assert report.ok
            assert report == _substitute_route_audit(cfg, 1)

    def test_planted_schema_on_two_byte_slices(self, monkeypatch):
        # GOAL-CONJ rarely fails on models this dense; this stream has
        # failing models of 9 or more states among its first ten.
        wrong = parse_formula("Kh(p, q) & Kh(p, r) -> Kh(p, q & r)")
        monkeypatch.setitem(proofs.AXIOM_SCHEMAS, "GOAL-CONJ", wrong)
        cfg = GenConfig(max_states=10, max_actions=2, letters=("p", "q", "r"), seed=619)
        report = soundness_audit(cfg, 10)
        assert report == _substitute_route_audit(cfg, 10)
        assert {v.schema for v in report.violations} == {"GOAL-CONJ"}
        assert any(len(v.model.states) > 8 for v in report.violations)
