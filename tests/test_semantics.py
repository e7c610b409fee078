from __future__ import annotations

import gc
import random
import sys
import threading
import weakref
from itertools import product

import pytest

from knowhow import (
    AXIOM_SCHEMAS,
    Atom,
    Bot,
    GenConfig,
    Implies,
    Kh,
    KhPlus,
    Not,
    Top,
    U,
    atom_names,
    check_U,
    exhaustive_size,
    ext,
    format_model,
    generate,
    holds,
    is_tautology,
    normalize,
    parse_formula,
    parse_model,
    substitute_all,
    theorem_db,
)

import knowhow.semantics as semantics

from helpers import ext_reference, random_formula


class TestExt:
    def test_ex1_kh_holds_globally(self, ex1):
        assert ext(ex1, parse_formula("Kh(p, q)")) == frozenset(ex1.states)

    def test_ex2_kh_fails_globally(self, ex2_left, ex2_right):
        phi = parse_formula("Kh(p, q)")
        assert ext(ex2_left, phi) == frozenset()
        assert ext(ex2_right, phi) == frozenset()

    def test_top_everywhere(self, ex1, ex2_left):
        for model in (ex1, ex2_left):
            assert ext(model, Top()) == frozenset(model.states)

    def test_booleans(self, ex1):
        assert ext(ex1, parse_formula("p | q")) == {"s2", "s3", "s4", "s7", "s8"}
        assert ext(ex1, parse_formula("~p & ~q")) == {"s1", "s5", "s6"}

    def test_sugar_evaluates_via_normalization(self, ex1):
        assert ext(ex1, parse_formula("p -> p")) == frozenset(ex1.states)
        assert ext(ex1, Bot()) == frozenset()


class TestHolds:
    def test_globality_at_non_p_state(self, ex1):
        # s1 satisfies no letter, yet the ability claim holds there too.
        assert holds(ex1, "s1", parse_formula("Kh(p, q)"))

    def test_bot_nowhere(self, ex1):
        assert all(not holds(ex1, s, Bot()) for s in ex1.states)

    def test_negation_on_ex2_left(self, ex2_left):
        assert holds(ex2_left, "s1", parse_formula("~Kh(p, q)"))

    def test_unknown_state(self, ex1):
        with pytest.raises(ValueError, match="unknown state"):
            holds(ex1, "zz", Top())


class TestCheckU:
    def test_ex1_p_not_universal(self, ex1):
        assert not check_U(ex1, Atom("p"))

    def test_top_universal(self, ex1, ex2_right):
        assert check_U(ex1, Top())
        assert check_U(ex2_right, Top())

    def test_agrees_with_kh_expansion_route(self):
        rng = random.Random(2)
        cfg = GenConfig(max_states=4, max_actions=2, letters=("p", "q"), seed=2)
        for model in generate(cfg, 40):
            everything = frozenset(model.states)
            for _ in range(3):
                phi = random_formula(rng, letters=("p", "q"), depth=3)
                via_expansion = ext(model, normalize(U(phi))) == everything
                assert check_U(model, phi) == via_expansion


class TestGlobality:
    def test_global_roots_are_all_or_nothing(self):
        rng = random.Random(8)
        cfg = GenConfig(max_states=4, max_actions=2, letters=("p", "q"), seed=8)
        for model in generate(cfg, 30):
            everything = frozenset(model.states)
            for _ in range(3):
                cond = random_formula(rng, ("p", "q"), depth=2)
                goal = random_formula(rng, ("p", "q"), depth=2)
                for phi in (Kh(cond, goal), U(cond), KhPlus(cond, goal)):
                    truth = ext(model, phi)
                    assert truth in (frozenset(), everything)


def _assignments(letters, schema_letters):
    for combo in product(letters, repeat=len(schema_letters)):
        yield dict(zip(schema_letters, (Atom(x) for x in combo)))


class TestValiditySchemas:
    def test_axiom_validities_on_random_models(self):
        cfg = GenConfig(max_states=4, max_actions=2, letters=("p", "q"), seed=99)
        for model in generate(cfg, 25):
            everything = frozenset(model.states)
            for schema in AXIOM_SCHEMAS.values():
                for binding in _assignments(cfg.letters, sorted(atom_names(schema))):
                    assert ext(model, substitute_all(schema, binding)) == everything

    def test_derived_theorems_on_random_models(self):
        cfg = GenConfig(max_states=3, max_actions=2, letters=("p", "q"), seed=123)
        entries = theorem_db()
        for model in generate(cfg, 15):
            everything = frozenset(model.states)
            for entry in entries:
                for binding in _assignments(cfg.letters, sorted(atom_names(entry.formula))):
                    assert ext(model, substitute_all(entry.formula, binding)) == everything

    def test_khplus_filter(self):
        cfg = GenConfig(max_states=4, max_actions=2, letters=("p", "q"), seed=17)
        for model in generate(cfg, 30):
            for x, y in product(cfg.letters, repeat=2):
                strong = ext(model, KhPlus(Atom(x), Atom(y)))
                assert strong <= ext(model, Kh(Atom(x), Atom(y)))
                assert strong <= ext(model, Not(U(Implies(Atom(x), Atom(y)))))

    def test_conjunction_of_goals_not_valid(self, ex2_left):
        # The schema fails somewhere: a separate module hunts the witness.
        phi = parse_formula("Kh(p, q) & Kh(p, r) -> Kh(p, q & r)")
        # On a model where the antecedent fails the schema is fine...
        assert ext(ex2_left, phi) == frozenset(ex2_left.states)
        # ...and a two-state witness falsifies it.
        witness = parse_model(
            "state w1 [p q]\nstate w2 [r]\naction a\ntrans w1 a w2\n"
        )
        assert ext(witness, phi) == frozenset()


class TestNormalizePreservesSemantics:
    def test_random_pairs(self):
        rng = random.Random(55)
        cfg = GenConfig(max_states=4, max_actions=2, letters=("p", "q", "r"), seed=55)
        for model in generate(cfg, 40):
            for _ in range(3):
                phi = random_formula(rng, ("p", "q", "r"), depth=4)
                assert ext(model, phi) == ext(model, normalize(phi))


NESTED_KH = [
    parse_formula(text)
    for text in (
        "Kh(Kh(p, q), q)",
        "p & ~Kh(q, p) | Kh(p & ~Kh(q, p), U q)",
        "Khp(p, Kh(q, ~p)) | q",
        "Kh(~Kh(p, ~q), Kh(top, p) -> q) -> p",
        "Kh(Kh(Kh(p, q), ~p), Kh(q, Kh(~q, p))) & ~Kh(p, q)",
    )
]


class TestAgainstPointwiseReference:
    def test_extension_evaluator_matches_literal_definition(self):
        rng = random.Random(808)
        cfg = GenConfig(max_states=3, max_actions=2, letters=("p", "q"), seed=808)
        for model in generate(cfg, 60):
            for _ in range(2):
                phi = random_formula(rng, ("p", "q"), depth=3)
                assert ext(model, phi) == ext_reference(model, phi)

    def test_nested_kh_on_exhaustive_two_state_space(self):
        cfg = GenConfig(max_states=2, max_actions=2, letters=("p", "q"), mode="exhaustive")
        models = 0
        for model in generate(cfg):
            models += 1
            for phi in NESTED_KH:
                assert ext(model, phi) == ext_reference(model, phi), (format_model(model), phi)
        assert models == exhaustive_size(cfg) == 4096

    def test_extensionally_equal_kh_nodes_cost_one_search(self, ex1, monkeypatch):
        searches = []
        search = semantics._search

        def counting(model, root, goal):
            searches.append((root, goal))
            return search(model, root, goal)

        monkeypatch.setattr(semantics, "_search", counting)
        phi = parse_formula("Kh(p, q) & Kh(p & p, q) & ~~Kh(~~p, q | q) & Kh(p | bot, q & top)")
        assert ext(ex1, phi) == frozenset(ex1.states)
        assert len(searches) == 1


class TestProgramCache:
    # A compiled program is cached on the interned normal form, so it
    # lives exactly as long as that node does.

    def test_one_program_per_normal_form(self):
        phi = parse_formula("Kh(p, q) & ~U(p -> q)")
        assert semantics._compile(phi) is semantics._compile(phi)
        sugar, core = parse_formula("p -> q"), parse_formula("~(p & ~q)")
        assert sugar is not core
        assert semantics._compile(sugar) is semantics._compile(core)

    def test_program_holds_no_formula(self):
        phi = parse_formula("Khp(p & r, U ~q) <-> Kh(top, bot | r)")
        program = semantics._compile(phi)
        assert program and all(type(op) is tuple and len(op) == 3 for op in program)
        for op in program:
            assert all(isinstance(x, (int, str, type(None))) for x in op), op

    def test_compiled_formula_dies_with_its_last_reference(self):
        # The cycle collector is off: a compiled formula and its normal
        # form must die by reference counting alone.
        gc.collect()
        gc.disable()
        try:
            phi = parse_formula("Kh(dying_a, U(dying_b & ~dying_a))")
            semantics._compile(phi)
            normal = normalize(phi)
            refs = [weakref.ref(phi), weakref.ref(normal)]
            del phi, normal
            assert [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    def test_threads_compiling_one_fresh_formula(self):
        model = next(generate(GenConfig(max_states=4, max_actions=2, letters=("p", "q"), seed=5), 1))
        phi = parse_formula("Kh(p & ~threads_x, U(q -> Kh(~p, q))) | Khp(q, p & ~threads_x)")
        assert "_program" not in normalize(phi).__dict__
        results: list[frozenset[str]] = []
        barrier = threading.Barrier(4)

        def worker() -> None:
            barrier.wait()
            results.append(ext(model, phi))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4
        assert results == [ext_reference(model, phi)] * 4


class TestDeepNesting:
    # Normalizing, compiling and running a deep formula walk explicit
    # stacks and loops, without recursion, on the caller's thread.

    def test_deep_negation_chain(self, ex1):
        assert ext(ex1, parse_formula("~" * 9_990 + "p")) == {"s2", "s3"}
        assert ext(ex1, parse_formula("~" * 9_989 + "p")) == {"s1", "s4", "s5", "s6", "s7", "s8"}

    def test_deep_kh_nesting(self, ex1):
        p, q = Atom("p"), Atom("q")
        cond_nested = alternating = p
        for level in range(3_000):
            cond_nested = Kh(cond_nested, q)
            alternating = Kh(alternating, q) if level % 2 else Not(Kh(p, alternating))
        assert ext(ex1, cond_nested) == frozenset()
        assert ext(ex1, alternating) == frozenset(ex1.states)


class TestTautologiesAreValid:
    def test_propositional_tautologies_hold_everywhere(self):
        rng = random.Random(4242)
        cfg = GenConfig(max_states=3, max_actions=2, letters=("p", "q"), seed=4242)
        models = list(generate(cfg, 10))
        found = 0
        for _ in range(400):
            phi = random_formula(rng, ("p", "q"), depth=3)
            if is_tautology(phi):
                found += 1
                for model in models:
                    assert ext(model, phi) == frozenset(model.states)
        assert found >= 10  # the generator produced enough tautologies
