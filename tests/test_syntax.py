from __future__ import annotations

import gc
import os
import pickle
import random
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from knowhow import (
    And,
    Atom,
    Bot,
    FormulaSyntaxError,
    Iff,
    Implies,
    Kh,
    KhPlus,
    Not,
    Or,
    Top,
    U,
    atom_names,
    check_proof,
    children,
    ext,
    formula_height,
    is_tautology,
    normalize,
    parse_formula,
    parse_proof,
    print_formula,
    substitute,
    substitute_all,
)

import knowhow.syntax as syntax
from helpers import random_formula

p, q, r, s = Atom("p"), Atom("q"), Atom("r"), Atom("s")


atoms = st.sampled_from(["p", "q", "r", "o"]).map(Atom)
formulas = st.recursive(
    st.one_of(st.just(Top()), st.just(Bot()), atoms),
    lambda kids: st.one_of(
        kids.map(Not),
        kids.map(U),
        st.tuples(kids, kids).map(lambda t: And(*t)),
        st.tuples(kids, kids).map(lambda t: Or(*t)),
        st.tuples(kids, kids).map(lambda t: Implies(*t)),
        st.tuples(kids, kids).map(lambda t: Iff(*t)),
        st.tuples(kids, kids).map(lambda t: Kh(*t)),
        st.tuples(kids, kids).map(lambda t: KhPlus(*t)),
    ),
    max_leaves=30,
)


class TestParse:
    def test_kh(self):
        assert parse_formula("Kh(p, q)") == Kh(p, q)

    def test_top(self):
        assert parse_formula("top") == Top()

    def test_precedence(self):
        assert parse_formula("~p & q -> U r") == Implies(And(Not(p), q), U(r))

    def test_implication_right_associative(self):
        assert parse_formula("p -> q -> r") == Implies(p, Implies(q, r))

    def test_or_and_levels(self):
        assert parse_formula("~p & q | r -> s") == Implies(Or(And(Not(p), q), r), s)

    def test_unary_binds_tighter_than_and(self):
        assert parse_formula("U p & q") == And(U(p), q)

    def test_kh_args_take_full_formulas(self):
        assert parse_formula("Kh(p -> q, r | s)") == Kh(Implies(p, q), Or(r, s))

    def test_khp(self):
        assert parse_formula("Khp(p, q)") == KhPlus(p, q)

    def test_iff_non_chaining(self):
        assert parse_formula("p <-> q & r") == Iff(p, And(q, r))
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p <-> q <-> r")
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p <-> q -> r")
        assert parse_formula("p -> q <-> r") == Implies(p, Iff(q, r))

    def test_whitespace_insignificant(self):
        assert parse_formula(" Kh( p ,q )  ") == Kh(p, q)
        assert parse_formula("~  ~p") == Not(Not(p))

    def test_keywords_are_not_atoms(self):
        assert parse_formula("topx") == Atom("topx")
        assert parse_formula("bot") == Bot()
        with pytest.raises(ValueError):
            Atom("top")
        with pytest.raises(ValueError):
            Atom("Kh")
        with pytest.raises(ValueError):
            Atom("1bad")

    def test_error_offset_and_expected(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("p &")
        assert exc.value.offset == 4
        assert "identifier" in exc.value.expected

        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("Kh(p q)")
        assert exc.value.offset == 6
        assert "','" in exc.value.expected

        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("(p | q")
        assert exc.value.offset == 7
        assert "')'" in exc.value.expected

        # One input per error site of the parser: the full message, offset
        # and expected tokens.
        unary = ("'~'", "'U'", "'Kh'", "'Khp'", "'top'", "'bot'", "identifier", "'('")
        end = ("'->'", "'<->'", "'|'", "'&'", "end of input")
        m = 10_000
        cases = [
            ("Kh p", "unexpected token 'p' at offset 4 (expected '(')", 4, ("'('",)),
            ("Kh(p q)", "unexpected token 'q' at offset 6 (expected ',')", 6, ("','",)),
            ("Kh(p, q", "unexpected end of input at offset 8 (expected ')')", 8, ("')'",)),
            ("(p | q", "unexpected end of input at offset 7 (expected ')')", 7, ("')'",)),
            ("p &", "unexpected end of input at offset 4 (expected " + " or ".join(unary) + ")", 4, unary),
            ("~)", "unexpected token ')' at offset 2 (expected " + " or ".join(unary) + ")", 2, unary),
            ("p q", "unexpected token 'q' at offset 3 (expected " + " or ".join(end) + ")", 3, end),
            ("p <-> q <-> r", "unexpected token '<->' at offset 9 (expected " + " or ".join(end) + ")", 9, end),
            ("Kh(p, q))", "unexpected token ')' at offset 9 (expected " + " or ".join(end) + ")", 9, end),
            ("~" * (m + 1) + "p", "nesting depth exceeds 10000 at offset 10001", 10_001, ()),
            ("(" * (m + 1) + "p" + ")" * (m + 1), "nesting depth exceeds 10000 at offset 10001", 10_001, ()),
            ("Kh(" * (m + 1) + "p" + ", q)" * (m + 1), "nesting depth exceeds 10000 at offset 30001", 30_001, ()),
            (" & ".join(["p"] * (m + 1)), "nesting depth exceeds 10000 at offset 39999", 39_999, ()),
            (" | ".join(["p"] * (m + 1)), "nesting depth exceeds 10000 at offset 39999", 39_999, ()),
            (" -> ".join(["p"] * (m + 1)), "nesting depth exceeds 10000 at offset 49998", 49_998, ()),
            ("~" * (m - 2) + "(p <-> q)", "nesting depth exceeds 10000 at offset 10002", 10_002, ()),
        ]
        for text, message, offset, expected in cases:
            with pytest.raises(FormulaSyntaxError) as exc:
                parse_formula(text)
            assert (str(exc.value), exc.value.offset, exc.value.expected) == (message, offset, expected)
        # The depth errors above are raised at ~, (, Kh, &, |, -> and <->.
        assert [text[offset - 1 : offset + 2] for text, _, offset, _ in cases[9:]] == [
            "~p", "(p)", "Kh(", "& p", "| p", "-> ", "<->"
        ]

    def test_unknown_keyword(self):
        with pytest.raises(FormulaSyntaxError, match="unknown keyword 'Up'"):
            parse_formula("Up")
        with pytest.raises(FormulaSyntaxError, match="unknown keyword 'Foo'"):
            parse_formula("Foo(p, q)")

    def test_unexpected_character(self):
        with pytest.raises(FormulaSyntaxError) as exc:
            parse_formula("p + q")
        assert exc.value.offset == 3

    def test_trailing_garbage(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("p q")


class TestPrint:
    def test_kh(self):
        assert print_formula(Kh(p, q)) == "Kh(p, q)"

    def test_u(self):
        assert print_formula(U(p)) == "U p"

    def test_parenthesizes_or_under_and(self):
        assert print_formula(And(Or(p, q), r)) == "(p | q) & r"

    def test_right_nested_and_keeps_structure(self):
        phi = And(p, And(q, r))
        assert print_formula(phi) == "p & (q & r)"
        assert parse_formula(print_formula(phi)) == phi

    def test_negation_of_conjunction(self):
        assert print_formula(Not(And(p, q))) == "~(p & q)"

    def test_implication_chain(self):
        assert print_formula(Implies(p, Implies(q, r))) == "p -> q -> r"
        assert print_formula(Implies(Implies(p, q), r)) == "(p -> q) -> r"

    def test_iff_guards_its_sides(self):
        assert print_formula(Iff(p, Implies(q, r))) == "p <-> (q -> r)"
        assert print_formula(Implies(p, Iff(q, r))) == "p -> q <-> r"


class TestNormalize:
    def test_u_unfolds(self):
        assert normalize(U(p)) == Kh(Not(p), Not(Top()))
        assert print_formula(normalize(U(p))) == "Kh(~p, ~top)"

    def test_core_fixed_point(self):
        assert normalize(p) == p
        phi = Kh(And(p, Not(q)), Top())
        assert normalize(phi) == phi

    def test_khp_expansion(self):
        inner = Not(And(p, Not(q)))  # p -> q, normalized
        expected = And(Kh(p, q), Not(Kh(Not(inner), Not(Top()))))
        assert normalize(KhPlus(p, q)) == expected

    def test_bot_or_implies_iff(self):
        assert normalize(Bot()) == Not(Top())
        assert normalize(Or(p, q)) == Not(And(Not(p), Not(q)))
        assert normalize(Implies(p, q)) == Not(And(p, Not(q)))
        assert normalize(Iff(p, q)) == And(
            Not(And(p, Not(q))), Not(And(q, Not(p)))
        )

    def test_only_core_constructors(self):
        rng = random.Random(5)
        core_types = (Top, Atom, Not, And, Kh)
        for _ in range(200):
            phi = normalize(random_formula(rng))
            stack = [phi]
            while stack:
                node = stack.pop()
                assert isinstance(node, core_types)
                stack.extend(children(node))

    @given(formulas)
    @settings(max_examples=300)
    def test_idempotent(self, phi):
        once = normalize(phi)
        assert normalize(once) is once

    def test_core_input_is_returned_as_is(self):
        # Equal but distinct atoms and subterms must not make normalize rebuild.
        c = Kh(And(Atom("p"), Not(Atom("p"))), And(Not(Atom("p")), Top()))
        assert normalize(c) is c
        rng = random.Random(9)
        for _ in range(200):
            n = normalize(random_formula(rng))
            assert normalize(n) is n


class TestSubstitute:
    def test_inside_kh(self):
        assert substitute(Kh(p, q), "p", And(r, s)) == Kh(And(r, s), q)

    def test_uniform(self):
        assert substitute(Implies(p, p), "p", Kh(Atom("a"), Atom("b"))) == Implies(
            Kh(Atom("a"), Atom("b")), Kh(Atom("a"), Atom("b"))
        )

    def test_no_occurrence(self):
        assert substitute(q, "p", r) == q

    def test_replacement_must_be_a_formula(self):
        with pytest.raises(TypeError, match="replacement for 'p' is not a formula: 'q'"):
            substitute(p, "p", "q")
        with pytest.raises(TypeError, match="replacement for 'r' is not a formula: None"):
            substitute_all(Kh(p, q), {"p": q, "r": None})

    @given(formulas)
    @settings(max_examples=200)
    def test_identity_substitution(self, phi):
        for name in atom_names(phi):
            assert substitute(phi, name, Atom(name)) == phi

    @given(formulas, st.sampled_from(["p", "q", "r"]), formulas)
    @settings(max_examples=200)
    def test_compositional(self, phi, letter, repl):
        whole = substitute(phi, letter, repl)
        kids = children(phi)
        if kids:
            rebuilt = type(phi)(*(substitute(k, letter, repl) for k in kids))
            assert whole == rebuilt


class TestRoundTrip:
    @given(formulas)
    @settings(max_examples=500)
    def test_parse_print_identity(self, phi):
        assert parse_formula(print_formula(phi)) == phi

    def test_seeded_bulk(self):
        rng = random.Random(12)
        for _ in range(500):
            phi = random_formula(rng)
            assert parse_formula(print_formula(phi)) == phi


class TestDepthLimit:
    def test_beyond_limit_rejected(self):
        text = "~" * 10_001 + "p"
        with pytest.raises(FormulaSyntaxError, match="nesting depth"):
            parse_formula(text)

    def test_deep_but_legal_input_works(self):
        depth = 9_990
        phi = parse_formula("~" * depth + "p")
        assert formula_height(phi) == depth + 1
        assert parse_formula(print_formula(phi)) == phi
        assert normalize(normalize(phi)) == normalize(phi)
        assert substitute(phi, "p", q) == parse_formula("~" * depth + "q")
        twin = parse_formula("~" * depth + "p")
        assert twin is phi
        assert hash(twin) == hash(phi)
        assert twin == phi
        assert twin != parse_formula("~" * depth + "q")

    def test_concurrent_deep_calls(self):
        # Deep calls walk explicit stacks on the caller's thread: overlapping
        # calls from several threads must all succeed and leave the
        # process-wide recursion limit as it was.
        phi = parse_formula("~" * 9_990 + "p")
        limit = sys.getrecursionlimit()
        errors = []

        def work():
            try:
                for _ in range(20):
                    normalize(phi)
                    print_formula(phi)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sys.getrecursionlimit() == limit

    def test_deep_parens(self):
        phi = parse_formula("(" * 3000 + "p" + ")" * 3000)
        assert phi == p

    def test_wide_disjunction_counts_toward_depth(self):
        ok = " | ".join(["p"] * 9_000)
        parse_formula(ok)
        too_wide = " | ".join(["p"] * 10_002)
        with pytest.raises(FormulaSyntaxError, match="nesting depth"):
            parse_formula(too_wide)

    @pytest.mark.parametrize("depth", [300, 520, 1_000, 1_499])
    def test_mid_depth_on_the_callers_thread(self, depth, ex1):
        phi = parse_formula("~" * depth + "p")
        assert formula_height(phi) == depth + 1
        assert parse_formula("(" * depth + "p" + ")" * depth) is p
        assert print_formula(phi) == "~" * depth + "p"
        core = normalize(phi)
        assert normalize(core) is core
        assert substitute_all(phi, {"p": q}) is parse_formula("~" * depth + "q")
        assert atom_names(phi) == {"p"}
        assert is_tautology(Implies(phi, phi))
        assert not is_tautology(phi)
        assert ext(ex1, phi) == ext(ex1, p if depth % 2 == 0 else Not(p))

    def test_no_worker_thread_or_recursion_limit(self, ex1, monkeypatch):
        # Every operation walks explicit stacks on the caller's thread, so
        # none may touch the recursion limit or start a thread.
        def refuse(*args, **kwargs):
            raise AssertionError("a formula operation tried to change the process")

        monkeypatch.setattr(sys, "setrecursionlimit", refuse)
        monkeypatch.setattr(threading, "stack_size", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        depth = 9_990
        deep = "~" * depth + "p"
        phi = parse_formula(deep)
        assert print_formula(phi) == deep
        assert normalize(normalize(phi)) is normalize(phi)
        assert substitute(phi, "p", q) is parse_formula("~" * depth + "q")
        assert ext(ex1, phi) == {"s2", "s3"}
        proof = parse_proof(
            f"1. {deep} -> {deep} ; taut\n"
            f"2. U({deep} -> {deep}) ; necu 1\n"
            f"3. U({deep} -> {deep}) -> Kh({deep}, {deep}) ; axiom EMP p={deep} q={deep}\n"
            f"4. Kh({deep}, {deep}) ; mp 2 3\n"
        )
        assert check_proof(proof.proof)

    def test_atom_names_of_shared_normal_form_is_linear(self):
        # normalize shares both operands of every <->, so a tree walk over
        # the normal form would double with each level.
        nested = "q"
        for _ in range(40):
            nested = f"p <-> ({nested})"
        core = normalize(parse_formula(nested))
        start = time.perf_counter()
        assert atom_names(core) == {"p", "q"}
        assert time.perf_counter() - start < 1.0


class TestInterning:
    @given(formulas, formulas)
    @settings(max_examples=500)
    def test_identity_is_structural_equality(self, a, b):
        # parse_formula inverts the printer, so equal text means equal structure.
        assert (a is b) == (print_formula(a) == print_formula(b))
        na, nb = normalize(a), normalize(b)
        assert (na is nb) == (print_formula(na) == print_formula(nb))
        assert parse_formula(print_formula(a)) is a
        assert normalize(U(a)) is normalize(Kh(Not(a), Bot()))
        assert U(a) is not Kh(Not(a), Bot())

    def test_operand_must_be_a_formula(self):
        baseline = len(syntax._TABLE)
        with pytest.raises(TypeError, match="Not operand is not a formula: 'p'"):
            Not("p")
        with pytest.raises(TypeError, match="Kh operand is not a formula: None"):
            Kh(p, None)
        with pytest.raises(TypeError, match="And operand is not a formula: 3"):
            And(3, q)
        with pytest.raises(TypeError, match=r"Not operand is not a formula: \[1\]"):
            Not([1])
        with pytest.raises(ValueError, match="invalid atom name 1"):
            Atom(1)
        assert len(syntax._TABLE) == baseline
        assert Not(p).child is p

    def test_threads_building_the_same_formulas_get_one_object(self):
        # Fresh letters, so that every node is a miss in each thread.
        letters = ("race_a", "race_b", "race_c")
        barrier = threading.Barrier(4)
        built: list[list] = [[] for _ in range(4)]
        errors = []

        def work(out):
            try:
                barrier.wait(timeout=60)
                rng = random.Random(17)
                out.extend(random_formula(rng, letters, depth=8) for _ in range(300))
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(out,)) for out in built]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for formulas_in_each_thread in zip(*built):
            first = formulas_in_each_thread[0]
            assert all(phi is first for phi in formulas_in_each_thread)
            assert parse_formula(print_formula(first)) is first

    def test_unpickled_formula_is_the_same_object(self):
        rng = random.Random(3)
        for _ in range(100):
            phi = random_formula(rng)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(phi, protocol)) is phi

    def test_dropped_deep_formulas_leave_the_table(self):
        # Built, normalized and dropped on this thread, with the cycle
        # collector off: dead formulas and their cached normal forms must
        # leave the table by reference counting alone.
        gc.collect()
        baseline = len(syntax._TABLE)
        gc.disable()
        try:
            for _ in range(20):
                phi = Bot()
                for _ in range(9_990):
                    phi = Not(phi)
                core = normalize(phi)
                assert core is not phi and normalize(core) is core
                assert normalize(phi) is core
                del phi, core
                assert len(syntax._TABLE) == baseline
        finally:
            gc.enable()


def test_formula_height():
    assert formula_height(p) == 1
    assert formula_height(And(p, Not(q))) == 3
    assert formula_height(Kh(p, And(p, Not(q)))) == 4


def test_str_matches_printer():
    phi = Implies(And(Not(p), q), U(r))
    assert str(phi) == print_formula(phi)


def test_unpickled_formula_matches_fresh_one_in_another_process():
    # Cached hashes are per process; unpickling must rebuild them.
    phi = parse_formula("Kh(p, q & ~r) -> U p")
    script = (
        "import pickle, sys\n"
        "from knowhow import parse_formula\n"
        "phi = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = parse_formula(str(phi))\n"
        "print(phi == fresh, {phi: 1}.get(fresh))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        input=pickle.dumps(phi),
        capture_output=True,
        env={**os.environ, "PYTHONHASHSEED": "1"},
    )
    assert proc.stdout == b"True 1\n", proc.stderr
