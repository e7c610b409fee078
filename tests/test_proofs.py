from __future__ import annotations

import random
import sys
import time
from itertools import permutations

import pytest

from knowhow import (
    AXIOM_SCHEMAS,
    Atom,
    AxiomInst,
    Hyp,
    MP,
    NecU,
    Proof,
    ProofDocument,
    ProofFormatError,
    ProofLine,
    Sub,
    Taut,
    TautologyBudgetError,
    atom_names,
    check_proof,
    check_proof_under,
    instantiate_axiom,
    is_tautology,
    parse_formula,
    parse_proof,
    substitute,
    substitute_all,
    theorem_db,
)
from knowhow.proofs import format_verdict

from helpers import flip_root_connective, proof_file_text, random_formula, run_cli


def _lines(*entries) -> Proof:
    return Proof(tuple(ProofLine(i + 1, f, j) for i, (f, j) in enumerate(entries)))


class TestIsTautology:
    def test_identity(self):
        assert is_tautology(parse_formula("p -> p"))

    def test_excluded_middle_over_abstracted_unit(self):
        assert is_tautology(parse_formula("Kh(p, q) | ~Kh(p, q)"))

    def test_distinct_units_not_interchangeable(self):
        assert not is_tautology(parse_formula("Kh(p, q) -> Kh(q, p)"))

    def test_basics(self):
        assert is_tautology(parse_formula("top"))
        assert is_tautology(parse_formula("bot -> q"))
        assert not is_tautology(parse_formula("p"))
        assert not is_tautology(parse_formula("p -> q"))

    def test_u_formulas_abstract(self):
        assert is_tautology(parse_formula("U p -> U p"))
        assert not is_tautology(parse_formula("U p -> p"))  # valid, but not propositionally

    def test_shared_units(self):
        assert is_tautology(parse_formula("Kh(p & q, r) -> Kh(p & q, r)"))

    def test_budget(self):
        wide_20 = " | ".join(f"Kh(x{i}, x{i})" for i in range(20))
        assert not is_tautology(parse_formula(wide_20))
        wide_21 = " | ".join(f"Kh(x{i}, x{i})" for i in range(21))
        with pytest.raises(TautologyBudgetError, match="^21 abstraction units exceed the budget of 20$"):
            is_tautology(parse_formula(wide_21))
        proof = _lines((parse_formula("p -> p"), Taut()), (parse_formula(wide_21), Taut()))
        with pytest.raises(TautologyBudgetError, match="^line 2: 21 abstraction units exceed the budget of 20$"):
            check_proof(proof)

    def test_twenty_units_decided_quickly(self):
        conj = " & ".join(f"a{i}" for i in range(20))
        cases = [
            (f"({conj}) -> a0", True),
            (" & ".join(f"(a{i} | ~a{i})" for i in range(20)), True),
            (f"~({conj})", False),  # false only in the last row of the table
            (" | ".join(f"a{i}" for i in range(20)), False),  # false only in the first
        ]
        for text, valid in cases:
            start = time.perf_counter()
            assert is_tautology(parse_formula(text)) is valid
            assert time.perf_counter() - start < 2.0

    def test_every_unit_varies_across_row_blocks(self):
        # The falsifying row of "others -> a_j" sets every unit but a_j, so
        # a unit fixed wrongly within a block, or across blocks, shows.
        units = [f"a{i}" for i in range(13)] + [f"Kh(b{i}, c)" for i in range(7)]
        for j, unit in enumerate(units):
            others = " & ".join(u for k, u in enumerate(units) if k != j)
            assert not is_tautology(parse_formula(f"{others} -> {unit}"))
            assert is_tautology(parse_formula(f"{others} & {unit} -> {unit}"))


class TestAxiomInstantiation:
    def test_schema_letters(self):
        assert atom_names(AXIOM_SCHEMAS["COMPKh"]) == {"p", "q", "r"}
        assert atom_names(AXIOM_SCHEMAS["TU"]) == {"p"}

    def test_simultaneous(self):
        swapped = instantiate_axiom("DISTU", {"p": Atom("q"), "q": Atom("p")})
        assert swapped == parse_formula("U q & U(q -> p) -> U p")

    def test_bad_binding(self):
        with pytest.raises(ValueError):
            instantiate_axiom("EMP", {"p": Atom("a")})
        with pytest.raises(ValueError):
            instantiate_axiom("TU", {"p": Atom("a"), "q": Atom("b")})
        with pytest.raises(KeyError):
            instantiate_axiom("NOPE", {})

    def test_edited_schemas_are_read_at_call_time(self, monkeypatch):
        # An added schema, and a replaced one with other letters, bind
        # their own letters.
        monkeypatch.setitem(AXIOM_SCHEMAS, "GOAL-CONJ", parse_formula("Kh(p, q) & Kh(p, r) -> Kh(p, q & r)"))
        monkeypatch.setitem(AXIOM_SCHEMAS, "TU", parse_formula("U s -> s"))
        for text in (
            "1. Kh(p, q) & Kh(p, r) -> Kh(p, q & r) ; axiom GOAL-CONJ p=p q=q r=r",
            "1. U s -> s ; axiom TU s=s",
        ):
            assert check_proof(parse_proof(text).proof).accepted, text

    def test_commutes_with_substitution(self):
        # Bindings over letters disjoint from the schema's own can be applied
        # one at a time, in any order.
        rng = random.Random(6)
        replacements = {
            "p": parse_formula("Kh(a, b)"),
            "q": parse_formula("a & ~c"),
            "r": parse_formula("U c"),
        }
        for name, schema in AXIOM_SCHEMAS.items():
            letters = sorted(atom_names(schema))
            binding = {x: replacements[x] for x in letters}
            expected = instantiate_axiom(name, binding)
            for order in permutations(letters):
                stepwise = schema
                for letter in order:
                    stepwise = substitute(stepwise, letter, binding[letter])
                assert stepwise == expected


class TestCheckProof:
    def test_bundled_theorems_hash_by_value(self):
        # Frozen records hash, also when a line's justification binds
        # letters in a dict; equal records built apart hash alike.
        entries, again = theorem_db(), theorem_db.__wrapped__()  # the second bypasses the cache
        assert any(isinstance(line.justification, AxiomInst) for e in entries for line in e.proof.lines)
        for entry, twin in zip(entries, again, strict=True):
            assert entry == twin and entry is not twin
            assert hash(entry) == hash(twin)
            document = parse_proof(proof_file_text(entry.proof.lines))
            assert document == ProofDocument((), entry.proof)
            assert hash(document) == hash(ProofDocument((), entry.proof))
            assert {line.justification for line in entry.proof.lines} == {
                line.justification for line in twin.proof.lines
            }

    def test_tri_fixture_accepted(self):
        entry = next(e for e in theorem_db() if e.name == "TRI")
        verdict = check_proof(entry.proof)
        assert verdict.accepted
        assert bool(verdict)

    def test_tri_with_wrong_conclusion_rejected(self):
        entry = next(e for e in theorem_db() if e.name == "TRI")
        lines = list(entry.proof.lines)
        last = lines[-1]
        lines[-1] = ProofLine(last.index, parse_formula("Kh(p, q)"), last.justification)
        verdict = check_proof(Proof(tuple(lines)))
        assert not verdict.accepted
        assert verdict.line == last.index

    def test_all_bundled_theorems(self):
        entries = theorem_db()
        assert [e.name for e in entries] == [
            "TRI", "WSKh", "4U", "5U", "COND", "UCONJ", "PREKh", "POSTKh", "NECKh",
        ]
        by_name = {e.name: e for e in entries}
        assert by_name["TRI"].formula == parse_formula("Kh(p, p)")
        assert by_name["COND"].formula == parse_formula("Kh(bot, p)")
        for entry in entries:
            assert entry.proof.lines[-1].formula == entry.formula
            assert check_proof(entry.proof).accepted, entry.name

    def test_u_spellings_unify(self):
        # A necessitation step written in its Kh expansion still checks.
        proof = _lines(
            (parse_formula("p -> p"), Taut()),
            (parse_formula("Kh(~(p -> p), bot)"), NecU(1)),
        )
        assert check_proof(proof).accepted

    def test_axiom_shown_as_u_form(self):
        proof = _lines(
            (
                parse_formula("U p -> U U p"),
                AxiomInst("4KU", {"p": parse_formula("~p"), "q": parse_formula("bot")}),
            ),
        )
        assert check_proof(proof).accepted

    def test_empty_proof_rejected(self):
        verdict = check_proof(Proof(()))
        assert not verdict.accepted
        assert verdict.line is None

    def test_line_numbering_must_be_contiguous(self):
        proof = Proof(
            (
                ProofLine(1, parse_formula("p -> p"), Taut()),
                ProofLine(3, parse_formula("U(p -> p)"), NecU(1)),
            )
        )
        verdict = check_proof(proof)
        assert not verdict.accepted and verdict.line == 2

    def test_dangling_reference(self):
        proof = _lines(
            (parse_formula("p -> p"), Taut()),
            (parse_formula("U(p -> p)"), NecU(2)),
        )
        verdict = check_proof(proof)
        assert not verdict.accepted
        assert "out of range" in verdict.reason

    def test_unknown_justification(self):
        verdict = check_proof(_lines((parse_formula("p"), "zap")))
        assert (verdict.accepted, verdict.line, verdict.reason) == (False, 1, "unknown justification 'zap'")

    def test_unknown_axiom(self):
        proof = _lines((parse_formula("p"), AxiomInst("BOGUS", {})),)
        verdict = check_proof(proof)
        assert not verdict.accepted
        assert "unknown axiom" in verdict.reason

    def test_missing_binding_letter(self):
        proof = _lines(
            (parse_formula("U(p -> q) -> Kh(p, q)"), AxiomInst("EMP", {"p": Atom("p")})),
        )
        verdict = check_proof(proof)
        assert not verdict.accepted
        assert "missing letter 'q'" in verdict.reason

    def test_extraneous_binding_letter(self):
        proof = _lines(
            (
                parse_formula("U p -> p"),
                AxiomInst("TU", {"p": Atom("p"), "q": Atom("q")}),
            ),
        )
        verdict = check_proof(proof)
        assert not verdict.accepted
        assert "does not use letter 'q'" in verdict.reason

    def test_mp_mismatch(self):
        proof = _lines(
            (parse_formula("p -> p"), Taut()),
            (parse_formula("(p -> p) -> (q -> q)"), Taut()),
            (parse_formula("q -> p"), MP(1, 2)),
        )
        verdict = check_proof(proof)
        assert not verdict.accepted and verdict.line == 3

    def test_sub_is_structural(self):
        base = parse_formula("p -> p")
        good = _lines(
            (base, Taut()),
            (parse_formula("Kh(a, b) -> Kh(a, b)"), Sub(1, "p", parse_formula("Kh(a, b)"))),
        )
        assert check_proof(good).accepted
        bad = _lines(
            (base, Taut()),
            # Normalization-equal would not be enough for a substitution step.
            (parse_formula("~(Kh(a, b) & ~Kh(a, b))"), Sub(1, "p", parse_formula("Kh(a, b)"))),
        )
        assert not check_proof(bad).accepted


class TestHypothesisMode:
    def test_replacement_fixture(self, fixtures_dir):
        document = parse_proof((fixtures_dir / "replacement.prf").read_text())
        assert document.hypotheses == (parse_formula("a <-> b"),)
        verdict = check_proof_under(document.proof, document.hypotheses)
        assert verdict.accepted
        assert document.proof.lines[-1].formula == parse_formula("Kh(a, c) <-> Kh(b, c)")

    def test_empty_proof_under_empty_hypotheses(self):
        assert not check_proof_under(Proof(()), ()).accepted

    def test_conservative_over_check_proof(self):
        for entry in theorem_db():
            assert check_proof_under(entry.proof, ()).accepted

    def test_hyp_out_of_range(self):
        proof = _lines((parse_formula("p"), Hyp(1)),)
        verdict = check_proof_under(proof, ())
        assert not verdict.accepted
        assert "out of range" in verdict.reason

    def test_hyp_must_match(self):
        proof = _lines((parse_formula("q"), Hyp(1)),)
        verdict = check_proof_under(proof, (Atom("p"),))
        assert not verdict.accepted
        assert "does not match hypothesis" in verdict.reason

    def test_plain_check_proof_rejects_hyp(self):
        proof = _lines((parse_formula("p"), Hyp(1)),)
        assert not check_proof(proof).accepted


class TestParseProof:
    def test_tri_file(self, fixtures_dir):
        document = parse_proof((fixtures_dir / "tri.prf").read_text())
        assert document.hypotheses == ()
        assert len(document.proof.lines) == 4
        assert check_proof(document.proof).accepted

    def test_justification_shapes(self):
        text = (
            "1. p -> p ; taut\n"
            "2. Kh(a & b, a & b) ; sub 1 p a & b\n"
        )
        document = parse_proof(text)
        line = document.proof.lines[1]
        assert line.justification == Sub(1, "p", parse_formula("a & b"))
        # The substitution rewrites implication into a Kh?  No: it must fail.
        assert not check_proof(document.proof).accepted

    def test_sub_line_checks(self):
        text = (
            "1. p -> p ; taut\n"
            "2. (a & b) -> (a & b) ; sub 1 p a & b\n"
        )
        assert check_proof(parse_proof(text).proof).accepted

    def test_format_errors_carry_line_numbers(self):
        cases = [
            ("1. p -> p taut\n", "missing ';'"),
            ("one. p ; taut\n", "want:"),
            ("1. p ; zap\n", "unknown justification"),
            ("1. p ; axiom EMP\n", "want: axiom"),
            ("1. p ; axiom EMP junk p=q\n", "unexpected text"),
            ("1. p ; axiom EMP p=q p=r\n", "duplicate binding"),
            ("1. p ; axiom EMP p= q=r\n", "empty binding"),
            ("1. p ; mp 1\n", "want: mp"),
            ("1. p ; necu one\n", "expected a line number"),
            ("1. p ( ; taut\n", "bad formula"),
            ("hypothesis\n", "want: hypothesis"),
            ("1. p ; taut x\n", "taut takes no arguments"),
            ("1. p ;\n", "missing justification after ';'"),
            ("1. p ; axiom EMP pq\n", "needs letter bindings"),
            ("1. p ; necu 1 2\n", "want: necu <line>"),
            ("1. p ; sub 1 p\n", "want: sub <line> <letter> <formula>"),
            ("1. p ; hyp\n", "want: hyp <hypothesis-number>"),
        ]
        for text, fragment in cases:
            with pytest.raises(ProofFormatError) as exc:
                parse_proof(text)
            assert exc.value.line == 1
            assert fragment in str(exc.value)

    def test_comments_and_blanks(self):
        document = parse_proof("# intro\n\n1. p -> p ; taut  # trailing\n")
        assert len(document.proof.lines) == 1

    def test_hypothesis_keyword_is_exact(self):
        with pytest.raises(ProofFormatError):
            parse_proof("hypothesisx p\n")
        document = parse_proof("hypothesis p & q\n1. p & q ; hyp 1\n")
        assert document.hypotheses == (parse_formula("p & q"),)

    def test_line_numbers_past_the_digit_limit(self, tmp_path):
        # A label or reference with more digits than int() converts names
        # its file line and does not echo the digits.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        huge = "1" * (limit + 1)
        cases = [
            f"{huge}. p -> p ; taut\n",
            f"1. p -> p ; taut\n2. p ; mp {huge} 1\n",
            f"1. p -> p ; taut\n2. p ; mp 1 {huge}\n",
            f"1. p -> p ; taut\n2. U(p -> p) ; necu {huge}\n",
            f"1. p -> p ; taut\n2. q -> q ; sub {huge} p q\n",
            f"hypothesis p\n1. p ; hyp {huge}\n",
        ]
        for text in cases:
            with pytest.raises(ProofFormatError) as exc:
                parse_proof(text)
            assert exc.value.line == text.count("\n")
            assert str(exc.value).endswith(f"line number of {limit + 1} digits is too long")
        proof = tmp_path / "huge.prf"
        proof.write_text(cases[0])
        assert run_cli("prove", str(proof)) == (2, "", f"error: line 1: line number of {limit + 1} digits is too long\n")


def _instance(lines, sigma):
    """``lines`` with ``sigma`` applied to every formula and binding; a
    substitution instance of a derivation without ``sub`` lines is one."""
    out = []
    for line in lines:
        just = line.justification
        assert not isinstance(just, Sub)
        if isinstance(just, AxiomInst):
            just = AxiomInst(just.name, {x: substitute_all(f, sigma) for x, f in just.binding.items()})
        out.append(ProofLine(line.index, substitute_all(line.formula, sigma), just))
    return tuple(out)


class TestProofFileRoundTrip:
    """Every bundled derivation, and seeded substitution instances of it,
    written as proof-file text, parse back to the same lines and pass
    ``knowhow prove``."""

    def _round_trip(self, tmp_path, lines, hypotheses=()):
        text = proof_file_text(lines, hypotheses)
        document = parse_proof(text)
        assert document.hypotheses == tuple(hypotheses)
        assert document.proof.lines == tuple(lines), text
        path = tmp_path / "round.prf"
        path.write_text(text, encoding="utf-8")
        assert run_cli("prove", str(path)) == (0, "ACCEPTED\n", "")

    def test_bundled_derivations(self, tmp_path):
        for entry in theorem_db():
            self._round_trip(tmp_path, entry.proof.lines)

    def test_substitution_instances(self, tmp_path):
        rng = random.Random(10)
        for entry in theorem_db():
            for _ in range(3):
                sigma = {x: random_formula(rng, ("p", "q", "r", "o", "x1"), depth=2) for x in "pqro"}
                sigma["p"] = parse_formula("Kh(p, q) & p")
                self._round_trip(tmp_path, _instance(entry.proof.lines, sigma))

    def test_fixture_with_sub_and_hyp_lines(self, tmp_path, fixtures_dir):
        document = parse_proof((fixtures_dir / "replacement.prf").read_text())
        self._round_trip(tmp_path, document.proof.lines, document.hypotheses)


class TestMutationSensitivity:
    def test_every_flipped_line_is_rejected_quick(self):
        # Full sweep lives in the acceptance suite; spot-check two fixtures.
        for name in ("TRI", "COND"):
            entry = next(e for e in theorem_db() if e.name == name)
            for k, line in enumerate(entry.proof.lines):
                mutated = flip_root_connective(line.formula)
                assert mutated is not None
                lines = list(entry.proof.lines)
                lines[k] = ProofLine(line.index, mutated, line.justification)
                assert not check_proof(Proof(tuple(lines))).accepted


def test_format_verdict():
    assert format_verdict(check_proof(theorem_db()[0].proof)) == "ACCEPTED"
    bad = check_proof(Proof(()))
    assert format_verdict(bad).startswith("REJECTED")
    rejected = check_proof(_lines((parse_formula("p"), Taut()),))
    assert format_verdict(rejected) == "REJECTED line 1: not a propositional tautology"
