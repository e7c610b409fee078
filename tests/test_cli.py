from __future__ import annotations

import json
import subprocess
import sys

import pytest

from knowhow import parse_model

from helpers import run_cli


@pytest.fixture(scope="session")
def ex1_path(fixtures_dir):
    return str(fixtures_dir / "ex1.lts")


@pytest.fixture(scope="session")
def ex2_left_path(fixtures_dir):
    return str(fixtures_dir / "ex2-left.lts")


@pytest.fixture(scope="session")
def ex2_right_path(fixtures_dir):
    return str(fixtures_dir / "ex2-right.lts")


class TestCheck:
    def test_global_true(self, ex1_path):
        code, out, err = run_cli("check", ex1_path, "Kh(p, q)")
        assert code == 0
        assert "GLOBAL-TRUE" in out
        assert err == ""

    def test_global_false(self, ex2_left_path, ex2_right_path):
        for path in (ex2_left_path, ex2_right_path):
            code, out, _ = run_cli("check", path, "Kh(p, q)")
            assert code == 1
            assert "GLOBAL-FALSE" in out

    def test_truth_set_in_declaration_order(self, ex1_path):
        code, out, _ = run_cli("check", ex1_path, "p | q")
        assert code == 0
        assert out.splitlines()[0] == "TRUE AT: s2 s3 s4 s7 s8"
        assert "GLOBAL" not in out

    def test_empty_truth_set(self, ex1_path):
        code, out, _ = run_cli("check", ex1_path, "p & ~p")
        assert code == 1
        assert out.splitlines()[0] == "TRUE AT: (none)"

    def test_u_rooted_gets_global_verdict(self, ex1_path):
        code, out, _ = run_cli("check", ex1_path, "U top")
        assert code == 0
        assert "GLOBAL-TRUE" in out

    def test_nested_iff_is_not_expanded_twice(self, ex1_path):
        # An even number of "p <->" prefixes is equivalent to q; evaluated
        # as a tree, 40 levels of <-> would have 2^40 nodes.
        nested = "p <-> (" * 39 + "p <-> q" + ")" * 39
        code, out, _ = run_cli("check", ex1_path, nested)
        assert (code, out) == run_cli("check", ex1_path, "q")[:2]
        assert out == "TRUE AT: s4 s7 s8\n"

    def test_json(self, ex1_path):
        code, out, _ = run_cli("check", ex1_path, "Kh(p, q)", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "check"
        assert doc["global_verdict"] == "GLOBAL-TRUE"
        assert doc["truth_set"] == [f"s{i}" for i in range(1, 9)]


class TestPlan:
    def test_witness(self, ex1_path):
        code, out, _ = run_cli("plan", ex1_path, "p", "q")
        assert code == 0
        assert out == "PLAN: r u\n"

    def test_no_plan(self, ex2_right_path):
        code, out, _ = run_cli("plan", ex2_right_path, "p", "q")
        assert code == 1
        assert out == "NO PLAN\n"

    def test_epsilon(self, ex1_path):
        code, out, _ = run_cli("plan", ex1_path, "q", "q | p")
        assert code == 0
        assert out == "PLAN: (epsilon)\n"

    def test_json(self, ex1_path):
        code, out, _ = run_cli("plan", ex1_path, "p", "q", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True
        assert doc["plan"] == ["r", "u"]
        assert doc["explored"] >= 1


class TestVerifyPlan:
    def test_ok(self, ex1_path):
        code, out, _ = run_cli("verify-plan", ex1_path, "p", "q", "r", "u")
        assert code == 0
        assert out == "OK\n"

    def test_rr_concrete_state(self, ex1_path):
        code, out, _ = run_cli("verify-plan", ex1_path, "p", "q", "r", "r")
        assert code == 1
        assert out.startswith("FAIL:")
        assert "s5" in out

    def test_u_concrete_state(self, ex1_path):
        code, out, _ = run_cli("verify-plan", ex1_path, "p", "q", "u")
        assert code == 1
        assert "s6" in out

    def test_left_ab_step_and_state(self, ex2_left_path):
        code, out, _ = run_cli("verify-plan", ex2_left_path, "p", "q", "a", "b")
        assert code == 1
        assert "step 2" in out
        assert "state s3" in out

    def test_empty_plan(self, ex1_path):
        code, out, _ = run_cli("verify-plan", ex1_path, "q", "q")
        assert code == 0 and out == "OK\n"

    def test_undeclared_action_is_an_input_error(self, ex1_path):
        code, out, err = run_cli("verify-plan", ex1_path, "p", "q", "zz")
        assert code == 2
        assert "unknown action" in err

    def test_json_failure_shape(self, ex2_left_path):
        code, out, _ = run_cli("verify-plan", ex2_left_path, "p", "q", "a", "b", "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["failure"] == {
            "kind": "stuck",
            "start": "s1",
            "step": 2,
            "action": "b",
            "state": "s3",
        }


class TestProve:
    def test_accepts_fixtures(self, fixtures_dir):
        for name in ("tri.prf", "replacement.prf"):
            code, out, _ = run_cli("prove", str(fixtures_dir / name))
            assert code == 0
            assert out == "ACCEPTED\n"

    def test_rejects_bad_proof(self, tmp_path):
        bad = tmp_path / "bad.prf"
        bad.write_text("1. p -> q ; taut\n")
        code, out, _ = run_cli("prove", str(bad))
        assert code == 1
        assert out == "REJECTED line 1: not a propositional tautology\n"

    def test_unparseable_proof_is_error(self, tmp_path):
        bad = tmp_path / "junk.prf"
        bad.write_text("1. p -> q\n")
        code, _, err = run_cli("prove", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_deep_proof_every_rule(self, tmp_path):
        deep = "~" * 9_000 + "p"
        proof = tmp_path / "deep.prf"
        proof.write_text(
            f"hypothesis {deep}\n"
            f"1. {deep} ; hyp 1\n"
            f"2. {deep} -> {deep} ; taut\n"
            f"3. {deep} ; mp 1 2\n"
            f"4. U {deep} ; necu 3\n"
            f"5. {'~' * 9_000}q ; sub 3 p q\n"
            f"6. U(p -> {deep}) -> Kh(p, {deep}) ; axiom EMP p=p q={deep}\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "knowhow", "prove", str(proof)],
            capture_output=True,
            text=True,
        )
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stdout) == (0, "ACCEPTED\n")

    def test_json(self, fixtures_dir):
        code, out, _ = run_cli("prove", str(fixtures_dir / "tri.prf"), "--json")
        assert code == 0
        assert json.loads(out)["accepted"] is True


class TestCountermodel:
    ARGS = [
        "countermodel",
        "Kh(p, q) & Kh(p, r) -> Kh(p, q & r)",
        "--max-states", "4",
        "--max-actions", "2",
        "--letters", "p,q,r",
        "--exhaustive",
    ]

    def test_found_and_printed_as_model_format(self):
        code, out, _ = run_cli(*self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert lines[-1].startswith("FALSIFIED AT: ")
        model = parse_model("\n".join(lines[:-1]))
        assert len(model.states) == 4

    def test_none_found(self):
        code, out, _ = run_cli(
            "countermodel", "U p -> p",
            "--max-states", "2", "--max-actions", "1", "--letters", "p",
            "--exhaustive",
        )
        assert code == 1
        assert out == "NONE FOUND\n"

    def test_negative_model_count_is_error(self):
        code, out, err = run_cli(
            "countermodel", "p", "--max-states", "3", "--max-actions", "2",
            "--letters", "p", "--models", "-3",
        )
        assert (code, out) == (2, "")
        assert "non-negative" in err

    def test_byte_identical_runs(self):
        first = run_cli(*self.ARGS)
        second = run_cli(*self.ARGS)
        assert first == second

    def test_random_mode_with_seed(self):
        code, out, _ = run_cli(
            "countermodel", "p", "--max-states", "3", "--max-actions", "2",
            "--letters", "p", "--seed", "11",
        )
        assert code == 0
        assert "FALSIFIED AT:" in out

    def test_json(self):
        code, out, _ = run_cli(*self.ARGS, "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["found"] is True
        parse_model(doc["model"])
        assert doc["state"]


class TestAudit:
    def test_small_clean_run(self):
        code, out, _ = run_cli(
            "audit", "--models", "5", "--seed", "3",
            "--max-states", "4", "--max-actions", "2", "--letters", "p,q",
        )
        assert code == 0
        assert "violations: 0" in out

    def test_json(self):
        code, out, _ = run_cli(
            "audit", "--models", "3", "--seed", "3",
            "--max-states", "3", "--max-actions", "2", "--letters", "p,q",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["violations"] == []
        assert doc["models_checked"] == 3

    def test_negative_model_count_is_error(self):
        code, out, err = run_cli("audit", "--models", "-5")
        assert (code, out) == (2, "")
        assert "non-negative" in err


class TestDiagnostics:
    def test_missing_file(self):
        code, out, err = run_cli("check", "no-such-file.lts", "p")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_bad_formula(self, ex1_path):
        code, _, err = run_cli("check", ex1_path, "p &")
        assert code == 2
        assert "offset 4" in err

    def test_bad_model(self, tmp_path, capsys):
        bad = tmp_path / "bad.lts"
        bad.write_text("state s []\nstate s []\n")
        code, _, err = run_cli("check", str(bad), "p")
        assert code == 2
        assert "line 2" in err

    def test_usage_error(self):
        code, _, err = run_cli("plan")
        assert code == 2

    def test_unknown_command(self):
        code, _, err = run_cli("frobnicate")
        assert code == 2

    def test_bad_genconfig(self):
        code, _, err = run_cli(
            "countermodel", "p", "--max-states", "9", "--max-actions", "2",
            "--letters", "p", "--exhaustive",
        )
        assert code == 2
        assert "exhaustive bounds" in err

    def test_seed_and_exhaustive_are_exclusive(self):
        code, _, err = run_cli(
            "countermodel", "p", "--max-states", "2", "--max-actions", "1",
            "--letters", "p", "--seed", "3", "--exhaustive",
        )
        assert code == 2
        assert "not allowed" in err


def test_module_entry_point(ex1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "knowhow", "plan", ex1_path, "p", "q"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "PLAN: r u\n"
    assert proc.stderr == ""
