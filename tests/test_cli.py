from __future__ import annotations

import json
import os
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import knowhow
from knowhow import AuditReport, AuditViolation, GenConfig, format_model, generate, parse_model
from knowhow import cli

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

    def test_nested_kh_at_mid_depth(self, ex1_path):
        formula = "Kh(" * 500 + "p" + ", q)" * 500
        proc = subprocess.run(
            [sys.executable, "-m", "knowhow", "check", ex1_path, formula],
            capture_output=True,
            text=True,
        )
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stdout) == (1, "TRUE AT: (none)\nGLOBAL-FALSE\n")

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

    def test_taut_line_at_mid_depth(self, tmp_path):
        deep = "~" * 600 + "p"
        proof = tmp_path / "mid.prf"
        proof.write_text(f"1. ({deep}) -> ({deep}) ; taut\n")
        proc = subprocess.run(
            [sys.executable, "-m", "knowhow", "prove", str(proof)],
            capture_output=True,
            text=True,
        )
        assert "Traceback" not in proc.stderr
        assert (proc.returncode, proc.stdout) == (0, "ACCEPTED\n")

    def test_shared_subterms_tautology_is_fast(self, tmp_path):
        # normalize shares the two operands of every <->; a truth table
        # evaluated as a tree would double its work with each level.
        nested = "p <-> (" * 39 + "p <-> q" + ")" * 39
        proof = tmp_path / "iff.prf"
        proof.write_text(f"1. ({nested}) -> ({nested}) ; taut\n")
        start = time.perf_counter()
        result = run_cli("prove", str(proof))
        assert time.perf_counter() - start < 2.0
        assert result == (0, "ACCEPTED\n", "")

    def test_json(self, fixtures_dir):
        code, out, _ = run_cli("prove", str(fixtures_dir / "tri.prf"), "--json")
        assert code == 0
        assert json.loads(out)["accepted"] is True

    @pytest.mark.parametrize(
        "line, code, out, err",
        [
            # Line labels and references are ASCII digits only.
            ("2. U(p -> p) ; necu +1", 2, "", "error: line 2: expected a line number, got '+1'\n"),
            ("2. q ; mp 1_0 2", 2, "", "error: line 2: expected a line number, got '1_0'\n"),
            ("2. p -> p ; hyp \u0661", 2, "", "error: line 2: expected a line number, got '\u0661'\n"),
            ("\u0662. U(p -> p) ; necu 1", 2, "", "error: line 2: want: <n>. <formula> ; <justification>\n"),
            # A sub letter follows the letter rule of formulas.
            ("2. p -> p ; sub 1 XYZ q", 2, "", "error: line 2: bad proposition letter 'XYZ'\n"),
            ("2. p -> p ; sub 1 top q", 2, "", "error: line 2: bad proposition letter 'top'\n"),
            # A binding starts after whitespace; the schema decides its letters.
            ("2. U(p -> q) -> Kh(p, q) ; axiom EMP p=pq=q", 2, "",
             "error: line 2: bad binding for 'p': unexpected character '=' at offset 3\n"),
            ("2. U p -> p ; axiom TU p=p o=q", 1, "REJECTED line 2: axiom TU does not use letter 'o'\n", ""),
            ("2. U p -> p ; axiom TU p=p q=q", 1, "REJECTED line 2: axiom TU does not use letter 'q'\n", ""),
            ("2. U(p -> q) -> Kh(p, q) ; axiom EMP p=p x1=q", 1,
             "REJECTED line 2: binding for axiom EMP is missing letter 'q'\n", ""),
            # A taut line over too many units names its line.
            ("2. " + " | ".join(f"Kh(x{i}, x{i})" for i in range(21)) + " ; taut", 2, "",
             "error: line 2: 21 abstraction units exceed the budget of 20\n"),
        ],
    )
    def test_proof_file_rules(self, tmp_path, line, code, out, err):
        proof = tmp_path / "rule.prf"
        proof.write_text(f"1. p -> p ; taut\n{line}\n", encoding="utf-8")
        assert run_cli("prove", str(proof)) == (code, out, err)


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

    def test_violation_report(self, monkeypatch):
        model = parse_model("state s [p]\naction a\ntrans s a s\n")
        violation = AuditViolation(1, "EMP", (("p", "q"), ("q", "p")), model)
        monkeypatch.setattr(
            cli, "soundness_audit", lambda cfg, count: AuditReport(1, 2, (violation,))
        )
        assert run_cli("audit", "--models", "1") == (
            1,
            "checked 1 models, 2 instances\n"
            "violations: 1\n"
            "VIOLATION model #1 schema EMP [p=q q=p]\n",
            "",
        )
        code, out, err = run_cli("audit", "--models", "1", "--json")
        assert (code, err) == (1, "")
        assert json.loads(out)["violations"] == [
            {
                "model_number": 1,
                "schema": "EMP",
                "assignment": {"p": "q", "q": "p"},
                "model": "state s [p]\naction a\ntrans s a s\n",
            }
        ]

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

    def test_leading_byte_order_mark_is_read(self, tmp_path, fixtures_dir):
        def without_comments(name: str) -> str:
            # The mark then sits right before a directive or a line label.
            lines = (fixtures_dir / name).read_text().splitlines(keepends=True)
            return "".join(line for line in lines if not line.startswith("#"))

        model = tmp_path / "bom.lts"
        model.write_text(without_comments("ex1.lts"), encoding="utf-8-sig")
        proof = tmp_path / "bom.prf"
        proof.write_text(without_comments("tri.prf"), encoding="utf-8-sig")
        assert model.read_bytes().startswith(b"\xef\xbb\xbf")
        assert proof.read_bytes().startswith(b"\xef\xbb\xbf")
        assert run_cli("check", str(model), "Kh(p, q)") == (
            0, "TRUE AT: s1 s2 s3 s4 s5 s6 s7 s8\nGLOBAL-TRUE\n", ""
        )
        assert run_cli("prove", str(proof)) == (0, "ACCEPTED\n", "")

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
        for argv, message in [
            (
                ["countermodel", "p", "--max-states", "9", "--max-actions", "2",
                 "--letters", "p", "--exhaustive"],
                "exhaustive bounds",
            ),
            (
                ["countermodel", "p", "--max-states", "2", "--max-actions", "1",
                 "--letters", "p,p", "--exhaustive"],
                "error: duplicate proposition letter 'p'\n",
            ),
            (
                ["audit", "--models", "1", "--letters", "p,p"],
                "error: duplicate proposition letter 'p'\n",
            ),
            (
                ["countermodel", "p", "--max-states", "99999999", "--max-actions", "1", "--models", "1"],
                "error: random bounds exceeded: need max_states <= 1024\n",
            ),
            (
                ["audit", "--models", "1", "--max-states", "1025"],
                "error: random bounds exceeded: need max_states <= 1024\n",
            ),
        ]:
            code, out, err = run_cli(*argv)
            assert (code, out) == (2, ""), argv
            assert message in err

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("formula, code", [("Kh(p, q)", 0), ("bot", 1)])
    def test_closed_stdout_is_not_an_error(self, ex1_path, unbuffered, json_flag, formula, code):
        # A reader that has gone away (``knowhow ... | head -0``) is not an
        # input error: the run ends silently with the result's own status.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        src = str(Path(knowhow.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "knowhow", "check", ex1_path, formula, *json_flag],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (code, "")

    def test_seed_and_exhaustive_are_exclusive(self):
        code, _, err = run_cli(
            "countermodel", "p", "--max-states", "2", "--max-actions", "1",
            "--letters", "p", "--seed", "3", "--exhaustive",
        )
        assert code == 2
        assert "not allowed" in err


ALL_EX1 = ["s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8"]
FALSIFIER = "state s1 [p r]\nstate s2 [q]\nstate s3 []\nstate s4 []\naction a\naction b\ntrans s1 a s2\n"

# Each report pinned byte for byte: argv (paths relative to a copy of
# fixtures/ that also holds bad.prf), exit status, text stdout, and the
# JSON fields that follow "command" in --json mode.
PINNED = [
    pytest.param(
        ["check", "ex1.lts", "Kh(p, q)"], 0,
        "TRUE AT: s1 s2 s3 s4 s5 s6 s7 s8\nGLOBAL-TRUE\n",
        {
            "model": "ex1.lts",
            "formula": "Kh(p, q)",
            "truth_set": ALL_EX1,
            "global_verdict": "GLOBAL-TRUE",
        },
        id="check-global-true",
    ),
    pytest.param(
        ["check", "ex2-left.lts", "Kh(p, q)"], 1,
        "TRUE AT: (none)\nGLOBAL-FALSE\n",
        {
            "model": "ex2-left.lts",
            "formula": "Kh(p, q)",
            "truth_set": [],
            "global_verdict": "GLOBAL-FALSE",
        },
        id="check-global-false",
    ),
    pytest.param(
        ["check", "ex1.lts", "p & ~p"], 1,
        "TRUE AT: (none)\n",
        {
            "model": "ex1.lts",
            "formula": "p & ~p",
            "truth_set": [],
            "global_verdict": None,
        },
        id="check-empty",
    ),
    pytest.param(
        ["plan", "ex1.lts", "p", "q"], 0,
        "PLAN: r u\n",
        {
            "model": "ex1.lts",
            "pre": "p",
            "goal": "q",
            "found": True,
            "plan": ["r", "u"],
            "explored": 5,
        },
        id="plan-witness",
    ),
    pytest.param(
        ["plan", "ex2-right.lts", "p", "q"], 1,
        "NO PLAN\n",
        {
            "model": "ex2-right.lts",
            "pre": "p",
            "goal": "q",
            "found": False,
            "plan": None,
            "explored": 1,
        },
        id="plan-none",
    ),
    pytest.param(
        ["plan", "ex1.lts", "q", "q | p"], 0,
        "PLAN: (epsilon)\n",
        {
            "model": "ex1.lts",
            "pre": "q",
            "goal": "q | p",
            "found": True,
            "plan": [],
            "explored": 1,
        },
        id="plan-epsilon",
    ),
    pytest.param(
        ["verify-plan", "ex1.lts", "p", "q", "r", "u"], 0,
        "OK\n",
        {
            "model": "ex1.lts",
            "pre": "p",
            "goal": "q",
            "plan": ["r", "u"],
            "ok": True,
            "failure": None,
        },
        id="verify-ok",
    ),
    pytest.param(
        ["verify-plan", "ex2-left.lts", "p", "q", "a", "b"], 1,
        "FAIL: step 2 at state s3: no b-successor (from start s1)\n",
        {
            "model": "ex2-left.lts",
            "pre": "p",
            "goal": "q",
            "plan": ["a", "b"],
            "ok": False,
            "failure": {"kind": "stuck", "start": "s1", "step": 2, "action": "b", "state": "s3"},
        },
        id="verify-stuck",
    ),
    pytest.param(
        ["verify-plan", "ex1.lts", "p", "q", "r", "r"], 1,
        "FAIL: endpoint s5 is not a goal state (from start s3)\n",
        {
            "model": "ex1.lts",
            "pre": "p",
            "goal": "q",
            "plan": ["r", "r"],
            "ok": False,
            "failure": {"kind": "endpoint", "start": "s3", "step": None, "action": None, "state": "s5"},
        },
        id="verify-endpoint",
    ),
    pytest.param(
        ["prove", "tri.prf"], 0,
        "ACCEPTED\n",
        {"file": "tri.prf", "accepted": True, "line": None, "reason": None},
        id="prove-accepted",
    ),
    pytest.param(
        ["prove", "bad.prf"], 1,
        "REJECTED line 1: not a propositional tautology\n",
        {"file": "bad.prf", "accepted": False, "line": 1, "reason": "not a propositional tautology"},
        id="prove-rejected",
    ),
    pytest.param(
        ["countermodel", "Kh(p, q) & Kh(p, r) -> Kh(p, q & r)", "--max-states", "4", "--max-actions", "2",
         "--letters", "p,q,r", "--exhaustive"], 0,
        FALSIFIER + "FALSIFIED AT: s1\n",
        {
            "formula": "Kh(p, q) & Kh(p, r) -> Kh(p, q & r)",
            "mode": "exhaustive",
            "found": True,
            "model": FALSIFIER,
            "state": "s1",
        },
        id="countermodel-found",
    ),
    pytest.param(
        ["countermodel", "U p -> p", "--max-states", "2", "--max-actions", "1", "--letters", "p",
         "--exhaustive"], 1,
        "NONE FOUND\n",
        {
            "formula": "U p -> p",
            "mode": "exhaustive",
            "found": False,
            "model": None,
            "state": None,
        },
        id="countermodel-none",
    ),
    pytest.param(
        ["audit", "--models", "5", "--seed", "3", "--max-states", "4", "--max-actions", "2",
         "--letters", "p,q"], 0,
        "checked 5 models, 400 instances\nviolations: 0\n",
        {"models_checked": 5, "instances_checked": 400, "violations": []},
        id="audit-clean",
    ),
]


@pytest.fixture
def in_fixture_copy(fixtures_dir, tmp_path, monkeypatch):
    shutil.copytree(fixtures_dir, tmp_path, dirs_exist_ok=True)
    (tmp_path / "bad.prf").write_text("1. p -> q ; taut\n")
    monkeypatch.chdir(tmp_path)


class TestPinnedOutput:
    @pytest.mark.parametrize("argv, code, text, fields", PINNED)
    def test_text_and_json(self, in_fixture_copy, argv, code, text, fields):
        assert run_cli(*argv) == (code, text, "")
        document = json.dumps({"command": argv[0], **fields}, indent=2) + "\n"
        assert run_cli(*argv, "--json") == (code, document, "")

    def test_usage_lines(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, _ = run_cli("countermodel", "--help")
        assert code == 0
        assert out.startswith(
            "usage: knowhow countermodel [-h] --max-states MAX_STATES --max-actions\n"
            "                            MAX_ACTIONS [--letters LETTERS]\n"
            "                            [--seed SEED | --exhaustive] [--models MODELS]\n"
            "                            [--json]\n"
            "                            formula\n\n"
        )
        code, out, _ = run_cli("audit", "--help")
        assert code == 0
        assert out.startswith(
            "usage: knowhow audit [-h] [--models MODELS] [--seed SEED]\n"
            "                     [--max-states MAX_STATES] [--max-actions MAX_ACTIONS]\n"
            "                     [--letters LETTERS] [--exhaustive] [--json]\n\n"
        )


# --- The README's examples -------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"
# README: exit status 1 for negative results, 0 for affirmative ones.
NEGATIVE_FIRST_WORDS = ("NO PLAN", "FAIL:", "REJECTED", "NONE FOUND", "GLOBAL-FALSE")


def _readme_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ knowhow ...`` command in README.md's ``text`` blocks, with
    the output lines shown under it, up to a blank line or the block's
    end; a command line ending in a backslash continues on the next."""
    examples: list[tuple[str, list[str]]] = []
    shown = None  # the output lines of the command being read
    lines = iter(README.read_text(encoding="utf-8").splitlines())
    in_block = False
    for line in lines:
        if line.startswith("```"):
            in_block, shown = line == "```text", None
        elif in_block and line.startswith("$ knowhow "):
            command = line[2:]
            while command.endswith("\\"):
                command = command[:-1] + next(lines).strip()
            shown = []
            examples.append((command, shown))
        elif not line.strip():
            shown = None
        elif shown is not None:
            shown.append(line)
    return examples


README_EXAMPLES = _readme_examples()


class TestReadmeExamples:
    def test_examples_found(self):
        commands = [command.split()[1] for command, _ in README_EXAMPLES]
        assert sorted(set(commands)) == ["audit", "check", "countermodel", "plan", "prove", "verify-plan"]

    @pytest.mark.parametrize("command, shown", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
    def test_example_output(self, command, shown, monkeypatch):
        monkeypatch.chdir(README.parent)
        code, out, err = run_cli(*shlex.split(command)[1:])
        assert err == ""
        assert code == (1 if shown[0].startswith(NEGATIVE_FIRST_WORDS) else 0)
        printed = out.splitlines()
        if "..." in shown:
            cut = shown.index("...")
            head, tail = shown[:cut], shown[cut + 1 :]
            assert printed[: len(head)] == head
            assert printed[len(printed) - len(tail) :] == tail
        else:
            assert printed == shown


class TestInProcessSequence:
    def test_each_call_matches_a_fresh_process(self, ex1_path, fixtures_dir, monkeypatch):
        # One process serves every call, usage errors included; each call
        # must print and exit exactly as a fresh `knowhow` process does.
        monkeypatch.setenv("COLUMNS", "80")
        proof = str(fixtures_dir / "replacement.prf")
        calls = [
            ["plan", ex1_path, "p", "q"],
            ["plan", ex1_path],
            ["plan", ex1_path, "p", "q", "--json"],
            ["nonsense"],
            ["check", ex1_path, "Kh(p, q)"],
            ["prove", proof, "--json"],
            ["verify-plan", ex1_path, "p", "q", "r", "u"],
            ["countermodel", "--seed", "1", "--exhaustive", "p"],
            ["countermodel", "Kh(p, q) -> q", "--max-states", "2", "--max-actions", "1", "--letters", "p,q"],
            ["audit", "--models", "2", "--max-states", "2", "--max-actions", "1", "--json"],
            ["prove", "--help"],
            ["check", ex1_path, "p &"],
            ["check", ex1_path, "p & ~p"],
            ["check", ex1_path, "p"],
        ]
        for argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "knowhow", *argv], capture_output=True, text=True
            )
            assert run_cli(*argv) == (fresh.returncode, fresh.stdout, fresh.stderr), argv


# --- Every input ends in exit 0, 1 or 2 -----------------------------------

def _lines(fragments):
    """Text built from known-good lines mixed with arbitrary ones."""
    line = st.one_of(st.sampled_from(fragments), st.text(max_size=12))
    return st.lists(line, max_size=6).map("\n".join)


def _small_model(seed: int) -> bytes:
    (model,) = generate(GenConfig(3, 2, ("p", "q"), seed), 1)
    return format_model(model).encode()


def _compound(sub):
    """Well-formed formula text one connective above ``sub``."""
    pair = st.tuples(sub, sub)
    binary = ("({} & {})", "({} -> {})", "Kh({}, {})", "Khp({}, {})")
    return st.one_of(
        sub.map("~{}".format),
        sub.map("U {}".format),
        *(pair.map(lambda t, f=f: f.format(*t)) for f in binary),
    )


_FORMULAS = st.one_of(
    st.text(max_size=20),
    st.text(alphabet="pqa~&|()<->,U Khtopb", max_size=20),
    st.recursive(st.sampled_from(["p", "q", "top", "bot"]), _compound, max_leaves=6),
    st.sampled_from(["Kh(p, q)", "p | q", "U p -> p", "p <-> ~q", "Khp(q, p)"]),
)
_VALID_MODELS = st.integers(0, 2**16).map(_small_model)
_MODELS = st.one_of(
    _VALID_MODELS,
    st.tuples(_VALID_MODELS, st.text(max_size=12)).map(lambda t: t[0] + t[1].encode()),
    _lines(["state s1 [p]", "state s2 [q]", "state s1 []", "action a", "action b",
            "trans s1 a s2", "trans s2 b s1", "trans s1 a s1", "# note"]).map(str.encode),
    st.binary(max_size=16),
)
_PROOFS = _lines(["hypothesis p", "1. p ; hyp 1", "1. p -> p ; taut", "2. U(p -> p) ; necu 1",
                  "2. q ; mp 1 1", "3. q ; sub 1 p q", "3. U(p -> p) -> Kh(p, p) ; axiom EMP p=p q=p"])
# Counts stay small so that every example runs in milliseconds: exhaustive
# and random runs are bounded only by --models and the state count.
_COUNT = st.one_of(st.integers(0, 3), st.integers(-2, 5)).map(str)
_LETTERS = st.one_of(st.sampled_from(["p", "p,q", " q , r,"]), st.text(alphabet="pqrU,_ 1", max_size=8))


@st.composite
def _invocations(draw):
    """(argv, model file bytes, proof file text) for any of the commands."""
    command = draw(st.sampled_from(["check", "plan", "verify-plan", "prove", "countermodel", "audit"]))
    if command == "check":
        argv = [command, "m.lts", draw(_FORMULAS)]
    elif command in ("plan", "verify-plan"):
        argv = [command, "m.lts", draw(_FORMULAS), draw(_FORMULAS)]
        if command == "verify-plan":
            argv += draw(st.lists(st.sampled_from(["a", "b", "zz"]), max_size=3))
    elif command == "prove":
        argv = [command, "p.prf"]
    else:
        argv = [command] if command == "audit" else [command, draw(_FORMULAS)]
        argv += ["--max-states", draw(st.one_of(st.integers(1, 3), st.integers(-1, 4)).map(str))]
        argv += ["--max-actions", draw(st.one_of(st.integers(1, 2), st.integers(-1, 3)).map(str))]
        argv += ["--letters", draw(_LETTERS), "--models", draw(_COUNT)]
        argv += draw(st.sampled_from([[], ["--exhaustive"], ["--seed", "7"], ["--seed", str(2**64)]]))
    if draw(st.booleans()):
        argv.append("--json")
    return argv, draw(_MODELS), draw(_PROOFS)


@given(_invocations())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_any_input_ends_in_a_documented_exit(tmp_path, monkeypatch, invocation):
    argv, model, proof = invocation
    (tmp_path / "m.lts").write_bytes(model)
    (tmp_path / "p.prf").write_text(proof, encoding="utf-8", errors="surrogatepass")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(*argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""


def test_module_entry_point(ex1_path):
    proc = subprocess.run(
        [sys.executable, "-m", "knowhow", "plan", ex1_path, "p", "q"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "PLAN: r u\n"
    assert proc.stderr == ""
