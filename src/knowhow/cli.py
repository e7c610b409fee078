"""Command-line interface.

Commands: ``check``, ``plan``, ``verify-plan``, ``prove``,
``countermodel``, ``audit``.  Formulas are quoted command-line arguments;
models and proofs are files.  Exit status: 0 for affirmative results
(true / plan found / proof accepted / countermodel found / zero
violations), 1 for negative results, 2 for usage, file or parse errors
(diagnostics go to stderr).  A stdout closed by its reader drops the
report silently and keeps the result's status.  Output is byte-identical
across runs for identical inputs.

Each ``cmd_*`` function computes its report once and returns it as a
:class:`Result` record without writing anything; :func:`main` alone
renders the record -- as text, or with ``--json`` as a single JSON
document whose fields mirror the text and whose first key is
``"command"`` -- and maps it to the exit status.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import NamedTuple, Optional

from .modelgen import GenConfig, find_countermodel, soundness_audit
from .models import Model, format_model, parse_model
from .planning import find_plan, verify_plan
from .proofs import check_proof_under, format_verdict, parse_proof
from .semantics import ext
from .syntax import Formula, Kh, KhPlus, U, parse_formula

__all__ = ["main", "console_main"]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8-sig") as handle:  # a leading BOM is not text
        return handle.read()


def _load_model(path: str) -> Model:
    return parse_model(_read(path))


def _split_letters(text: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _gen_config(args: argparse.Namespace) -> GenConfig:
    return GenConfig(
        max_states=args.max_states,
        max_actions=args.max_actions,
        letters=_split_letters(args.letters),
        seed=args.seed,
        mode="exhaustive" if args.exhaustive else "random",
    )


def _is_global(phi: Formula) -> bool:
    return isinstance(phi, (Kh, KhPlus, U))


class Result(NamedTuple):
    """What a command found, before it is rendered."""

    ok: bool  # affirmative: exit status 0, else 1
    fields: dict  # the JSON document after its leading "command" key
    text: str  # the text report, without its final newline


def cmd_check(args: argparse.Namespace) -> Result:
    model = _load_model(args.model)
    phi = parse_formula(args.formula)
    truth = model.canonical(ext(model, phi))
    text = "TRUE AT: " + (" ".join(truth) if truth else "(none)")
    verdict: Optional[str] = None
    if _is_global(phi):
        verdict = "GLOBAL-TRUE" if len(truth) == len(model.states) else "GLOBAL-FALSE"
        text += "\n" + verdict
    return Result(
        bool(truth),
        {
            "model": args.model,
            "formula": args.formula,
            "truth_set": list(truth),
            "global_verdict": verdict,
        },
        text,
    )


def cmd_plan(args: argparse.Namespace) -> Result:
    model = _load_model(args.model)
    starts = ext(model, parse_formula(args.pre))
    goals = ext(model, parse_formula(args.goal))
    result = find_plan(model, starts, goals)
    if result.decision:
        text = "PLAN: " + (" ".join(result.witness) if result.witness else "(epsilon)")
    else:
        text = "NO PLAN"
    return Result(
        result.decision,
        {
            "model": args.model,
            "pre": args.pre,
            "goal": args.goal,
            "found": result.decision,
            "plan": list(result.witness) if result.witness is not None else None,
            "explored": result.explored,
        },
        text,
    )


def cmd_verify_plan(args: argparse.Namespace) -> Result:
    model = _load_model(args.model)
    starts = ext(model, parse_formula(args.pre))
    goals = ext(model, parse_formula(args.goal))
    check = verify_plan(model, starts, goals, tuple(args.actions))
    failure = None
    if not check.ok:
        failure = {
            "kind": check.kind,
            "start": check.start,
            "step": None if check.step is None else check.step + 1,
            "action": check.action,
            "state": check.state,
        }
    return Result(
        check.ok,
        {
            "model": args.model,
            "pre": args.pre,
            "goal": args.goal,
            "plan": list(args.actions),
            "ok": check.ok,
            "failure": failure,
        },
        "OK" if check.ok else "FAIL: " + check.describe(),
    )


def cmd_prove(args: argparse.Namespace) -> Result:
    document = parse_proof(_read(args.file))
    verdict = check_proof_under(document.proof, document.hypotheses)
    return Result(
        verdict.accepted,
        {
            "file": args.file,
            "accepted": verdict.accepted,
            "line": verdict.line,
            "reason": verdict.reason,
        },
        format_verdict(verdict),
    )


def cmd_countermodel(args: argparse.Namespace) -> Result:
    phi = parse_formula(args.formula)
    cfg = _gen_config(args)
    limit = args.models
    if limit is None and cfg.mode == "random":
        limit = 10_000
    found = find_countermodel(phi, cfg, limit)
    model, state = (format_model(found[0]), found[1]) if found else (None, None)
    return Result(
        found is not None,
        {
            "formula": args.formula,
            "mode": cfg.mode,
            "found": found is not None,
            "model": model,
            "state": state,
        },
        f"{model}FALSIFIED AT: {state}" if found else "NONE FOUND",
    )


def cmd_audit(args: argparse.Namespace) -> Result:
    report = soundness_audit(_gen_config(args), args.models)
    lines = [
        f"checked {report.models_checked} models, {report.instances_checked} instances",
        f"violations: {len(report.violations)}",
    ]
    for v in report.violations:
        binding = " ".join(f"{letter}={atom}" for letter, atom in v.assignment)
        lines.append(f"VIOLATION model #{v.model_number} schema {v.schema} [{binding}]")
    return Result(
        report.ok,
        {
            "models_checked": report.models_checked,
            "instances_checked": report.instances_checked,
            "violations": [
                {
                    "model_number": v.model_number,
                    "schema": v.schema,
                    "assignment": dict(v.assignment),
                    "model": format_model(v.model),
                }
                for v in report.violations
            ],
        },
        "\n".join(lines),
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.  Parsing leaves it
    unchanged, so every :func:`main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="knowhow",
        description=(
            "Decide conditional knowing-how assertions over labelled transition "
            "systems, synthesize and verify plans, check proofs, and search for "
            "countermodels."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="evaluate a formula on a model")
    p.add_argument("model", help="model file")
    p.add_argument("formula", help="formula text")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("plan", help="search for a plan from PRE-states to GOAL-states")
    p.add_argument("model", help="model file")
    p.add_argument("pre", help="precondition formula")
    p.add_argument("goal", help="goal formula")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("verify-plan", help="check a given action sequence against the definition")
    p.add_argument("model", help="model file")
    p.add_argument("pre", help="precondition formula")
    p.add_argument("goal", help="goal formula")
    p.add_argument("actions", nargs="*", help="plan actions (empty for the empty plan)")
    p.set_defaults(func=cmd_verify_plan)

    p = sub.add_parser("prove", help="check a proof file")
    p.add_argument("file", help="proof file")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("countermodel", help="search small models for one falsifying the formula")
    p.add_argument("formula", help="formula text")
    p.add_argument("--max-states", type=int, required=True)
    p.add_argument("--max-actions", type=int, required=True)
    p.add_argument("--letters", default="", help="comma-separated proposition letters")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--seed", type=int, default=0)
    mode.add_argument("--exhaustive", action="store_true", help="enumerate instead of sampling")
    p.add_argument("--models", type=int, default=None, help="cap on models tried (default 10000 for random)")
    p.set_defaults(func=cmd_countermodel)

    p = sub.add_parser("audit", help="evaluate the validity schemas on generated models")
    p.add_argument("--models", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-states", type=int, default=6)
    p.add_argument("--max-actions", type=int, default=3)
    p.add_argument("--letters", default="p,q,r,o")
    p.add_argument("--exhaustive", action="store_true")
    p.set_defaults(func=cmd_audit)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit a JSON document instead of text")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.func(args)
        if args.json:
            json.dump({"command": args.command, **result.fields}, sys.stdout, indent=2)
            sys.stdout.write("\n")
        else:
            print(result.text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone; aim stdout at the null device so exit is silent.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if result.ok else 1


def console_main() -> None:
    sys.exit(main())
