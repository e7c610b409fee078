"""Self-test of the benchmark, on tiny runs of every workload.

    python3 perfbench/selftest.py

Checks that each workload, timed and traced, prints exactly the metric
names and units of BENCHMARK.json and passes its reference checks; that
a planted wrong witness and a planted wrong verdict are counted as
failed; that every count of a traced run repeats exactly for the same
seed; and that every traced function is called by some workload.  Exits
with status 1 at the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
TINY = 4  # items per tiny run; every fourth proof_check item is a mutant

# Functions no workload calls at this commit; their metrics read 0.
UNCALLED = {"syntax.print_formula.calls"}


def wrong_verdict(name: str, output):
    if name == "oracle_sweep":
        found, brute = output
        return dataclasses.replace(found, decision=not found.decision), brute
    if name == "plan_cli":
        code, text = output
        doc = json.loads(text)
        doc["found"] = not doc["found"]
        return code, json.dumps(doc)
    if name == "audit":
        return dataclasses.replace(output, violations=("planted",))
    return dataclasses.replace(output, accepted=not output.accepted)


def wrong_witness(name: str, output):
    if name == "oracle_sweep":
        found, brute = output
        return dataclasses.replace(found, witness=(found.witness or ()) + ("a",)), brute
    code, text = output
    doc = json.loads(text)
    doc["plan"] = (doc["plan"] or []) + ["a"]
    return code, json.dumps(doc)


def planted_failures(name: str, corrupt) -> int:
    base = WORKLOADS[name]

    class Planted(base):
        def run(self, item):
            return corrupt(name, super().run(item))

    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir, contextlib.redirect_stderr(io.StringIO()):
        _, failed, _ = run.timed_run(Planted(SEED, workdir), 0, TINY)
    return failed


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS), "workload names differ")
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    called: set[str] = set()
    for name in WORKLOADS:
        for trace in (False, True):
            result, _ = run.measure(name, SEED, 0, trace, items=TINY, probes=1)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == wanted[trace], f"{name} trace={trace}: metric names or units differ from BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: an item failed its check")
            if trace:
                again, _ = run.measure(name, SEED, 0, trace, items=TINY)
                for key, unit in units.items():
                    if unit == "count":
                        first, second = result["metrics"][key]["value"], again["metrics"][key]["value"]
                        expect(first == second, f"{name}: {key} is {first}, then {second} for the same seed")
                called |= {k for k, v in result["metrics"].items() if k.endswith(".calls") and v["value"]}
        expect(planted_failures(name, wrong_verdict) == TINY, f"{name}: a planted wrong verdict passed")
        if name in ("oracle_sweep", "plan_cli"):
            expect(planted_failures(name, wrong_witness) == TINY, f"{name}: a planted wrong witness passed")
        print(f"ok {name}")
    never = {k for k in wanted[True] if k.endswith(".calls")} - called - UNCALLED
    expect(not never, f"no workload calls {sorted(never)}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
