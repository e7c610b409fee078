"""Benchmark of the knowhow toolkit: one workload per run, one client,
closed loop (the next item starts when the previous one has finished).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run measures the end-to-end metrics: set-up time of
a fresh interpreter, items per second, median and tail latency, all scaled
for the host's speed at the time, and the peak memory of this process, a
fresh one for each run.
With ``--trace 1`` it runs a fixed number of items twice, untraced and
then traced, and reports the per-layer metrics, the deterministic work
counts and the tracing overhead.  Every item's output is checked against
a reference; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

# Percentile reported as latency_tail_ms, and the fewest items a timed run
# completes so that at least ten samples lie beyond it.  Each is the
# highest of p50/p90/p99/p99.9 that keeps ten samples beyond at the item
# counts these workloads reach in a run.
TAIL = {"oracle_sweep": 99, "plan_cli": 99, "audit": 90, "proof_check": 99}

# Items per pass of a traced run; the same items run untraced and traced.
TRACE_ITEMS = {"oracle_sweep": 1500, "plan_cli": 400, "audit": 16, "proof_check": 488}

# One-time work a user pays before the first answer, after the import.
SETUP_WORK = {
    "oracle_sweep": "import knowhow",
    "plan_cli": "import knowhow, knowhow.cli",
    "audit": "import knowhow; knowhow.theorem_db()",
    "proof_check": "import knowhow",
}
SETUP_PROBES = 9

# The speed of a shared host drifts: on the 2-core box the bounds were set
# on, by up to 1.6x over minutes, with process CPU time moving alike.  A
# fixed piece of pure-Python work slows down with it, so the benchmark
# times that work between items and scales every end-to-end timing to a
# host on which it takes CALIBRATION_REFERENCE_S.  The unscaled values are
# printed in the report.
CALIBRATION_LOOPS = 600
CALIBRATION_DEPTH = 10
CALIBRATION_REFERENCE_S = 0.001
CALIBRATE_EVERY_S = 0.02  # of item time

PROBE = """\
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
{work}
elapsed = time.perf_counter() - started
sys.path.insert(0, sys.argv[2])
from run import calibration
print(elapsed, sum(calibration() for _ in range(3)) / 3)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


# Per-layer metrics of a traced run, "<module>.<function>.<stat>".
PER_LAYER = (
    "planning.verify_plan.calls", "planning.verify_plan.self_s", "planning.verify_plan.ok_frac",
    "planning.find_plan.calls", "planning.find_plan.distinct", "planning.find_plan.distinct_frac",
    "planning.find_plan.explored", "planning.find_plan.self_s",
    *(
        f"syntax.{function}.{stat}"
        for function in ("formula_height", "normalize", "substitute_all", "parse_formula", "print_formula")
        for stat in ("calls", "self_s")
    ),
    "semantics.ext.calls", "semantics.ext.distinct_frac", "semantics.ext.self_s",
    "models.Model.calls", "models.Model.self_s", "models.parse_model.calls", "models.parse_model.self_s",
    "modelgen.generate.models", "modelgen.generate.self_s",
    *(
        f"proofs.{function}.{stat}"
        for function in ("parse_proof", "is_tautology", "check_proof_under")
        for stat in ("calls", "self_s")
    ),
    "cli.main.calls", "cli.main.self_s",
    "item.self_s",
    "trace.spans", "trace.overhead_s", "trace.overhead_frac",
    "work.items", "work.audit_instances", "work.proof_lines",
)


def per_layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    if stat.endswith("_s"):
        return "s"
    return "ratio" if stat.endswith("_frac") else "count"


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu}


def _tree(depth: int) -> tuple:
    return () if depth == 0 else (_tree(depth - 1), _tree(depth - 1))


def _walk(node: tuple) -> int:
    return 1 if not node else 1 + _walk(node[0]) + _walk(node[1])


def calibration() -> float:
    """Seconds taken by fixed work like the program's own: hashing small
    frozensets into a dict, as the planner does, and building and walking
    a tree of tuples recursively, as the formula layer does."""
    started = perf_counter()
    table: dict[frozenset, int] = {}
    for i in range(CALIBRATION_LOOPS):
        key = frozenset((i % 7, i % 11, i % 13))
        table[key] = table.get(key, 0) + 1
    _walk(_tree(CALIBRATION_DEPTH))
    return perf_counter() - started


def setup_seconds(workload: str, probes: int) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, one after another, and the host
    slowdown each measured right after its set-up.  The first probe only
    fills the bytecode cache and is dropped."""
    code = PROBE.format(work=SETUP_WORK[workload])
    samples, slowdowns = [], []
    for _ in range(probes + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, SRC, HERE],
            capture_output=True, text=True, check=True, timeout=60,
        )
        elapsed, calibrated = map(float, done.stdout.split())
        samples.append(elapsed)
        slowdowns.append(calibrated / CALIBRATION_REFERENCE_S)
    return samples[1:], slowdowns[1:]


def run_item(workload, i: int, tracer=None):
    """Run item ``i``; returns (seconds, passed its check, counts)."""
    item = workload.prepare(i)
    if tracer is not None:
        tracer.active = True
        span = tracer.open("item")
    started = perf_counter()
    try:
        output = workload.run(item)
        error = None
    except Exception as exc:  # counted as failed, the loop goes on
        error = exc
    elapsed = perf_counter() - started
    if tracer is not None:
        tracer.close(span)
        tracer.active = False
    if error is None:
        try:
            ok, counts = workload.check(item, output)
        except Exception as exc:  # an unreadable output is a failure too
            error = exc
    if error is not None:
        print(f"{workload.name} item {i} raised {error!r}", file=sys.stderr)
        return elapsed, False, {}
    if not ok:
        print(f"{workload.name} item {i} disagrees with the reference", file=sys.stderr)
    return elapsed, ok, counts


def timed_run(workload, seconds: float, min_items: int):
    """Items until ``seconds`` have passed and at least ``min_items`` ran.

    Returns the item times, the failures and the host slowdown: the
    calibration time over the reference, each sample weighted by the item
    time since the previous one.
    """
    latencies, failed = [], 0
    weighted = pending = 0.0
    started = perf_counter()
    while perf_counter() - started < seconds or len(latencies) < min_items:
        elapsed, ok, _ = run_item(workload, len(latencies))
        latencies.append(elapsed)
        failed += not ok
        pending += elapsed
        if pending >= CALIBRATE_EVERY_S:
            weighted += pending * calibration()
            pending = 0.0
    weighted += pending * calibration()
    return latencies, failed, weighted / sum(latencies) / CALIBRATION_REFERENCE_S


def fixed_pass(workload, items: int, tracer=None):
    busy, failed, counts = 0.0, 0, Counter()
    for i in range(items):
        elapsed, ok, item_counts = run_item(workload, i, tracer)
        busy += elapsed
        failed += not ok
        counts.update(item_counts)
    return busy, failed, counts


def timings(latencies: list[float], setup: list[float], percentile: int) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * statistics.quantiles(latencies, n=100)[percentile - 1],
    }


def end_to_end(name: str, make, seconds: float, min_items: int, probes: int, report: list[str]):
    setup, setup_slowdowns = setup_seconds(name, probes)
    percentile = TAIL[name]
    latencies, failed, slowdown = timed_run(make(), seconds, min_items)
    n = len(latencies)
    raw = timings(latencies, setup, percentile)
    values = timings(
        [x / slowdown for x in latencies],
        [x / f for x, f in zip(setup, setup_slowdowns)],
        percentile,
    )
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    beyond = sum(1000 * x > raw["latency_tail_ms"] for x in latencies)
    report.append(f"latency_tail_ms is p{percentile} of {n} items, {beyond} beyond it")
    report.append(f"setup_s is the median of {len(setup)} fresh interpreters")
    report.append(f"failed_frac {failed / n:.6f} ratio ({failed} of {n} items)")
    report.append(
        f"host slowdown {slowdown:.4f} in the items, {statistics.median(setup_slowdowns):.4f} "
        f"in set-up; unscaled: " + " ".join(f"{k}={v:.6g}" for k, v in raw.items())
    )
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return metrics, n, failed


def traced(name: str, make, items: int, seed: int, report: list[str]):
    from tracer import Tracer

    untraced_s, failed_plain, _ = fixed_pass(make(), items)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, failed_traced, counts = fixed_pass(make(), items, tracer)
    finally:
        tracer.uninstall()
    values = tracer.summary()
    for function in ("planning.find_plan", "semantics.ext"):
        calls = values.get(f"{function}.calls", 0)
        values[f"{function}.distinct_frac"] = values.get(f"{function}.distinct", 0) / calls if calls else 0.0
    calls = values.get("planning.verify_plan.calls", 0)
    values["planning.verify_plan.ok_frac"] = values.get("planning.verify_plan.ok", 0) / calls if calls else 0.0
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    values["work.items"] = items
    values["work.audit_instances"] = counts["audit_instances"]
    values["work.proof_lines"] = counts["proof_lines"]
    spans = os.path.join(OUT, f"spans-{name}-seed{seed}.tsv.gz")
    tracer.write(spans)
    report.append(f"{items} items untraced in {untraced_s:.3f} s, traced in {traced_s:.3f} s")
    report.append(f"spans written to {os.path.relpath(spans, ROOT)}")
    metrics = {k: {"value": values.get(k, 0), "unit": per_layer_unit(k)} for k in PER_LAYER}
    return metrics, 2 * items, failed_plain + failed_traced


def measure(workload: str, seed: int, seconds: float, trace: bool,
            items: int | None = None, probes: int = SETUP_PROBES) -> tuple[dict, list[str]]:
    """One run; returns the result object and the report lines.

    ``items`` replaces the minimum item count of a timed run and the item
    count of a traced run, and ``probes`` the number of set-up probes; the
    self-test uses both to make tiny runs.
    """
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)

    def make():
        return WORKLOADS[workload](seed, workdir)

    report = [" ".join(f"{k}={v}" for k, v in environment().items())]
    try:
        if trace:
            count = TRACE_ITEMS[workload] if items is None else items
            metrics, attempted, failed = traced(workload, make, count, seed, report)
        else:
            count = round(10 / (1 - TAIL[workload] / 100)) if items is None else items
            metrics, attempted, failed = end_to_end(workload, make, seconds, count, probes, report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "knowhow", "__init__.py")):
        print(f"error: no knowhow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace))

    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for line in report:
        print(f"# {line}")
    for key, metric in result["metrics"].items():
        print(f"# {key:34s} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
