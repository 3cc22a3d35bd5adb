"""The purebraid benchmark.

    python3 perfbench/run.py --workload presentations --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Workloads: presentations, word_arith, free_groups (see README.md).  Each run
starts fresh child processes (child.py) from the checkout's src/, so set-up
time and peak RSS belong to one workload.

--trace 0 prints the end-to-end metrics: ops_per_s, op_p50_ms, op_p90_ms,
peak_rss_mb, setup_s (median of SETUP_PROBES fresh interpreters, each made
ready for the workload) and fail_ratio.  --trace 1 runs the workload's fixed
trace rounds twice on the same seed, untraced and then traced, and prints the
per-layer metrics and the tracing overhead; the spans go to
.perfbench-out/spans-<workload>.tsv.  Every answer is checked; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("presentations", "word_arith", "free_groups")
SETUP_PROBES = 7
RUN_LIMIT = 175.0  # seconds; a run that would take longer fails instead

END_TO_END = {  # name -> unit; fail_ratio is printed but not in BENCHMARK.json
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
LAYER_UNITS = {"calls": "count", "self_s": "s", "class_words": "words",
               "relations": "count", "snf_s": "s", "spans": "count",
               "overhead_s": "s", "overhead_pct": "%"}


class BenchError(Exception):
    pass


def remaining() -> float:
    return max(1.0, RUN_LIMIT - (time.perf_counter() - STARTED))


def child(args: list) -> dict:
    """Run child.py to completion and return the JSON of its last line."""
    proc = subprocess.run([sys.executable, str(CHILD), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=remaining())
    if proc.returncode != 0:
        raise BenchError(f"child {args} failed ({proc.returncode}): {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {args} printed nothing")
    return json.loads(lines[-1])


def setup_seconds(workload: str) -> float:
    """Median time from starting a fresh interpreter to it being ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), "--probe", workload],
                                cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"set-up probe for {workload} failed: {err.strip()}")
        samples.append(ready - start)
    return statistics.median(samples)


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setup = setup_seconds(workload)
    res = child(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)])
    values = {
        "ops_per_s": res["ops_per_s"],
        "op_p50_ms": res["op_p50_ms"],
        "op_p90_ms": res["op_p90_ms"],
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": setup,
    }
    print(f"# {workload} seed {seed}: {res['rounds']} rounds, {res['attempted']} timed ops "
          f"({res['timed_s']:.2f} s timed, {res['wall_s']:.2f} s wall); "
          f"p90 has {res['attempted'] - int(0.9 * res['attempted'])} samples beyond it")
    rows = [(name, values[name], END_TO_END[name]) for name in END_TO_END]
    rows.append(("fail_ratio", res["failed"] / res["attempted"], "failed/attempted"))
    print_table(workload, rows)
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "failures": res["failures"],
            "metrics": {name: {"value": values[name], "unit": END_TO_END[name]}
                        for name in END_TO_END}}


def traced(workload: str, seed: int) -> dict:
    base = ["--workload", workload, "--seed", str(seed), "--trace-rounds"]
    plain = child(base)
    spans = OUT / f"spans-{workload}.tsv"
    tr = child(base + ["--trace", "--spans", str(spans)])
    layers = dict(tr["layers"])
    layers["trace.overhead_s"] = tr["timed_s"] - plain["timed_s"]
    layers["trace.overhead_pct"] = 100.0 * layers["trace.overhead_s"] / plain["timed_s"]
    print(f"# {workload} seed {seed}: {tr['rounds']} rounds, {tr['attempted']} ops traced "
          f"({tr['timed_s']:.2f} s) vs untraced ({plain['timed_s']:.2f} s); spans in {spans}")
    print_table(workload, [(name, value, LAYER_UNITS[name.split(".", 1)[1]])
                           for name, value in layers.items()])
    attempted = plain["attempted"] + tr["attempted"]
    failed = plain["failed"] + tr["failed"]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "failures": plain["failures"] + tr["failures"],
            "metrics": {name: {"value": value, "unit": LAYER_UNITS[name.split(".", 1)[1]]}
                        for name, value in layers.items()}}


def print_table(workload: str, rows) -> None:
    for name, value, unit in rows:
        print(f"{workload:14s} {name:24s} {value:16.6f} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="purebraid benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = traced(name, args.seed) if args.trace \
                else end_to_end(name, args.seed, args.seconds)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        for line in res.pop("failures"):
            print(f"# {name} FAILED {line}")
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
