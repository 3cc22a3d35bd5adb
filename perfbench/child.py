"""Runs one workload in this process and prints its raw results as JSON.

    python3 perfbench/child.py --workload W --seed N --seconds S [--trace-rounds] [--trace]
    python3 perfbench/child.py --probe W

Started by run.py, one fresh process per workload, so that peak RSS belongs
to the workload.  With --probe it only gets ready (imports and one warm-up
call of every operation on a tiny input) and prints "ready".

The loop is closed: one caller, the next operation sent when the last one
returns.  Only the library call is timed; inputs are generated and answers
checked outside the timed region.  Rounds run whole: a new round starts
while the last round's wall time still fits in --seconds, or in four times
that while fewer than MIN_OPS operations are done.  With --trace-rounds the
run is the workload's fixed number of trace rounds instead, so that counts
repeat exactly for a seed.  Throughput is the median over the rounds of
right answers per timed second, so a transient slowdown of the machine moves
it less; latency percentiles pool every operation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_OPS = 100
MAX_FAILURES_SHOWN = 5


def import_package():
    """Import purebraid from this checkout's src/, never from elsewhere."""
    if not (SRC / "purebraid" / "__init__.py").is_file():
        raise SystemExit(f"error: no purebraid sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import purebraid

    if Path(purebraid.__file__).resolve().parent != SRC / "purebraid":
        raise SystemExit(f"error: purebraid imported from {purebraid.__file__}")
    return purebraid


def load_workload(name: str):
    import wl_free_groups
    import wl_presentations
    import wl_word_arith

    workloads = {m.Workload.name: m.Workload
                 for m in (wl_presentations, wl_word_arith, wl_free_groups)}
    if name not in workloads:
        raise SystemExit(f"error: unknown workload {name!r}")
    return workloads[name]()


def quantile_ms(values, q: int) -> float:
    """q-th percentile, in ms."""
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def run(workload, seed: int, seconds: float, rounds=None, tracer=None,
        corrupt_every: int = 0) -> dict:
    """Run `workload` and return its raw results.

    `tracer`, when given, is installed already; each operation then runs
    inside an `op` span.  `corrupt_every` = k > 0 replaces every k-th answer
    by a wrong one before it is checked (the negative control)."""
    latencies = []
    rates = []  # operations per timed second, one per whole round
    attempted = failed = 0
    failures = []
    class_words = 0
    current_round = None
    rounds_done = 0
    round_start = wall_start = time.perf_counter()
    round_first = round_ok = 0  # the round's first operation, its right answers
    for job in workload.jobs(seed):
        if job.round != current_round:
            now = time.perf_counter()
            if current_round is not None:
                rounds_done += 1
                last_round = now - round_start
                rates.append(round_ok / sum(latencies[round_first:]))
                round_first, round_ok = len(latencies), 0
                if rounds is not None:
                    if rounds_done >= rounds:
                        break
                elif now - wall_start + last_round > \
                        (seconds if attempted >= MIN_OPS else 4 * seconds):
                    break
            current_round, round_start = job.round, now
        for op in job.ops:
            attempted += 1
            error = None
            start = time.perf_counter()
            try:
                answer = tracer.run_op(attempted, op.fn) if tracer else op.fn()
            except Exception as exc:  # a raising operation counts as failed
                error = f"raised {exc!r}"
            latencies.append(time.perf_counter() - start)
            if error is None:
                if corrupt_every and attempted % corrupt_every == 0:
                    answer = op.corrupt(answer)
                try:
                    op.check(answer)
                except Exception as exc:  # any checker error rejects the answer
                    error = f"rejected: {exc}"
            if error is None:
                round_ok += 1
            else:
                failed += 1
                if len(failures) < MAX_FAILURES_SHOWN:
                    failures.append(f"{op.kind} on {op.label}: {error}")
        class_words = max(class_words, job.class_words())
    timed = sum(latencies)
    return {
        "workload": workload.name,
        "seed": seed,
        "rounds": rounds_done,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "timed_s": timed,
        "wall_s": time.perf_counter() - wall_start,
        "ops_per_s": statistics.median(rates),
        "op_p50_ms": quantile_ms(latencies, 50),
        "op_p90_ms": quantile_ms(latencies, 90),
        "class_words": class_words,
    }


def traced_results(tracer, result: dict) -> dict:
    layers = tracer.layer_metrics()
    layers["coxeter.class_words"] = result["class_words"]
    layers["schreier.relations"] = tracer.counters.get("schreier.relations", 0)
    layers["schreier.snf_s"] = tracer.function_seconds("schreier.abelianization")
    layers["trace.spans"] = tracer.span_count()
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--probe", metavar="WORKLOAD")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace-rounds", action="store_true",
                        help="run the workload's fixed number of trace rounds")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="file the spans are written to (with --trace)")
    args = parser.parse_args(argv)

    import_package()
    if args.probe:
        load_workload(args.probe).warmup()
        print("ready", flush=True)
        return 0
    workload = load_workload(args.workload)
    workload.warmup()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

        def count_relations(p):
            if tracer.active:
                tracer.counters["schreier.relations"] = \
                    tracer.counters.get("schreier.relations", 0) + len(p.relations)
        tracer.install(on_init={"schreier.Presentation": count_relations})
    rounds = workload.trace_rounds if args.trace_rounds else None
    result = run(workload, args.seed, args.seconds, rounds, tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = traced_results(tracer, result)
        if args.spans:
            os.makedirs(os.path.dirname(args.spans) or ".", exist_ok=True)
            tracer.write_spans(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
