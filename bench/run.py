"""hsgppt benchmark: one workload, one seed, one JSON result line.

Run from the root of a checkout (hsgppt is imported from ./src):

    python3 bench/run.py --workload tune-hetero --seed 0 --seconds 40 --trace 0

--trace 0 measures the end-to-end metrics with nothing patched. --trace 1
runs one fixed round three times, the middle one under the span tracer
(tracing.py), and reports the per-layer metrics and the tracing overhead.
The last line of stdout is {"correct", "attempted", "failed", "metrics"};
the lines before it are a readable table and one JSON line with the
environment, per-metric sample statistics and output hashes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
OUT = Path(__file__).resolve().parent / "out"


def _limit_blas_threads():
    # must happen before numpy loads OpenBLAS
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_untraced(bench, seconds):
    bench.setup()
    bench.measure(seconds)
    return bench.end_to_end()


def run_traced(bench, tracing):
    """Set-up traced, then one round untraced, traced and untraced again.

    The overhead is the traced round minus the mean of the two untraced
    ones, so a steady drift in machine speed cancels.
    """
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        bench.setup_once()
    finally:
        restore()
    bench.warm_up()
    untraced = timed(bench.round)
    restore = tracing.install(tracer)
    try:
        traced = timed(bench.round)
    finally:
        restore()
    untraced = (untraced + timed(bench.round)) / 2
    return tracer, tracer.per_layer(traced - untraced, untraced)


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def report(harness, bench, metrics, args, extra):
    stats = {name: harness.summarize(vals) for name, vals in bench.samples.items()}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        s = stats.get(name)
        detail = ""
        if s is not None:
            tail = f"p{s['tail_pct']:g} {s['tail']:.6g}" if s["tail"] is not None else "no tail (<20)"
            detail = f"  median of n={s['n']}, {tail}"
        print(f"  {name:<46} {value!s:>24} {unit}{detail}")
    ops_failed_frac = bench.failed / bench.attempted if bench.attempted else 0.0
    print(f"  {'ops_failed_frac':<46} {ops_failed_frac:>24} ratio  ({bench.failed}/{bench.attempted})")
    if "tune_epoch_ms" in metrics and metrics["tune_epoch_ms"][0] is not None:
        ms = metrics["tune_epoch_ms"][0]
        budget = harness.TUNE_EPOCH_BUDGET_MS
        verdict = "within" if ms < budget else "over"
        print(f"  tune epoch {ms:.1f} ms vs the {budget:g} ms budget: {verdict} (not gated)")
    for err in bench.errors:
        print(f"  FAILED {err}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "env": harness.environment(),
        "working_set": bench.working_set(),
        "stats": stats,
        "ops_failed_frac": ops_failed_frac,
        "hashes": {str(k): v for k, v in bench.hashes.items()},
        **extra,
    }
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bench.correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )


def main(argv=None):
    _limit_blas_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness
    import tracing

    args = parse_args(argv, harness.WORKLOADS)
    try:
        hs = harness.load_hsgppt(ROOT)
    except (ImportError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    bench = harness.Bench(hs, harness.WORKLOADS[args.workload], args.seed, OUT)
    extra = {}
    if args.trace:
        tracer, metrics = run_traced(bench, tracing)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans.write_text(json.dumps(tracer.dump()))
        extra["spans_file"] = str(spans)
    else:
        metrics = run_untraced(bench, args.seconds)
    report(harness, bench, metrics, args, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
