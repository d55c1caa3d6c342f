"""dsunet benchmark: one workload per run, one JSON result line at the end.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it measures half the time untraced and half traced and reports the
per-layer metrics and the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

import environment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-toy", "infer-large", "eval-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import dsunet from this checkout's src/; None if the checkout lacks it."""
    if not os.path.isfile(os.path.join(SRC, "dsunet", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import dsunet

    if os.path.dirname(os.path.dirname(os.path.abspath(dsunet.__file__))) != SRC:
        return None
    return dsunet


def run_window(workload, seconds, k):
    """Run operations k, k+1, ... until their timed work adds up to `seconds`."""
    from workloads import Op

    ops = []
    busy = 0.0
    while busy < seconds:
        start = time.perf_counter()
        try:
            op = workload.op(k)
        except Exception:  # the run goes on to report the failure
            traceback.print_exc()
            ops.append(Op(0, time.perf_counter() - start, failures=[f"operation {k} raised"]))
            break
        ops.append(op)
        busy += op.seconds
        k += 1
    return ops


def seconds_per_unit(ops):
    units = sum(o.units for o in ops)
    return sum(o.seconds for o in ops) / units if units else math.nan


def tail(values, scale):
    """The highest of p99, p95, p90 and p75 with at least ten samples beyond it.

    A timing is reported as its median plus this percentile, so that a change
    to the slow cases shows.
    """
    for q in (99, 95, 90, 75):
        if len(values) * (100 - q) / 100 >= 10:
            return f"; p{q} {scale * statistics.quantiles(values, n=100)[q - 1]:.6g}"
    return ""


def finite_or_none(value):
    return value if value is not None and math.isfinite(value) else None


def main(argv=None):
    args = parse_args(argv)
    environment.pin_blas_threads()
    t0 = time.perf_counter()
    if import_package() is None:
        print(f"error: no dsunet package under {SRC}; run from the root of a "
              "dsunet checkout", file=sys.stderr)
        return 2
    import tracing
    import workloads
    import_s = time.perf_counter() - t0

    env = environment.describe(ROOT)
    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer)
        tracer.enabled = True   # set-up is traced too, for checkpoint and data spans
    work = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    workload = workloads.WORKLOADS[args.workload](args.seed, work)
    try:
        setups = []
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setups)

        if args.trace:
            tracer.enabled = False
            untraced = run_window(workload, args.seconds / 2, 0)
            tracer.enabled = True
            first = len(tracer.spans)
            tracer.encode_calls = tracer.encode_repeats = 0
            traced = run_window(workload, args.seconds / 2, len(untraced))
            tracer.enabled = False
            ops = untraced + traced
        else:
            ops = run_window(workload, args.seconds, 0)

        finish_failures = []
        if workload.finish is not None and ops and not ops[0].failures:
            try:
                finish_failures = workload.finish()
            except Exception:  # reported as a failed operation
                traceback.print_exc()
                finish_failures = ["repeat check raised"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops) + (workload.finish is not None)
    failed = sum(1 for o in ops if o.failures) + bool(finish_failures)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [x for o in ops for x in o.latencies]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  unit {workload.unit}")
    print(f"why: {workload.why}")
    print(f"bypasses: {workload.bypasses}")
    print("env: " + json.dumps(env, sort_keys=True))
    print(f"setup_s {setup_s:.6g} s  (imports {import_s:.3g} s + median of "
          f"{workload.setup_repeats} set-ups {[round(s, 3) for s in setups]})")
    # metric: (value, unit, sample count); the workload's labels name them for print
    end_to_end = {
        "throughput_per_s": (1.0 / seconds_per_unit(ops), "1/s",
                             f"{sum(o.units for o in ops)} {workload.unit}s in {len(ops)} calls"),
        "latency_ms_p50": (1000.0 * statistics.median(latencies) if latencies else math.nan,
                           "ms", f"median of {len(latencies)}"
                           + tail(latencies, 1000.0 * workload.labels["latency_ms_p50"][2])),
        "output_error": (workload.output_error, "ratio", "deterministic for a seed"),
    }
    for metric, (value, _, count) in end_to_end.items():
        name, unit, scale, note = workload.labels[metric]
        shown = math.nan if value is None else scale * value
        print(f"{name} {shown:.6g} {unit}  ({note}; {count})")
    print(f"peak_rss_mb {peak_rss_mb:.6g} MiB")
    print(f"error_rate {failed / attempted:.6g}  ({failed} of {attempted} operations failed)")
    for message in [m for o in ops for m in o.failures] + finish_failures:
        print(f"FAILED: {message}")

    if args.trace:
        units = sum(o.units for o in traced)
        untraced_s, traced_s = seconds_per_unit(untraced), seconds_per_unit(traced)
        metrics = tracing.per_layer(tracer, first, max(units, 1), untraced_s, traced_s)
        print(f"traced window: {units} {workload.unit}s; per {workload.unit}: "
              f"untraced {1000 * untraced_s:.6g} ms, traced {1000 * traced_s:.6g} ms")
        print(f"{'span':<28}{'calls':>8}{'total ms':>12}{'self ms':>12}   (per {workload.unit})")
        for name, calls, total, self_ in tracing.self_time_table(tracer, first, max(units, 1)):
            print(f"{name:<28}{calls:>8}{total:>12.4f}{self_:>12.4f}")
        spans_path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write_jsonl(spans_path, {"workload": args.workload, "seed": args.seed,
                                        "traced_from": first, "env": env})
        print(f"spans: {os.path.relpath(spans_path, ROOT)}")
        result = {name: {"value": finite_or_none(v), "unit": tracing.unit_of(name)}
                  for name, v in metrics.items()}
    else:
        result = {metric: {"value": finite_or_none(value), "unit": unit}
                  for metric, (value, unit, _) in end_to_end.items()}
        result["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
        result["setup_s"] = {"value": setup_s, "unit": "s"}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
