"""Host-time benchmark of the Flux reproduction.

    python3 perfbench/run.py --workload handoff --seed 0 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
Prints human-readable lines, then one JSON object as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones (a
second, traced window after an untraced one).  Exits 1 when any check
fails.  See README.md in this directory.
"""

import argparse
import json
import math
import os
import statistics
import sys
import time

import workloads
from hostspeed import HostSpeed, host_scale
from layers import LAYER_METRICS, SpanRecorder, check_nesting, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPANS_DIR = os.path.join(HERE, "out")
REFERENCE_FILE = os.path.join(HERE, "reference.json")

WORKLOADS = ("handoff", "handoff-quiet", "fleet")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "migration_p50_ms": "ms",
    "migration_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {f"{name}.{kind}": ("calls/op" if kind == "calls" else "ms/op")
             for name, kind in LAYER_METRICS}
    units.update({name: "count" for name in workloads.COUNTERS
                  if name.startswith("count.")})
    units.update({
        "count.events.evicted": "count",
        "ratio.record.pruned": "1",
        "ratio.replay.proxied": "1",
        "migration.samples": "count",
        "executor.site_outcome_bytes": "bytes",
        "trace.overhead_ratio": "1",
        "rss.growth_kb_per_op": "kB/op",
    })
    return units


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(len(ordered) * p / 100)) - 1]


def reference_digest(workload, seed):
    """The stored digest for this workload size and seed, if any."""
    with open(REFERENCE_FILE) as handle:
        table = json.load(handle)
    return table.get(workload.size, {}).get(str(seed))


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def traced_metrics(window, traced, spans):
    """Per-layer metrics: spans from the traced run, counts and memory
    from the untraced one (the digests prove both simulated the same)."""
    counters = window.counters
    metrics = layer_metrics(spans.layer_totals(), traced.ops, traced.scale)
    metrics.update({name: value for name, value in counters.items()
                    if name.startswith("count.")})
    metrics["count.events.evicted"] = window.evicted
    metrics["ratio.record.pruned"] = ratio(
        counters["count.record.calls_pruned"],
        counters["count.record.calls_recorded"])
    metrics["ratio.replay.proxied"] = ratio(
        counters["replay.calls_proxied"],
        counters["count.replay.calls_replayed"])
    metrics["migration.samples"] = len(window.latencies)
    metrics["executor.site_outcome_bytes"] = traced.site_outcome_bytes
    metrics["trace.overhead_ratio"] = ((traced.ops / traced.scaled_wall_s)
                                       / (window.ops / window.scaled_wall_s))
    metrics["rss.growth_kb_per_op"] = (
        (window.rss_first_epoch_kb - window.rss_start_kb)
        / window.first_epoch_ops)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program source at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    # Built (and frozen out of GC) before the program is imported.  Its
    # memory is not the program's: peak_rss_mb leaves it out.
    rss_before_kb = workloads.peak_rss_kb()
    speed = HostSpeed()
    heap_kb = workloads.peak_rss_kb() - rss_before_kb
    # Set before any Device exists, so the knobs hold from the start.
    workloads.set_telemetry(args.workload == "handoff-quiet")
    speed.sample()
    import_kernel_s = speed.wall_s
    started = time.perf_counter()
    import repro.experiments.fleet  # noqa: F401 -- import time is setup
    import repro.android.device  # noqa: F401

    import_s = time.perf_counter() - started
    workload = workloads.make_workload(args.workload, args.seed, args.seconds,
                                       speed)
    window = workload.run()
    scale = window.scale
    # Setup is scaled by the kernel runs taken just before the import
    # and before each setup, not by the timed window's.
    setup_scale = host_scale(import_kernel_s + window.setup_kernel_s,
                             1 + window.setup_kernel_runs)
    setup_s = (import_s + statistics.median(window.setups)) * setup_scale
    workload.cross_check(window)
    problems = window.problems
    expected = reference_digest(workload, args.seed)
    if expected is None:
        verdict = "no stored reference for this seed and size"
    elif expected == window.digest:
        verdict = "matches the reference"
    else:
        verdict = f"MISMATCH with reference {expected}"
        problems.append(verdict)

    attempted, failed = window.ops, window.failed
    traced = spans = None
    if args.trace:
        spans = SpanRecorder()
        traced = workload.run(spans)
        attempted += traced.ops
        failed += traced.failed
        problems.extend(traced.problems)
        if traced.digest != window.digest:
            problems.append(f"traced digest {traced.digest[:16]} differs "
                            f"from untraced {window.digest[:16]}")
        problems.extend(check_nesting(spans, traced.group_walls))
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(
            SPANS_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
        spans.write(spans_path)
        print(f"spans: {len(spans)} written to "
              f"{os.path.relpath(spans_path, ROOT)}")
    if problems:
        # A whole-run check cannot name the op at fault: count them all.
        failed = attempted

    print(f"workload {args.workload}  seed {args.seed}  size {workload.size}  "
          f"ops {window.ops}  failed {window.failed}  "
          f"timed {window.wall_s:.3f}s")
    print(f"digest {window.digest} ({verdict})")
    print(f"warm-up digest {window.warmup_digest}")
    print(f"setup: import {import_s:.3f}s + median of "
          f"{', '.join(f'{s:.3f}' for s in window.setups)}s")
    print(f"migration latency samples: {len(window.latencies)}")
    print(f"host speed: calibration kernel {window.kernel_runs} runs, "
          f"mean {window.kernel_s / window.kernel_runs * 1e3:.3f} ms; "
          f"times scaled by {scale:.4f}; unscaled "
          f"{window.ops / window.wall_s:.3f} ops/s; calibration heap "
          f"{heap_kb / 1024:.1f} MB")
    for problem in problems:
        print(f"check failed: {problem}")

    if args.trace:
        metrics = traced_metrics(window, traced, spans)
        units = per_layer_units()
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": window.ops / window.scaled_wall_s,
            "cpu_ms_per_op": window.scaled_cpu_s * 1e3 / window.ops,
            "migration_p50_ms": percentile(window.latencies, 50) * 1e3,
            "migration_p99_ms": percentile(window.latencies, 99) * 1e3,
            "peak_rss_mb": (window.rss_end_kb - heap_kb) / 1024,
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
