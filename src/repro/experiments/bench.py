"""Sweep benchmark payloads and the ``bench-check`` regression gate.

``BENCH_sweep.json`` (repo root) records what regenerating the Figure 12
sweep costs and produces.  Schema 3 split the record in two; schema 4
added a third, **non-gating** ``fleet`` section — the pinned fleet run's
wall clock, simulated makespan, tail latency and refusal rate — so the
fleet layer's cost is tracked run over run without making the gate
flaky (the row is informational, like the wall section: :func:`check`
never compares it).  Schema 5 measures the speedup gate over repeated
pairs and drops the single-shot thread and per-pair walls.

* ``wall`` — real wall-clock seconds for the serial and the process-pool
  sweep, each the median of ``speedup_pairs`` interleaved
  serial/process pairs.  The absolute numbers are **informational
  only**: wall clock depends on the machine, the interpreter, and
  background load, so it is reported but never compared against the
  baseline.  The one wall-derived quantity that *does* gate is
  ``process_speedup``, the median of the pairs' serial/process ratios —
  on a multi-core machine (``cpu_count >= 2``) the process-pool sweep
  must not be slower than serial, or the whole point of the process
  fan-out has regressed.  One shot of each is not enough on a shared host: a
  single pair can fall below 1.0 from jitter alone, which the median
  absorbs (contention lasting the whole measurement it cannot).
  Single-core machines skip that gate: there a process pool only adds
  fork overhead, which is expected.
* ``sim`` — quantities computed *inside* the simulation: average stage
  timings on the virtual clock and the per-subsystem counter totals
  from the metrics registry.  These are deterministic for a given seed,
  so a drift here means the simulation's behavior changed — that is
  what :func:`check` gates, within a small tolerance band that absorbs
  intentional rounding.

``flux-sim bench-check`` runs the sweep, rebuilds the payload, and
compares it against the committed baseline; ``--update`` rewrites the
baseline instead (do this deliberately, in the commit that changes the
simulation, and say why in CHANGES.md).
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.migration.migration import perceived_seconds
from repro.experiments.harness import (
    SweepResult,
    run_sweep,
    sweep_metrics_document,
)
from repro.sim.metrics import rollup_counters
from repro.sim.rows import migration_rows
from repro.sim.shapes import check as check_shape


SCHEMA_VERSION = 5
BENCH_PATH = Path(__file__).resolve().parents[3] / "BENCH_sweep.json"
#: Process-pool width the gate measures: one worker per pair of the
#: 4-pair sweep, but never more than the host has cores.  A wider pool
#: measures oversubscription: on 2 cores, 4 workers ran the sweep about
#: 20% slower than 2 did.
WORKERS = min(4, os.cpu_count() or 1)
#: Interleaved serial/process sweep pairs behind the speedup gate (odd,
#: so the median is one measured pair).
SPEEDUP_PAIRS = 5

#: The pinned fleet configuration the non-gating ``fleet`` row records
#: (matches the CI fleet smoke job and the placement ablation).
FLEET_BENCH = {"devices": 12, "arrivals": 40, "seed": 7,
               "policy": "cost-model"}

#: Relative drift allowed on gated simulation quantities.  The sweep is
#: deterministic, so in principle this could be zero; 2% absorbs
#: deliberate rounding in the payload and tiny float-summation changes.
SIM_TOLERANCE = 0.02

#: The counter totals the gate watches — one load-bearing series per
#: instrumented subsystem, so a silent regression in any layer
#: (interposition, record, replay, chunk cache, link, CRIA) moves at
#: least one of them.
GATED_COUNTERS = (
    "binder/transactions",
    "binder/parcel_bytes",
    "record/calls_recorded",
    "record/calls_pruned",
    "replay/calls_replayed",
    "replay/calls_proxied",
    "chunks/wire_bytes",
    "link/bytes_total",
    "link/transfers",
    "cria/checkpoints",
    "cria/pages",
    "cria/restore_sub_ops",
)


def measure_sweep(
        workers: int = WORKERS) -> Tuple[SweepResult, Dict[str, float]]:
    """Time :data:`SPEEDUP_PAIRS` interleaved serial/process sweeps.

    Each pair times one serial sweep and one process-pool sweep, in
    alternating order so a slow stretch of the host falls on both modes
    alike.  Returns ``(sweep, wall)``: the serial sweep's result and the
    schema-5 ``wall`` section, whose ``process_speedup`` is the median
    of the pairs' serial/process ratios.
    """
    serial: List[float] = []
    process: List[float] = []
    sweep = None
    for index in range(SPEEDUP_PAIRS):
        for mode in (("serial", "process") if index % 2 == 0
                     else ("process", "serial")):
            start = time.perf_counter()
            result = run_sweep(use_cache=False,
                               workers=1 if mode == "serial" else workers)
            elapsed = time.perf_counter() - start
            if mode == "serial":
                sweep = result
                serial.append(elapsed)
            else:
                process.append(elapsed)
    wall = {
        "serial_s": round(statistics.median(serial), 4),
        "process_s": round(statistics.median(process), 4),
        "process_speedup": round(statistics.median(
            s / p for s, p in zip(serial, process)), 3),
        "speedup_pairs": SPEEDUP_PAIRS,
    }
    return sweep, wall


def measure_fleet() -> Dict:
    """The non-gating fleet row: run the pinned fleet, record its cost.

    ``wall_s`` is machine-dependent (informational, like the wall
    section); ``sim_makespan_s``, ``p95_s`` and ``refusal_rate`` are
    deterministic for the pinned seed but still not gated — the fleet
    byte-identity tests and the CI smoke job own that contract.
    """
    from repro.experiments.fleet import FleetSpec, run_fleet
    start = time.perf_counter()
    result = run_fleet(FleetSpec(**FLEET_BENCH))
    wall_s = time.perf_counter() - start
    return {
        **FLEET_BENCH,
        "wall_s": round(wall_s, 4),
        "sim_makespan_s": round(result.makespan, 4),
        "p95_s": result.slo["p95_s"],
        "refusal_rate": result.slo["refusal_rate"],
    }


def build_payload(sweep: SweepResult, wall: Dict[str, float],
                  workers: int = WORKERS,
                  fleet_row: Optional[Dict] = None) -> Dict:
    """The schema-5 ``BENCH_sweep.json`` document for one sweep run;
    ``wall`` is :func:`measure_sweep`'s.  Its ``sim`` section is read
    from the sweep's metrics document, as a sweep bundle's is."""
    document = sweep_metrics_document(sweep)
    # The fleet section is informational only: check() never reads it.
    return _payload(migration_rows(document), document["rollup"], workers,
                    "process", os.cpu_count() or 1, dict(wall),
                    fleet_row or {})


def _payload(rows: List[Dict], rollup: Dict, workers, executor,
             cpu_count: int, wall: Dict, fleet: Dict) -> Dict:
    """A schema-5 payload whose gated ``sim`` section comes from a
    sweep's normalized migration rows and its counter rollup."""
    totals = [row["total_seconds"] for row in rows]
    perceived = [perceived_seconds(row["total_seconds"], row["stages"])
                 for row in rows]
    non_transfer = [seconds - row["stages"].get("transfer", 0.0)
                    for seconds, row in zip(perceived, rows)]
    dominant = Counter(row["dominant_stage"] or "?" for row in rows)

    def _avg(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return {
        "benchmark": "fig12_sweep_wall_clock",
        "schema": SCHEMA_VERSION,
        "workers": workers,
        "executor": executor,
        "cpu_count": cpu_count,
        "cells": len(rows),
        "wall": wall,
        "sim": {
            "avg_total_seconds": round(_avg(totals), 4),
            "avg_perceived_seconds": round(_avg(perceived), 4),
            "avg_non_transfer_seconds": round(_avg(non_transfer), 4),
            "dominant_stages": dict(sorted(dominant.items())),
            "counters": {key: rollup.get(key, 0) for key in GATED_COUNTERS},
        },
        "fleet": fleet,
    }


class BenchError(Exception):
    """A baseline file that is not a bench document."""


#: The baseline fields :func:`check` and :func:`format_report` read.
_BASELINE = {"sim?": ({"avg_total_seconds?": float,
                       "avg_perceived_seconds?": float,
                       "avg_non_transfer_seconds?": float,
                       "counters?": {str: float}}, None),
             "wall?": dict}


def load_baseline(path: Path) -> Dict:
    """The baseline document at ``path``; :class:`BenchError` naming
    the file if it is not JSON or not shaped as :data:`_BASELINE`."""
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise BenchError(f"{path}: not JSON ({error.msg} at line "
                         f"{error.lineno})") from error
    return check_shape(document, _BASELINE, str(path), BenchError)


def check(current: Dict, baseline: Dict,
          tolerance: float = SIM_TOLERANCE) -> List[str]:
    """Problems (empty = pass) comparing ``current`` vs ``baseline``.

    The ``sim`` section gates against the baseline; a schema-1 baseline
    (no ``sim``) is itself a problem — refresh it with ``bench-check
    --update``.  The wall section never compares against the baseline,
    but the *current* run's ``process_speedup`` must be >= 1.0 whenever
    the current machine has more than one core (single-core machines
    skip this: fork overhead with no parallelism is expected there).
    """
    problems: List[str] = []
    if current.get("cpu_count", 1) >= 2:
        speedup = current.get("wall", {}).get("process_speedup")
        if speedup is not None and speedup < 1.0:
            problems.append(
                f"process-executor sweep slower than serial on a "
                f"{current['cpu_count']}-core machine: speedup "
                f"{speedup} < 1.0")
    base_sim = baseline.get("sim")
    if not base_sim:
        problems.append(f"baseline has no 'sim' section (schema "
                        f"{baseline.get('schema', 1)}); refresh it with "
                        "'flux-sim bench-check --update'")
        return problems
    sim = current["sim"]

    if current.get("cells") != baseline.get("cells"):
        problems.append(f"sweep cells changed: {baseline.get('cells')} "
                        f"-> {current.get('cells')}")

    # One formatter for every drift message, shared with flux-sim diff:
    # the gate and the diff engine describe the same delta in the same
    # words, band edges included.
    from repro.sim.diffing import format_delta, relative_drift
    for field in ("avg_total_seconds", "avg_perceived_seconds",
                  "avg_non_transfer_seconds"):
        drift = relative_drift(sim[field], base_sim.get(field, 0))
        if drift > tolerance:
            problems.append(format_delta(field, base_sim.get(field, 0),
                                         sim[field], tolerance))

    base_counters = base_sim.get("counters", {})
    for key, value in sim["counters"].items():
        if key not in base_counters:
            continue            # counter added since the baseline: fine
        drift = relative_drift(value, base_counters[key])
        if drift > tolerance:
            problems.append(format_delta(f"counter {key}",
                                         base_counters[key], value,
                                         tolerance))

    if sim.get("dominant_stages") != base_sim.get("dominant_stages"):
        problems.append(
            f"dominant-stage mix changed: {base_sim.get('dominant_stages')} "
            f"-> {sim.get('dominant_stages')}")
    return problems


def format_report(current: Dict, baseline: Dict,
                  problems: List[str]) -> str:
    lines = []
    wall = current.get("wall", {})
    base_wall = baseline.get("wall", {})
    if wall:
        lines.append(
            f"sweep wall clock ({current.get('cpu_count', '?')} cpu, "
            f"median of {wall.get('speedup_pairs')} pairs): "
            f"serial {wall.get('serial_s')}s, "
            f"process({current.get('workers')}) {wall.get('process_s')}s "
            f"(x{wall.get('process_speedup')}) "
            f"(baseline serial {base_wall.get('serial_s', '?')}s; "
            "absolute walls informational)")
    else:
        # Bundles capture no wall clock; only the sim aggregates gate.
        lines.append("sweep wall clock: not captured (run bundle; "
                     "sim aggregates gated only)")
    fleet = current.get("fleet") or {}
    if fleet:
        lines.append(
            f"fleet row (informational): {fleet.get('devices')} devices / "
            f"{fleet.get('arrivals')} arrivals, seed {fleet.get('seed')}, "
            f"{fleet.get('policy')}: wall {fleet.get('wall_s')}s, sim "
            f"makespan {fleet.get('sim_makespan_s')}s, p95 "
            f"{fleet.get('p95_s')}s, refusal rate "
            f"{fleet.get('refusal_rate')}")
    if problems:
        lines.append(f"BENCH CHECK FAILED ({len(problems)} problem(s)):")
        lines.extend(f"  - {p}" for p in problems)
    else:
        sim = current.get("sim", {})
        lines.append(
            f"bench check OK: {current.get('cells')} cells, avg total "
            f"{sim.get('avg_total_seconds')}s, all "
            f"{len(sim.get('counters', {}))} gated counters within "
            f"{SIM_TOLERANCE:.0%}")
    return "\n".join(lines)


def sim_payload_from_bundle(bundle) -> Dict:
    """A gateable payload rebuilt from a sweep run bundle.

    The bundle's metrics document carries everything the ``sim``
    section gates on.  Wall clock was *not* captured — bundles are
    wall-free by design — so the ``wall`` section is empty and
    ``cpu_count`` is pinned to 1, which skips the process-speedup gate.
    """
    rollup = (bundle.metrics_document().get("rollup")
              or rollup_counters(bundle.snapshot()))
    return _payload(bundle.migration_rows(), rollup,
                    bundle.fingerprint.get("workers"),
                    bundle.fingerprint.get("executor"), 1, {}, {})


def run_check(baseline_path: Optional[Path] = None, update: bool = False,
              tolerance: float = SIM_TOLERANCE,
              workers: int = WORKERS,
              bundle: Optional[str] = None) -> Tuple[int, str]:
    """Drive a full bench check (or baseline refresh); (exit, text).

    With ``bundle`` set, the sweep is *not* regenerated: the gate runs
    against the telemetry captured in that run bundle (from ``flux-sim
    sweep --bundle-out``), so a post-mortem can re-gate a historical
    run without its machine.
    """
    path = Path(baseline_path) if baseline_path else BENCH_PATH
    if bundle is not None:
        from repro.sim.bundle import BundleError, RunBundle
        try:
            loaded = RunBundle.load(bundle)
        except BundleError as error:
            return 2, str(error)
        if loaded.kind != "sweep":
            return 2, (f"--bundle expects a sweep bundle; {bundle} is a "
                       f"{loaded.kind!r} bundle")
        if update:
            return 2, ("--bundle cannot --update the baseline: bundles "
                       "capture no wall clock")
        if not path.exists():
            return 2, (f"no baseline at {path}; run 'flux-sim bench-check "
                       f"--update' first")
        try:
            baseline = load_baseline(path)
            current = sim_payload_from_bundle(loaded)
        except (BenchError, BundleError) as error:
            return 2, str(error)
        problems = check(current, baseline, tolerance=tolerance)
        return ((1 if problems else 0),
                format_report(current, baseline, problems))
    baseline = None
    if not update and path.exists():
        try:
            baseline = load_baseline(path)
        except BenchError as error:
            return 2, str(error)
    sweep, wall = measure_sweep(workers=workers)
    current = build_payload(sweep, wall, workers=workers,
                            fleet_row=measure_fleet())

    if baseline is None:
        path.write_text(json.dumps(current, indent=2) + "\n")
        return 0, (f"wrote baseline {path} (schema {SCHEMA_VERSION}, "
                   f"{current['cells']} cells)")

    problems = check(current, baseline, tolerance=tolerance)
    return (1 if problems else 0), format_report(current, baseline, problems)
