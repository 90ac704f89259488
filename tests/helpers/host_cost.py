"""Inclusive host time of a migration's entry points, as shares.

    PYTHONPATH=src python -m tests.helpers.host_cost --seed 0 --rounds 12
    PYTHONPATH=src python -m tests.helpers.host_cost --workload fleet

Runs the perfbench handoff-quiet rounds (``perfbench/workloads.py``:
the four paper device pairs, every migratable app, telemetry planes
off, warm-up round untimed) with the entry points below wrapped by a
wall-clock timer, and reports each one's time as a share of the time
spent in ``MigrationService.migrate``.  Shares are inclusive: a nested
entry point (``HardwareRenderer.draw`` inside ``foreground_app``) is
counted in both, so they do not sum to 1.

The same rounds report the cyclic collector's cadence (through
``gc.callbacks``): passes per generation per 1000 migrations and the
mean and longest pass.  Objects a migration allocates and keeps, or
churns through while older ones sit in the young generations, show up
there as more or longer passes.

The perfbench layers cover CRIA, record/replay, binder, chunks and the
telemetry planes; this helper also measures the app-side preparation
and reintegration path (trim-memory, foreground, GL) that they leave
out.

``--workload fleet`` instead runs one perfbench fleet epoch
(``FLEET_EPOCH``: 120 devices, 400 arrivals, telemetry on, after an
untimed warm-up fleet) and reports the inclusive shares of its phases
(booting devices, pairing, the scheduler's run, the telemetry export)
in the epoch's ``run_fleet`` wall time.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import importlib
import os
import sys
import time
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

#: (module, attribute path, name): patched where the caller looks the
#: name up, as in ``perfbench/layers.py``.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.android.services.activity_manager",
     "ActivityManagerService.foreground_app", "foreground_app"),
    ("repro.android.graphics.renderer", "HardwareRenderer.draw",
     "HardwareRenderer.draw"),
    ("repro.android.services.activity_manager",
     "ActivityManagerService.trim_memory", "trim_memory"),
    ("repro.android.graphics.renderer",
     "HardwareRenderer.destroy_hardware_resources",
     "destroy_hardware_resources"),
    ("repro.core.migration.chunks", "chunk_image", "chunk_image"),
    ("repro.core.migration.stages", "checkpoint_app", "checkpoint_app"),
    ("repro.core.migration.stages", "restore_app", "restore_app"),
    ("repro.core.cria.wire", "serialize_image", "serialize_image"),
    ("repro.core.record.log", "CallRecord.estimated_size",
     "CallRecord.estimated_size"),
)
TOTAL = ("repro.core.migration.migration", "MigrationService.migrate",
         "migrate")

#: The fleet epoch's phases, and the epoch they are shares of.
FLEET_PHASES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.android.device", "Device.__init__", "Device.__init__"),
    ("repro.core.migration.pairing", "PairingService.pair",
     "PairingService.pair"),
    ("repro.sim.scheduler", "Scheduler.run", "Scheduler.run"),
    ("repro.experiments.scenario", "export", "telemetry.export"),
)
FLEET_TOTAL = ("repro.experiments.fleet", "run_fleet", "run_fleet")


def perfbench_workloads():
    """perfbench's workload module (perfbench/ is not a package)."""
    perfbench = os.path.join(ROOT, "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    return importlib.import_module("workloads")


@contextlib.contextmanager
def perfbench_telemetry(quiet: bool):
    """perfbench's telemetry knobs (all three ``=0`` when ``quiet``)
    while the context is open; the caller's values come back after."""
    workloads = perfbench_workloads()
    saved = {key: os.environ.get(key) for key in workloads.QUIET_ENV}
    workloads.set_telemetry(quiet)
    try:
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


class CollectorCadence:
    """Cyclic-collector passes per generation, and each pass's wall
    seconds, while the context is open."""

    def __init__(self) -> None:
        self.passes: Dict[int, List[float]] = {0: [], 1: [], 2: []}
        self._started = 0.0

    def _callback(self, phase: str, info: Dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.passes[info["generation"]].append(
                time.perf_counter() - self._started)

    def __enter__(self) -> "CollectorCadence":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def summary(self, migrations: int) -> Dict[int, Dict[str, float]]:
        """Per generation: passes per 1000 migrations; mean, longest
        and total pass ms."""
        return {generation: {
            "per_1000": 1000 * len(seconds) / migrations,
            "mean_ms": 1e3 * sum(seconds) / len(seconds) if seconds else 0.0,
            "max_ms": 1e3 * max(seconds, default=0.0),
            "total_ms": 1e3 * sum(seconds),
        } for generation, seconds in self.passes.items()}


class InclusiveTimer:
    """Wall seconds and calls per entry point of ``points`` while the
    context is open."""

    def __init__(self, points: Tuple[Tuple[str, str, str], ...]) -> None:
        self.points = points
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.calls[name] += 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[name] += clock() - started

        return timed

    def __enter__(self) -> "InclusiveTimer":
        for module_name, path, name in self.points:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            self.seconds.setdefault(name, 0.0)
            self.calls.setdefault(name, 0)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def measure(seed: int = 0, rounds: int = 12) -> Dict:
    """Run ``rounds`` timed handoff rounds with the telemetry planes off
    (perfbench's ``handoff-quiet``); returns the migration count, the
    total ``migrate`` seconds, per entry point its inclusive share of
    that total and its calls per migration, and the collector's cadence
    (:meth:`CollectorCadence.summary`)."""
    workloads = perfbench_workloads()
    with perfbench_telemetry(True):
        worlds = workloads.build_pair_worlds(seed)
        orders = workloads.handoff_orders(seed, rounds)
        window = workloads.Window()
        workloads.run_rounds(worlds, orders[:1], window, [hashlib.sha256()])
        window = workloads.Window()
        gc.collect()    # the cadence starts from empty young generations
        with InclusiveTimer(ENTRY_POINTS + (TOTAL,)) as timer, \
                CollectorCadence() as cadence:
            workloads.run_rounds(worlds, orders[1:], window,
                                 [hashlib.sha256()])
    total = timer.seconds["migrate"]
    migrations = timer.calls["migrate"]
    return {
        "migrations": migrations,
        "failed": window.failed,
        "migrate_s": total,
        "shares": {name: timer.seconds[name] / total
                   for _, _, name in ENTRY_POINTS},
        "calls_per_migration": {name: timer.calls[name] / migrations
                                for _, _, name in ENTRY_POINTS},
        "collector": cadence.summary(migrations),
    }


def measure_fleet(seed: int = 0) -> Dict:
    """Run perfbench's first fleet epoch for ``seed`` (telemetry on, as
    the fleet workload runs) after one untimed warm-up fleet; returns
    the demand count, the epoch's ``run_fleet`` seconds, and per phase
    its inclusive share of them and its calls."""
    from repro.experiments import fleet
    from repro.sim.rng import derive_seed

    workloads = perfbench_workloads()
    with perfbench_telemetry(False):
        fleet.run_fleet(workloads.fleet_spec(seed, workloads.FLEET_WARMUP))
        spec = workloads.fleet_spec(derive_seed(seed, "perfbench", "0"),
                                    workloads.FLEET_EPOCH)
        gc.collect()
        with InclusiveTimer(FLEET_PHASES + (FLEET_TOTAL,)) as timer:
            result = fleet.run_fleet(spec)
    total = timer.seconds["run_fleet"]
    return {
        "demands": len(result.rows),
        "epoch_s": total,
        "shares": {name: timer.seconds[name] / total
                   for _, _, name in FLEET_PHASES},
        "calls": {name: timer.calls[name] for _, _, name in FLEET_PHASES},
    }


def format_fleet_report(result: Dict) -> str:
    lines = [f"{result['demands']} demands, {result['epoch_s']:.3f} s "
             "in run_fleet"]
    for name, share in result["shares"].items():
        lines.append(f"  {name:<28} {share:6.1%}  "
                     f"{result['calls'][name]:6d} calls")
    return "\n".join(lines)


def format_report(result: Dict) -> str:
    lines = [f"{result['migrations']} migrations, "
             f"{result['migrate_s'] * 1e3 / result['migrations']:.3f} ms "
             "each in migrate()"]
    for name, share in result["shares"].items():
        calls = result["calls_per_migration"][name]
        lines.append(f"  {name:<28} {share:6.1%}  "
                     f"{calls:5.1f} calls/migration")
    lines.append("collector passes per 1000 migrations:")
    for generation, row in result["collector"].items():
        lines.append(f"  gen {generation}  {row['per_1000']:7.1f} passes  "
                     f"mean {row['mean_ms']:6.3f} ms  "
                     f"max {row['max_ms']:6.3f} ms  "
                     f"total {row['total_ms']:8.1f} ms")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("handoff-quiet", "fleet"),
                        default="handoff-quiet")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=12,
                        help="timed handoff rounds (handoff-quiet only)")
    args = parser.parse_args(argv)
    if args.workload == "fleet":
        print(format_fleet_report(measure_fleet(args.seed)))
    else:
        print(format_report(measure(args.seed, args.rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
