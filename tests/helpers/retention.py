"""Memory a long handoff keeps per migration, by source file.

    PYTHONPATH=src python -m tests.helpers.retention [--seed 0] [--telemetry]
    PYTHONPATH=src python -m tests.helpers.retention --workload fleet [--seed 0]

Runs the perfbench handoff rounds (``perfbench/workloads.py``: the four
paper device pairs, every migratable app) under ``tracemalloc`` and
reports the bytes still allocated after rounds ``FIRST``..``LAST`` that
were not allocated before them, per migration in that window, grouped
by the file that allocated them.  Telemetry planes are off unless
``--telemetry`` is given (perfbench's ``handoff-quiet`` and ``handoff``);
with them on, the report also counts the metric series the window
created per migration, by series name, so a series added on every
migration shows up as a number.

Tracing starts before the worlds are built, so state a migration only
replaces (an app's live heap, moved from one device to the other and
freed on the first) cancels out between the two snapshots: what is left
is what grows with run length.  A full collection runs before each
snapshot, so garbage waiting for the cyclic collector is not counted.

``--workload fleet`` instead runs perfbench's first fleet epoch for the
seed (120 devices, 400 demands, telemetry on as the fleet workload runs
it) after one untimed warm-up fleet, and reports the bytes its
``FleetResult`` still holds once ``run_fleet`` returns, per demand, by
allocating file.  About 10 s.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import os
import sys
import tracemalloc
from typing import Dict, Set, Tuple

from repro.sim.timeline import split_series_key
from tests.helpers.host_cost import (ROOT, perfbench_telemetry,
                                     perfbench_workloads)

#: Rounds run before the first snapshot (the warm-up round included),
#: and the round after which the second is taken: 8 rounds of 64
#: migrations in between.
FIRST, LAST = 5, 13


def measure(seed: int = 0, quiet: bool = True,
            first: int = FIRST, last: int = LAST) -> Dict:
    """kB retained per migration over rounds ``first``..``last``: the
    total, and per allocating file (repository-relative where the file
    is in the repository), largest first."""
    workloads = perfbench_workloads()
    tracemalloc.start()
    try:
        with perfbench_telemetry(quiet):
            worlds = workloads.build_pair_worlds(seed)
            orders = workloads.handoff_orders(seed, last - 1)
            workloads.run_rounds(worlds, orders[:first], workloads.Window(),
                                 [hashlib.sha256()])
            series_before = _series(worlds)
            gc.collect()
            before = tracemalloc.take_snapshot()
            window = workloads.Window()
            workloads.run_rounds(worlds, orders[first:last], window,
                                 [hashlib.sha256()])
            gc.collect()
            after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    migrations = window.ops
    by_file = _by_file(after, before, migrations)
    new_series: Dict[str, float] = {}
    for _, key in _series(worlds) - series_before:
        name = split_series_key(key)[0]
        new_series[name] = new_series.get(name, 0) + 1 / migrations
    return {
        "migrations": migrations,
        "failed": window.failed,
        "kb_per_migration": sum(by_file.values()),
        "by_file": by_file,
        "series_per_migration": sum(new_series.values()),
        "series_by_name": dict(sorted(new_series.items(),
                                      key=lambda item: -item[1])),
    }


def _series(worlds) -> Set[Tuple[int, str]]:
    """(device index, series key) of every metric series the worlds'
    devices hold."""
    keys = set()
    devices = [device for world in worlds for device in world.devices]
    for index, device in enumerate(devices):
        snapshot = device.metrics.snapshot()
        for section in ("counters", "gauges", "histograms"):
            keys.update((index, key) for key in snapshot[section])
    return keys


def _by_file(after, before, per: int) -> Dict[str, float]:
    """kB per ``per`` allocated between the snapshots, by allocating
    file (repository-relative where the file is in the repository),
    largest first."""
    by_file = {}
    for stat in after.compare_to(before, "filename"):
        if stat.size_diff:
            name = stat.traceback[0].filename
            if name.startswith(ROOT + os.sep):
                name = os.path.relpath(name, ROOT)
            by_file[name] = stat.size_diff / 1024 / per
    return dict(sorted(by_file.items(), key=lambda item: -abs(item[1])))


def measure_fleet(seed: int = 0) -> Dict:
    """kB that one perfbench fleet epoch's result holds per demand: the
    total, and per allocating file, largest first."""
    from repro.experiments.fleet import run_fleet
    from repro.sim.rng import derive_seed

    workloads = perfbench_workloads()
    with perfbench_telemetry(False):
        run_fleet(workloads.fleet_spec(seed, workloads.FLEET_WARMUP))
        spec = workloads.fleet_spec(derive_seed(seed, "perfbench", "0"),
                                    workloads.FLEET_EPOCH)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            result = run_fleet(spec)
            gc.collect()
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    demands = len(result.rows)
    by_file = _by_file(after, before, demands)
    return {
        "demands": demands,
        "events": len(result.events),
        "kb_per_demand": sum(by_file.values()),
        "by_file": by_file,
    }


def format_fleet_report(result: Dict, top: int = 12) -> str:
    lines = [f"{result['kb_per_demand']:.2f} kB held per demand by one "
             f"fleet epoch's result ({result['demands']} demands, "
             f"{result['events']} events)"]
    for name, kb in list(result["by_file"].items())[:top]:
        lines.append(f"  {kb:7.3f} kB  {name}")
    return "\n".join(lines)


def format_report(result: Dict, top: int = 12) -> str:
    lines = [f"{result['kb_per_migration']:.2f} kB retained per migration "
             f"over {result['migrations']} migrations "
             f"({result['failed']} failed)"]
    for name, kb in list(result["by_file"].items())[:top]:
        lines.append(f"  {kb:7.3f} kB  {name}")
    if result["series_per_migration"]:
        lines.append(f"{result['series_per_migration']:.2f} metric series "
                     "created per migration")
        for name, count in list(result["series_by_name"].items())[:top]:
            lines.append(f"  {count:7.3f}  {name}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("handoff", "fleet"),
                        default="handoff")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--telemetry", action="store_true",
                        help="keep the telemetry planes on (handoff only)")
    args = parser.parse_args(argv)
    if args.workload == "fleet":
        print(format_fleet_report(measure_fleet(args.seed)))
    else:
        print(format_report(measure(args.seed, quiet=not args.telemetry)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
