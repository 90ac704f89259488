"""Shared experiment harness: the paper's §4 migration sweep.

Boots each of the four device pairs, installs the Table 3 apps on the
home device, pairs the devices, runs each app's workload, and migrates
it — collecting the per-stage reports Figures 12-15 are drawn from.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, TypeVar, Union)

from repro.android.device import Device
from repro.android.hardware.profiles import PAPER_DEVICE_PAIRS, DeviceProfile
from repro.apps.catalog import MIGRATABLE_APPS, TOP_APPS
from repro.apps.common import AppSpec
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.migration.migration import MigrationReport
from repro.sim import SimClock
from repro.sim.events import merge_streams
from repro.sim.metrics import (
    empty_snapshot,
    merge_snapshots,
    rollup_counters,
    snapshot_by_label,
)
from repro.sim.rng import RngFactory
from repro.sim.timeline import merge_timelines

T = TypeVar("T")


def pair_label(home: DeviceProfile, guest: DeviceProfile) -> str:
    return f"{home.model} to {guest.model}"


@dataclass
class SweepResult:
    pair_labels: List[str]
    app_titles: List[str]
    #: (pair_label, package) -> successful MigrationReport
    reports: Dict[Tuple[str, str], MigrationReport]
    #: (pair_label, package) -> refusal for expected failures
    refusals: Dict[Tuple[str, str], MigrationRefusal] = field(
        default_factory=dict)
    #: pair_label -> merged (home + guest) metrics snapshot for the pair.
    pair_metrics: Dict[str, Dict] = field(default_factory=dict)
    #: pair_label -> the pair's causally-merged home+guest event stream
    #: (see :mod:`repro.sim.events`); empty when ``FLUX_EVENTS=0``.
    pair_events: Dict[str, List[Dict]] = field(default_factory=dict)
    #: pair_label -> the pair's merged time-series export (see
    #: :mod:`repro.sim.timeline`); empty when ``FLUX_TIMELINE=0``.
    pair_timelines: Dict[str, Dict[str, List[List[float]]]] = field(
        default_factory=dict)

    def report_for(self, pair: str, package: str) -> MigrationReport:
        return self.reports[(pair, package)]

    def reports_for_app(self, package: str) -> List[MigrationReport]:
        return [r for (_, pkg), r in self.reports.items() if pkg == package]

    def all_reports(self) -> List[MigrationReport]:
        return list(self.reports.values())

    # -- aggregates used by several figures -----------------------------------
    # All averages are 0.0 over an empty report set (a sweep of pure
    # refusals with include_failures=True yields zero successful
    # reports; averaging must not divide by zero).

    def average_total_seconds(self) -> float:
        reports = self.all_reports()
        if not reports:
            return 0.0
        return sum(r.total_seconds for r in reports) / len(reports)

    def average_perceived_seconds(self) -> float:
        reports = self.all_reports()
        if not reports:
            return 0.0
        return sum(r.perceived_seconds for r in reports) / len(reports)

    def average_non_transfer_seconds(self) -> float:
        reports = self.all_reports()
        if not reports:
            return 0.0
        return sum(r.non_transfer_seconds for r in reports) / len(reports)

    def average_stage_fraction(self, stage: str) -> float:
        reports = self.all_reports()
        if not reports:
            return 0.0
        return sum(r.stage_fraction(stage) for r in reports) / len(reports)

    # -- metrics aggregation ---------------------------------------------------

    def merged_metrics(self) -> Dict:
        """One snapshot over every device pair (counters/histograms add,
        gauges take the maximum) — deterministic regardless of sweep
        parallelism because snapshots merge in pair-label order."""
        return merge_snapshots(
            self.pair_metrics.get(label) or empty_snapshot()
            for label in self.pair_labels)

    def app_metrics(self) -> Dict[str, Dict]:
        """Per-app snapshots: the merged snapshot partitioned by the
        ``app`` label (device-level series land under ``""``)."""
        return snapshot_by_label(self.merged_metrics(), "app")

    def merged_events(self) -> List[Dict]:
        """Every pair's event stream, pair-labeled, in pair order.

        Each pair is an independent simulation with its own clock and
        device names, so cross-pair merging by time would be
        meaningless; instead each event gains a ``pair`` key and the
        streams concatenate in ``pair_labels`` order — deterministic
        regardless of sweep parallelism."""
        labeled: List[Dict] = []
        for label in self.pair_labels:
            for event in self.pair_events.get(label) or []:
                tagged = dict(event)
                tagged["pair"] = label
                labeled.append(tagged)
        return labeled

    def merged_timelines(self) -> Dict[str, Dict[str, List[List[float]]]]:
        """Every pair's timeline export, keyed by pair label, in pair
        order.  Pairs are independent simulations with private clocks,
        so cross-pair series never merge by time; within a pair the
        home+guest merge already happened in :func:`run_pair`.
        Deterministic regardless of sweep parallelism."""
        return {label: self.pair_timelines.get(label) or {}
                for label in self.pair_labels}


class PairOutcome(NamedTuple):
    """What one device pair's simulation produced."""

    reports: Dict[str, MigrationReport]
    refusals: Dict[str, MigrationRefusal]
    #: Merged home + guest metrics snapshot for this pair's simulation.
    metrics: Dict
    #: Causally-merged home + guest event stream (same virtual clock,
    #: so ``merge_streams`` yields one deterministic interleaving).
    events: List[Dict]
    #: Merged home + guest edge-sampled time series (associative
    #: ``merge_timelines``); ``{}`` when ``FLUX_TIMELINE=0``.
    timeline: Dict[str, List[List[float]]] = {}


def run_pair(home_profile: DeviceProfile, guest_profile: DeviceProfile,
             apps: Sequence[AppSpec], seed: int = 0,
             include_failures: bool = False,
             ) -> PairOutcome:
    """One device pair: install, pair, run workloads, migrate each app."""
    clock = SimClock()
    rng_factory = RngFactory(seed)
    home = Device(home_profile, clock, rng_factory, name="home")
    guest = Device(guest_profile, clock, rng_factory, name="guest")
    try:
        return _run_pair(home, guest, apps, include_failures)
    finally:
        home.close()
        guest.close()
        clock.close()


def _run_pair(home: Device, guest: Device, apps: Sequence[AppSpec],
              include_failures: bool) -> PairOutcome:
    for spec in apps:
        spec.install(home)
    home.pairing_service.pair(guest)

    reports: Dict[str, MigrationReport] = {}
    refusals: Dict[str, MigrationRefusal] = {}
    for spec in apps:
        spec.install_and_launch(home)
        try:
            reports[spec.package] = home.migration_service.migrate(
                guest, spec.package)
        except MigrationError as error:
            if not include_failures:
                raise
            refusals[spec.package] = error.reason
            home.discard_app(spec.package)
    metrics = merge_snapshots([home.metrics.snapshot(),
                               guest.metrics.snapshot()])
    events = merge_streams(home.events.export(), guest.events.export())
    timeline = merge_timelines(home.timeline.export(),
                               guest.timeline.export())
    return PairOutcome(reports=reports, refusals=refusals, metrics=metrics,
                       events=events, timeline=timeline)


#: Sweep results cached per (apps, pairs, seed, include_failures),
#: bounded LRU (the shape-regression and figure modules share one key;
#: property-style tests can generate many).
_SWEEP_CACHE: "OrderedDict[Tuple, SweepResult]" = OrderedDict()
_SWEEP_CACHE_MAX = 8

#: Environment knob for the default sweep parallelism (see README);
#: ``workers=None`` in :func:`run_sweep` reads it, defaulting to serial.
#: Accepts an integer or ``auto`` (= ``os.cpu_count()``).
SWEEP_WORKERS_ENV = "FLUX_SWEEP_WORKERS"


def clear_sweep_cache() -> None:
    """Drop every cached sweep (tests; replaces ad-hoc dict pokes)."""
    _SWEEP_CACHE.clear()


def parse_workers(raw: str) -> Union[int, str]:
    """A worker count as typed: ``"auto"`` or an integer.

    Raises ``ValueError`` on anything else, so a typo fails loudly
    instead of running serial.
    """
    return raw if raw == "auto" else int(raw)


def sweep_workers(workers: Union[int, str, None]) -> Union[int, str]:
    """``workers``, or ``FLUX_SWEEP_WORKERS`` when it is ``None``."""
    if workers is not None:
        return workers
    raw = os.environ.get(SWEEP_WORKERS_ENV) or "1"
    try:
        return parse_workers(raw)
    except ValueError:
        raise ValueError(f"{SWEEP_WORKERS_ENV}={raw!r}: expected an "
                         "integer or 'auto'") from None


def resolve_workers(workers: Union[int, str, None], task_count: int) -> int:
    """Processes to run ``task_count`` tasks on: ``None`` is serial,
    ``"auto"`` one per core, and never more than there are tasks."""
    if workers == "auto":
        workers = os.cpu_count() or 1
    return max(1, min(int(workers or 1), task_count))


def _mp_context(start_method: Optional[str]):
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(start_method)


def fan_out(fn: Callable[..., T], tasks: Sequence[Tuple], workers: int,
            start_method: Optional[str] = None) -> List[T]:
    """``[fn(*task) for task in tasks]``, on a process pool when
    ``workers > 1``; results come back in task order either way.

    With ``workers <= 1`` this is a plain loop in the caller's process.
    Otherwise ``fn`` (by import path), every task and every result is
    pickled — tests/experiments/test_pickle_protocol.py pins that a
    ``PairOutcome`` round-trips exactly.  A child sees the
    parent's ``os.environ`` as it stands when the pool starts, under
    ``fork`` and ``spawn`` alike, so the telemetry knobs need no
    forwarding.  ``start_method`` forces a multiprocessing start method
    (tests pin ``spawn`` safety); the default prefers ``fork`` where
    available for its lower startup cost.
    """
    if workers <= 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=_mp_context(start_method)) as pool:
        futures = [pool.submit(fn, *task) for task in tasks]
        return [future.result() for future in futures]


def merge_pair_outcomes(
        pairs: Sequence[Tuple[DeviceProfile, DeviceProfile]],
        apps: Sequence[AppSpec],
        pair_results: Sequence[PairOutcome]) -> SweepResult:
    """Fold per-pair outcomes (serial or pooled) into one SweepResult.

    Merging happens in pair order regardless of completion order, which
    is half of the parallel-equals-serial determinism story (the other
    half: each pair is a sealed simulation).
    """
    labels = []
    reports: Dict[Tuple[str, str], MigrationReport] = {}
    refusals: Dict[Tuple[str, str], MigrationRefusal] = {}
    pair_metrics: Dict[str, Dict] = {}
    pair_events: Dict[str, List[Dict]] = {}
    pair_timelines: Dict[str, Dict[str, List[List[float]]]] = {}
    for (home_profile, guest_profile), outcome in zip(pairs, pair_results):
        label = pair_label(home_profile, guest_profile)
        labels.append(label)
        for package, report in outcome.reports.items():
            reports[(label, package)] = report
        for package, refusal in outcome.refusals.items():
            refusals[(label, package)] = refusal
        pair_metrics[label] = outcome.metrics
        pair_events[label] = outcome.events
        pair_timelines[label] = getattr(outcome, "timeline", {})
    return SweepResult(pair_labels=labels,
                       app_titles=[a.title for a in apps],
                       reports=reports, refusals=refusals,
                       pair_metrics=pair_metrics,
                       pair_events=pair_events,
                       pair_timelines=pair_timelines)


def run_sweep(apps: Sequence[AppSpec] = MIGRATABLE_APPS,
              pairs: Sequence[Tuple[DeviceProfile, DeviceProfile]]
              = PAPER_DEVICE_PAIRS,
              seed: int = 0, include_failures: bool = False,
              use_cache: bool = True,
              workers: Union[int, str, None] = None,
              start_method: Optional[str] = None) -> SweepResult:
    """The full sweep: every app across every device pair.

    Results are cached per (apps, pairs, seed) within the process; the
    sweep is deterministic, so figures 12-15 share one run.

    ``workers`` > 1 runs the device pairs concurrently — each pair is a
    fully independent simulation (private clock, private RNG factory,
    freshly booted devices), so the parallel sweep is bit-identical to
    the serial one; results are merged in pair order regardless of
    completion order.  ``workers="auto"`` uses every core; the default
    comes from ``FLUX_SWEEP_WORKERS``, else serial.  Parallel pairs run
    on processes (see :func:`fan_out`, which ``start_method`` is passed
    to): each pair is GIL-bound pure Python, so only processes scale
    with cores.
    """
    key = (tuple(a.package for a in apps),
           tuple((h.name, g.name) for h, g in pairs),
           seed, include_failures)
    if use_cache:
        cached = _SWEEP_CACHE.get(key)
        if cached is not None:
            _SWEEP_CACHE.move_to_end(key)
            return cached

    pair_results = fan_out(
        run_pair,
        [(home, guest, apps, seed, include_failures) for home, guest in pairs],
        resolve_workers(sweep_workers(workers), len(pairs)), start_method)
    result = merge_pair_outcomes(pairs, apps, pair_results)
    if use_cache:
        _SWEEP_CACHE[key] = result
        _SWEEP_CACHE.move_to_end(key)
        while len(_SWEEP_CACHE) > _SWEEP_CACHE_MAX:
            _SWEEP_CACHE.popitem(last=False)
    return result


def sweep_metrics_document(sweep: SweepResult) -> Dict:
    """JSON-ready observability document for a finished sweep.

    Deterministic (sorted keys, virtual-clock quantities only except
    where noted): per-pair snapshots, the cross-pair merge, label-free
    counter totals, per-app partitions, and one row per migration with
    its dominant stage and critical path.
    """
    merged = sweep.merged_metrics()
    migrations = []
    for (pair, package) in sorted(sweep.reports):
        report = sweep.reports[(pair, package)]
        migrations.append({
            "pair": pair,
            "package": package,
            "total_seconds": round(report.total_seconds, 6),
            "stages": {s: round(v, 6) for s, v in report.stages.items()},
            "dominant_stage": report.dominant_stage,
            "critical_path": report.critical_path,
            "transferred_bytes": report.transferred_bytes,
            "chunk_hit_rate": round(report.chunk_hit_rate, 4),
        })
    return {
        "schema": 1,
        "pairs": dict(sorted(sweep.pair_metrics.items())),
        "totals": merged,
        "rollup": rollup_counters(merged),
        "apps": sweep.app_metrics(),
        "migrations": migrations,
        "refusals": {f"{pair}/{package}": refusal.value
                     for (pair, package), refusal
                     in sorted(sweep.refusals.items())},
    }


def sweep_timeline_series(sweep: SweepResult
                          ) -> Dict[str, List[List[float]]]:
    """The sweep's timelines as one flat export, pair folded into labels.

    Each pair is an independent simulation with a private clock, so the
    per-pair series never merge by time; instead every key gains a
    ``pair=<label>`` label (via the canonical key grammar), which keeps
    the flat export collision-free and lets a run bundle store the
    whole sweep's time-series plane as one standard timeline document.
    """
    from repro.sim.timeline import series_key, split_series_key
    flat: Dict[str, List[List[float]]] = {}
    for label, series in sweep.merged_timelines().items():
        for key, samples in series.items():
            name, labels = split_series_key(key)
            labels["pair"] = label
            flat[series_key(name, labels)] = samples
    return {key: flat[key] for key in sorted(flat)}


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: str = "") -> str:
    """Plain-text table rendering shared by all experiments."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
