"""Deterministic, typed metrics: counters, gauges, fixed-bucket histograms.

The span tree in :mod:`repro.sim.trace` answers "where did the time
go?"; this registry answers "how much work happened?" — how many Binder
transactions were interposed, record-log calls pruned, chunks served
from cache, restore sub-operations replayed.  Every metric is keyed by
``(subsystem, name, labels)``, exported as the flat key
``series_key("subsystem/name", labels)`` of :mod:`repro.sim.timeline`,
and is one of three types:

* :class:`Counter` — monotonically increasing integer/float total.
* :class:`Gauge` — a point-in-time level (chunk-store occupancy).
* :class:`Histogram` — fixed, declared-up-front bucket bounds; observing
  a value increments exactly one bucket and updates sum/count/min/max.

Determinism contract (this is what lets metrics stay always-on):

* The registry **never advances the clock and never draws from the
  RNG** — reading ``clock.now`` for timeline samples is the only clock
  interaction.  Enabling or disabling metrics cannot perturb a
  simulation; the default sweep stays byte-identical either way.
* Snapshots are emitted with **sorted keys**, so two runs of the same
  simulation produce identical JSON documents.
* Snapshots **merge associatively** (counters and histogram buckets
  add, gauges keep their maximum), so a parallel sweep aggregated in
  pair order is identical to the serial sweep's aggregation.

A registry built with ``enabled=False`` hands out shared null metrics
whose mutators are no-ops — instrumented code never needs an ``if``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.sim.timeline import (append_sample, chrome_counter_events,
                                sample_pairs, series_key, split_series_key)


class MetricsError(Exception):
    """Metric type conflicts, bad buckets, malformed snapshots."""


#: Latency buckets (seconds) sized for simulated Binder dispatch through
#: whole migration stages: 10 us .. 30 s, roughly 1-3-10 per decade.
TIME_BUCKETS_S: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
    0.1, 0.3, 1.0, 3.0, 10.0, 30.0)

#: Size buckets (bytes): 1 KB .. 64 MB, covering parcels through images.
SIZE_BUCKETS_BYTES: Tuple[float, ...] = (
    1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20, 64 << 20)

#: Effective-goodput buckets (Mbit/s) for link transfers.
RATE_BUCKETS_MBPS: Tuple[float, ...] = (
    1, 5, 10, 20, 40, 60, 80, 100, 150, 200)


LabelItems = Tuple[Tuple[str, str], ...]


#: Memo for :func:`fold_instance_label`.  Folded labels have bounded
#: cardinality by design (that is the point of folding), so the memo
#: stays small; the binder driver calls this once per transaction.
_FOLD_CACHE: Dict[str, str] = {}


def fold_instance_label(label: str) -> str:
    """Fold a per-instance suffix out of a label: ``foo:7`` -> ``foo``.

    Binder node labels like ``sensor-connection:7`` carry a
    process-global instance id whose value depends on allocation order
    across sweep workers; folding them keeps metric keys *and* event
    attributes deterministic (and the label cardinality bounded).  The
    metrics registry and the causal event log both use this helper, so
    the two telemetry planes agree on cross-worker-deterministic labels.
    """
    folded = _FOLD_CACHE.get(label)
    if folded is None:
        base, sep, suffix = label.rpartition(":")
        folded = base if sep and suffix.isdigit() else label
        if len(_FOLD_CACHE) < 4096:     # hard bound, defensive
            _FOLD_CACHE[label] = folded
    return folded


def _canonical_labels(labels: Mapping[str, Any]) -> LabelItems:
    items = [(k if type(k) is str else str(k),
              v if type(v) is str else str(v))
             for k, v in labels.items()]
    items.sort()
    return tuple(items)


class _Metric:
    """Shared identity plumbing; subclasses add the typed state.

    With a ``clock``, every mutation appends ``(clock.now, value)`` to
    the metric's own flat ``[t0, v0, t1, v1, ...]`` track
    (:func:`~repro.sim.timeline.append_sample`); without one the track
    stays empty.
    """

    kind = "?"

    def __init__(self, clock, subsystem: str, name: str,
                 labels: LabelItems) -> None:
        self._clock = clock
        self.track: List[float] = []
        self.subsystem = subsystem
        self.name = name
        self.labels = labels
        self.key = series_key(f"{subsystem}/{name}", labels)

    def _sample(self, value: float) -> None:
        if self._clock is not None:
            append_sample(self.track, self._clock.now, value)


class Counter(_Metric):
    """A monotonically increasing total."""

    kind = "counter"

    def __init__(self, clock, subsystem, name, labels) -> None:
        super().__init__(clock, subsystem, name, labels)
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise MetricsError(
                f"counter {self.key} cannot decrease (inc {amount!r})")
        self.value += amount
        self._sample(self.value)


class Gauge(_Metric):
    """A point-in-time level; merge keeps the maximum seen."""

    kind = "gauge"

    def __init__(self, clock, subsystem, name, labels) -> None:
        super().__init__(clock, subsystem, name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value
        self._sample(self.value)

    def add(self, delta: float) -> None:
        self.set(self.value + delta)


class Histogram(_Metric):
    """Fixed-bucket histogram: declared bounds, cumulative-free counts.

    ``bounds`` are strictly increasing upper bounds; an observation
    lands in the first bucket whose bound is >= the value, or in the
    implicit overflow bucket past the last bound (``counts`` has
    ``len(bounds) + 1`` cells).
    """

    kind = "histogram"

    def __init__(self, clock, subsystem, name, labels,
                 bounds: Tuple[float, ...]) -> None:
        super().__init__(clock, subsystem, name, labels)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricsError(
                f"histogram {series_key(f'{subsystem}/{name}', labels)} needs "
                f"strictly increasing bounds, got {bounds!r}")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self._sample(self.count)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class _NullCounter(Counter):
    def inc(self, amount: float = 1) -> None:  # noqa: D102 - no-op
        pass


class _NullGauge(Gauge):
    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    def observe(self, value: float) -> None:
        pass


class MetricsRegistry:
    """Typed metric store living alongside a :class:`~repro.sim.Tracer`.

    ``clock`` (optional) enables *timeline samples*: the registry hands
    it to every metric it builds, and each mutation records
    ``(clock.now, value)`` on the metric's own track — coalesced per
    distinct timestamp — which exports as Chrome-trace counter
    ("C"-phase) tracks.  The clock is only ever read, never advanced.
    """

    def __init__(self, clock=None, enabled: bool = True) -> None:
        self._clock = clock
        self.enabled = enabled
        self._metrics: Dict[Tuple[str, str, LabelItems], _Metric] = {}
        self._null_counter = _NullCounter(None, "null", "counter", ())
        self._null_gauge = _NullGauge(None, "null", "gauge", ())
        self._null_histogram = _NullHistogram(None, "null", "histogram", (),
                                              (1.0,))

    # -- metric lookup / creation --------------------------------------------

    def _get(self, cls, subsystem: str, name: str,
             labels: Mapping[str, Any], **extra) -> _Metric:
        key = (subsystem, name, _canonical_labels(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(self._clock, subsystem, name, key[2], **extra)
            self._metrics[key] = metric
            return metric
        if not isinstance(metric, cls):
            raise MetricsError(
                f"{metric.key} already registered as {metric.kind}, "
                f"requested {cls.kind}")
        return metric

    def counter(self, subsystem: str, name: str, **labels: Any) -> Counter:
        if not self.enabled:
            return self._null_counter
        return self._get(Counter, subsystem, name, labels)

    def gauge(self, subsystem: str, name: str, **labels: Any) -> Gauge:
        if not self.enabled:
            return self._null_gauge
        return self._get(Gauge, subsystem, name, labels)

    def histogram(self, subsystem: str, name: str,
                  bounds: Tuple[float, ...] = TIME_BUCKETS_S,
                  **labels: Any) -> Histogram:
        if not self.enabled:
            return self._null_histogram
        metric = self._get(Histogram, subsystem, name, labels, bounds=bounds)
        if metric.bounds != tuple(float(b) for b in bounds):
            raise MetricsError(
                f"histogram {metric.key} re-registered with different "
                f"bounds: {metric.bounds} vs {bounds}")
        return metric

    def __len__(self) -> int:
        return len(self._metrics)

    # -- timeline samples -----------------------------------------------------

    def chrome_counter_events(self) -> List[Dict[str, Any]]:
        """Timeline samples as Chrome-trace counter ("C"-phase) events.

        One counter track per metric key; values are the running totals
        (counters), levels (gauges) or observation counts (histograms)
        at each distinct virtual timestamp.
        """
        return chrome_counter_events(
            {metric.key: sample_pairs(metric.track)
             for metric in self._metrics.values() if metric.track},
            cat="metric")

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready view of every metric, with deterministic ordering."""
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
        histograms: Dict[str, Dict[str, Any]] = {}
        for metric in self._metrics.values():
            if isinstance(metric, Counter):
                counters[metric.key] = metric.value
            elif isinstance(metric, Gauge):
                gauges[metric.key] = metric.value
            elif isinstance(metric, Histogram):
                histograms[metric.key] = {
                    "bounds": list(metric.bounds),
                    "counts": list(metric.counts),
                    "sum": metric.sum,
                    "count": metric.count,
                    "min": metric.min,
                    "max": metric.max,
                }
        return {
            "counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items())),
        }


def empty_snapshot() -> Dict[str, Any]:
    return {"counters": {}, "gauges": {}, "histograms": {}}


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Aggregate snapshots: counters/histograms add, gauges keep max.

    Associative and order-insensitive for counters and histograms, so
    merging per-worker snapshots in pair order reproduces the serial
    aggregation exactly.
    """
    merged = empty_snapshot()
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        for key, value in snap.get("gauges", {}).items():
            merged["gauges"][key] = max(merged["gauges"].get(key, value),
                                        value)
        for key, hist in snap.get("histograms", {}).items():
            into = merged["histograms"].get(key)
            if into is None:
                merged["histograms"][key] = {
                    "bounds": list(hist["bounds"]),
                    "counts": list(hist["counts"]),
                    "sum": hist["sum"], "count": hist["count"],
                    "min": hist["min"], "max": hist["max"],
                }
                continue
            if into["bounds"] != list(hist["bounds"]):
                raise MetricsError(
                    f"cannot merge histogram {key}: bucket bounds differ")
            into["counts"] = [a + b for a, b
                              in zip(into["counts"], hist["counts"])]
            into["sum"] += hist["sum"]
            into["count"] += hist["count"]
            for stat, pick in (("min", min), ("max", max)):
                if hist[stat] is not None:
                    into[stat] = (hist[stat] if into[stat] is None
                                  else pick(into[stat], hist[stat]))
    for section in ("counters", "gauges", "histograms"):
        merged[section] = dict(sorted(merged[section].items()))
    return merged


def rollup_counters(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Counters summed across label variants: ``subsystem/name`` totals."""
    totals: Dict[str, float] = {}
    for key, value in snapshot.get("counters", {}).items():
        base = split_series_key(key)[0]
        totals[base] = totals.get(base, 0) + value
    return dict(sorted(totals.items()))


def snapshot_by_label(snapshot: Dict[str, Any],
                      label: str) -> Dict[str, Dict[str, Any]]:
    """Partition a snapshot by one label's values (e.g. ``app``).

    Metrics without the label are omitted; the label itself is removed
    from the returned keys so per-app sections read cleanly.
    """
    grouped: Dict[str, Dict[str, Any]] = {}
    for section in ("counters", "gauges", "histograms"):
        for key, value in snapshot.get(section, {}).items():
            name, labels = split_series_key(key)
            if label not in labels:
                continue
            group = labels.pop(label)
            bucket = grouped.setdefault(group, empty_snapshot())
            bucket[section][series_key(name, labels)] = value
    return {group: {section: dict(sorted(snap[section].items()))
                    for section in ("counters", "gauges", "histograms")}
            for group, snap in sorted(grouped.items())}


def subsystems_in(snapshot: Dict[str, Any]) -> List[str]:
    """Sorted subsystem names present in a snapshot."""
    seen = set()
    for section in ("counters", "gauges", "histograms"):
        for key in snapshot.get(section, {}):
            seen.add(split_series_key(key)[0].partition("/")[0])
    return sorted(seen)
