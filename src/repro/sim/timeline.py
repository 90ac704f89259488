"""Edge-sampled time-series telemetry: the third observability plane.

Spans answer "where did the time go?", metrics answer "how much work
happened?", events answer "what happened, caused by what?" — this plane
answers **"what did the world look like over time?"**: link occupancy,
per-session fair shares, medium flow counts, admission-queue depths,
sessions in flight.

Samples are taken *on event edges of the virtual clock* — a submit, a
completion, an enqueue, a grant — never by wall-clock polling, so the
series is a pure function of the simulation and reproduces bit-for-bit
across runs and worker counts.  The determinism contract matches the other
two planes:

* sampling **reads ``clock.now`` and never advances it**, and never
  draws from the RNG — turning the plane on or off cannot perturb a
  simulation (``FLUX_TIMELINE=0`` disables it; reports, metrics and
  events are byte-identical either way);
* samples at the same virtual timestamp coalesce (last write wins), so
  a flurry of same-instant edges exports one point per instant;
* exports **merge associatively** (:func:`merge_timelines`): per-key
  sample lists concatenate under a stable sort by timestamp, so a
  parallel sweep merged in pair order equals the serial sweep's merge.

This module owns the flat key grammar of every telemetry plane:
:func:`series_key` writes ``name{label=value,...}`` with sorted labels
and :func:`split_series_key` reads it back.  Timeline series use it
directly; metrics keys are ``series_key("subsystem/name", labels)``.

Worlds with private clocks (sweep pairs, fleet sites) never merge by
time.  :func:`labeled_timelines` folds each world's label (``pair=``,
``site=``) into its keys instead, the timeline counterpart of
``EventLog.labeled``.
"""

from __future__ import annotations

import json
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Tuple)

from repro.sim.shapes import check

#: On-disk document version written by :func:`write_timeline`; readers
#: reject any other value (forward-compat contract for run bundles).
TIMELINE_SCHEMA = 1


class TimelineError(Exception):
    """Malformed or unsupported timeline artifacts."""


def series_key(name: str, labels: Mapping[str, Any] = ()) -> str:
    """Canonical flat key: ``name{k=v,...}`` with labels sorted."""
    if not labels:
        return name
    items = sorted((str(k), str(v)) for k, v in dict(labels).items())
    return name + "{" + ",".join(f"{k}={v}" for k, v in items) + "}"


def split_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`series_key`: ``(name, labels)``."""
    labels: Dict[str, str] = {}
    base = key
    if key.endswith("}") and "{" in key:
        base, _, label_part = key.partition("{")
        for item in label_part[:-1].split(","):
            if item:
                k, _, v = item.partition("=")
                labels[k] = v
    return base, labels


def append_sample(series: List[float], time: float, value: float) -> None:
    """Add ``(time, value)`` to a flat ``[t0, v0, t1, v1, ...]`` series.

    A sample at the series' last timestamp replaces that sample's
    value (last write wins), so an instant's flurry of edges keeps one
    point.  The timeline and the metrics registry's counter tracks both
    store their samples this way, two list slots per sample.
    """
    if series and series[-2] == time:
        series[-1] = value
    else:
        series.append(time)
        series.append(value)


def sample_pairs(series: List[float]) -> Iterator[Tuple[float, float]]:
    """The ``(time, value)`` samples of a flat series, in order."""
    return zip(series[::2], series[1::2])


class Timeline:
    """A deterministic, edge-sampled time-series store.

    ``clock`` is only ever read; with no clock every sample lands at
    ``t=0.0`` (still deterministic — bare unit-test objects).  A
    timeline built with ``enabled=False`` is a null object: ``sample``
    is a no-op and ``export`` is empty, so instrumented code never
    needs an ``if`` (the :attr:`enabled` flag is still there for
    callers that want to skip label formatting entirely).
    """

    def __init__(self, clock=None, enabled: bool = True) -> None:
        self._clock = clock
        self.enabled = enabled
        #: Flat ``[t0, v0, t1, v1, ...]`` series (:func:`append_sample`).
        self._series: Dict[str, List[float]] = {}

    def sample(self, name: str, value: float, **labels: Any) -> None:
        """Record ``(clock.now, value)`` on the edge that is happening.

        Same-timestamp samples coalesce, last write wins: the exported
        series holds the state *after* all of an instant's edges.
        """
        if not self.enabled:
            return
        append_sample(self._series.setdefault(series_key(name, labels), []),
                      self._clock.now if self._clock is not None else 0.0,
                      float(value))

    def __len__(self) -> int:
        return len(self._series)

    def export(self) -> Dict[str, List[List[float]]]:
        """JSON-ready view: sorted keys, ``[[t, value], ...]`` samples."""
        return {key: [[t, v] for t, v in sample_pairs(self._series[key])]
                for key in sorted(self._series)}


def merge_timelines(*exports: Dict[str, List[List[float]]]
                    ) -> Dict[str, List[List[float]]]:
    """Merge exported timelines: key union, samples stably time-sorted.

    Associative: per-key sample lists concatenate in argument order and
    a stable sort by timestamp keeps that order for ties, so
    ``merge(merge(a, b), c) == merge(a, merge(b, c))``.  Keys from
    independent sources are normally disjoint (each series has one
    sampling site); shared-clock sources merging the same key interleave
    by virtual time.
    """
    merged: Dict[str, List[List[float]]] = {}
    for export in exports:
        for key, samples in export.items():
            merged.setdefault(key, []).extend(
                [t, v] for t, v in samples)
    for samples in merged.values():
        samples.sort(key=lambda sample: sample[0])
    return {key: merged[key] for key in sorted(merged)}


def labeled_timelines(key: str,
                      exports: Iterable[Tuple[str, Mapping[str, Any]]]
                      ) -> Dict[str, List[List[float]]]:
    """One flat export from ``(label, export)`` pairs, ``key=label``
    folded into every series key, keys sorted.

    For worlds on private clocks (sweep pairs, fleet sites), whose
    series must not interleave by time; samples are kept as they are.
    """
    flat: Dict[str, List[List[float]]] = {}
    for label, export in exports:
        for series, samples in export.items():
            name, labels = split_series_key(series)
            labels[key] = label
            flat[series_key(name, labels)] = samples
    return {series: flat[series] for series in sorted(flat)}


def chrome_counter_events(export: Mapping[str, Any], cat: str = "timeline"
                          ) -> List[Dict[str, Any]]:
    """``(time, value)`` series as Chrome-trace counter ("C"-phase)
    tracks, one per key; the timeline and the metrics registry (``cat``
    "metric") both render here, so both planes sit side by side in
    Perfetto."""
    events: List[Dict[str, Any]] = []
    for key in sorted(export):
        for time, value in export[key]:
            events.append({
                "name": key, "cat": cat, "ph": "C",
                "pid": 1, "tid": 1,
                "ts": round(time * 1e6, 3),
                "args": {"value": value},
            })
    return events


def timeline_document(export: Dict[str, List[List[float]]],
                      meta: Optional[Dict[str, Any]] = None
                      ) -> Dict[str, Any]:
    """The versioned JSON document :func:`write_timeline` persists."""
    document: Dict[str, Any] = {"schema": TIMELINE_SCHEMA, "series": export}
    if meta:
        document["meta"] = meta
    return document


def parse_timeline_document(document: Any,
                            source: str = "timeline"
                            ) -> Dict[str, List[List[float]]]:
    """Validate a timeline document and return its series.

    Rejects unknown schema versions with a clear error instead of
    silently misreading a future format — run bundles may outlive the
    code that wrote them.
    """
    schema = check(document, dict, source, TimelineError).get("schema")
    if schema != TIMELINE_SCHEMA:
        raise TimelineError(
            f"{source}: unsupported timeline schema {schema!r} "
            f"(this build reads schema {TIMELINE_SCHEMA}); regenerate "
            f"the artifact or upgrade")
    return check(document, {"series": ({str: [[float]]}, None)}, source,
                 TimelineError).get("series") or {}


def write_timeline(path: str, export: Dict[str, List[List[float]]],
                   meta: Optional[Dict[str, Any]] = None) -> int:
    """Write an exported timeline as sorted-key JSON; returns series count."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(timeline_document(export, meta), handle, indent=1,
                  sort_keys=True)
    return len(export)


def read_timeline(path: str) -> Dict[str, List[List[float]]]:
    """Load a ``--timeline-out`` artifact's series back into a dict.

    Raises :class:`TimelineError` on unknown schema versions (see
    :func:`parse_timeline_document`).
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return parse_timeline_document(document, source=path)
