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
It also owns :class:`SampleTrack`, the float column each timeline
series keeps its samples in.  This is the one time-series plane: a
metric keeps only its current value, and the Chrome traces of
``migrate`` and ``scenario`` draw their counter tracks from here
(:func:`chrome_counter_events`).

Worlds with private clocks (sweep pairs, fleet sites) never merge by
time.  :func:`labeled_timelines` folds each world's label (``pair=``,
``site=``) into its keys instead, the timeline counterpart of
``EventLog.labeled``.
"""

from __future__ import annotations

from array import array
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Tuple)

from repro.sim.shapes import check

#: On-disk document version written by :func:`timeline_document`; readers
#: reject any other value (forward-compat contract for run bundles).
TIMELINE_SCHEMA = 1


class TimelineError(Exception):
    """Malformed or unsupported timeline artifacts."""


def series_key(name: str, labels: Mapping[str, Any] = ()) -> str:
    """Canonical flat key: ``name{k=v,...}`` with labels sorted by name."""
    if not labels:
        return name
    return name + "{" + ",".join([f"{k!s}={v!s}"
                                  for k, v in sorted(labels.items())]) + "}"


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


class SampleTrack:
    """``(time, value)`` float samples, flat ``[t0, v0, t1, v1, ...]``
    in one ``array('d')``, 16 bytes per sample.

    A sample at the track's last timestamp replaces that sample's value
    (last write wins), so an instant's flurry of edges keeps one point.
    """

    __slots__ = ("_flat", "_last")

    def __init__(self) -> None:
        self._flat = array("d")
        #: The last sample's time.
        self._last: Optional[float] = None

    def append(self, time: float, value: float) -> None:
        if time == self._last:
            self._flat[-1] = value
        else:
            self._last = time
            self._flat.append(time)
            self._flat.append(value)

    def __len__(self) -> int:
        return len(self._flat) // 2

    def pairs(self) -> Iterator[Tuple[float, float]]:
        """The ``(time, value)`` samples, in order."""
        flat = self._flat
        return zip(flat[::2], flat[1::2])


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
        self._series: Dict[str, SampleTrack] = {}

    def sample(self, name: str, value: float, **labels: Any) -> None:
        """Record ``(clock.now, value)`` on the edge that is happening.

        Same-timestamp samples coalesce, last write wins: the exported
        series holds the state *after* all of an instant's edges.
        """
        if not self.enabled:
            return
        key = series_key(name, labels)
        track = self._series.get(key)
        if track is None:
            track = self._series[key] = SampleTrack()
        track.append(self._clock.now if self._clock is not None else 0.0,
                     float(value))

    def __len__(self) -> int:
        return len(self._series)

    def export(self) -> Dict[str, List[List[float]]]:
        """JSON-ready view: sorted keys, ``[[t, value], ...]`` samples."""
        return {key: [[t, v] for t, v in self._series[key].pairs()]
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


def chrome_counter_events(export: Mapping[str, Any]
                          ) -> List[Dict[str, Any]]:
    """A timeline export as Chrome-trace counter ("C"-phase) tracks, one
    per series key, so a trace shows the timeline beside its spans in
    Perfetto."""
    events: List[Dict[str, Any]] = []
    for key in sorted(export):
        for time, value in export[key]:
            events.append({
                "name": key, "cat": "timeline", "ph": "C",
                "pid": 1, "tid": 1,
                "ts": round(time * 1e6, 3),
                "args": {"value": value},
            })
    return events


def timeline_document(export: Dict[str, List[List[float]]]
                      ) -> Dict[str, Any]:
    """The versioned JSON document a run bundle's ``timeline.json``
    holds."""
    return {"schema": TIMELINE_SCHEMA, "series": export}


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
