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

Series are keyed ``name{label=value,...}`` with sorted labels, the same
flat-key grammar the metrics registry uses.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional, Tuple

#: Set to ``0`` to disable the time-series plane process-wide.
TIMELINE_ENV = "FLUX_TIMELINE"

#: On-disk document version written by :func:`write_timeline`; readers
#: reject any other value (forward-compat contract for run bundles).
TIMELINE_SCHEMA = 1


class TimelineError(Exception):
    """Malformed or unsupported timeline artifacts."""


def timeline_enabled() -> bool:
    """The env-gated default for new :class:`Timeline` instances."""
    return os.environ.get(TIMELINE_ENV, "1") != "0"


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
        self._series: Dict[str, List[Tuple[float, float]]] = {}

    def sample(self, name: str, value: float, **labels: Any) -> None:
        """Record ``(clock.now, value)`` on the edge that is happening.

        Same-timestamp samples coalesce, last write wins: the exported
        series holds the state *after* all of an instant's edges.
        """
        if not self.enabled:
            return
        now = self._clock.now if self._clock is not None else 0.0
        series = self._series.setdefault(series_key(name, labels), [])
        if series and series[-1][0] == now:
            series[-1] = (now, float(value))
        else:
            series.append((now, float(value)))

    def __len__(self) -> int:
        return len(self._series)

    def series(self, key: str) -> List[Tuple[float, float]]:
        return list(self._series.get(key, []))

    def export(self) -> Dict[str, List[List[float]]]:
        """JSON-ready view: sorted keys, ``[[t, value], ...]`` samples."""
        return {key: [[t, v] for t, v in self._series[key]]
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


def chrome_counter_events(export: Dict[str, List[List[float]]]
                          ) -> List[Dict[str, Any]]:
    """An exported timeline as Chrome-trace counter ("C"-phase) tracks.

    One counter track per series key, same shape as the metrics
    registry's counter tracks so both planes render side by side in
    Perfetto.
    """
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
    if not isinstance(document, dict):
        raise TimelineError(f"{source}: not a timeline document "
                            f"(expected a JSON object, got "
                            f"{type(document).__name__})")
    schema = document.get("schema")
    if schema != TIMELINE_SCHEMA:
        raise TimelineError(
            f"{source}: unsupported timeline schema {schema!r} "
            f"(this build reads schema {TIMELINE_SCHEMA}); regenerate "
            f"the artifact or upgrade")
    return document.get("series", {})


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
