"""One telemetry handle: the metrics, events and timeline planes together.

A :class:`Telemetry` value is what every instrumented layer receives,
as one argument: binder, the recorder, replay, CRIA, chunks, the link,
the medium, the scheduler and its resources.  It is always present.  A
layer built without one gets :meth:`Telemetry.null`, whose planes are
the planes' own null objects, so instrumented code never needs an
``if`` or a ``getattr``.

:meth:`Telemetry.from_env` is the only code that reads the telemetry
knobs:

* ``FLUX_METRICS=0`` disables the metrics registry;
* ``FLUX_EVENTS=0`` disables the flight recorder;
* ``FLUX_EVENTS_CAP`` bounds the flight recorder's ring (default
  :data:`~repro.sim.events.DEFAULT_CAPACITY`; a value that is not an
  integer gives the default, and anything below 1 gives 1);
* ``FLUX_TIMELINE=0`` disables the time-series plane.

Every plane only reads the clock, so a knob changes what is recorded,
never what is simulated.  :func:`export` merges a world's handles into
the three documents the CLI, the sweep and the scenario runner write.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.sim.events import (DEFAULT_CAPACITY, EventLog, FlightRecorder,
                              merge_streams)
from repro.sim.metrics import MetricsRegistry, merge_snapshots
from repro.sim.timeline import Timeline, merge_timelines

#: Set to ``0`` to disable metrics collection.
METRICS_ENV = "FLUX_METRICS"
#: Set to ``0`` to disable the causal event log.
EVENTS_ENV = "FLUX_EVENTS"
#: Per-recorder ring capacity (number of retained events).
EVENTS_CAP_ENV = "FLUX_EVENTS_CAP"
#: Set to ``0`` to disable the time-series plane.
TIMELINE_ENV = "FLUX_TIMELINE"


def _on(name: str) -> bool:
    return os.environ.get(name, "1") != "0"


def _events_capacity() -> int:
    try:
        return max(1, int(os.environ.get(EVENTS_CAP_ENV,
                                         str(DEFAULT_CAPACITY))))
    except ValueError:
        return DEFAULT_CAPACITY


@dataclass(frozen=True, slots=True)
class Telemetry:
    """The planes one device (or one scenario world) records into."""

    metrics: MetricsRegistry
    events: FlightRecorder
    timeline: Timeline

    @classmethod
    def from_env(cls, clock, name: str, tracer=None,
                 timeline: Optional[Timeline] = None) -> "Telemetry":
        """Planes on ``clock`` for the recorder named ``name``, each
        enabled unless its knob says otherwise.

        ``tracer`` supplies the open-span path stamped on each event.
        A ``timeline`` passed in is shared as it is (a scenario world
        gives all its devices its own); otherwise a new one is made.
        """
        if timeline is None:
            timeline = Timeline(clock=clock, enabled=_on(TIMELINE_ENV))
        return cls(
            MetricsRegistry(enabled=_on(METRICS_ENV)),
            FlightRecorder(clock=clock, device=name,
                           capacity=_events_capacity(), tracer=tracer,
                           enabled=_on(EVENTS_ENV)),
            timeline)

    @classmethod
    def null(cls) -> "Telemetry":
        """Fresh disabled planes: nothing is recorded.

        Fresh rather than shared, because a disabled flight recorder
        still keeps a transaction stack and context labels.
        """
        return cls(MetricsRegistry(enabled=False),
                   FlightRecorder(enabled=False), Timeline(enabled=False))

    @property
    def enabled(self) -> bool:
        """Whether any plane records."""
        return (self.metrics.enabled or self.events.enabled
                or self.timeline.enabled)


def export(devices: Iterable[Any], world: Optional[Telemetry] = None
           ) -> Tuple[Dict[str, Any], EventLog,
                      Dict[str, List[List[float]]]]:
    """``(metrics, events, timeline)`` of one world's devices.

    Metrics snapshots merge, event streams merge in causal order (an
    :class:`~repro.sim.events.EventLog` holding the rings' records) and
    timelines merge by time.  ``world`` adds the handle of the world
    the devices live in.  A timeline the devices share is exported
    once.
    """
    handles = [device.telemetry for device in devices]
    if world is not None:
        handles.append(world)
    timelines = {id(handle.timeline): handle.timeline for handle in handles}
    return (merge_snapshots([handle.metrics.snapshot()
                             for handle in handles]),
            merge_streams(*(handle.events.export() for handle in handles)),
            merge_timelines(*(timeline.export()
                              for timeline in timelines.values())))
