"""Deterministic simulation substrate: virtual clock, seeded RNG, tracing."""

from repro.sim.clock import ClockError, SimClock, TimerHandle
from repro.sim.events import EventsError, FlightRecorder, merge_streams
from repro.sim.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    merge_snapshots,
)
from repro.sim.rng import DEFAULT_SEED, RngFactory, derive_seed
from repro.sim.trace import Span, Tracer, critical_path
from repro.sim import units

__all__ = [
    "ClockError",
    "SimClock",
    "TimerHandle",
    "DEFAULT_SEED",
    "RngFactory",
    "derive_seed",
    "Span",
    "Tracer",
    "critical_path",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsError",
    "MetricsRegistry",
    "merge_snapshots",
    "EventsError",
    "FlightRecorder",
    "merge_streams",
    "units",
]
