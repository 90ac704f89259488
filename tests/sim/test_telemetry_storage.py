"""Telemetry storage: typed columns, the same shapes when read.

The flight recorder keeps its events in typed columns, and the
timeline keeps flat ``[t0, v0, t1, v1, ...]`` sample tracks (DESIGN.md,
"Telemetry storage").  The first half checks that reads
still see what the object-per-event stores showed: position-derived
``seq`` across eviction and ``clear()``, context-label precedence and
key order, and same-timestamp coalescing.  The second half is a memory
ratchet: a record type that grows back toward an object per event
shows up here, and so does an exported event log that holds one, and
a metric series that again keeps more than its key and value.
"""

import gc
import tracemalloc

import pytest

from repro.android.hardware.profiles import PAPER_DEVICE_PAIRS
from repro.apps import app_by_title
from repro.experiments.scenario import ScenarioSpec, SessionSpec, run_scenario
from repro.sim import SimClock
from repro.sim.events import FlightRecorder
from repro.sim.telemetry import EVENTS_ENV
from repro.sim.metrics import MetricsRegistry
from repro.sim.timeline import SampleTrack, Timeline
from repro.sim.trace import Tracer, chrome_instant_events

#: Retained bytes per event: 10,000 events at distinct times, two
#: context labels and three attrs each (one a distinct int, 28 of the
#: bytes).  Measured on CPython 3.11: 414 with a frozen dataclass and a
#: merged attrs dict per event, 183 with flat tuples, 75 in columns.
EVENT_BYTES_BOUND = 80

#: Bytes a scenario result holds per exported event: traced memory held
#: after the run with events on, minus the same with ``FLUX_EVENTS=0``,
#: over the events exported.  Measured on CPython 3.11: 525 with a dict
#: per event in the result, 165-171 with the ring's tuples, 108 with
#: its columns.
RESULT_EVENT_BYTES_BOUND = 118

#: Retained bytes per timeline sample of one series at distinct
#: timestamps.  Measured on CPython 3.11: 118 with a ``(t, v)`` tuple
#: per sample, 72 in a flat list, 17 in a flat ``array('d')`` (16.8;
#: 17.2 on 3.10).
SAMPLE_BYTES_BOUND = 18

#: Retained bytes per metric series: a counter with two labels (one a
#: distinct app name), incremented once, so the bytes are its key, its
#: value and its registry entry.  Measured: 701 (CPython 3.10/3.11) and
#: 685 (3.12/3.13) when the registry was keyed by a ``(subsystem, name,
#: labels)`` tuple and the metric kept the sorted label pairs; 379
#: (3.10), 370 (3.11) and 362 (3.12/3.13) keyed by the series key
#: string, with a sample track per series; 195 (3.10), 186 (3.11) and
#: 178 (3.12/3.13) with the value alone.
SERIES_BYTES_BOUND = 200

N = 10_000


class TestRing:
    def test_capacity_three_keeps_the_newest_three(self):
        recorder = FlightRecorder(clock=SimClock(), device="home",
                                  capacity=3)
        for i in range(10):
            recorder.emit("e", i=i)
        exported = recorder.export()
        assert [e["seq"] for e in exported] == [8, 9, 10]
        assert [e["attrs"] for e in exported] == [{"i": 7}, {"i": 8},
                                                   {"i": 9}]
        assert recorder.evicted == 7

    def test_clear_then_emit_continues_the_sequence(self):
        recorder = FlightRecorder(clock=SimClock(), device="home",
                                  capacity=3)
        for i in range(10):
            recorder.emit("e", i=i)
        recorder.clear()
        recorder.emit("after")
        [event] = recorder.export()
        assert event["seq"] == 11


class TestAttrs:
    def test_context_first_explicit_wins_in_place(self):
        recorder = FlightRecorder(clock=SimClock(), device="home")
        recorder.set_context(stage="transfer", package="com.app")
        recorder.emit("link.chunk", wire_bytes=7, stage="restore")
        [event] = recorder.export()
        assert list(event["attrs"].items()) == [
            ("stage", "restore"), ("package", "com.app"), ("wire_bytes", 7)]

    def test_instant_args_keep_the_attr_order(self):
        clock = SimClock()
        recorder = FlightRecorder(clock=clock, device="home",
                                  tracer=Tracer(clock))
        recorder.set_context(stage="transfer")
        recorder.push_txn(4)
        recorder.emit("binder.transact", method="set", code=2)
        [instant] = chrome_instant_events(recorder.export())
        assert list(instant["args"]) == ["seq", "device", "txn", "stage",
                                         "method", "code"]

    def test_one_key_tuple_per_attr_layout(self):
        recorder = FlightRecorder(clock=SimClock(), device="home")
        for i in range(3):
            recorder.emit("e", a=i, b=i)
        recorder.emit("e", b=0, a=0)
        assert len(recorder._shapes) == 2
        assert [e["attrs"] for e in recorder.export()][-1] == {"b": 0,
                                                               "a": 0}

    def test_export_builds_fresh_dicts(self):
        recorder = FlightRecorder(clock=SimClock(), device="home")
        recorder.emit("e", n=1)
        log = recorder.export()
        list(log)[0]["attrs"]["n"] = 2
        assert list(log)[0]["attrs"] == {"n": 1}
        assert list(recorder.export())[0]["attrs"] == {"n": 1}


class TestSeries:
    def test_same_timestamp_coalesces_last_wins(self):
        track = SampleTrack()
        track.append(0.0, 1.0)
        track.append(0.0, 2.0)
        track.append(1.0, 3.0)
        track.append(1.0, 4.0)
        assert len(track) == 2
        assert list(track.pairs()) == [(0.0, 2.0), (1.0, 4.0)]

    def test_timeline_series_reads_pairs(self):
        clock = SimClock()
        timeline = Timeline(clock=clock)
        timeline.sample("n", 1)
        timeline.sample("n", 2)
        clock.advance(0.5)
        timeline.sample("n", 3)
        assert timeline.export() == {"n": [[0.0, 2.0], [0.5, 3.0]]}


def _retained_bytes(build, fill) -> float:
    """Bytes per record still allocated after ``fill`` runs.

    ``build`` makes the store (not counted); ``fill`` adds N records
    and returns what must stay alive.
    """
    store = build()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = fill(store)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept is not None
    return (after - before) / N


def test_event_bytes_ratchet():
    clock = SimClock()

    def build():
        recorder = FlightRecorder(clock=clock, device="home")
        recorder.set_context(stage="transfer", session="home/com.app@1")
        return recorder

    def fill(recorder):
        for i in range(N):
            clock.advance(0.001)
            recorder.emit("link.chunk", index=i, wire_bytes=4096,
                          cached=False)
        return recorder

    per_event = _retained_bytes(build, fill)
    assert per_event <= EVENT_BYTES_BOUND, per_event


def _held_by_scenario(spec):
    """Traced bytes still allocated once ``run_scenario`` returns (its
    world collected), and the number of events the result exported."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run_scenario(spec)
        gc.collect()
        return tracemalloc.get_traced_memory()[0], len(result.events)
    finally:
        tracemalloc.stop()


def test_result_event_bytes_ratchet(monkeypatch):
    home, guest = PAPER_DEVICE_PAIRS[0]
    spec = ScenarioSpec(
        devices=(("home1", home), ("guest1", guest),
                 ("home2", home), ("guest2", guest)),
        sessions=tuple(SessionSpec(h, g, app_by_title(title).package)
                       for title in ("ZEDGE", "eBay", "Flappy Bird")
                       for h, g in (("home1", "guest1"),
                                    ("home2", "guest2"))),
        seed=3)
    run_scenario(spec)                  # warm-up: imports and caches
    monkeypatch.setenv(EVENTS_ENV, "1")
    with_events, exported = _held_by_scenario(spec)
    monkeypatch.setenv(EVENTS_ENV, "0")
    without, none = _held_by_scenario(spec)
    assert exported > 200 and none == 0
    per_event = (with_events - without) / exported
    assert per_event <= RESULT_EVENT_BYTES_BOUND, per_event


def test_counter_sample_bytes_ratchet():
    clock = SimClock()

    def build():
        timeline = Timeline(clock=clock)
        timeline.sample("link/busy", 1, link="a->b")
        return timeline

    def fill(timeline):
        for i in range(N):
            clock.advance(0.001)
            timeline.sample("link/busy", i, link="a->b")
        return timeline

    per_sample = _retained_bytes(build, fill)
    assert per_sample <= SAMPLE_BYTES_BOUND, per_sample


def test_series_bytes_ratchet():
    def fill(registry):
        for i in range(N):
            registry.counter("binder", "transactions",
                             interface="IAlarmManager",
                             app=f"com.example.app{i}").inc()
        return registry

    per_series = _retained_bytes(MetricsRegistry, fill)
    assert per_series <= SERIES_BYTES_BOUND, per_series


@pytest.mark.parametrize("capacity", [1, 2, 5])
def test_seq_is_contiguous_at_any_capacity(capacity):
    recorder = FlightRecorder(clock=SimClock(), device="home",
                              capacity=capacity)
    for i in range(12):
        recorder.emit("e", i=i)
        seqs = [e["seq"] for e in recorder.export()]
        assert seqs == list(range(i + 2 - len(seqs), i + 2))
        assert [e["attrs"]["i"] + 1 for e in recorder.export()] == seqs
