"""The compact event log reads as the dict-per-event export did.

``FlightRecorder.export`` hands its ring records to an ``EventLog``;
``merge_streams`` and ``EventLog.labeled`` combine logs without building
anything per event.  The property below checks every read against a
reference built the old way: one dict per retained event at emission,
streams merged by sorting on ``(t, device, seq)``, and each event
copied with its ``pair`` or ``site`` label.
"""

import json
import os
import pickle
import tempfile
from array import array
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimClock
from repro.sim import events as events_module
from repro.sim.bundle import write_bundle
from repro.sim.events import EventLog, FlightRecorder, merge_streams
from repro.sim.trace import Tracer

NAMES = ("home", "guest", "world")

_attrs = st.dictionaries(st.sampled_from(("stage", "n", "who", "bytes")),
                         st.one_of(st.integers(0, 3), st.sampled_from(
                             ("a", "b")), st.none()), max_size=3)

_op = st.one_of(
    st.tuples(st.just("emit"), st.sampled_from(("x", "y")),
              st.one_of(st.just("default"), st.none(), st.integers(1, 9)),
              _attrs),
    st.tuples(st.just("advance"), st.sampled_from((0.0, 0.25, 1.0))),
    st.tuples(st.just("context"), _attrs),
    st.tuples(st.just("clear_context"), st.sampled_from(("stage", "n"))),
    st.tuples(st.just("push"), st.integers(1, 9)),
    st.tuples(st.just("pop")),
)

_world = st.tuples(
    st.lists(st.tuples(st.sampled_from(NAMES), st.integers(1, 6)),
             min_size=1, max_size=4),
    st.lists(st.tuples(st.integers(0, 3), _op), max_size=40))


class _Reference:
    """One recorder the old way: a dict per event, built at emission."""

    def __init__(self, clock, device, capacity):
        self.clock, self.device = clock, device
        self.ring = deque(maxlen=capacity)
        self.emitted = 0
        self.txns, self.context = [], {}

    def emit(self, kind, txn, attrs):
        self.emitted += 1
        if txn == "default":
            txn = self.txns[-1] if self.txns else None
        self.ring.append({"seq": self.emitted, "t": self.clock.now,
                          "device": self.device, "kind": kind, "txn": txn,
                          "span": None,
                          "attrs": {**self.context, **attrs}})


def _run_world(recorders, ops):
    """Drive real recorders and references through the same ops; the
    world's merged log and its reference event list."""
    clock = SimClock()
    real = [FlightRecorder(clock=clock, device=name, capacity=capacity)
            for name, capacity in recorders]
    refs = [_Reference(clock, name, capacity)
            for name, capacity in recorders]
    for index, (action, *args) in ops:
        index %= len(real)
        recorder, ref = real[index], refs[index]
        if action == "emit":
            kind, txn, attrs = args
            if txn == "default":
                recorder.emit(kind, **attrs)
            else:
                recorder.emit(kind, txn=txn, **attrs)
            ref.emit(kind, txn, attrs)
        elif action == "advance":
            clock.advance(args[0])
        elif action == "context":
            recorder.set_context(**args[0])
            ref.context.update(args[0])
        elif action == "clear_context":
            recorder.clear_context(args[0])
            ref.context.pop(args[0], None)
        elif action == "push":
            recorder.push_txn(args[0])
            ref.txns.append(args[0])
        elif recorder.current_txn is not None:
            recorder.pop_txn()
            ref.txns.pop()
    reference = [event for ref in refs for event in ref.ring]
    reference.sort(key=lambda e: (e["t"], e["device"], e["seq"]))
    return merge_streams(*(recorder.export() for recorder in real)), \
        reference


def _jsonl_bytes(events) -> bytes:
    """The bytes of ``events`` as a run bundle's ``events.jsonl``."""
    with tempfile.TemporaryDirectory() as scratch:
        write_bundle(scratch, kind="migrate", fingerprint={}, events=events)
        with open(os.path.join(scratch, "events.jsonl"), "rb") as handle:
            return handle.read()


@settings(max_examples=150, deadline=None)
@given(worlds=st.lists(_world, min_size=1, max_size=3),
       key=st.sampled_from((None, "pair", "site")))
def test_compact_log_reads_as_the_dict_export(worlds, key):
    runs = [_run_world(recorders, ops) for recorders, ops in worlds]
    if key is None:
        log, reference = runs[0]
    else:
        log = EventLog.labeled(key, ((f"w{i}", run[0])
                                     for i, run in enumerate(runs)))
        reference = [dict(event, **{key: f"w{i}"})
                     for i, (_, events) in enumerate(runs)
                     for event in events]

    events = list(log)
    assert events == reference
    assert [list(e) for e in events] == [list(e) for e in reference]
    assert len(log) == len(reference)
    assert log == reference and log == log
    assert _jsonl_bytes(log) == _jsonl_bytes(reference)
    clone = pickle.loads(pickle.dumps(log))
    assert list(clone) == reference
    assert _jsonl_bytes(clone) == _jsonl_bytes(reference)


def test_eviction_keeps_the_tail_seqs():
    clock = SimClock()
    recorder = FlightRecorder(clock=clock, device="home", capacity=2)
    for i in range(5):
        recorder.emit("e", i=i)
    assert [(e["seq"], e["attrs"]) for e in recorder.export()] == \
        [(4, {"i": 3}), (5, {"i": 4})]


def test_an_empty_export_is_an_empty_log():
    log = FlightRecorder(device="home").export()
    assert len(log) == 0 and not log and log == []
    assert merge_streams(log, log) == []
    assert EventLog.labeled("pair", [("p", log)]) == []


def test_labels_live_on_the_section_not_the_records():
    recorder = FlightRecorder(clock=SimClock(), device="home")
    recorder.emit("e", n=1)
    log = recorder.export()
    labeled = EventLog.labeled("site", [("s0", log), ("s1", log)])
    assert [e["site"] for e in labeled] == ["s0", "s1"]
    assert all("site" not in e for e in log)
    assert json.loads(json.dumps(list(labeled))) == list(labeled)


def test_a_log_is_not_equal_to_a_non_sequence():
    log = FlightRecorder(device="home").export()
    assert log != {} and log != () and log != "[]"


class _TupleRing:
    """The flight recorder before columns: a ``deque(maxlen=capacity)``
    of ``(time, kind, txn, span, keys, *values)`` tuples."""

    def __init__(self, clock, tracer, capacity):
        self.clock, self.tracer = clock, tracer
        self.ring = deque(maxlen=capacity)
        self.emitted = 0
        self.txns, self.context = [], {}

    def emit(self, kind, txn, attrs):
        self.emitted += 1
        if txn == "default":
            txn = self.txns[-1] if self.txns else None
        attrs = {**self.context, **attrs}
        self.ring.append((self.clock.now, kind, txn,
                          self.tracer.open_span_path, tuple(attrs),
                          *attrs.values()))

    def export(self, device):
        first = self.emitted - len(self.ring) + 1
        return [{"seq": seq, "t": record[0], "device": device,
                 "kind": record[1], "txn": record[2], "span": record[3],
                 "attrs": dict(zip(record[4], record[5:]))}
                for seq, record in enumerate(self.ring, first)]


_ring_op = st.one_of(
    _op,
    st.tuples(st.just("open"), st.sampled_from(("migration", "transfer"))),
    st.tuples(st.just("close")),
    st.tuples(st.just("clear")),
    st.tuples(st.just("export")),
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 8), block=st.integers(1, 4),
       ops=st.lists(_ring_op, max_size=60))
def test_columnar_ring_matches_the_tuple_ring(capacity, block, ops):
    saved, events_module.BLOCK_EVENTS = events_module.BLOCK_EVENTS, block
    try:
        clock = SimClock()
        tracer = Tracer(clock)
        recorder = FlightRecorder(clock=clock, device="home",
                                  capacity=capacity, tracer=tracer)
    finally:
        events_module.BLOCK_EVENTS = saved
    model = _TupleRing(clock, tracer, capacity)
    spans = []

    def same():
        assert list(recorder.export()) == model.export("home")
        assert len(recorder) == len(model.ring)
        assert recorder.emitted == model.emitted
        assert recorder.evicted == model.emitted - len(model.ring)

    for action, *args in ops:
        if action == "emit":
            kind, txn, attrs = args
            if txn == "default":
                recorder.emit(kind, **attrs)
            else:
                recorder.emit(kind, txn=txn, **attrs)
            model.emit(kind, txn, attrs)
        elif action == "advance":
            clock.advance(args[0])
        elif action == "context":
            recorder.set_context(**args[0])
            model.context.update(args[0])
        elif action == "clear_context":
            recorder.clear_context(args[0])
            model.context.pop(args[0], None)
        elif action == "push":
            recorder.push_txn(args[0])
            model.txns.append(args[0])
        elif action == "pop":
            if model.txns:
                recorder.pop_txn()
                model.txns.pop()
        elif action == "open":
            spans.append(tracer.span(args[0]))
        elif action == "close":
            if spans:
                spans.pop().__exit__(None, None, None)
        elif action == "clear":
            recorder.clear()
            model.ring.clear()
        else:
            same()
    same()


def test_a_log_pickles_as_its_columns():
    clock = SimClock()
    recorders = [FlightRecorder(clock=clock, device=name, capacity=300)
                 for name in ("home", "guest")]
    for i in range(700):
        recorder = recorders[i % 2]
        if i % 50 == 0:
            recorder.set_context(stage=f"s{i}")
        recorder.push_txn(i)
        recorder.emit("e", n=i, big=1 << 40, name=f"n{i}")
        recorder.pop_txn()
        recorder.emit("f", txn=None)
        clock.advance(0.25)
    merged = merge_streams(*(recorder.export() for recorder in recorders))
    log = EventLog.labeled("site", [("s0", merged), ("s1", merged)])
    data = pickle.dumps(log)
    clone = pickle.loads(data)
    assert clone == log and len(clone) == len(log) == 1200
    assert list(clone)[0]["seq"] == 401      # 400 evicted per device
    for _, streams in clone._sections:
        for stream in streams:
            assert all(isinstance(block.times, array)
                       for block in stream[3])
