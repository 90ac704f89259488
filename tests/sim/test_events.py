"""The causal event log: flight-recorder ring, txn stack, JSONL, merge."""

import json

import pytest

from repro.sim import SimClock
from repro.sim.events import (
    DEFAULT_CAPACITY,
    EventsError,
    FlightRecorder,
    merge_streams,
    read_jsonl,
    write_jsonl,
)
from repro.sim.trace import Tracer


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def recorder(clock):
    return FlightRecorder(clock=clock, device="home")


def _last(recorder):
    """The newest retained event, as the exported dict."""
    return list(recorder.export())[-1]


class TestEmission:
    def test_seq_is_per_device_monotonic(self, recorder, clock):
        recorder.emit("a")
        first = _last(recorder)
        clock.advance(1.5)
        recorder.emit("b", key="value")
        second = _last(recorder)
        assert (first["seq"], second["seq"]) == (1, 2)
        assert first["t"] == 0.0
        assert second["t"] == pytest.approx(1.5)
        assert second["attrs"] == {"key": "value"}

    def test_emit_never_advances_the_clock(self, recorder, clock):
        for _ in range(100):
            recorder.emit("tick")
        assert clock.now == 0.0

    def test_default_capacity(self, recorder):
        assert recorder.capacity == DEFAULT_CAPACITY

    def test_bad_capacity_rejected(self):
        with pytest.raises(EventsError):
            FlightRecorder(capacity=0)

    def test_context_labels_merge_into_attrs(self, recorder):
        recorder.set_context(stage="transfer", package="com.app")
        recorder.emit("link.chunk", wire_bytes=7)
        event = _last(recorder)
        assert event["attrs"] == {"stage": "transfer", "package": "com.app",
                                  "wire_bytes": 7}
        recorder.clear_context("stage", "package")
        recorder.emit("after")
        assert _last(recorder)["attrs"] == {}

    def test_explicit_attrs_beat_context(self, recorder):
        recorder.set_context(stage="transfer")
        recorder.emit("x", stage="restore")
        assert _last(recorder)["attrs"] == {"stage": "restore"}

    def test_span_path_from_attached_tracer(self, clock):
        tracer = Tracer(clock)
        recorder = FlightRecorder(clock=clock, device="home", tracer=tracer)
        recorder.emit("outside")
        assert _last(recorder)["span"] is None
        with tracer.span("migration"):
            with tracer.span("transfer"):
                recorder.emit("inside")
        event = _last(recorder)
        assert event["span"] == "migration/transfer"


class TestTransactionStack:
    def test_events_inherit_innermost_txn(self, recorder):
        recorder.emit("before")
        assert _last(recorder)["txn"] is None
        recorder.push_txn(7)
        recorder.emit("during")
        assert _last(recorder)["txn"] == 7
        recorder.push_txn(8)
        assert recorder.current_txn == 8
        assert recorder.parent_txn == 7
        recorder.emit("nested")
        assert _last(recorder)["txn"] == 8
        recorder.pop_txn()
        recorder.pop_txn()
        recorder.emit("after")
        assert _last(recorder)["txn"] is None

    def test_explicit_txn_override(self, recorder):
        recorder.push_txn(7)
        recorder.emit("x", txn=None)
        assert _last(recorder)["txn"] is None
        recorder.emit("y", txn=42)
        assert _last(recorder)["txn"] == 42
        recorder.pop_txn()

    def test_pop_underflow_raises(self, recorder):
        with pytest.raises(EventsError):
            recorder.pop_txn()


class TestRingBuffer:
    def test_capacity_bounds_retention_oldest_first(self, clock):
        recorder = FlightRecorder(clock=clock, device="home", capacity=3)
        for i in range(10):
            recorder.emit("e", i=i)
        assert len(recorder) == 3
        assert recorder.emitted == 10
        assert recorder.evicted == 7
        # The retained tail is the newest events, in emission order.
        assert [e["seq"] for e in recorder.export()] == [8, 9, 10]
        assert [e["attrs"]["i"] for e in recorder.export()] == [7, 8, 9]

    def test_events_filter_by_kind(self, recorder):
        recorder.emit("a")
        recorder.emit("b")
        recorder.emit("a")
        assert [e["seq"] for e in recorder.export()
                if e["kind"] == "a"] == [1, 3]
        assert len(recorder.export()) == 3

    def test_clear_keeps_seq_counter(self, recorder):
        recorder.emit("a")
        recorder.clear()
        assert len(recorder) == 0
        recorder.emit("b")
        assert _last(recorder)["seq"] == 2


class TestDisabledNullObject:
    def test_emit_is_a_noop_but_bookkeeping_works(self, clock):
        recorder = FlightRecorder(clock=clock, device="home", enabled=False)
        assert recorder.emit("a", k=1) is None
        assert len(recorder) == 0
        assert recorder.emitted == 0
        assert recorder.export() == []
        # The txn stack and context still function (pure bookkeeping).
        recorder.push_txn(1)
        assert recorder.current_txn == 1
        recorder.pop_txn()
        recorder.set_context(stage="x")
        recorder.clear_context("stage")


class TestExportAndJsonl:
    def test_export_shape_is_fixed(self, recorder):
        recorder.push_txn(3)
        recorder.emit("binder.transact", method="set")
        recorder.pop_txn()
        [event] = recorder.export()
        assert event == {"seq": 1, "t": 0.0, "device": "home",
                         "kind": "binder.transact", "txn": 3, "span": None,
                         "attrs": {"method": "set"}}

    def test_jsonl_round_trip(self, recorder, tmp_path):
        recorder.emit("a", n=1)
        recorder.emit("b", n=2)
        path = tmp_path / "events.jsonl"
        assert write_jsonl(str(path), recorder.export()) == 2
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        # Sorted keys -> stable byte-level artifacts.
        assert json.loads(lines[0]) == list(recorder.export())[0]
        assert list(json.loads(lines[0])) == sorted(json.loads(lines[0]))
        assert read_jsonl(str(path)) == recorder.export()


class TestMalformedLines:
    def test_error_names_the_file_and_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"seq": 1}\n{"seq": 2}\n{"seq": 3\n')
        with pytest.raises(EventsError) as excinfo:
            read_jsonl(str(path))
        message = str(excinfo.value)
        assert message.startswith(f"{path}:3: malformed event line")
        assert '\'{"seq": 3\'' in message  # the offending snippet

    def test_blank_lines_are_skipped_not_errors(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"seq": 1}\n\n{"seq": 2}\n')
        assert [e["seq"] for e in read_jsonl(str(path))] == [1, 2]

    def test_parse_jsonl_default_source(self):
        from repro.sim.events import parse_jsonl
        with pytest.raises(EventsError, match="<events>:1:"):
            parse_jsonl(["not json"])

    @pytest.mark.parametrize("line", ["3", '"x"', "[1]", "null"])
    def test_non_object_lines_are_rejected(self, line):
        from repro.sim.events import parse_jsonl
        with pytest.raises(EventsError, match=r"^log.jsonl:2: expected "
                                              r"dict, got"):
            parse_jsonl(['{"seq": 1}', line], source="log.jsonl")

    @pytest.mark.parametrize("line", [
        '{"seq": 1, "pair": [1]}', '{"seq": 1, "site": 7}',
        '{"seq": 1, "attrs": {"session": [1]}}'],
        ids=["pair", "site", "session"])
    def test_labels_must_be_strings(self, line):
        from repro.sim.events import parse_jsonl
        with pytest.raises(EventsError, match=r"^log.jsonl:1: "
                                              r"(pair|site|attrs.session): "
                                              r"expected str, got"):
            parse_jsonl([line], source="log.jsonl")

    def test_long_lines_are_truncated_in_the_error(self, tmp_path):
        from repro.sim.events import parse_jsonl
        with pytest.raises(EventsError) as excinfo:
            parse_jsonl(['{"pad": "' + "x" * 500], source="big.jsonl")
        assert len(str(excinfo.value)) < 200


class TestMergeStreams:
    def test_merge_is_a_causal_interleaving(self, clock):
        home = FlightRecorder(clock=clock, device="home")
        guest = FlightRecorder(clock=clock, device="guest")
        home.emit("h1")
        clock.advance(1.0)
        guest.emit("g1")
        clock.advance(1.0)
        home.emit("h2")
        guest.emit("g2")   # same t as h2: device name breaks the tie
        merged = merge_streams(home.export(), guest.export())
        assert [(e["device"], e["kind"]) for e in merged] == \
            [("home", "h1"), ("guest", "g1"), ("guest", "g2"),
             ("home", "h2")]

    def test_merge_order_independent_of_argument_order(self, clock):
        home = FlightRecorder(clock=clock, device="home")
        guest = FlightRecorder(clock=clock, device="guest")
        for i in range(5):
            home.emit("h", i=i)
            guest.emit("g", i=i)
            clock.advance(0.5)
        assert merge_streams(home.export(), guest.export()) == \
            merge_streams(guest.export(), home.export())
