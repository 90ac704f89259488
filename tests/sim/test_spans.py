"""Hierarchical tracer spans, root release, Chrome-trace export."""

import json

import pytest

from repro.sim import SimClock
from repro.sim.trace import Tracer


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestSpanNesting:
    def test_spans_nest_and_measure_on_the_clock(self, tracer, clock):
        with tracer.span("migration", category="migration") as root:
            with tracer.span("preparation", category="stage"):
                clock.advance(1.0)
            with tracer.span("transfer", category="stage"):
                clock.advance(3.5)
        assert tracer.root_spans() == [root]
        assert [c.name for c in root.children] == ["preparation", "transfer"]
        assert root.duration == pytest.approx(4.5)
        assert root.child("transfer").duration == pytest.approx(3.5)
        prep = root.child("preparation", category="stage")
        assert prep.start == pytest.approx(0.0)
        assert prep.end == pytest.approx(1.0)

    def test_exception_still_closes_span(self, tracer, clock):
        with pytest.raises(RuntimeError):
            with tracer.span("faulty") as span:
                clock.advance(2.0)
                raise RuntimeError("mid-span fault")
        assert span.closed
        assert span.duration == pytest.approx(2.0)

    def test_open_span_refuses_duration(self, tracer):
        handle = tracer.span("open")
        assert not handle.span.closed
        with pytest.raises(ValueError):
            handle.span.duration

    def test_add_span_attaches_measured_interval(self, tracer, clock):
        with tracer.span("burst") as burst:
            child = tracer.add_span("chunk:0", 1.0, 2.5, category="chunk",
                                    wire_bytes=100)
        assert burst.children == [child]
        assert child.duration == pytest.approx(1.5)
        assert child.detail["wire_bytes"] == 100
        # The analytic interval never advanced the clock.
        assert clock.now == 0.0

    def test_add_span_rejects_backwards_interval(self, tracer):
        with pytest.raises(ValueError):
            tracer.add_span("bad", 2.0, 1.0)

    def test_end_span_closes_dangling_children(self, tracer, clock):
        with tracer.span("outer") as outer:
            inner = tracer.span("inner").span   # opened, never exited
            clock.advance(1.0)
        assert outer.closed and inner.closed
        assert inner.end == pytest.approx(1.0)

    def test_annotate_merges_detail(self, tracer):
        with tracer.span("m", package="a") as span:
            span.annotate(faulted_stage="transfer")
        assert span.detail == {"package": "a", "faulted_stage": "transfer"}

    def test_walk_is_depth_first(self, tracer):
        with tracer.span("a") as a:
            with tracer.span("b"):
                tracer.add_span("c", 0.0, 0.0)
            with tracer.span("d"):
                pass
        assert [s.name for s in a.walk()] == ["a", "b", "c", "d"]

    def test_root_spans_filter_by_category(self, tracer):
        with tracer.span("m", category="migration"):
            pass
        with tracer.span("other"):
            pass
        assert [s.name for s in tracer.root_spans("migration")] == ["m"]


class TestChromeTraceExport:
    def test_complete_events_in_microseconds(self, tracer, clock):
        with tracer.span("migration", category="migration", package="p"):
            with tracer.span("transfer", category="stage"):
                clock.advance(2.0)
        doc = tracer.chrome_trace()
        assert doc["displayTimeUnit"] == "ms"
        events = {e["name"]: e for e in doc["traceEvents"]}
        assert events["migration"]["ph"] == "X"
        assert events["migration"]["dur"] == pytest.approx(2_000_000)
        assert events["transfer"]["cat"] == "stage"
        assert events["migration"]["args"] == {"package": "p"}

    def test_open_span_closed_at_now_and_flagged(self, tracer, clock):
        clock.advance(1.5)
        tracer.span("never-closed")
        clock.advance(0.5)
        [event] = tracer.chrome_trace()["traceEvents"]
        assert event["ph"] == "X"
        assert event["ts"] == pytest.approx(1_500_000)
        assert event["dur"] == pytest.approx(500_000)
        assert event["args"]["flux.incomplete"] is True

    def test_export_is_valid_json(self, tracer, clock):
        with tracer.span("m"):
            clock.advance(1.0)
        doc = json.loads(json.dumps(tracer.chrome_trace()))
        assert doc["traceEvents"][0]["name"] == "m"


class TestRelease:
    def test_release_drops_a_closed_root(self, tracer):
        with tracer.span("m", category="migration") as first:
            pass
        with tracer.span("m", category="migration") as second:
            pass
        tracer.release(first)
        assert tracer.root_spans() == [second]
        tracer.release(second)
        assert tracer.root_spans() == []
        assert second.closed

    def test_export_scope_keeps_roots(self, tracer):
        with tracer.exporting():
            with tracer.span("m") as root:
                pass
            tracer.release(root)
        assert tracer.root_spans() == [root]
        tracer.release(root)
        assert tracer.root_spans() == []

    def test_release_of_a_nested_span_keeps_it(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            tracer.release(inner)
        assert tracer.root_spans() == [outer]
        assert outer.children == [inner]

    def test_clear_resets_spans(self, tracer):
        with tracer.span("s"):
            pass
        tracer.span("open")
        tracer.clear()
        assert tracer.root_spans() == []
        assert tracer.open_span_path is None
