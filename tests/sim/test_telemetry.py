"""The telemetry handle: one resolver for the knobs, null planes by
construction, one export, and the links that inherit a device's planes."""

import pytest

from repro.android.device import Device
from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
from repro.android.net.link import Link
from repro.apps import app_by_title
from repro.experiments.scenario import ScenarioSpec, ScenarioWorld
from repro.sim import SimClock
from repro.sim.events import DEFAULT_CAPACITY
from repro.sim.telemetry import (
    EVENTS_CAP_ENV,
    EVENTS_ENV,
    METRICS_ENV,
    TIMELINE_ENV,
    Telemetry,
    export,
)

KNOBS = (METRICS_ENV, EVENTS_ENV, EVENTS_CAP_ENV, TIMELINE_ENV)

#: Each on/off knob and the plane it switches.
PLANES = {METRICS_ENV: "metrics", EVENTS_ENV: "events",
          TIMELINE_ENV: "timeline"}


@pytest.fixture(autouse=True)
def default_knobs(monkeypatch):
    for name in KNOBS:
        monkeypatch.delenv(name, raising=False)


def _device():
    return Device(NEXUS_4, SimClock(), name="home")


def _world():
    return ScenarioWorld(ScenarioSpec(
        devices=(("home", NEXUS_4), ("guest", NEXUS_7_2013)), sessions=()))


def _world_handle():
    world = _world()
    world.close()
    return world.telemetry


OWNERS = {"device": lambda: _device().telemetry, "world": _world_handle}


class TestKnobs:
    @pytest.mark.parametrize("owner", sorted(OWNERS))
    @pytest.mark.parametrize("knob", sorted(PLANES))
    def test_zero_gives_a_null_plane(self, knob, owner, monkeypatch):
        monkeypatch.setenv(knob, "0")
        handle = OWNERS[owner]()
        for name, plane in PLANES.items():
            assert getattr(handle, plane).enabled == (name != knob), plane

    @pytest.mark.parametrize("owner", sorted(OWNERS))
    def test_planes_default_on(self, owner):
        handle = OWNERS[owner]()
        assert handle.enabled
        assert all(getattr(handle, plane).enabled
                   for plane in PLANES.values())
        assert handle.events.capacity == DEFAULT_CAPACITY

    @pytest.mark.parametrize("owner", sorted(OWNERS))
    @pytest.mark.parametrize("raw, capacity", [
        ("8", 8), ("not-a-number", DEFAULT_CAPACITY), ("0", 1),
        ("-3", 1)])
    def test_events_cap(self, raw, capacity, owner, monkeypatch):
        monkeypatch.setenv(EVENTS_CAP_ENV, raw)
        assert OWNERS[owner]().events.capacity == capacity

    def test_world_shares_its_timeline_with_its_devices(self):
        world = _world()
        try:
            for device in world.devices.values():
                assert device.timeline is world.telemetry.timeline
                assert device.events is not world.telemetry.events
        finally:
            world.close()

    def test_device_read_api_is_the_handle(self):
        device = _device()
        handle = device.telemetry
        assert (device.metrics, device.events, device.timeline) == (
            handle.metrics, handle.events, handle.timeline)
        assert device.binder.events is handle.events
        assert device.recorder.metrics is handle.metrics
        assert device.chunk_store.metrics is handle.metrics


class TestNull:
    def test_null_planes_record_nothing(self):
        handle = Telemetry.null()
        assert not handle.enabled
        handle.metrics.counter("s", "n").inc()
        handle.events.emit("kind", x=1)
        handle.timeline.sample("series", 1.0)
        assert handle.metrics.snapshot()["counters"] == {}
        assert handle.events.export() == []
        assert handle.timeline.export() == {}

    def test_null_planes_are_fresh(self):
        """A disabled recorder still keeps a transaction stack and
        context labels, so no two null handles share one."""
        first, second = Telemetry.null(), Telemetry.null()
        first.events.push_txn(1)
        first.events.set_context(stage="transfer")
        assert second.events.current_txn is None
        assert first.events is not second.events

    def test_constructors_default_to_null(self):
        link = Link(10.0)
        assert not link.telemetry.enabled

    def test_handle_is_frozen(self):
        handle = Telemetry.null()
        with pytest.raises(AttributeError):
            handle.metrics = None


class TestExport:
    def test_export_merges_each_plane(self):
        clock = SimClock()
        home = Device(NEXUS_4, clock, name="home")
        guest = Device(NEXUS_7_2013, clock, name="guest")
        home.metrics.counter("s", "n").inc(2)
        guest.metrics.counter("s", "n").inc(3)
        home.events.emit("a")
        clock.advance(1.0)
        guest.events.emit("b")
        home.timeline.sample("x", 1.0)
        guest.timeline.sample("y", 2.0)
        metrics, events, timeline = export([home, guest])
        assert metrics["counters"]["s/n"] == 5
        assert [(e["device"], e["kind"]) for e in events] == [
            ("home", "a"), ("guest", "b")]
        assert timeline == {"x": [[1.0, 1.0]], "y": [[1.0, 2.0]]}

    def test_a_shared_timeline_is_exported_once(self):
        world = _world()
        try:
            world.telemetry.timeline.sample("x", 1.0)
            world.telemetry.events.emit("w")
            _, events, timeline = export(world.devices.values(),
                                         world.telemetry)
        finally:
            world.close()
        assert list(timeline) == ["x"]
        assert len(timeline["x"]) == 1
        assert [e["kind"] for e in events if e["device"] == "world"] == ["w"]


class TestLinks:
    def _paired(self):
        clock = SimClock()
        home = Device(NEXUS_4, clock, name="home")
        guest = Device(NEXUS_7_2013, clock, name="guest")
        app = app_by_title("ZEDGE")
        app.install_and_launch(home)
        home.pairing_service.pair(guest)
        return home, guest, app

    def test_a_null_link_takes_the_home_devices_handle(self):
        home, guest, app = self._paired()
        link = Link(10.0, name="caller-built")
        home.migration_service.migrate(guest, app.package, link=link)
        assert link.telemetry is home.telemetry
        assert any(event["attrs"].get("link") == "caller-built"
                   for event in home.events.export()
                   if event["kind"] == "link.transfer")

    def test_pairing_links_record_no_timeline(self):
        home, guest, _ = self._paired()
        assert home.metrics.snapshot()["counters"]
        assert any(event["kind"] == "link.transfer"
                   for event in home.events.export())
        assert not any(key.startswith("link/busy")
                       for key in home.timeline.export())
