"""Endurance: ping-pong migrations never corrupt or accumulate state."""

import pytest

from repro.android.app.notification import Notification
from repro.android.device import Device
from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
from repro.sim import SimClock
from repro.sim.rng import RngFactory
from tests.conftest import DEMO_PACKAGE, launch_demo


HOPS = 6


class TestPingPong:
    def _setup(self):
        clock = SimClock()
        factory = RngFactory(71)
        a = Device(NEXUS_4, clock, factory, name="a")
        b = Device(NEXUS_7_2013, clock, factory, name="b")
        thread = launch_demo(a)
        nm = thread.context.get_system_service("notification")
        nm.notify(1, Notification("persistent", "state"))
        a.pairing_service.pair(b)
        b.pairing_service.pair(a)
        return a, b, thread

    def test_six_hops_state_stable(self):
        a, b, thread = self._setup()
        devices = (a, b)
        for hop in range(HOPS):
            source = devices[hop % 2]
            target = devices[(hop + 1) % 2]
            report = source.migration_service.migrate(target, DEMO_PACKAGE)
            assert report.success, f"hop {hop}"
            snapshot = target.service("notification").snapshot(DEMO_PACKAGE)
            assert snapshot["active"] == {1: ("persistent", "state")}, \
                f"hop {hop}"
            # The source keeps nothing behind.
            source_snapshot = source.service("notification").snapshot(
                DEMO_PACKAGE)
            assert source_snapshot["active"] == {}

    def test_log_size_does_not_grow_across_hops(self):
        """Replay re-records the log; the drop rules must keep it at a
        fixed point rather than letting duplicates accumulate."""
        a, b, thread = self._setup()
        devices = (a, b)
        sizes = []
        for hop in range(HOPS):
            source = devices[hop % 2]
            target = devices[(hop + 1) % 2]
            source.migration_service.migrate(target, DEMO_PACKAGE)
            sizes.append(len(target.recorder.extract_app_log(DEMO_PACKAGE)))
        assert len(set(sizes)) == 1      # identical after every hop
        assert sizes[0] == 1             # exactly the surviving notify

    def test_activity_state_stable_across_hops(self):
        a, b, thread = self._setup()
        activity = next(iter(thread.activities.values()))
        activity.saved_state["counter"] = 0
        devices = (a, b)
        for hop in range(HOPS):
            activity.saved_state["counter"] += 1
            source = devices[hop % 2]
            target = devices[(hop + 1) % 2]
            source.migration_service.migrate(target, DEMO_PACKAGE)
        assert activity.saved_state["counter"] == HOPS
        assert activity.window.screen == a.profile.screen  # ended on a? no:
        # HOPS is even, so the app is back where it started.
        assert devices[0].running_packages() == [DEMO_PACKAGE]

    def test_pid_namespaces_do_not_collide(self):
        """Each restore creates a fresh namespace binding the same
        virtual pid; the one left when the app migrates away is dropped
        with its last process, so after six hops only the namespace of
        the app's current restore (on ``a``) remains."""
        a, b, thread = self._setup()
        devices = (a, b)
        for hop in range(HOPS):
            devices[hop % 2].migration_service.migrate(
                devices[(hop + 1) % 2], DEMO_PACKAGE)
            target = devices[(hop + 1) % 2]
            flux_namespaces = [ns for ns in target.kernel.namespaces()
                               if ns.name.startswith("flux:")]
            assert len(flux_namespaces) == 1
            assert set(flux_namespaces[0].bindings().values()) <= {
                p.pid for p in target.app_processes(DEMO_PACKAGE)}
        assert [ns.name for ns in a.kernel.namespaces()] == [
            f"flux:{DEMO_PACKAGE}"]
        assert b.kernel.namespaces() == []
