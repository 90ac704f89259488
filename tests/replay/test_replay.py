"""Adaptive Replay: engine routing, proxies, hardware adaptation."""

import pytest

from repro.android.app.intent import Intent, PendingIntent
from repro.android.app.notification import Notification
from repro.core.cria import checkpoint_app, prepare_app, restore_app
from repro.core.replay import ReplaySession, replay_log
from tests.conftest import DEMO_PACKAGE, launch_demo


def migrate_state(home, guest, thread, package=DEMO_PACKAGE):
    """Prepare, checkpoint, restore, and build a replay session."""
    home.pairing_service.pair(guest)
    prepare_app(home, package)
    image = checkpoint_app(home, package)
    restored = restore_app(guest, image)
    return image, restored


class TestDirectReplay:
    def test_notifications_reappear_on_guest(self, device_pair):
        home, guest = device_pair
        thread = launch_demo(home)
        nm = thread.context.get_system_service("notification")
        nm.notify(1, Notification("hello", "world"))
        home_snapshot = home.service("notification").snapshot(DEMO_PACKAGE)

        image, restored = migrate_state(home, guest, thread)
        report = replay_log(guest, restored, image)
        assert report.replayed == 1
        assert guest.service("notification").snapshot(DEMO_PACKAGE) == \
            home_snapshot

    def test_replayed_calls_recorded_on_guest(self, device_pair):
        """The guest's log must support a *second* migration."""
        home, guest = device_pair
        thread = launch_demo(home)
        nm = thread.context.get_system_service("notification")
        nm.notify(1, Notification("hello"))
        image, restored = migrate_state(home, guest, thread)
        replay_log(guest, restored, image)
        guest_log = guest.recorder.extract_app_log(DEMO_PACKAGE)
        assert [(e.interface, e.method) for e in guest_log] == \
            [("INotificationManagerService", "enqueueNotification")]


class TestAlarmProxies:
    def test_expired_alarm_skipped(self, device_pair, clock):
        home, guest = device_pair
        thread = launch_demo(home)
        alarm = thread.context.get_system_service("alarm")
        expired = PendingIntent(DEMO_PACKAGE, Intent("OLD"))
        future = PendingIntent(DEMO_PACKAGE, Intent("NEW"), request_code=2)
        alarm.set(alarm.RTC, clock.now + 0.05, expired)
        alarm.set(alarm.RTC, clock.now + 1e6, future)
        clock.advance(1.0)    # the first alarm fires pre-migration

        image, restored = migrate_state(home, guest, thread)
        report = replay_log(guest, restored, image)
        assert report.skipped == 1
        actions = [a for a, _, _ in
                   guest.service("alarm").snapshot(DEMO_PACKAGE)["alarms"]]
        assert actions == ["NEW"]

    def test_alarm_due_mid_migration_still_fires(self, device_pair, clock):
        """The proxy compares against checkpoint time, not current time."""
        home, guest = device_pair
        thread = launch_demo(home)
        received = []
        thread.register_receiver(received.append, ["MIDFLIGHT"])
        alarm = thread.context.get_system_service("alarm")
        pi = PendingIntent(DEMO_PACKAGE, Intent("MIDFLIGHT"))
        home.pairing_service.pair(guest)
        alarm.set(alarm.RTC, clock.now + 5.0, pi)
        prepare_app(home, DEMO_PACKAGE)
        image = checkpoint_app(home, DEMO_PACKAGE)
        # Home-side cleanup (what MigrationService does): the frozen app
        # leaves the home device, so home's copy of the alarm cannot
        # reach it when the deadline passes mid-migration.
        home.activity_service.detach_application(DEMO_PACKAGE)
        clock.advance(10.0)     # migration takes long; alarm deadline passes
        restored = restore_app(guest, image)
        report = replay_log(guest, restored, image)
        assert report.skipped == 0   # NOT skipped: due after checkpoint
        # The overdue alarm fires promptly on the guest and reaches the
        # app's (replay-re-registered) receiver.
        clock.advance(0.1)
        assert [i.action for i in received] == ["MIDFLIGHT"]

    def test_repeating_alarm_rolls_forward(self, device_pair, clock):
        home, guest = device_pair
        thread = launch_demo(home)
        alarm = thread.context.get_system_service("alarm")
        pi = PendingIntent(DEMO_PACKAGE, Intent("TICK"))
        alarm.set_repeating(alarm.RTC, clock.now + 1.0, 1.0, pi)
        clock.advance(3.5)      # several firings happen at home

        image, restored = migrate_state(home, guest, thread)
        report = replay_log(guest, restored, image)
        assert any("missed firings" in a for a in report.adaptations)
        ((action, trigger, interval),) = \
            guest.service("alarm").snapshot(DEMO_PACKAGE)["alarms"]
        assert trigger > image.checkpoint_time


class TestAudioProxy:
    def test_volume_rescaled_to_guest_range(self, device_pair):
        home, guest = device_pair
        thread = launch_demo(home)
        audio = thread.context.get_system_service("audio")
        home_service = home.service("audio")
        guest_service = guest.service("audio")
        # Give the guest a different MUSIC range: home 15, guest 30.
        guest_service._max[3] = 30
        audio.set_stream_volume(3, 10)

        image, restored = migrate_state(home, guest, thread)
        report = replay_log(guest, restored, image)
        assert guest_service.snapshot(DEMO_PACKAGE)["volumes"][3] == 20
        assert any("volume" in a for a in report.adaptations)


class TestSensorProxies:
    def test_connection_and_channel_recreated(self, device_pair):
        home, guest = device_pair
        thread = launch_demo(home)
        sensors = thread.context.get_system_service("sensor")
        accel = sensors.default_sensor("accelerometer")
        events = []
        sensors.register_listener(events.append, accel.handle)
        old_fd = sensors.channel_fd
        old_handle = sensors._connection._remote.handle

        image, restored = migrate_state(home, guest, thread)
        report = replay_log(guest, restored, image)
        assert report.proxied == 2       # create-connection + get-channel
        # Same handle now points at a live guest-side connection node.
        node = guest.binder.resolve(restored.process, old_handle)
        assert node.label == "sensor-connection"
        # Same fd number carries a live guest socket.
        sock = restored.process.fds.get(old_fd)
        assert not sock.closed
        # Events flow end-to-end on the guest.
        delivered = guest.service("sensor").inject_event(accel.handle,
                                                         b"guest-evt")
        assert delivered == 1
        assert sensors.poll_events() == [b"guest-evt"]
        assert events == [b"guest-evt"]


class TestHardwareAdaptation:
    def test_gps_falls_back_to_network(self, clock):
        from repro.android.device import Device
        from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2012
        from repro.sim.rng import RngFactory
        factory = RngFactory(5)
        home = Device(NEXUS_4, clock, factory, name="home")        # has GPS
        guest = Device(NEXUS_7_2012, clock, factory, name="guest")  # no GPS
        thread = launch_demo(home)
        location = thread.context.get_system_service("location")
        location.request_updates("gps", "listener-1")

        image, restored = migrate_state(home, guest, thread)
        report = replay_log(guest, restored, image)
        assert any("falling back" in a for a in report.adaptations)
        snapshot = guest.service("location").snapshot(DEMO_PACKAGE)
        assert snapshot["requests"] == [("listener-1", "network")]

    def test_gps_status_listener_skipped_without_gps(self, clock):
        from repro.android.device import Device
        from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2012
        from repro.sim.rng import RngFactory
        factory = RngFactory(6)
        home = Device(NEXUS_4, clock, factory, name="home")
        guest = Device(NEXUS_7_2012, clock, factory, name="guest")
        thread = launch_demo(home)
        location = thread.context.get_system_service("location")
        location.addGpsStatusListener("gps-listener")

        image, restored = migrate_state(home, guest, thread)
        report = replay_log(guest, restored, image)
        assert report.skipped == 1
