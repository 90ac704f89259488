"""MigrationService: the five-stage flow, reports, failure recovery."""

import pytest

from repro.android.app.activity import ActivityState
from repro.android.app.notification import Notification
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.migration.migration import STAGES
from tests.conftest import DEMO_PACKAGE, launch_demo


@pytest.fixture
def migrated(device_pair):
    home, guest = device_pair
    thread = launch_demo(home)
    nm = thread.context.get_system_service("notification")
    nm.notify(1, Notification("carry me"))
    home.pairing_service.pair(guest)
    report = home.migration_service.migrate(guest, DEMO_PACKAGE)
    return home, guest, thread, report


class TestSuccessfulMigration:
    def test_all_stages_timed(self, migrated):
        _, _, _, report = migrated
        assert set(report.stages) == set(STAGES)
        assert all(v > 0 for v in report.stages.values())
        assert report.success
        assert report.total_seconds == pytest.approx(
            sum(report.stages.values()))

    def test_app_runs_on_guest_not_home(self, migrated):
        home, guest, thread, _ = migrated
        assert home.running_packages() == []
        assert guest.running_packages() == [DEMO_PACKAGE]
        assert home.kernel.processes_of_package(DEMO_PACKAGE) == []
        activity = next(iter(thread.activities.values()))
        assert activity.state is ActivityState.RESUMED

    def test_ui_rebuilt_for_guest_screen(self, migrated):
        home, guest, thread, _ = migrated
        activity = next(iter(thread.activities.values()))
        assert activity.window.screen == guest.profile.screen
        assert activity.window.surface.screen == guest.profile.screen
        assert activity.view_root is not None

    def test_service_state_carried(self, migrated):
        home, guest, _, _ = migrated
        snapshot = guest.service("notification").snapshot(DEMO_PACKAGE)
        assert snapshot["active"] == {1: ("carry me", "")}
        # The home side forgot the app's record log.
        assert home.recorder.extract_app_log(DEMO_PACKAGE) == []

    def test_report_sizes_sensible(self, migrated):
        _, _, _, report = migrated
        assert 0 < report.image_compressed_bytes < report.image_raw_bytes
        assert report.transferred_bytes >= report.image_compressed_bytes
        assert report.record_log_entries == 1

    def test_consistency_mark_set(self, migrated):
        home, guest, _, _ = migrated
        record = home.consistency.is_migrated_out(DEMO_PACKAGE)
        assert record is not None
        assert record.guest_name == guest.name

    def test_connectivity_interrupt_delivered(self, device_pair):
        home, guest = device_pair
        thread = launch_demo(home)
        seen = []
        thread.register_receiver(seen.append,
                                 ["android.net.conn.CONNECTIVITY_CHANGE"])
        home.pairing_service.pair(guest)
        home.migration_service.migrate(guest, DEMO_PACKAGE)
        # Loss followed by reconnection, in order (paper §3.1).
        flags = [i.get_extra("connected") for i in seen]
        assert flags[-2:] == [False, True]

    def test_configuration_change_delivered(self, device_pair):
        home, guest = device_pair

        class ConfigAware(
                __import__("tests.conftest", fromlist=["DemoActivity"])
                .DemoActivity):
            configs = []

            def on_configuration_changed(self, config):
                self.configs.append(config)

        thread = launch_demo(home, activity_cls=ConfigAware)
        home.pairing_service.pair(guest)
        home.migration_service.migrate(guest, DEMO_PACKAGE)
        activity = next(iter(thread.activities.values()))
        assert activity.configs
        assert activity.configs[-1]["screen"] == guest.profile.screen


class TestRefusals:
    def test_unpaired_devices(self, device_pair):
        home, guest = device_pair
        launch_demo(home)
        with pytest.raises(MigrationError) as excinfo:
            home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert excinfo.value.reason is MigrationRefusal.NOT_PAIRED

    def test_failed_report_carried_on_the_error(self, device_pair):
        home, guest = device_pair
        launch_demo(home)
        with pytest.raises(MigrationError) as excinfo:
            home.migration_service.migrate(guest, DEMO_PACKAGE)
        report = excinfo.value.report
        assert not report.success
        assert report.refusal is MigrationRefusal.NOT_PAIRED
        assert report.session == f"{home.name}/{DEMO_PACKAGE}@0"
        assert home.migration_service.attempts == 1

    def test_app_recovers_after_mid_flight_refusal(self, device_pair):
        """A refusal during checkpoint leaves the app usable at home."""
        home, guest = device_pair
        thread = launch_demo(home)
        home.pairing_service.pair(guest)
        # Plant an unmigratable binder connection to a non-system app.
        peer = launch_demo(home, package="com.peer")
        node = home.binder.create_node(peer.process, object(), "peer-svc")
        home.binder.acquire_ref(thread.process, node)
        with pytest.raises(MigrationError) as excinfo:
            home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert excinfo.value.reason is \
            MigrationRefusal.EXTERNAL_BINDER_CONNECTION
        # Recovered: foregrounded again on the home device.
        activity = next(iter(thread.activities.values()))
        assert activity.state is ActivityState.RESUMED
        assert home.running_packages() == sorted([DEMO_PACKAGE, "com.peer"])


class TestMigrateBack:
    def test_round_trip_home(self, migrated):
        home, guest, thread, _ = migrated
        nm = thread.context.get_system_service("notification")
        nm.notify(2, Notification("added on guest"))
        guest.pairing_service.pair(home)
        back = guest.migration_service.migrate(home, DEMO_PACKAGE)
        assert back.success
        assert home.running_packages() == [DEMO_PACKAGE]
        snapshot = home.service("notification").snapshot(DEMO_PACKAGE)
        assert set(snapshot["active"]) == {1, 2}
        # Returning home resolves the consistency mark.
        home.consistency.mark_returned(DEMO_PACKAGE)
        assert home.consistency.is_migrated_out(DEMO_PACKAGE) is None
