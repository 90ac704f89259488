"""CRIA checkpoint and restore mechanics."""

import pytest

from repro.android.app.notification import Notification
from repro.core.cria import (
    BinderRefKind,
    MigrationError,
    MigrationRefusal,
    checkpoint_app,
    prepare_app,
    restore_app,
)
from tests.conftest import DEMO_PACKAGE, launch_demo


def prepared_image(device, thread, package=DEMO_PACKAGE):
    prepare_app(device, package)
    return checkpoint_app(device, package)


class TestCheckpoint:
    def test_image_carries_identity(self, device, demo_thread):
        nm = demo_thread.context.get_system_service("notification")
        nm.notify(1, Notification("keep"))
        image = prepared_image(device, demo_thread)
        assert image.package == DEMO_PACKAGE
        assert image.source_kernel == device.kernel.version
        assert image.checkpoint_time == device.clock.now
        assert len(image.record_log) == 1

    def test_process_frozen_after_checkpoint(self, device, demo_thread):
        prepared_image(device, demo_thread)
        assert demo_thread.process.state.value == "frozen"

    def test_refs_classified_external_system(self, device, demo_thread):
        demo_thread.context.get_system_service("notification")
        image = prepared_image(device, demo_thread)
        kinds = {r.kind for r in image.main_process.binder_refs}
        assert kinds == {BinderRefKind.EXTERNAL_SYSTEM}
        assert "notification" in image.external_service_names()

    def test_anonymous_connection_ref_classified(self, device, demo_thread):
        sensors = demo_thread.context.get_system_service("sensor")
        accel = sensors.default_sensor("accelerometer")
        sensors.register_listener(lambda e: None, accel.handle)
        image = prepared_image(device, demo_thread)
        anonymous = [r for r in image.main_process.binder_refs
                     if r.kind is BinderRefKind.EXTERNAL_ANONYMOUS]
        assert len(anonymous) == 1
        assert anonymous[0].label == "sensor-connection"

    def test_non_system_binder_connection_refused(self, device, demo_thread):
        other = launch_demo(device, package="com.peer")
        node = device.binder.create_node(other.process, object(),
                                         "peer-service")
        device.binder.acquire_ref(demo_thread.process, node)
        prepare_app(device, DEMO_PACKAGE)
        with pytest.raises(MigrationError) as excinfo:
            checkpoint_app(device, DEMO_PACKAGE)
        assert excinfo.value.reason is \
            MigrationRefusal.EXTERNAL_BINDER_CONNECTION
        # The process is thawed again after the refusal.
        assert demo_thread.process.state.value == "alive"

    def test_unprepared_app_with_gl_refused(self, device):
        from tests.app.test_views_activity import GlDemoActivity
        launch_demo(device, package="com.game", activity_cls=GlDemoActivity)
        with pytest.raises(MigrationError) as excinfo:
            checkpoint_app(device, "com.game")
        assert excinfo.value.reason is MigrationRefusal.DEVICE_STATE_RESIDUE

    def test_image_sizes(self, device, demo_thread):
        image = prepared_image(device, demo_thread)
        assert image.raw_bytes() > image.main_process.anonymous_memory_bytes()
        assert image.compressed_bytes() < image.raw_bytes()

    def test_code_regions_do_not_travel(self, device, demo_thread):
        image = prepared_image(device, demo_thread)
        proc = image.main_process
        assert proc.anonymous_memory_bytes() < proc.memory_bytes()


class TestRestore:
    def _migrated(self, device_pair, workload=None):
        home, guest = device_pair
        thread = launch_demo(home)   # install before pairing syncs apps
        home.pairing_service.pair(guest)
        if workload is not None:
            workload(thread)
        image = prepared_image(home, thread)
        return home, guest, thread, image, restore_app(guest, image)

    def test_restore_into_pid_namespace(self, device_pair):
        home, guest, thread, image, restored = self._migrated(device_pair)
        virtual = image.main_process.virtual_pid
        assert restored.namespace.to_real(virtual) == restored.process.pid
        assert restored.process.package == DEMO_PACKAGE

    def test_binder_handles_preserved(self, device_pair):
        def use_services(thread):
            thread.context.get_system_service("notification")
            thread.context.get_system_service("alarm")

        home, guest, thread, image, restored = self._migrated(
            device_pair, use_services)
        for ref in image.main_process.binder_refs:
            node = guest.binder.resolve(restored.process, ref.handle)
            assert node.alive
            if ref.service_name:
                assert node.label == ref.service_name

    def test_memory_regions_restored_intact(self, device_pair):
        home, guest, thread, image, restored = self._migrated(device_pair)
        for region in image.main_process.regions:
            restored_region = restored.process.memory.get(region.name)
            assert restored_region.content_hash() == region.content_hash()

    def test_restore_without_wrapper_refused(self, device_pair, clock):
        home, guest = device_pair
        thread = launch_demo(home)
        image = prepared_image(home, thread)
        # guest was never paired: no pseudo-install.
        with pytest.raises(MigrationError) as excinfo:
            restore_app(guest, image)
        assert excinfo.value.reason is MigrationRefusal.NOT_PAIRED

    def test_api_level_gate(self, device_pair):
        from tests.conftest import install_demo
        home, guest = device_pair
        install_demo(home, "com.future", api_level=25)   # beyond KitKat
        from tests.conftest import DemoActivity
        home.launch_app("com.future", DemoActivity)
        home.pairing_service.pair(guest)
        report = home.pairing_service.pairing_with(guest.name)
        assert "com.future" in report.incompatible

    def test_thread_rebound_to_guest(self, device_pair):
        home, guest, thread, image, restored = self._migrated(device_pair)
        assert restored.thread is thread
        assert thread.framework.device is guest
        assert thread.process is restored.process
        assert guest.thread_of(DEMO_PACKAGE) is thread
        assert home.thread_of(DEMO_PACKAGE) is thread  # home not yet cleaned

    def test_sensor_socket_fd_reserved(self, device_pair):
        def use_sensors(thread):
            sensors = thread.context.get_system_service("sensor")
            accel = sensors.default_sensor("accelerometer")
            sensors.register_listener(lambda e: None, accel.handle)

        home, guest, thread, image, restored = self._migrated(
            device_pair, use_sensors)
        assert restored.reserved_fds
        reserved = restored.process.fds.reserved()
        assert any("sensor-events" in reason
                   for reason in reserved.values())
        assert restored.pending_refs
