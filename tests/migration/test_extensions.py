"""The §3.4 extension sketches, implemented behind FluxExtensions flags.

Each test proves two things: the default behaviour still refuses
(prototype fidelity), and the extension lifts the refusal with correct
semantics.
"""

import pytest

from repro.android.app.notification import Notification
from repro.android.kernel.files import NetworkFile, OpenFile
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.extensions import FluxExtensions
from tests.conftest import DEMO_PACKAGE, DemoActivity, launch_demo


class TestMultiProcess:
    """Paper §3.4: 'CRIU already supports checkpointing an entire
    process tree' — the Facebook refusal, lifted."""

    def _launch_multi(self, home):
        from tests.conftest import install_demo
        install_demo(home, "com.multi")
        return home.launch_app("com.multi", DemoActivity, extra_processes=2)

    def test_default_still_refuses(self, device_pair):
        home, guest = device_pair
        self._launch_multi(home)
        home.pairing_service.pair(guest)
        with pytest.raises(MigrationError) as excinfo:
            home.migration_service.migrate(guest, "com.multi")
        assert excinfo.value.reason is MigrationRefusal.MULTI_PROCESS

    def test_extension_migrates_whole_tree(self, device_pair):
        home, guest = device_pair
        thread = self._launch_multi(home)
        home.pairing_service.pair(guest)
        ext = FluxExtensions(multi_process=True)
        report = home.migration_service.migrate(guest, "com.multi",
                                                extensions=ext)
        assert report.success
        guest_procs = guest.kernel.processes_of_package("com.multi")
        assert len(guest_procs) == 3
        assert home.kernel.processes_of_package("com.multi") == []
        # All processes are alive and share the namespace.
        names = sorted(p.name for p in guest_procs)
        assert names == ["com.multi:main", "com.multi:proc1",
                         "com.multi:proc2"]

    def test_facebook_migrates_with_extension(self, device_pair):
        from repro.apps.social import FACEBOOK
        home, guest = device_pair
        FACEBOOK.install_and_launch(home)
        home.pairing_service.pair(guest)
        ext = FluxExtensions(multi_process=True)
        report = home.migration_service.migrate(guest, FACEBOOK.package,
                                                extensions=ext)
        assert report.success
        snapshot = guest.service("notification").snapshot(FACEBOOK.package)
        assert 11 in snapshot["active"]


def _texture_bytes(device, pid):
    return sum(context.kind_bytes.get("texture", 0)
               for context in device.vendor_gl.contexts_of(pid))


class TestGlRecordReplay:
    """Paper §3.4 cites record-prune-replay of GL state [30] as the fix
    for preserved EGL contexts — the Subway Surfers refusal, lifted."""

    def _launch_subway(self, home):
        from repro.apps.games import SUBWAY_SURFERS
        return SUBWAY_SURFERS, SUBWAY_SURFERS.install_and_launch(home)

    def test_default_still_refuses(self, device_pair):
        home, guest = device_pair
        spec, _ = self._launch_subway(home)
        home.pairing_service.pair(guest)
        with pytest.raises(MigrationError) as excinfo:
            home.migration_service.migrate(guest, spec.package)
        assert excinfo.value.reason is \
            MigrationRefusal.PRESERVED_EGL_CONTEXT

    def test_extension_migrates_with_gl_state(self, device_pair):
        home, guest = device_pair
        spec, thread = self._launch_subway(home)
        home.pairing_service.pair(guest)
        home_textures = _texture_bytes(home, thread.process.pid)
        ext = FluxExtensions(gl_record_replay=True)
        report = home.migration_service.migrate(guest, spec.package,
                                                extensions=ext)
        assert report.success
        activity = next(iter(thread.activities.values()))
        gl_views = activity.view_root.gl_surface_views()
        assert gl_views
        assert all(v.has_live_context for v in gl_views)
        assert all(v.preserve_egl_context_on_pause for v in gl_views)
        # The context now lives on the guest's vendor library.
        assert guest.vendor_gl.live_context_count(thread.process.pid) >= 1
        # The guest's fresh context holds the base texture resume
        # creates (what home held) plus the replayed uploads.
        assert _texture_bytes(guest, thread.process.pid) > home_textures
        assert activity.saved_state["coins"] == 2210

    def test_capture_prunes_deleted_resources(self, device):
        """Only live resources are recorded (the 'prune' of [30])."""
        from repro.core.glreplay import capture_and_release
        from repro.android.app.views import GLSurfaceView, ViewGroup

        class Game(DemoActivity):
            def on_create(self, saved_state):
                root = ViewGroup("root")
                view = GLSurfaceView("game", texture_bytes=1024)
                view.attach_gl(self.thread.framework.gl,
                               self.thread.process)
                view.set_preserve_egl_context_on_pause(True)
                view.on_resume_gl()
                root.add_view(view)
                self.set_content_view(root)

        thread = launch_demo(device, package="com.game", activity_cls=Game)
        activity = next(iter(thread.activities.values()))
        (gl_view,) = activity.view_root.gl_surface_views()
        kept = gl_view._context.create_resource("texture", 4096)
        doomed = gl_view._context.create_resource("buffer", 9999)
        gl_view._context.delete_resource(doomed.res_id)

        capture = capture_and_release(thread)
        (view_state,) = capture.views
        sizes = sorted(r.size for r in view_state.resources)
        assert 9999 not in sizes          # deleted resource pruned
        assert 4096 in sizes and 1024 in sizes
        assert not gl_view.has_live_context   # released for checkpoint


class TestContentProviderReplay:
    """Paper §3.4: provider connections are short-lived Binder services;
    record/replay can re-establish them."""

    def _setup(self, device_pair):
        home, guest = device_pair
        thread = launch_demo(home)
        provider_home = launch_demo(home, package="com.provider")
        provider_home.publish_provider("contacts")
        # The provider app also runs on the guest (shared data there).
        provider_guest = launch_demo(guest, package="com.provider")
        provider_guest.publish_provider("contacts")
        am = thread.context.get_system_service("activity")
        am.getContentProvider("contacts")
        home.pairing_service.pair(guest)
        return home, guest, thread

    def test_default_still_refuses(self, device_pair):
        home, guest, thread = self._setup(device_pair)
        with pytest.raises(MigrationError) as excinfo:
            home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert excinfo.value.reason is \
            MigrationRefusal.ACTIVE_CONTENT_PROVIDER

    def test_extension_reestablishes_connection(self, device_pair):
        home, guest, thread = self._setup(device_pair)
        ext = FluxExtensions(content_provider_replay=True)
        report = home.migration_service.migrate(guest, DEMO_PACKAGE,
                                                extensions=ext)
        assert report.success
        connections = guest.activity_service.provider_connections_of(
            DEMO_PACKAGE)
        assert [c.authority for c in connections] == ["contacts"]

    def test_finished_interaction_leaves_no_replay(self, device_pair):
        """get + remove annihilate in the log; nothing re-establishes."""
        home, guest, thread = self._setup(device_pair)
        am = thread.context.get_system_service("activity")
        am.removeContentProvider("contacts")
        report = home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert report.success
        assert guest.activity_service.provider_connections_of(
            DEMO_PACKAGE) == []


class TestSdcardNetworkMount:
    """Paper §3.4: 'mount the home device's common SD card data as a
    network file system prior to restoring'."""

    def _setup(self, device_pair):
        home, guest = device_pair
        thread = launch_demo(home)
        home.storage.add_file("/sdcard/DCIM/photo.jpg", 4096, "photo")
        thread.process.fds.install(OpenFile("/sdcard/DCIM/photo.jpg",
                                            offset=128))
        home.pairing_service.pair(guest)
        return home, guest, thread

    def test_default_still_refuses(self, device_pair):
        home, guest, thread = self._setup(device_pair)
        with pytest.raises(MigrationError) as excinfo:
            home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert excinfo.value.reason is MigrationRefusal.COMMON_SDCARD_FILES

    def test_extension_converts_fd_to_network_mount(self, device_pair):
        home, guest, thread = self._setup(device_pair)
        ext = FluxExtensions(sdcard_network_mount=True)
        report = home.migration_service.migrate(guest, DEMO_PACKAGE,
                                                extensions=ext)
        assert report.success
        network_fds = thread.process.fds.find(
            lambda o: isinstance(o, NetworkFile))
        assert len(network_fds) == 1
        mounted = network_fds[0].obj
        assert mounted.path == "/sdcard/DCIM/photo.jpg"
        assert mounted.host == home.name
        assert mounted.offset == 128   # file position survived

    def test_remote_reads_pay_the_network(self, device_pair, clock):
        from repro.android.net.link import link_between
        home, guest, thread = self._setup(device_pair)
        ext = FluxExtensions(sdcard_network_mount=True)
        home.migration_service.migrate(guest, DEMO_PACKAGE, extensions=ext)
        (entry,) = thread.process.fds.find(
            lambda o: isinstance(o, NetworkFile))
        link = link_between(guest.profile, home.profile, guest.rng_factory)
        before = clock.now
        entry.obj.read_remote(2048, link, clock)
        assert clock.now > before
        assert entry.obj.remote_reads == 1


class TestGpsTether:
    """Paper §3.2: 'the user is given the option to allow communication
    with that device to continue to take place over the network'."""

    def _setup(self, clock):
        from repro.android.device import Device
        from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2012
        from repro.sim.rng import RngFactory
        factory = RngFactory(41)
        home = Device(NEXUS_4, clock, factory, name="home")       # has GPS
        guest = Device(NEXUS_7_2012, clock, factory, name="guest")  # none
        thread = launch_demo(home)
        location = thread.context.get_system_service("location")
        location.request_updates("gps", "nav-listener")
        home.service("location").report_fix("gps", 40.81, -73.96)
        home.pairing_service.pair(guest)
        return home, guest, thread

    def test_default_falls_back_to_network_provider(self, clock):
        home, guest, thread = self._setup(clock)
        report = home.migration_service.migrate(guest, DEMO_PACKAGE)
        snapshot = guest.service("location").snapshot(DEMO_PACKAGE)
        assert snapshot["requests"] == [("nav-listener", "network")]

    def test_extension_tethers_gps_to_home(self, clock):
        home, guest, thread = self._setup(clock)
        ext = FluxExtensions(gps_tether=True)
        report = home.migration_service.migrate(guest, DEMO_PACKAGE,
                                                extensions=ext)
        assert report.success
        guest_location = guest.service("location")
        assert guest_location.is_tethered("gps")
        snapshot = guest_location.snapshot(DEMO_PACKAGE)
        assert snapshot["requests"] == [("nav-listener", "gps")]
        assert any("tethered" in a for a in report.replay.adaptations)
        # Fixes flow from the home device's hardware.
        location = thread.context.get_system_service("location")
        fix = location.getLastKnownLocation("gps")
        assert (fix.latitude, fix.longitude) == (40.81, -73.96)


class TestAllExtensionsTogether:
    def test_full_catalog_migrates_18_of_18(self, clock):
        """With every extension on, even Facebook and Subway Surfers go."""
        from repro.android.device import Device
        from repro.android.hardware.profiles import NEXUS_7_2013
        from repro.apps import TOP_APPS
        from repro.sim.rng import RngFactory
        factory = RngFactory(43)
        home = Device(NEXUS_7_2013, clock, factory, name="home")
        guest = Device(NEXUS_7_2013, clock, factory, name="guest")
        for spec in TOP_APPS:
            spec.install(home)
        home.pairing_service.pair(guest)
        ext = FluxExtensions.all()
        migrated = 0
        for spec in TOP_APPS:
            spec.install_and_launch(home)
            report = home.migration_service.migrate(guest, spec.package,
                                                    extensions=ext)
            assert report.success, spec.title
            migrated += 1
        assert migrated == 18
        assert len(guest.running_packages()) == 18
