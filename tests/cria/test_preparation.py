"""CRIA preparation: the background -> trim -> eglUnload pipeline."""

import pytest

from repro.android.kernel.files import OpenFile
from repro.core.cria import MigrationError, MigrationRefusal, prepare_app
from repro.core.cria.preparation import check_preparable
from tests.conftest import DEMO_PACKAGE, DemoActivity, launch_demo


class TestHappyPath:
    def test_prepare_leaves_no_device_state(self, device, demo_thread):
        report = prepare_app(device, DEMO_PACKAGE)
        process = demo_thread.process
        assert report.device_regions_remaining == 0
        assert report.surfaces_freed == 1
        assert report.vendor_lib_unloaded
        assert process.memory.device_specific_regions() == []
        assert device.kernel.pmem.allocations_of(process.pid) == []
        assert not device.gl.is_initialized(process)

    def test_prepare_order_in_trace(self, device, demo_thread, monkeypatch):
        calls = []
        for owner, name in ((device.activity_service, "background_app"),
                            (device.activity_service, "trim_memory"),
                            (device.gl, "egl_unload")):
            def spy(*args, _name=name, _call=getattr(owner, name)):
                calls.append(_name)
                return _call(*args)
            monkeypatch.setattr(owner, name, spy)
        prepare_app(device, DEMO_PACKAGE)
        assert calls == ["background_app", "trim_memory", "egl_unload"]

    def test_prepare_with_gl_game(self, device):
        from tests.app.test_views_activity import GlDemoActivity
        thread = launch_demo(device, package="com.game",
                             activity_cls=GlDemoActivity)
        report = prepare_app(device, "com.game")
        assert report.gl_contexts_terminated >= 1
        assert thread.process.memory.device_specific_regions() == []


class TestRefusals:
    def test_not_running(self, device):
        with pytest.raises(MigrationError) as excinfo:
            prepare_app(device, "com.ghost")
        assert excinfo.value.reason is MigrationRefusal.NOT_RUNNING

    def test_multi_process(self, device):
        from tests.conftest import install_demo
        install_demo(device, "com.multi")
        device.launch_app("com.multi", DemoActivity, extra_processes=1)
        with pytest.raises(MigrationError) as excinfo:
            prepare_app(device, "com.multi")
        assert excinfo.value.reason is MigrationRefusal.MULTI_PROCESS

    def test_preserved_egl_context(self, device):
        from repro.android.app.views import GLSurfaceView, ViewGroup

        class Sticky(DemoActivity):
            def on_create(self, saved_state):
                root = ViewGroup("root")
                gl_view = GLSurfaceView("game")
                gl_view.attach_gl(self.thread.framework.gl,
                                  self.thread.process)
                gl_view.set_preserve_egl_context_on_pause(True)
                gl_view.on_resume_gl()
                root.add_view(gl_view)
                self.set_content_view(root)

        launch_demo(device, package="com.sticky", activity_cls=Sticky)
        with pytest.raises(MigrationError) as excinfo:
            prepare_app(device, "com.sticky")
        assert excinfo.value.reason is MigrationRefusal.PRESERVED_EGL_CONTEXT

    def test_active_content_provider(self, device, demo_thread):
        provider_app = launch_demo(device, package="com.provider")
        provider_app.publish_provider("contacts")
        am = demo_thread.context.get_system_service("activity")
        am.getContentProvider("contacts")
        with pytest.raises(MigrationError) as excinfo:
            check_preparable(device, DEMO_PACKAGE)
        assert excinfo.value.reason is MigrationRefusal.ACTIVE_CONTENT_PROVIDER
        # Finishing the interaction clears the refusal.
        am.removeContentProvider("contacts")
        check_preparable(device, DEMO_PACKAGE)

    def test_common_sdcard_file_open(self, device, demo_thread):
        demo_thread.process.fds.install(OpenFile("/sdcard/DCIM/photo.jpg"))
        with pytest.raises(MigrationError) as excinfo:
            check_preparable(device, DEMO_PACKAGE)
        assert excinfo.value.reason is MigrationRefusal.COMMON_SDCARD_FILES

    def test_app_specific_sdcard_file_is_fine(self, device, demo_thread):
        demo_thread.process.fds.install(
            OpenFile(f"/sdcard/Android/data/{DEMO_PACKAGE}/cache.bin"))
        check_preparable(device, DEMO_PACKAGE)
