"""View hierarchy, activity lifecycle, the trim-memory chain."""

import pytest

from repro.android.app.activity import ActivityState, LifecycleError
from repro.android.app.views import GLSurfaceView, View, ViewError, ViewGroup
from repro.android.graphics.renderer import (
    TRIM_MEMORY_COMPLETE,
    TRIM_MEMORY_UI_HIDDEN,
)
from repro.android.kernel.memory import RegionKind
from tests.conftest import DEMO_PACKAGE, DemoActivity, launch_demo


class TestViews:
    def test_tree_iteration(self):
        root = ViewGroup("root")
        child_group = ViewGroup("group")
        child_group.add_view(View("leaf"))
        root.add_view(child_group)
        root.add_view(View("other"))
        names = [v.name for v in root.iter_tree()]
        assert names == ["root", "group", "leaf", "other"]

    def test_reparenting_rejected(self):
        a, b = ViewGroup("a"), ViewGroup("b")
        leaf = View("leaf")
        a.add_view(leaf)
        with pytest.raises(ViewError):
            b.add_view(leaf)

    def test_remove_view(self):
        group = ViewGroup("g")
        leaf = group.add_view(View("leaf"))
        group.remove_view(leaf)
        assert leaf.parent is None
        with pytest.raises(ViewError):
            group.remove_view(leaf)

    def test_draw_marks_valid_and_allocates_display_lists(self, demo_thread):
        activity = next(iter(demo_thread.activities.values()))
        root = activity.view_root
        root.invalidate_all()
        assert root.all_views_invalid()
        activity.render()
        assert all(v.valid for v in root.content.iter_tree())


class TestActivityLifecycle:
    def test_launch_resumes_and_draws(self, device, monkeypatch):
        transitions = []
        perform = DemoActivity.perform_transition

        def spy(activity, new_state):
            transitions.append(new_state)
            perform(activity, new_state)

        monkeypatch.setattr(DemoActivity, "perform_transition", spy)
        thread = launch_demo(device)
        activity = next(iter(thread.activities.values()))
        assert activity.state is ActivityState.RESUMED
        assert activity.window.surface.frames_rendered >= 1
        assert transitions == [ActivityState.RESUMED]

    def test_illegal_transition_rejected(self, demo_thread):
        activity = next(iter(demo_thread.activities.values()))
        with pytest.raises(LifecycleError):
            activity.perform_transition(ActivityState.STOPPED)

    def test_render_requires_resumed(self, demo_thread):
        activity = next(iter(demo_thread.activities.values()))
        activity.perform_transition(ActivityState.PAUSED)
        with pytest.raises(LifecycleError):
            activity.render()

    def test_stop_destroys_surface_via_thread(self, demo_thread):
        demo_thread.pause_all()
        demo_thread.stop_all()
        activity = next(iter(demo_thread.activities.values()))
        assert activity.state is ActivityState.STOPPED
        assert not activity.window.has_surface
        assert demo_thread.in_background

    def test_resume_all_recreates_surface(self, demo_thread):
        demo_thread.pause_all()
        demo_thread.stop_all()
        demo_thread.resume_all()
        activity = next(iter(demo_thread.activities.values()))
        assert activity.state is ActivityState.RESUMED
        assert activity.window.has_surface


class GlDemoActivity(DemoActivity):
    def on_create(self, saved_state) -> None:
        root = ViewGroup("root")
        gl_view = GLSurfaceView("game")
        gl_view.attach_gl(self.thread.framework.gl, self.thread.process)
        gl_view.on_resume_gl()
        root.add_view(gl_view)
        self.set_content_view(root)


class TestTrimMemoryChain:
    def test_complete_trim_frees_all_gl_state(self, device):
        thread = launch_demo(device, package="com.gl",
                             activity_cls=GlDemoActivity)
        process = thread.process
        assert device.vendor_gl.live_context_count(process.pid) >= 1
        thread.pause_all()      # GLSurfaceView drops its context on pause
        thread.stop_all()
        thread.handle_trim_memory(TRIM_MEMORY_COMPLETE)
        assert device.vendor_gl.live_context_count(process.pid) == 0
        assert process.memory.regions(RegionKind.GL_CONTEXT) == []
        # Vendor library still loaded: eglUnload is Flux's job, not trim's.
        assert device.gl.is_initialized(process)

    def test_trim_destroys_view_roots_for_conditional_reinit(self,
                                                             demo_thread):
        demo_thread.pause_all()
        demo_thread.stop_all()
        demo_thread.handle_trim_memory(TRIM_MEMORY_COMPLETE)
        activity = next(iter(demo_thread.activities.values()))
        assert activity.view_root is None
        demo_thread.rebuild_view_roots()
        assert activity.view_root is not None

    def test_partial_trim_only_flushes_caches(self, demo_thread):
        renderer = demo_thread.renderer
        assert renderer.cache_bytes() > 0
        demo_thread.handle_trim_memory(TRIM_MEMORY_UI_HIDDEN)
        assert renderer.cache_bytes() == 0
        assert renderer.initialized    # renderer survives partial trim

    def test_trim_levels_delivered_to_activities(self, demo_thread):
        demo_thread.handle_trim_memory(TRIM_MEMORY_UI_HIDDEN)
        assert demo_thread.trim_levels_seen == [TRIM_MEMORY_UI_HIDDEN]

    def test_preserved_context_survives_trim(self, device):
        class PreservingActivity(DemoActivity):
            def on_create(self, saved_state) -> None:
                root = ViewGroup("root")
                gl_view = GLSurfaceView("game")
                gl_view.attach_gl(self.thread.framework.gl,
                                  self.thread.process)
                gl_view.set_preserve_egl_context_on_pause(True)
                gl_view.on_resume_gl()
                root.add_view(gl_view)
                self.set_content_view(root)

        thread = launch_demo(device, package="com.sticky",
                             activity_cls=PreservingActivity)
        thread.pause_all()
        thread.stop_all()
        # The preserved context is still alive: exactly the state that
        # makes Flux refuse migration (paper §3.4).
        assert device.vendor_gl.live_context_count(thread.process.pid) >= 1
