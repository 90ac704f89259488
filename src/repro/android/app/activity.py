"""Activities and their life cycle.

States and transitions follow the paper's §2 description: after creation
an activity is Resumed; sent to the background it becomes Paused (no
input, no code); if not quickly foregrounded the task idler moves it to
Stopped, where its Surface is destroyed and it can no longer render.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Dict, Optional

from repro.android.app.views import ViewGroup, ViewRoot


class ActivityState(enum.Enum):
    CREATED = "created"
    RESUMED = "resumed"
    PAUSED = "paused"
    STOPPED = "stopped"
    DESTROYED = "destroyed"


class LifecycleError(Exception):
    pass


_LEGAL_TRANSITIONS = {
    ActivityState.CREATED: {ActivityState.RESUMED, ActivityState.DESTROYED},
    ActivityState.RESUMED: {ActivityState.PAUSED},
    ActivityState.PAUSED: {ActivityState.RESUMED, ActivityState.STOPPED},
    ActivityState.STOPPED: {ActivityState.RESUMED, ActivityState.DESTROYED},
    ActivityState.DESTROYED: set(),
}


class Activity:
    """Base class apps subclass; lifecycle driven by the ActivityThread."""

    _tokens = itertools.count(1)

    def __init__(self, name: str, thread) -> None:
        self.name = name
        self.thread = thread              # hosting ActivityThread
        self.token = next(self._tokens)
        self.state = ActivityState.CREATED
        self.window = None                # set when attached by the thread
        self.view_root: Optional[ViewRoot] = None
        self.saved_state: Dict[str, Any] = {}
        self.touch_events = []            # events routed by the dispatcher

    @property
    def package(self) -> str:
        return self.thread.package

    # -- wiring ------------------------------------------------------------------

    def set_content_view(self, content: ViewGroup) -> None:
        if self.window is None:
            raise LifecycleError(f"{self.name}: no window attached yet")
        self.view_root = ViewRoot(self.window, content)

    def attach_window(self, window) -> None:
        self.window = window

    def close(self) -> None:
        """World teardown: detach the view tree and the thread edge."""
        if self.view_root is not None:
            self.view_root.destroy()
        self.thread = None

    def get_system_service(self, name: str):
        return self.thread.context.get_system_service(name)

    # -- lifecycle dispatch (called by ActivityThread only) -------------------------

    def perform_transition(self, new_state: ActivityState) -> None:
        if new_state not in _LEGAL_TRANSITIONS[self.state]:
            raise LifecycleError(
                f"{self.name}: illegal transition "
                f"{self.state.value} -> {new_state.value}")
        old = self.state
        self.state = new_state
        if new_state is ActivityState.RESUMED:
            if old is ActivityState.CREATED:
                pass  # on_create already ran during performLaunch
            self.on_resume()
        elif new_state is ActivityState.PAUSED:
            self.on_pause()
        elif new_state is ActivityState.STOPPED:
            self.on_stop()
        elif new_state is ActivityState.DESTROYED:
            self.on_destroy()

    # -- app-overridable hooks --------------------------------------------------

    def on_create(self, saved_state: Dict[str, Any]) -> None:
        """Build the UI; apps override."""

    def on_resume(self) -> None:
        pass

    def on_pause(self) -> None:
        for gl_view in self._gl_views():
            gl_view.on_pause_gl()

    def on_stop(self) -> None:
        pass

    def on_destroy(self) -> None:
        pass

    def on_trim_memory(self, level: int) -> None:
        pass

    def on_configuration_changed(self, config) -> None:
        pass

    def on_touch(self, event) -> None:
        """Touch input routed by the InputDispatcher; apps override."""

    def dispatch_touch(self, event) -> None:
        if self.state is not ActivityState.RESUMED:
            raise LifecycleError(
                f"{self.name}: input in state {self.state.value}")
        self.touch_events.append(event)
        self.on_touch(event)

    # -- helpers ------------------------------------------------------------------

    def _gl_views(self):
        if self.view_root is None:
            return []
        return self.view_root.gl_surface_views()

    @property
    def visible(self) -> bool:
        return self.state is ActivityState.RESUMED

    def render(self) -> None:
        """Draw a frame (only legal while resumed)."""
        if self.state is not ActivityState.RESUMED:
            raise LifecycleError(
                f"{self.name}: cannot render in state {self.state.value}")
        if self.view_root is None:
            raise LifecycleError(f"{self.name}: no content view set")
        self.thread.renderer.draw(self.view_root)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"state={self.state.value})")
