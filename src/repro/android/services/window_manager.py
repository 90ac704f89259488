"""WindowManagerService: windows, surfaces, and the trim-memory RPCs.

Not a decorated service (its app-visible state is rebuilt on the guest by
conditional initialization, not replay); it provides Windows sized by the
device screen and the ``startTrimMemory``/``endTrimMemory`` RPCs that the
ActivityThread invokes during Flux's preparation phase (paper §3.3).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.android.graphics.renderer import TRIM_MEMORY_COMPLETE
from repro.android.graphics.surface import ScreenConfig, Window
from repro.android.services.base import ServiceContext, ServiceError, SystemService


class WindowManagerService(SystemService):
    SERVICE_KEY = "window"
    DESCRIPTOR = "IWindowManagerService"

    def __init__(self, ctx: ServiceContext) -> None:
        super().__init__(ctx)
        screen = getattr(ctx.hardware, "screen", None)
        self._screen: ScreenConfig = screen or ScreenConfig(768, 1280, 320)
        self._windows: Dict[int, Window] = {}

    @property
    def screen(self) -> ScreenConfig:
        return self._screen

    # -- window management --------------------------------------------------

    def add_window(self, package: str, process, title: str = "") -> Window:
        window = Window(package, process, self._screen, title=title)
        self._windows[window.window_id] = window
        return window

    def remove_window(self, window: Window) -> None:
        window.destroy()
        self._windows.pop(window.window_id, None)

    def remove_process_windows(self, process) -> None:
        """Drop every window of a process that died."""
        for window in [w for w in self._windows.values()
                       if w.process is process]:
            self.remove_window(window)

    def windows_of(self, package: str) -> List[Window]:
        return [w for w in self._windows.values()
                if w.owner_package == package]

    def live_surface_count(self, package: str) -> int:
        return sum(1 for w in self.windows_of(package) if w.has_surface)

    # -- trim-memory RPCs (paper §3.3) ------------------------------------------

    def start_trim_memory(self, process, renderer) -> None:
        """startTrimMemory RPC: flush the renderer's caches."""
        renderer.start_trim_memory(TRIM_MEMORY_COMPLETE)

    def end_trim_memory(self, process, renderer) -> None:
        """endTrimMemory RPC: terminate all GL contexts of the process."""
        renderer.terminate_and_uninitialize()
