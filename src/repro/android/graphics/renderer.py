"""HardwareRenderer: per-process GPU rendering front end.

Models the chain the paper walks in §3.3: the renderer owns an EGL
context plus caches of GL resources; ``start_trim_memory`` flushes the
caches, ``destroy_hardware_resources`` drops per-ViewRoot display lists,
and ``destroy`` disables the renderer.  Once every context is gone the
renderer uninitializes OpenGL, after which Flux's ``egl_unload`` can
remove the vendor library.
"""

from __future__ import annotations

from typing import Optional

from repro.android.graphics.egl import EGLContext, GenericGlLibrary, GlError


# Trim levels, mirroring android.content.ComponentCallbacks2.
TRIM_MEMORY_UI_HIDDEN = 20
TRIM_MEMORY_COMPLETE = 80      # highest severity; what Flux requests


class HardwareRenderer:
    """One per app process; renders every hardware-accelerated window.

    Its caches and the display lists of the views it draws live in its
    context's columns: one charge per cache, one per view-tree
    traversal for the lists the traversal created.
    """

    CACHE_KINDS = ("texture-cache", "path-cache", "gradient-cache")
    CACHE_BYTES = {"texture-cache": 2 * 1024 * 1024,
                   "path-cache": 512 * 1024,
                   "gradient-cache": 128 * 1024}
    #: GPU bytes of one view's display list.
    DISPLAY_LIST_BYTES = 16 * 1024
    DISPLAY_LIST_KIND = "buffer"

    def __init__(self, process, gl: GenericGlLibrary) -> None:
        self.process = process
        self.gl = gl
        self.context: Optional[EGLContext] = None
        self.enabled = False

    # -- lifecycle -----------------------------------------------------------

    def initialize(self) -> None:
        """Conditional initialization: idempotent, as Android relies on."""
        if self.enabled:
            return
        self.gl.egl_initialize(self.process)
        self.context = self.gl.egl_create_context(self.process)
        for kind in self.CACHE_KINDS:
            self.context.charge(kind, self.CACHE_BYTES[kind])
        self.enabled = True

    @property
    def initialized(self) -> bool:
        return self.enabled

    # -- rendering -------------------------------------------------------------

    def draw(self, view_root) -> None:
        if not self.enabled:
            self.initialize()       # conditional init on first use
        view_root.perform_traversal(self)

    def allocate_display_lists(self, count: int) -> None:
        """Charge ``count`` new display lists in one call."""
        if self.context is None:
            raise GlError("renderer has no context")
        self.context.charge(self.DISPLAY_LIST_KIND,
                            count * self.DISPLAY_LIST_BYTES, count)

    def free_display_lists(self, count: int) -> None:
        """Release ``count`` display lists in one call (a no-op once
        the context is gone: they went with it)."""
        if self.context is not None and not self.context.destroyed:
            self.context.release(self.DISPLAY_LIST_KIND,
                                 count * self.DISPLAY_LIST_BYTES, count)

    # -- trim-memory chain (paper §3.3) -----------------------------------------

    def start_trim_memory(self, level: int) -> None:
        """Flush caches; at TRIM_MEMORY_COMPLETE everything goes."""
        if self.context is None or self.context.destroyed:
            return
        for kind in self.CACHE_KINDS:
            if kind in self.context.counts:
                self.context.release(kind, self.CACHE_BYTES[kind])

    def destroy_hardware_resources(self, view_root) -> None:
        view_root.release_display_lists(self)

    def destroy(self) -> None:
        """Disable the renderer and drop its context."""
        if self.context is not None and not self.context.destroyed:
            self.context.destroy()
        self.context = None
        self.enabled = False

    def terminate_and_uninitialize(self) -> bool:
        """End-of-trim step: drop the renderer's own context.

        Returns True when OpenGL is fully uninitialized for the process
        (no contexts remain, so eglUnload may proceed).  A GLSurfaceView
        that preserved its context across pause keeps it alive here —
        exactly the state that defeats Flux's preparation (paper §3.4).
        """
        self.destroy()
        return self.gl.vendor.live_context_count(self.process.pid) == 0

    def cache_bytes(self) -> int:
        if self.context is None:
            return 0
        return sum(self.context.kind_bytes.get(kind, 0)
                   for kind in self.CACHE_KINDS)
