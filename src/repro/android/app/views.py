"""View hierarchy: Views, ViewGroups, ViewRoot, GLSurfaceView.

A Window's View hierarchy is rooted by a ViewRoot; rendering traverses
the tree and each View draws its portion (paper §2).  Hardware-
accelerated Views hold display lists in GPU memory via the
HardwareRenderer; a view only flags that it has one, and each traversal
charges the lists it created in one call.  ``release_display_lists`` is
the hook the trim-memory chain uses to drop them, again in one call.
GLSurfaceView owns its own EGL context and is where
``setPreserveEGLContextOnPause`` — the feature that makes an app
unmigratable (paper §3.4) — lives.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional


class ViewError(Exception):
    pass


class View:
    """An interactive UI element."""

    _ids = itertools.count(1)

    def __init__(self, name: str = "") -> None:
        self.view_id = next(self._ids)
        self.name = name or f"view-{self.view_id}"
        self.parent: Optional["ViewGroup"] = None
        self.valid = False          # needs redraw when False
        self.draw_count = 0
        self.has_display_list = False

    def invalidate(self) -> None:
        self.valid = False

    def draw(self, renderer) -> int:
        """Draw this view; returns how many display lists the draw
        created (one on a view's first draw with a renderer)."""
        self.valid = True
        self.draw_count += 1
        if self.has_display_list or renderer is None:
            return 0
        self.has_display_list = True
        return 1

    def release_display_list(self) -> int:
        """Drop this view's display list; returns how many went."""
        released = int(self.has_display_list)
        self.has_display_list = False
        self.valid = False
        return released

    def iter_tree(self):
        """This view and every view below it, in pre-order (one
        generator for the whole walk, not one per level)."""
        stack = [self]
        while stack:
            view = stack.pop()
            yield view
            children = getattr(view, "children", None)
            if children:
                stack.extend(reversed(children))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class ViewGroup(View):
    """A View containing child Views."""

    def __init__(self, name: str = "") -> None:
        super().__init__(name)
        self.children: List[View] = []

    def add_view(self, child: View) -> View:
        if child.parent is not None:
            raise ViewError(f"{child} already has a parent")
        child.parent = self
        self.children.append(child)
        return child

    def remove_view(self, child: View) -> None:
        if child not in self.children:
            raise ViewError(f"{child} is not a child of {self}")
        self.children.remove(child)
        child.parent = None

    def draw(self, renderer) -> int:
        created = super().draw(renderer)
        for child in self.children:
            created += child.draw(renderer)
        return created

    def release_display_list(self) -> int:
        released = super().release_display_list()
        for child in self.children:
            released += child.release_display_list()
        return released

    def detach_tree(self) -> None:
        """Cut every ``parent`` edge below this group; the children
        lists stay, so the tree is still walkable from the top."""
        for child in self.children:
            child.parent = None
            if isinstance(child, ViewGroup):
                child.detach_tree()


class GLSurfaceView(View):
    """A view with its own EGL context for direct GL rendering.

    ``set_preserve_egl_context_on_pause(True)`` keeps the context alive
    while backgrounded — the texture-cache optimization that defeats
    Flux's preparation phase (paper §3.4, Subway Surfers).
    """

    def __init__(self, name: str = "", texture_bytes: int = 8 * 1024 * 1024) -> None:
        super().__init__(name)
        self.texture_bytes = texture_bytes
        self.preserve_egl_context_on_pause = False
        self._context = None
        self._gl = None
        self._process = None

    def set_preserve_egl_context_on_pause(self, preserve: bool) -> None:
        self.preserve_egl_context_on_pause = preserve

    def attach_gl(self, gl, process) -> None:
        self._gl = gl
        self._process = process

    def on_resume_gl(self) -> None:
        """(Re)create the GL context and upload textures."""
        if self._gl is None:
            raise ViewError(f"{self.name}: no GL library attached")
        if self._context is None or self._context.destroyed:
            self._gl.egl_initialize(self._process)
            self._context = self._gl.egl_create_context(self._process)
            self._context.create_resource("texture", self.texture_bytes)

    def on_pause_gl(self) -> None:
        """Default behaviour: destroy the context when paused."""
        if self.preserve_egl_context_on_pause:
            return
        if self._context is not None and not self._context.destroyed:
            self._context.destroy()
            self._context = None

    @property
    def has_live_context(self) -> bool:
        return self._context is not None and not self._context.destroyed

    def draw(self, renderer) -> int:
        # GL views render through their own context, not the renderer's.
        if not self.has_live_context:
            self.on_resume_gl()
        self.valid = True
        self.draw_count += 1
        return 0

    def release_display_list(self) -> int:
        self.valid = False
        return 0


class ViewRoot:
    """Root of a Window's view hierarchy; drives traversal."""

    _ids = itertools.count(1)

    def __init__(self, window, content: ViewGroup) -> None:
        self.root_id = next(self._ids)
        self.window = window
        self.content = content
        self.destroyed = False
        self.traversals = 0

    def perform_traversal(self, renderer) -> None:
        """Render the tree into the window surface."""
        if self.destroyed:
            raise ViewError(f"ViewRoot {self.root_id} destroyed")
        if not self.window.has_surface:
            raise ViewError(f"window {self.window.window_id} has no surface")
        created = self.content.draw(renderer)
        if created:
            renderer.allocate_display_lists(created)
        self.window.surface.render_frame()
        self.traversals += 1

    def invalidate_all(self) -> None:
        for view in self.content.iter_tree():
            view.invalidate()

    def all_views_invalid(self) -> bool:
        return all(not v.valid for v in self.content.iter_tree())

    def release_display_lists(self, renderer) -> None:
        """terminateHardwareResources: drop GPU-side view state."""
        released = self.content.release_display_list()
        if released:
            renderer.free_display_lists(released)

    def gl_surface_views(self) -> List[GLSurfaceView]:
        return [v for v in self.content.iter_tree()
                if isinstance(v, GLSurfaceView)]

    def destroy(self) -> None:
        self.destroyed = True
        self.content.detach_tree()

    def view_count(self) -> int:
        return sum(1 for _ in self.content.iter_tree())
