"""EGL / OpenGL ES model: generic library over a vendor library.

Android's GL stack (paper §2) is a generic library presenting the
standard API plus a vendor library implementing device-specific code.
Flux extends the generic library with ``eglUnload`` (paper §3.3) which
completely unloads the vendor library once all contexts are gone, so a
different vendor library can be loaded after migration.

GL resources (contexts, textures, shaders, buffers) are backed by
device-specific memory: context storage lives in a ``GL_CONTEXT`` region
and texture pools in pmem.  CRIA can only checkpoint a process once all
of this is released.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.android.kernel.memory import MemoryRegion, RegionKind


class GlError(Exception):
    """EGL/GL protocol errors."""


@dataclass(frozen=True)
class GlResource:
    res_id: int
    kind: str          # "texture" | "shader" | "buffer" | "framebuffer"
    size: int          # bytes of device memory backing it


class EGLContext:
    """One rendering context, tied to the vendor library that made it."""

    _ids = itertools.count(1)

    def __init__(self, vendor: "VendorGlLibrary", process) -> None:
        self.context_id = next(self._ids)
        self.vendor = vendor
        self.process = process
        self.resources: Dict[int, GlResource] = {}
        self._res_ids = itertools.count(1)
        self.destroyed = False
        self._region_name = f"glctx:{self.context_id}"
        process.memory.map(MemoryRegion(
            name=self._region_name, kind=RegionKind.GL_CONTEXT,
            size=vendor.context_overhead))

    def create_resource(self, kind: str, size: int) -> GlResource:
        self._check_alive()
        resource = GlResource(next(self._res_ids), kind, size)
        self.resources[resource.res_id] = resource
        self.vendor.charge_memory(self, resource)
        return resource

    def delete_resource(self, res_id: int) -> None:
        self._check_alive()
        resource = self.resources.pop(res_id, None)
        if resource is None:
            raise GlError(f"no GL resource {res_id}")
        self.vendor.release_memory(self, resource)

    def resource_bytes(self) -> int:
        return sum(r.size for r in self.resources.values())

    def destroy(self) -> None:
        if self.destroyed:
            return
        for res_id in list(self.resources):
            self.delete_resource(res_id)
        self.process.memory.unmap(self._region_name)
        self.destroyed = True
        self.vendor.on_context_destroyed(self)

    def _check_alive(self) -> None:
        if self.destroyed:
            raise GlError(f"context {self.context_id} destroyed")


class VendorGlLibrary:
    """The device-specific half of the GL stack.

    Loading it maps a vendor-state region into the process; every GPU
    allocation goes through pmem.  It refuses to unload while any of its
    contexts are alive — exactly the constraint ``eglUnload`` must
    respect.
    """

    def __init__(self, gpu_name: str, kernel,
                 context_overhead: int = 256 * 1024,
                 library_state_size: int = 512 * 1024) -> None:
        self.gpu_name = gpu_name
        self.kernel = kernel
        self.context_overhead = context_overhead
        self.library_state_size = library_state_size
        self._loaded_into: Dict[int, object] = {}   # pid -> process
        self._live_contexts: List[EGLContext] = []
        #: pid -> (context_id, res_id) -> pmem alloc.  Resource ids are
        #: numbered per context, and one process may hold several
        #: contexts (a game's HardwareRenderer and its GLSurfaceView).
        self._allocations: Dict[int, Dict[Tuple[int, int], object]] = {}

    # -- load / unload ---------------------------------------------------------

    def load(self, process) -> None:
        if process.pid in self._loaded_into:
            return
        process.memory.map(MemoryRegion(
            name=f"glvendor:{self.gpu_name}", kind=RegionKind.GL_VENDOR,
            size=self.library_state_size))
        self._loaded_into[process.pid] = process

    def is_loaded(self, process) -> bool:
        return process.pid in self._loaded_into

    def unload(self, process) -> None:
        """eglUnload's vendor half: only legal once no contexts remain."""
        if process.pid not in self._loaded_into:
            raise GlError(f"vendor lib not loaded in pid {process.pid}")
        live = [c for c in self._live_contexts
                if c.process.pid == process.pid and not c.destroyed]
        if live:
            raise GlError(
                f"cannot unload vendor lib: {len(live)} live context(s)")
        process.memory.unmap(f"glvendor:{self.gpu_name}")
        del self._loaded_into[process.pid]

    # -- contexts & memory -------------------------------------------------------

    def create_context(self, process) -> EGLContext:
        if process.pid not in self._loaded_into:
            raise GlError("vendor library not loaded; call eglInitialize first")
        context = EGLContext(self, process)
        self._live_contexts.append(context)
        return context

    def on_context_destroyed(self, context: EGLContext) -> None:
        if context in self._live_contexts:
            self._live_contexts.remove(context)

    def close(self) -> None:
        """World teardown: cut each live context's edge back to this
        library (the list holds the contexts, each context its vendor)."""
        for context in self._live_contexts:
            context.vendor = None

    def live_context_count(self, pid: Optional[int] = None) -> int:
        contexts = [c for c in self._live_contexts if not c.destroyed]
        if pid is not None:
            contexts = [c for c in contexts if c.process.pid == pid]
        return len(contexts)

    def charge_memory(self, context: EGLContext,
                      resource: GlResource) -> None:
        process = context.process
        alloc = self.kernel.pmem.allocate(process, resource.size,
                                          purpose=f"gl-{resource.kind}")
        self._allocations.setdefault(process.pid, {})[
            context.context_id, resource.res_id] = alloc

    def release_memory(self, context: EGLContext,
                       resource: GlResource) -> None:
        process = context.process
        per_pid = self._allocations.get(process.pid)
        if per_pid is None:
            return
        alloc = per_pid.pop((context.context_id, resource.res_id), None)
        if not per_pid:
            # The pid's last allocation: drop its table, so the map
            # only ever holds processes that still own GPU memory.
            del self._allocations[process.pid]
        if alloc is not None:
            self.kernel.pmem.free(process, alloc)


class GenericGlLibrary:
    """The device-independent GL API apps link against.

    Holds per-process EGL state and implements the Flux ``egl_unload``
    extension: tear down the vendor binding so a *different* vendor
    library can back the API after migration.
    """

    def __init__(self, vendor: VendorGlLibrary) -> None:
        self._vendor = vendor
        self._initialized_pids: Dict[int, object] = {}

    @property
    def vendor(self) -> VendorGlLibrary:
        return self._vendor

    def egl_initialize(self, process) -> None:
        self._vendor.load(process)
        self._initialized_pids[process.pid] = process

    def egl_create_context(self, process) -> EGLContext:
        if process.pid not in self._initialized_pids:
            raise GlError(f"EGL not initialized in pid {process.pid}")
        return self._vendor.create_context(process)

    def egl_terminate_contexts(self, process) -> int:
        """Destroy every live context this process holds; returns count."""
        count = 0
        for context in list(self._vendor._live_contexts):
            if context.process.pid == process.pid and not context.destroyed:
                context.destroy()
                count += 1
        return count

    def egl_unload(self, process) -> None:
        """The Flux extension (paper §3.3): drop vendor-specific state."""
        if process.pid not in self._initialized_pids:
            return
        self._vendor.unload(process)
        del self._initialized_pids[process.pid]

    def is_initialized(self, process) -> bool:
        return process.pid in self._initialized_pids

    def release_process(self, process) -> None:
        """Process exit: its contexts and vendor state die with it."""
        self.egl_terminate_contexts(process)
        self.egl_unload(process)

    def rebind_vendor(self, vendor: VendorGlLibrary) -> None:
        """Swap the vendor library (after migration to different GPU).

        Only legal when no process has EGL initialized — which is exactly
        the state eglUnload leaves behind.
        """
        if self._initialized_pids:
            raise GlError("cannot rebind vendor library while EGL in use")
        self._vendor = vendor
