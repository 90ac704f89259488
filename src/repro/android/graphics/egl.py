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
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.android.kernel.memory import MemoryRegion, RegionKind


class GlError(Exception):
    """EGL/GL protocol errors."""


@dataclass(frozen=True)
class GlResource:
    """Handle to one resource created on its own (a texture, a shader),
    so it can be deleted on its own."""

    res_id: int
    kind: str          # "texture" | "shader" | "buffer" | "framebuffer"
    size: int          # bytes of device memory backing it


class EGLContext:
    """One rendering context, tied to the vendor library that made it.

    GPU memory is accounted in columns: a count and a byte total per
    resource kind (``counts``, ``kind_bytes``).  ``create_resource``
    also keeps a :class:`GlResource` handle, so the resource can be
    deleted alone and captured by GL record/replay; a batch
    :meth:`charge` (a view tree's display lists) keeps none.
    """

    _ids = itertools.count(1)

    def __init__(self, vendor: "VendorGlLibrary", process) -> None:
        self.context_id = next(self._ids)
        self.vendor = vendor
        self.process = process
        self.resources: Dict[int, GlResource] = {}
        self.counts: Dict[str, int] = {}
        self.kind_bytes: Dict[str, int] = {}
        self._res_ids = itertools.count(1)
        self.destroyed = False
        self._region_name = f"glctx:{self.context_id}"
        process.memory.map(MemoryRegion(
            name=self._region_name, kind=RegionKind.GL_CONTEXT,
            size=vendor.context_overhead))

    def create_resource(self, kind: str, size: int) -> GlResource:
        self.charge(kind, size)
        resource = GlResource(next(self._res_ids), kind, size)
        self.resources[resource.res_id] = resource
        return resource

    def delete_resource(self, res_id: int) -> None:
        self._check_alive()
        resource = self.resources.pop(res_id, None)
        if resource is None:
            raise GlError(f"no GL resource {res_id}")
        self.release(resource.kind, resource.size)

    def charge(self, kind: str, size: int, count: int = 1) -> None:
        """Account ``count`` more resources of ``kind``, ``size`` bytes
        in all, in the context's one pmem allocation for ``kind``."""
        self._check_alive()
        total = self.kind_bytes.get(kind, 0) + size
        self.vendor.size_allocation(self, kind, total)
        self.counts[kind] = self.counts.get(kind, 0) + count
        self.kind_bytes[kind] = total

    def release(self, kind: str, size: int, count: int = 1) -> None:
        """Give back ``count`` resources of ``kind``, ``size`` bytes in
        all; the kind's pmem allocation is freed with its last one."""
        self._check_alive()
        left = self.counts.get(kind, 0) - count
        if left < 0:
            raise GlError(f"context {self.context_id} holds "
                          f"{self.counts.get(kind, 0)} {kind} resource(s), "
                          f"not {count}")
        total = self.kind_bytes[kind] - size if left else 0
        self.vendor.size_allocation(self, kind, total)
        if left:
            self.counts[kind] = left
            self.kind_bytes[kind] = total
        else:
            del self.counts[kind], self.kind_bytes[kind]

    def destroy(self) -> None:
        if self.destroyed:
            return
        for kind in self.counts:
            self.vendor.size_allocation(self, kind, 0)
        self.resources.clear()
        self.counts.clear()
        self.kind_bytes.clear()
        self.process.memory.unmap(self._region_name)
        self.destroyed = True
        self.vendor.on_context_destroyed(self)

    def _check_alive(self) -> None:
        if self.destroyed:
            raise GlError(f"context {self.context_id} destroyed")


class VendorGlLibrary:
    """The device-specific half of the GL stack.

    Loading it maps a vendor-state region into the process; every GPU
    allocation goes through pmem, one allocation per (context, resource
    kind) that grows and shrinks with the context's column.  It refuses
    to unload while any of its contexts are alive — exactly the
    constraint ``eglUnload`` must respect.
    """

    def __init__(self, gpu_name: str, kernel,
                 context_overhead: int = 256 * 1024,
                 library_state_size: int = 512 * 1024) -> None:
        self.gpu_name = gpu_name
        self.kernel = kernel
        self.context_overhead = context_overhead
        self.library_state_size = library_state_size
        self._loaded_into: Dict[int, object] = {}   # pid -> process
        #: pid -> context_id -> live context.
        self._live_contexts: Dict[int, Dict[int, EGLContext]] = {}
        #: pid -> (context_id, kind) -> pmem alloc.  One process may
        #: hold several contexts (a game's HardwareRenderer and its
        #: GLSurfaceView); only pids that own GPU memory have a table.
        self._allocations: Dict[int, Dict[Tuple[int, str], object]] = {}

    # -- load / unload ---------------------------------------------------------

    def load(self, process) -> None:
        if process.pid in self._loaded_into:
            return
        process.memory.map(MemoryRegion(
            name=f"glvendor:{self.gpu_name}", kind=RegionKind.GL_VENDOR,
            size=self.library_state_size))
        self._loaded_into[process.pid] = process

    def unload(self, process) -> None:
        """eglUnload's vendor half: only legal once no contexts remain."""
        if process.pid not in self._loaded_into:
            raise GlError(f"vendor lib not loaded in pid {process.pid}")
        live = self.live_context_count(process.pid)
        if live:
            raise GlError(
                f"cannot unload vendor lib: {live} live context(s)")
        process.memory.unmap(f"glvendor:{self.gpu_name}")
        del self._loaded_into[process.pid]

    # -- contexts & memory -------------------------------------------------------

    def create_context(self, process) -> EGLContext:
        if process.pid not in self._loaded_into:
            raise GlError("vendor library not loaded; call eglInitialize first")
        context = EGLContext(self, process)
        self._live_contexts.setdefault(process.pid, {})[
            context.context_id] = context
        return context

    def on_context_destroyed(self, context: EGLContext) -> None:
        pid = context.process.pid
        per_pid = self._live_contexts.get(pid)
        if per_pid is not None \
                and per_pid.pop(context.context_id, None) is not None \
                and not per_pid:
            del self._live_contexts[pid]

    def contexts_of(self, pid: int) -> List[EGLContext]:
        """The process's live contexts, in creation order."""
        return list(self._live_contexts.get(pid, {}).values())

    def close(self) -> None:
        """World teardown: cut each live context's edge back to this
        library (the table holds the contexts, each context its vendor)."""
        for per_pid in self._live_contexts.values():
            for context in per_pid.values():
                context.vendor = None

    def live_context_count(self, pid: int) -> int:
        return len(self._live_contexts.get(pid, ()))

    def size_allocation(self, context: EGLContext, kind: str,
                        size: int) -> None:
        """Make the context's pmem allocation for ``kind`` ``size``
        bytes: allocate it, grow or shrink it, or free it at 0."""
        process = context.process
        pmem = self.kernel.pmem
        key = context.context_id, kind
        per_pid = self._allocations.get(process.pid)
        alloc = per_pid.get(key) if per_pid is not None else None
        if alloc is None:
            if size:
                alloc = pmem.allocate(process, size, purpose=f"gl-{kind}")
                self._allocations.setdefault(process.pid, {})[key] = alloc
        elif size:
            pmem.resize(process, alloc, size)
        else:
            del per_pid[key]
            if not per_pid:
                # The pid's last allocation: drop its table, so the map
                # only ever holds processes that still own GPU memory.
                del self._allocations[process.pid]
            pmem.free(process, alloc)


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
        contexts = self._vendor.contexts_of(process.pid)
        for context in contexts:
            context.destroy()
        return len(contexts)

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
