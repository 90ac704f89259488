"""Migration preparation: drive the app into a checkpointable state.

Paper §3.1/§3.3, in order:

1. instruct the app to go to the background (frees drawing surfaces once
   the task idler stops it),
2. trigger a highest-severity trim-memory request (flushes renderer
   caches, destroys per-ViewRoot hardware resources, terminates GL
   contexts),
3. call the ``eglUnload`` extension to unload the vendor GL library.

Afterwards no device-specific memory may remain.  An app that asked to
preserve its EGL context across pause defeats step 2 and is refused —
the Subway Surfers limitation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.android.graphics.renderer import TRIM_MEMORY_COMPLETE
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.extensions import FluxExtensions


@dataclass
class PreparationReport:
    package: str
    surfaces_freed: int = 0
    gl_contexts_terminated: int = 0
    vendor_lib_unloaded: bool = False
    pmem_bytes_freed: int = 0
    device_regions_remaining: int = 0
    gl_capture: object = None            # GlStateCapture when the
                                         # gl_record_replay extension ran
    network_mounted_files: List[str] = field(default_factory=list)


def check_preparable(device, package: str,
                     extensions: Optional[FluxExtensions] = None) -> None:
    """Fast refusals detectable before any teardown work.

    Each refusal can be lifted by the corresponding extension flag —
    the implementations the paper sketches in §3.4.
    """
    ext = extensions or FluxExtensions.none()
    thread = device.thread_of(package)
    if thread is None:
        raise MigrationError(MigrationRefusal.NOT_RUNNING, package)

    processes = device.app_processes(package)
    if len(processes) > 1 and not ext.multi_process:
        raise MigrationError(
            MigrationRefusal.MULTI_PROCESS,
            f"{package} runs {len(processes)} processes")

    if not ext.gl_record_replay:
        for activity in thread.activities.values():
            if activity.view_root is None:
                continue
            for gl_view in activity.view_root.gl_surface_views():
                if gl_view.preserve_egl_context_on_pause:
                    raise MigrationError(
                        MigrationRefusal.PRESERVED_EGL_CONTEXT,
                        f"{activity.name}.{gl_view.name} called "
                        "setPreserveEGLContextOnPause")

    if (device.activity_service.provider_connections_of(package)
            and not ext.content_provider_replay):
        raise MigrationError(
            MigrationRefusal.ACTIVE_CONTENT_PROVIDER,
            f"{package} is mid-ContentProvider interaction")

    if not ext.sdcard_network_mount:
        for entry, path in _common_sdcard_fds(device, package):
            raise MigrationError(
                MigrationRefusal.COMMON_SDCARD_FILES,
                f"fd {entry.fd} open on {path}")


def _common_sdcard_fds(device, package: str):
    """(fd entry, path) pairs for open common (non-app) SD card files."""
    app_prefix = f"/sdcard/Android/data/{package}"
    out = []
    for process in device.app_processes(package):
        for entry in process.fds.entries():
            desc = entry.obj.describe()
            path = desc.get("path", "")
            if (desc.get("kind") == "file" and path.startswith("/sdcard")
                    and not path.startswith(app_prefix)):
                out.append((entry, path))
    return out


def prepare_app(device, package: str,
                extensions: Optional[FluxExtensions] = None
                ) -> PreparationReport:
    """Run the three-step preparation; the clock must then be advanced
    past the task idler before checkpointing (the migration service does
    this as part of the preparation stage's cost)."""
    ext = extensions or FluxExtensions.none()
    check_preparable(device, package, ext)
    thread = device.thread_of(package)
    process = thread.process
    report = PreparationReport(package=package)

    if ext.gl_record_replay:
        from repro.core.glreplay import capture_and_release
        capture = capture_and_release(thread)
        if not capture.is_empty():
            report.gl_capture = capture

    if ext.sdcard_network_mount:
        from repro.android.kernel.files import NetworkFile
        for entry, path in _common_sdcard_fds(device, package):
            desc = entry.obj.describe()
            mounted = NetworkFile(path, host=device.name,
                                  flags=desc["flags"],
                                  offset=desc["offset"])
            for proc in device.app_processes(package):
                if entry.fd in proc.fds:
                    proc.fds.dup2(mounted, entry.fd)
            report.network_mounted_files.append(path)

    surfaces_before = device.window_service.live_surface_count(package)

    # Step 1: background the app; the task idler will stop it.
    device.activity_service.background_app(package)
    device.clock.advance(device.activity_service.TASK_IDLE_DELAY + 0.01)
    report.surfaces_freed = (surfaces_before
                             - device.window_service.live_surface_count(package))

    # Step 2: highest-severity trim-memory request.
    contexts_before = device.vendor_gl.live_context_count(process.pid)
    device.activity_service.trim_memory(package, TRIM_MEMORY_COMPLETE)
    report.gl_contexts_terminated = (
        contexts_before - device.vendor_gl.live_context_count(process.pid))

    # A preserved EGL context would still be alive here; double-check
    # (defence in depth — check_preparable should have refused already).
    if device.vendor_gl.live_context_count(process.pid) > 0:
        raise MigrationError(
            MigrationRefusal.PRESERVED_EGL_CONTEXT,
            f"{package}: GL contexts survive trim-memory")

    # Step 3: eglUnload the vendor library.
    report.pmem_bytes_freed = device.kernel.pmem.free_all(process)
    device.gl.egl_unload(process)
    report.vendor_lib_unloaded = True

    for proc in device.app_processes(package):
        residue = proc.memory.device_specific_regions()
        report.device_regions_remaining += len(residue)
        if residue:
            raise MigrationError(
                MigrationRefusal.DEVICE_STATE_RESIDUE,
                f"pid {proc.pid}: regions remain: "
                f"{[r.name for r in residue]}")
    return report
