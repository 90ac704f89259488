"""CRIA checkpoint: freeze the prepared app and capture its image.

Binder state gets the paper's three-way classification (§3.3): internal
connections are saved whole; references to *named* system services are
saved as (handle, service name) pairs so restore can re-bind by name on
the guest; anonymous service-created objects (sensor connections) are
saved as pending references for replay proxies to re-create; references
to non-system services make the app unmigratable and are refused.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.cria.errors import (
    CheckpointError,
    MigrationError,
    MigrationRefusal,
)
from repro.core.cria.image import (
    BinderRefImage,
    BinderRefKind,
    CheckpointImage,
    FdImage,
    ProcessImage,
    ThreadImage,
)
from repro.core.extensions import FluxExtensions


def checkpoint_app(device, package: str,
                   extensions: FluxExtensions = None) -> CheckpointImage:
    """Checkpoint the (already prepared) app on ``device``.

    With the ``multi_process`` extension the whole process tree is
    imaged (CRIU-style); otherwise a second process is a refusal.
    """
    ext = extensions or FluxExtensions.none()
    thread = device.thread_of(package)
    if thread is None:
        raise MigrationError(MigrationRefusal.NOT_RUNNING, package)
    processes = device.app_processes(package)
    if not processes:
        raise MigrationError(MigrationRefusal.NOT_RUNNING, package)
    if len(processes) > 1 and not ext.multi_process:
        raise MigrationError(MigrationRefusal.MULTI_PROCESS,
                             f"{package} has {len(processes)} processes")
    # The main (thread-hosting) process is imaged first.
    processes = sorted(processes,
                       key=lambda proc: proc.pid != thread.process.pid)

    process_images = []
    for process in processes:
        process.freeze()
        process_images.append(_image_of_process(device, package, process))

    record_log = device.recorder.extract_app_log(package)
    info = device.package_service.get_package(package)
    image = CheckpointImage(
        package=package,
        source_device=device.name,
        source_kernel=device.kernel.version,
        android_version=device.profile.android_version,
        api_level=info.api_level,
        checkpoint_time=device.clock.now,
        processes=process_images,
        app_payload=thread,
        record_log=list(record_log),
        metadata={
            "home_profile": device.profile.name,
            "stream_max_volumes": dict(
                device.service("audio")._max),
            "provider_connections": [
                {"authority": c.authority,
                 "provider_package": c.provider_package}
                for c in device.activity_service
                .provider_connections_of(package)],
        },
    )
    metrics = device.metrics
    raw = image.raw_bytes()
    metrics.counter("cria", "checkpoints", app=package).inc()
    metrics.counter("cria", "processes_imaged",
                    app=package).inc(len(process_images))
    metrics.counter("cria", "image_raw_bytes", app=package).inc(raw)
    metrics.counter("cria", "image_compressed_bytes",
                    app=package).inc(image.compressed_bytes())
    # 4 KB pages, the unit a real CRIU-style dumper moves.
    metrics.counter("cria", "pages", app=package).inc(raw // 4096)
    return image


def _image_of_process(device, package: str, process) -> ProcessImage:
    binder_state = device.binder.state_of(process)
    refs = [_classify_ref(device, package, raw)
            for raw in binder_state["refs"]]
    for ref in refs:
        if ref.kind is BinderRefKind.EXTERNAL_NON_SYSTEM:
            process.thaw()
            raise MigrationError(
                MigrationRefusal.EXTERNAL_BINDER_CONNECTION,
                f"handle {ref.handle} -> {ref.label!r}")

    fds = [FdImage(fd=entry.fd, description=entry.obj.describe())
           for entry in process.fds.entries()]
    threads = [ThreadImage(tid=t.tid, name=t.name, context=dict(t.context))
               for t in process.live_threads()]
    regions = []
    for region in process.memory:
        if region.device_specific:
            process.thaw()
            raise MigrationError(
                MigrationRefusal.DEVICE_STATE_RESIDUE,
                f"device-specific region {region.name!r} at checkpoint")
        regions.append(region.clone())

    driver_state: Dict[str, Dict] = {}
    for driver in device.kernel.drivers():
        state = driver.checkpoint_state(process)
        if state is not None:
            driver_state[driver.name] = state

    return ProcessImage(
        name=process.name, virtual_pid=process.pid, uid=process.uid,
        regions=regions, threads=threads, fds=fds, binder_refs=refs,
        owned_node_labels=[n["label"]
                           for n in binder_state["owned_nodes"]],
        driver_state=driver_state)


def _classify_ref(device, package: str, raw: Dict) -> BinderRefImage:
    """The three-way (plus anonymous) classification of §3.3."""
    if raw["owner_package"] == package:
        kind = BinderRefKind.INTERNAL
        service_name = None
    elif raw["system_service"]:
        service_name = device.service_manager.name_of_node(raw["node_id"])
        if service_name is not None:
            kind = BinderRefKind.EXTERNAL_SYSTEM
        else:
            # A system-service-created per-app object (e.g. a
            # SensorEventConnection): not in the ServiceManager registry;
            # re-created on the guest by a replay proxy.
            kind = BinderRefKind.EXTERNAL_ANONYMOUS
            service_name = None
    else:
        kind = BinderRefKind.EXTERNAL_NON_SYSTEM
        service_name = None
    return BinderRefImage(handle=raw["handle"], kind=kind,
                          service_name=service_name, label=raw["label"],
                          strong_count=raw["strong_count"])
