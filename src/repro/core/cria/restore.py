"""CRIA restore: resurrect a checkpoint image on the guest device.

The app is restored *into the wrapper app* created at pairing (paper
§3.1): a fresh process inside a private PID namespace so the app keeps
its old pid, jailed to the synced filesystem.  Binder references to
named system services are re-injected under their original handle ids
against the guest's equivalents; anonymous references (sensor
connections) are left pending for the replay proxies; file descriptors
are re-created, with original socket descriptor numbers *reserved* so
replay can dup2 fresh sockets into them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.android.kernel.files import DeviceFile, OpenFile
from repro.core.cria.errors import (
    CheckpointError,
    MigrationError,
    MigrationRefusal,
)
from repro.core.cria.image import BinderRefKind, CheckpointImage, ProcessImage


class RestoreFault(CheckpointError):
    """An injected restore failure (see :class:`RestoreFaultPlan`)."""


@dataclass(frozen=True)
class RestoreFaultPlan:
    """Fail the restore after N completed sub-operations.

    Restore proceeds in counted steps (per process: memory, threads,
    fds, binder injection, driver state, freeze; plus the final rebind).
    ``fail_after_steps=N`` raises :class:`RestoreFault` once N steps have
    completed — deterministically, at a layer boundary — so tests can
    probe every intermediate state the guest can be left in.
    """

    fail_after_steps: int

    def __post_init__(self) -> None:
        if self.fail_after_steps < 0:
            raise ValueError(
                f"bad fail_after_steps {self.fail_after_steps!r}")


class _StepCounter:
    def __init__(self, plan: Optional[RestoreFaultPlan], device,
                 package: str) -> None:
        self._plan = plan
        self._events = device.events
        self._package = package
        self._series = device.restore_steps
        self.steps = 0

    def tick(self, label: str) -> None:
        """One restore sub-operation completed; fire the fault if due."""
        if (self._plan is not None
                and self.steps >= self._plan.fail_after_steps):
            self._events.emit("cria.restore_fault", app=self._package,
                              steps_completed=self.steps, next_step=label)
            raise RestoreFault(
                f"injected restore fault after {self.steps} steps "
                f"(before {label})")
        self.steps += 1
        self._series[self._package, label].inc()
        self._events.emit("cria.restore_step", app=self._package,
                          step=label, n=self.steps)


@dataclass
class RestoredApp:
    package: str
    thread: object                 # the re-bound ActivityThread
    process: object                # guest kernel process (main)
    namespace: object              # private PID namespace
    pending_refs: List[object] = field(default_factory=list)
    reserved_fds: List[int] = field(default_factory=list)
    services_rebound: List[str] = field(default_factory=list)
    secondary_processes: List[object] = field(default_factory=list)


def rollback_restore(device, namespace, processes) -> None:
    """Erase a (possibly partial) restore from the guest.

    Kills every process the restore created (killing also unbinds its
    pid from all namespaces) and drops the private namespace — the guest
    is left exactly as if the restore never started.  Idempotent: dead
    pids and an already-removed namespace are skipped.
    """
    for process in processes:
        if device.kernel.has_pid(process.pid):
            device.kernel.kill_process(process.pid)
    if namespace is not None:
        device.kernel.destroy_pid_namespace(namespace)


def restore_app(device, image: CheckpointImage,
                fault_plan: Optional[RestoreFaultPlan] = None) -> RestoredApp:
    """Restore ``image`` on ``device`` (the guest).

    Atomic with respect to guest state: any failure (a real
    :class:`CheckpointError` or an injected :class:`RestoreFault`)
    rolls back everything created so far — partial processes are
    killed and the private PID namespace is dropped — before the error
    propagates.  The checkpointed thread is only rebound to the guest
    after every process restored, so a failed restore never leaves the
    app's heap pointing at the guest.
    """
    package = image.package
    _check_wrapper(device, image)

    counter = _StepCounter(fault_plan, device, package)
    namespace = device.kernel.create_pid_namespace(f"flux:{package}")

    main_process = None
    secondary = []
    created = []
    pending: List[object] = []
    reserved: List[int] = []
    try:
        for proc_image in image.processes:
            process = device.kernel.create_process(
                proc_image.name, uid=proc_image.uid, package=package)
            created.append(process)
            namespace.bind(proc_image.virtual_pid, process.pid)
            counter.tick("memory")
            _restore_memory(process, proc_image)
            counter.tick("threads")
            _restore_threads(process, proc_image)
            counter.tick("fds")
            reserved.extend(_restore_fds(process, proc_image))
            counter.tick("binder")
            pending.extend(_restore_binder(device, process, proc_image))
            counter.tick("drivers")
            _restore_drivers(device, process, proc_image)
            counter.tick("freeze")
            process.freeze()   # thawed at reintegration
            if main_process is None:
                main_process = process
            else:
                secondary.append(process)
        counter.tick("rebind")
    except Exception:
        rollback_restore(device, namespace, created)
        device.metrics.counter("cria", "restore_rollbacks",
                               app=package).inc()
        device.events.emit("cria.restore_rollback", app=package,
                           processes_killed=len(created),
                           steps_completed=counter.steps)
        raise

    thread = image.app_payload
    thread.rebind(device.framework, main_process)
    device.activity_service.attach_application(package, thread)

    restored = RestoredApp(
        package=package, thread=thread, process=main_process,
        namespace=namespace, pending_refs=pending, reserved_fds=reserved,
        services_rebound=image.external_service_names(),
        secondary_processes=secondary)
    return restored


def _check_wrapper(device, image: CheckpointImage) -> None:
    package = image.package
    if not device.package_service.is_installed(package):
        raise MigrationError(MigrationRefusal.NOT_PAIRED,
                             f"{package} has no wrapper on {device.name}")
    if image.api_level > device.profile.api_level:
        raise MigrationError(
            MigrationRefusal.API_LEVEL_INCOMPATIBLE,
            f"app needs API {image.api_level}, guest has "
            f"{device.profile.api_level}")


def _restore_memory(process, proc_image: ProcessImage) -> None:
    for region in proc_image.regions:
        restored = region.clone()
        process.memory.map(restored)
        if restored.content_hash() != region.content_hash():
            raise CheckpointError(
                f"memory corruption restoring region {region.name!r}")


def _restore_threads(process, proc_image: ProcessImage) -> None:
    # The main thread exists; recreate the rest and inject contexts.
    for i, thread_image in enumerate(proc_image.threads):
        if i == 0:
            target = process.main_thread
        else:
            target = process.spawn_thread(thread_image.name)
        target.context = dict(thread_image.context)


def _restore_fds(process, proc_image: ProcessImage) -> List[int]:
    """Recreate descriptors; sockets get their numbers reserved."""
    reserved: List[int] = []
    for fd_image in proc_image.fds:
        desc = fd_image.description
        kind = desc.get("kind")
        if kind == "file":
            process.fds.install(OpenFile(desc["path"], desc["flags"],
                                         desc["offset"]), fd=fd_image.fd)
        elif kind == "unix-socket":
            # The peer lives in a home-device service; a replay proxy
            # will dup2 a fresh guest socket into this number.
            process.fds.reserve(fd_image.fd, f"socket:{desc.get('label', '')}")
            reserved.append(fd_image.fd)
        elif kind == "network-file":
            from repro.android.kernel.files import NetworkFile
            process.fds.install(
                NetworkFile(desc["path"], host=desc["host"],
                            flags=desc["flags"], offset=desc["offset"]),
                fd=fd_image.fd)
        elif kind == "device":
            process.fds.install(DeviceFile(desc["driver"],
                                           dict(desc.get("state", {}))),
                                fd=fd_image.fd)
        elif kind == "pipe":
            process.fds.reserve(fd_image.fd, "pipe")
            reserved.append(fd_image.fd)
        else:
            raise CheckpointError(f"unknown fd kind {kind!r}")
    return reserved


def _restore_binder(device, process, proc_image: ProcessImage) -> List[object]:
    """Re-inject references under their original handle ids (paper §3.3)."""
    pending = []
    driver = device.binder
    for ref in proc_image.binder_refs:
        if ref.kind is BinderRefKind.EXTERNAL_SYSTEM:
            node = device.service_manager.node_of(ref.service_name)
            if node is None:
                raise MigrationError(
                    MigrationRefusal.NOT_PAIRED,
                    f"guest lacks system service {ref.service_name!r}")
            driver.inject_ref(process, ref.handle, node)
        elif ref.kind is BinderRefKind.INTERNAL:
            # Both ends are inside the app: recreate a node owned by the
            # restored process and point the handle at it.
            node = driver.create_node(process, None, ref.label)
            driver.inject_ref(process, ref.handle, node)
        elif ref.kind is BinderRefKind.EXTERNAL_ANONYMOUS:
            pending.append(ref)
        else:
            raise CheckpointError(
                f"unmigratable ref {ref.label!r} survived checkpoint")
    return pending


def _restore_drivers(device, process, proc_image: ProcessImage) -> None:
    for driver_name, state in proc_image.driver_state.items():
        device.kernel.driver(driver_name).restore_state(process, state)
