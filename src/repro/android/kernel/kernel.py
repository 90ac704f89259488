"""The simulated Android/Linux kernel.

One :class:`Kernel` instance exists per device.  It owns the process
table, PID allocation, PID namespaces, and the Android-specific drivers
(Binder is attached by :mod:`repro.android.binder` since its logic lives
there).  The kernel version string matters: the paper migrates between
kernels 3.1 and 3.4, and CRIA records the source version in the image.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.android.kernel.drivers.alarm_dev import AlarmDriver
from repro.android.kernel.drivers.ashmem import AshmemDriver
from repro.android.kernel.drivers.base import Driver, DriverError
from repro.android.kernel.drivers.logger import LoggerDriver
from repro.android.kernel.drivers.pmem import PmemDriver
from repro.android.kernel.drivers.wakelock import WakelockDriver
from repro.android.kernel.namespace import PIDNamespace
from repro.android.kernel.process import Process, ProcessError, ProcessState
from repro.sim.clock import SimClock


class KernelError(Exception):
    """Kernel-level failures."""


class Kernel:
    def __init__(self, clock: SimClock, version: str = "3.4",
                 hostname: str = "device") -> None:
        self.clock = clock
        self.version = version
        self.hostname = hostname
        self._next_pid = 100
        self._processes: Dict[int, Process] = {}
        self._namespaces: List[PIDNamespace] = []
        self._drivers: Dict[str, Driver] = {}
        self.binder = None  # attached by repro.android.binder.BinderDriver
        #: Called with each exiting process, so per-process state kept
        #: outside the kernel (the GL stack) dies with it.
        self.exit_hooks: List[Callable[[Process], None]] = []

        for driver_cls in (AshmemDriver, PmemDriver, LoggerDriver,
                           AlarmDriver, WakelockDriver):
            self.register_driver(driver_cls(self))

    # -- drivers -----------------------------------------------------------

    def register_driver(self, driver: Driver) -> None:
        if driver.name in self._drivers:
            raise KernelError(f"driver {driver.name!r} already registered")
        self._drivers[driver.name] = driver

    def driver(self, name: str) -> Driver:
        try:
            return self._drivers[name]
        except KeyError:
            raise KernelError(f"no driver {name!r}") from None

    @property
    def ashmem(self) -> AshmemDriver:
        return self._drivers["ashmem"]  # type: ignore[return-value]

    @property
    def pmem(self) -> PmemDriver:
        return self._drivers["pmem"]  # type: ignore[return-value]

    @property
    def logger(self) -> LoggerDriver:
        return self._drivers["logger"]  # type: ignore[return-value]

    @property
    def alarm(self) -> AlarmDriver:
        return self._drivers["alarm"]  # type: ignore[return-value]

    @property
    def wakelocks(self) -> WakelockDriver:
        return self._drivers["wakelock"]  # type: ignore[return-value]

    def drivers(self) -> List[Driver]:
        return list(self._drivers.values())

    def close(self) -> None:
        """World teardown: cut every driver's edge back to this kernel,
        Binder's included.  Processes and namespaces stay readable."""
        for driver in self._drivers.values():
            driver.close()
        self.exit_hooks = []
        if self.binder is not None:
            self.binder.close()

    # -- processes ---------------------------------------------------------

    def create_process(self, name: str, uid: int = 10000,
                       package: Optional[str] = None,
                       pid: Optional[int] = None) -> Process:
        if pid is None:
            pid = self._allocate_pid()
        elif pid in self._processes:
            raise KernelError(f"pid {pid} already in use")
        else:
            self._next_pid = max(self._next_pid, pid + 1)
        process = Process(pid=pid, name=name, uid=uid, package=package)
        process.spawn_thread("main")
        self._processes[pid] = process
        return process

    def kill_process(self, pid: int, exit_code: int = 0) -> None:
        process = self.process(pid)
        process.state = ProcessState.DEAD
        process.exit_code = exit_code
        for thread in process.threads:
            thread.state = thread.state.__class__.DEAD
        self.wakelocks.release_all(pid)
        if self.binder is not None:
            self.binder.release_process(process)
        for hook in self.exit_hooks:
            hook(process)
        # A namespace lives as long as a process is bound in it: the
        # exit of its last one (the app migrated away) drops it.
        self._namespaces = [ns for ns in self._namespaces
                            if not (ns.unbind_real(pid) and not len(ns))]
        del self._processes[pid]

    def process(self, pid: int) -> Process:
        try:
            return self._processes[pid]
        except KeyError:
            raise KernelError(f"no process with pid {pid}") from None

    def has_pid(self, pid: int) -> bool:
        return pid in self._processes

    def processes(self) -> List[Process]:
        return list(self._processes.values())

    def processes_of_package(self, package: str) -> List[Process]:
        return [p for p in self._processes.values() if p.package == package]

    def _allocate_pid(self) -> int:
        while self._next_pid in self._processes:
            self._next_pid += 1
        pid = self._next_pid
        self._next_pid += 1
        return pid

    # -- namespaces --------------------------------------------------------

    def create_pid_namespace(self, name: str = "") -> PIDNamespace:
        ns = PIDNamespace(name)
        self._namespaces.append(ns)
        return ns

    def destroy_pid_namespace(self, ns: PIDNamespace) -> None:
        """Drop a namespace (rollback of a failed restore).

        Any processes still bound inside it must be killed first;
        killing them already unbinds their pids from every namespace,
        and killing the last one already drops a namespace that had
        bindings, so this only matters for one that never had any.
        """
        try:
            self._namespaces.remove(ns)
        except ValueError:
            pass

    def namespaces(self) -> List[PIDNamespace]:
        return list(self._namespaces)
