"""Processes, threads, namespaces, and the kernel proper."""

import pytest

from repro.android.kernel import (
    Kernel,
    KernelError,
    NamespaceError,
    PIDNamespace,
    ProcessError,
    ProcessState,
    ThreadState,
)
from repro.sim import SimClock


@pytest.fixture
def kernel():
    return Kernel(SimClock(), version="3.4")


class TestProcess:
    def test_main_thread_tid_equals_pid(self, kernel):
        process = kernel.create_process("app")
        assert process.main_thread.tid == process.pid

    def test_spawn_thread_increments_tid(self, kernel):
        process = kernel.create_process("app")
        t = process.spawn_thread("worker")
        assert t.tid == process.pid + 1

    def test_freeze_thaw_round_trip(self, kernel):
        process = kernel.create_process("app")
        process.spawn_thread("worker")
        process.freeze()
        assert process.state is ProcessState.FROZEN
        assert all(t.state is ThreadState.FROZEN for t in process.threads)
        process.thaw()
        assert process.state is ProcessState.ALIVE
        assert all(t.state is ThreadState.RUNNING for t in process.threads)

    def test_thaw_requires_frozen(self, kernel):
        process = kernel.create_process("app")
        with pytest.raises(ProcessError):
            process.thaw()

    def test_memory_footprint(self, kernel):
        from repro.android.kernel import MemoryRegion, RegionKind
        process = kernel.create_process("app")
        process.memory.map(MemoryRegion("h", RegionKind.HEAP, 4096))
        assert process.memory_footprint() == 4096


class TestKernel:
    def test_pid_allocation_monotonic(self, kernel):
        a = kernel.create_process("a")
        b = kernel.create_process("b")
        assert b.pid > a.pid

    def test_explicit_pid(self, kernel):
        process = kernel.create_process("a", pid=5000)
        assert process.pid == 5000
        with pytest.raises(KernelError):
            kernel.create_process("b", pid=5000)

    def test_kill_removes_process_and_releases_wakelocks(self, kernel):
        process = kernel.create_process("a")
        kernel.wakelocks.acquire(process, "lock")
        kernel.kill_process(process.pid)
        assert not kernel.has_pid(process.pid)
        assert kernel.wakelocks.can_sleep
        with pytest.raises(KernelError):
            kernel.process(process.pid)

    def test_processes_of_package(self, kernel):
        kernel.create_process("a:main", package="a")
        kernel.create_process("a:push", package="a")
        kernel.create_process("b:main", package="b")
        assert len(kernel.processes_of_package("a")) == 2

    def test_duplicate_driver_rejected(self, kernel):
        from repro.android.kernel.drivers.logger import LoggerDriver
        with pytest.raises(KernelError):
            kernel.register_driver(LoggerDriver(kernel))

    def test_unknown_driver_rejected(self, kernel):
        with pytest.raises(KernelError):
            kernel.driver("gpu")


class TestPIDNamespace:
    def test_bind_and_translate(self):
        ns = PIDNamespace("test")
        ns.bind(100, 4242)
        assert ns.to_real(100) == 4242
        assert ns.to_virtual(4242) == 100
        assert ns.has_virtual(100)

    def test_duplicate_bind_rejected(self):
        ns = PIDNamespace()
        ns.bind(100, 4242)
        with pytest.raises(NamespaceError):
            ns.bind(100, 5555)
        with pytest.raises(NamespaceError):
            ns.bind(200, 4242)

    def test_unknown_lookup_rejected(self):
        ns = PIDNamespace()
        with pytest.raises(NamespaceError):
            ns.to_real(1)
        with pytest.raises(NamespaceError):
            ns.to_virtual(1)

    def test_kill_unbinds_from_namespaces(self):
        kernel = Kernel(SimClock())
        process = kernel.create_process("a")
        ns = kernel.create_pid_namespace("flux")
        ns.bind(999, process.pid)
        kernel.kill_process(process.pid)
        assert len(ns) == 0

    def test_exit_of_last_bound_process_drops_namespace(self):
        kernel = Kernel(SimClock())
        first, second = kernel.create_process("a"), kernel.create_process("b")
        ns = kernel.create_pid_namespace("flux")
        ns.bind(1, first.pid)
        ns.bind(2, second.pid)
        kernel.kill_process(first.pid)
        assert kernel.namespaces() == [ns]
        kernel.kill_process(second.pid)
        assert kernel.namespaces() == []

    def test_unrelated_exit_keeps_a_namespace_being_filled(self):
        """A restore creates its namespace before binding anything."""
        kernel = Kernel(SimClock())
        other = kernel.create_process("other")
        ns = kernel.create_pid_namespace("flux")
        kernel.kill_process(other.pid)
        assert kernel.namespaces() == [ns]

    def test_same_virtual_pid_in_two_namespaces(self):
        """The whole point: identical virtual pids may coexist."""
        ns1, ns2 = PIDNamespace(), PIDNamespace()
        ns1.bind(42, 100)
        ns2.bind(42, 200)
        assert ns1.to_real(42) == 100
        assert ns2.to_real(42) == 200
