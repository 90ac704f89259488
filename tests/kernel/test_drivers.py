"""Android-specific drivers: ashmem, pmem, logger, alarm, wakelocks."""

import pytest

from repro.android.kernel import Kernel
from repro.android.kernel.drivers.base import DriverError
from repro.android.kernel.memory import RegionKind
from repro.sim import SimClock


@pytest.fixture
def kernel():
    return Kernel(SimClock())


@pytest.fixture
def process(kernel):
    return kernel.create_process("app", package="app")


class TestAshmem:
    def test_create_map_unmap(self, kernel, process):
        kernel.ashmem.create_region(process, "dalvik-heap", 4096)
        mapping = kernel.ashmem.map_region(process, "dalvik-heap")
        assert mapping.kind is RegionKind.ASHMEM
        assert process.memory.has("ashmem:dalvik-heap")
        kernel.ashmem.unmap_region(process, "dalvik-heap")
        assert not process.memory.has("ashmem:dalvik-heap")

    def test_duplicate_region_rejected(self, kernel, process):
        kernel.ashmem.create_region(process, "x", 1)
        with pytest.raises(DriverError):
            kernel.ashmem.create_region(process, "x", 1)

    def test_checkpoint_restore_round_trip(self, kernel, process):
        kernel.ashmem.create_region(process, "named", 2048)
        kernel.ashmem.map_region(process, "named")
        state = kernel.ashmem.checkpoint_state(process)
        assert state == {"regions": [{"name": "named", "size": 2048}]}

        other_kernel = Kernel(SimClock())
        other = other_kernel.create_process("app", package="app")
        other_kernel.ashmem.restore_state(other, state)
        assert other.memory.has("ashmem:named")

    def test_no_state_when_unused(self, kernel, process):
        assert kernel.ashmem.checkpoint_state(process) is None


class TestPmem:
    def test_allocate_maps_device_specific_region(self, kernel, process):
        alloc = kernel.pmem.allocate(process, 1 << 20, "gl-texture-pool")
        region = process.memory.get(f"pmem:{alloc.alloc_id}")
        assert region.device_specific

    def test_free_all_returns_bytes(self, kernel, process):
        kernel.pmem.allocate(process, 100, "a")
        kernel.pmem.allocate(process, 200, "b")
        assert kernel.pmem.free_all(process) == 300
        assert kernel.pmem.allocations_of(process.pid) == []

    def test_checkpoint_with_live_allocation_rejected(self, kernel, process):
        kernel.pmem.allocate(process, 100, "a")
        with pytest.raises(DriverError):
            kernel.pmem.checkpoint_state(process)

    def test_bad_size_rejected(self, kernel, process):
        with pytest.raises(DriverError):
            kernel.pmem.allocate(process, 0, "zero")

    def test_resize_grows_and_shrinks_the_mapping(self, kernel, process):
        alloc = kernel.pmem.allocate(process, 100, "gl-buffer")
        base = process.memory_footprint()
        kernel.pmem.resize(process, alloc, 400)
        assert alloc.size == alloc.region.size == 400
        assert process.memory_footprint() == base + 300
        kernel.pmem.resize(process, alloc, 50)
        assert process.memory_footprint() == base - 50
        with pytest.raises(DriverError):
            kernel.pmem.resize(process, alloc, 0)
        kernel.pmem.free(process, alloc)
        with pytest.raises(DriverError):
            kernel.pmem.resize(process, alloc, 10)


class TestLogger:
    def test_write_read_filter_by_pid(self, kernel, process):
        other = kernel.create_process("other")
        kernel.logger.write(process, "App", "hello")
        kernel.logger.write(other, "Other", "noise")
        mine = kernel.logger.read(pid=process.pid)
        assert len(mine) == 1
        assert mine[0].message == "hello"

    def test_keeps_no_per_process_state(self, kernel, process):
        kernel.logger.write(process, "App", "hello")
        assert kernel.logger.checkpoint_state(process) is None

    def test_unknown_buffer_rejected(self, kernel, process):
        with pytest.raises(DriverError):
            kernel.logger.write(process, "t", "m", buffer="bogus")

    def test_ring_buffer_caps_entries(self):
        kernel = Kernel(SimClock())
        from repro.android.kernel.drivers.logger import LoggerDriver
        driver = LoggerDriver(kernel, capacity=3)
        process = kernel.create_process("a")
        for i in range(5):
            driver.write(process, "t", f"m{i}")
        assert [e.message for e in driver.read()] == ["m2", "m3", "m4"]


class TestAlarmDriver:
    def test_alarm_fires_at_deadline(self, kernel):
        fired = []
        kernel.alarm.set_alarm(2.0, lambda: fired.append(kernel.clock.now))
        kernel.clock.advance(3.0)
        assert fired == [2.0]
        assert kernel.alarm.pending() == 0

    def test_cancel_prevents_firing(self, kernel):
        fired = []
        alarm = kernel.alarm.set_alarm(2.0, lambda: fired.append(1))
        kernel.alarm.cancel(alarm.alarm_id)
        kernel.clock.advance(3.0)
        assert fired == []

    def test_cancel_unknown_rejected(self, kernel):
        with pytest.raises(DriverError):
            kernel.alarm.cancel(999)


class TestWakelocks:
    def test_acquire_blocks_sleep(self, kernel, process):
        kernel.wakelocks.acquire(process, "media")
        assert not kernel.wakelocks.can_sleep
        kernel.wakelocks.release(process, "media")
        assert kernel.wakelocks.can_sleep

    def test_release_by_non_holder_rejected(self, kernel, process):
        other = kernel.create_process("other")
        kernel.wakelocks.acquire(process, "media")
        with pytest.raises(DriverError):
            kernel.wakelocks.release(other, "media")

    def test_double_acquire_rejected(self, kernel, process):
        kernel.wakelocks.acquire(process, "media")
        with pytest.raises(DriverError):
            kernel.wakelocks.acquire(process, "media")

    def test_release_all(self, kernel, process):
        kernel.wakelocks.acquire(process, "a")
        kernel.wakelocks.acquire(process, "b")
        assert kernel.wakelocks.release_all(process.pid) == 2
        assert kernel.wakelocks.can_sleep
