"""pmem: physically contiguous memory allocator used by the GPU.

pmem allocations are inherently device specific (they name physical
addresses on the home SoC), so CRIA never checkpoints them; instead the
preparation phase must free them.  ``allocations_of`` lets CRIA verify
none remain at checkpoint time.  Allocations are indexed by pid, so a
per-process question never scans the whole device.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

from repro.android.kernel.drivers.base import Driver, DriverError
from repro.android.kernel.memory import MemoryRegion, RegionKind


class PmemAllocation:
    _ids = itertools.count(1)

    def __init__(self, process, size: int, purpose: str) -> None:
        self.alloc_id = next(self._ids)
        self.pid = process.pid
        self.purpose = purpose     # e.g. "gl-texture"
        #: The PMEM mapping backing the allocation; its size is the
        #: allocation's size.
        self.region = process.memory.map(MemoryRegion(
            name=f"pmem:{self.alloc_id}", kind=RegionKind.PMEM, size=size))

    @property
    def size(self) -> int:
        return self.region.size


class PmemDriver(Driver):
    name = "pmem"

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        #: pid -> alloc_id -> allocation; only pids that own pmem.
        self._allocations: Dict[int, Dict[int, PmemAllocation]] = {}

    def allocate(self, process, size: int, purpose: str) -> PmemAllocation:
        if size <= 0:
            raise DriverError(f"bad pmem size {size}")
        alloc = PmemAllocation(process, size, purpose)
        self._allocations.setdefault(process.pid, {})[alloc.alloc_id] = alloc
        return alloc

    def resize(self, process, alloc: PmemAllocation, size: int) -> None:
        """Grow or shrink ``alloc`` (and its mapping) to ``size`` bytes."""
        if size <= 0:
            raise DriverError(f"bad pmem size {size}")
        self._owned(process, alloc)
        alloc.region.size = size

    def free(self, process, alloc: PmemAllocation) -> None:
        per_pid = self._owned(process, alloc)
        del per_pid[alloc.alloc_id]
        if not per_pid:
            del self._allocations[process.pid]
        process.memory.unmap(alloc.region.name)

    def free_all(self, process) -> int:
        """Free every allocation owned by ``process``; returns bytes freed."""
        freed = 0
        for alloc in self.allocations_of(process.pid):
            freed += alloc.size
            self.free(process, alloc)
        return freed

    def allocations_of(self, pid: int) -> List[PmemAllocation]:
        return list(self._allocations.get(pid, {}).values())

    def checkpoint_state(self, process) -> None:
        if process.pid in self._allocations:
            raise DriverError(
                "pmem allocations present at checkpoint; preparation phase "
                "must free GPU memory first")
        return None

    def _owned(self, process, alloc: PmemAllocation
               ) -> Dict[int, PmemAllocation]:
        per_pid = self._allocations.get(process.pid)
        if per_pid is None or alloc.alloc_id not in per_pid:
            raise DriverError(f"pmem allocation {alloc.alloc_id} unknown")
        return per_pid
