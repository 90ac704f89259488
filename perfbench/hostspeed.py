"""Host-speed calibration: a fixed kernel timed between units of work.

On a shared VM the same code runs up to about 2x slower for stretches of
seconds to minutes, and a 20-second run mean still moves by 15-30%
between runs.  The benchmark therefore times this kernel before every
unit of work (a handoff round, a fleet site, a setup) and reports each
epoch's times scaled to a host on which the kernel takes ``NOMINAL_S``:

    reported = measured * (NOMINAL_S / mean kernel seconds) ** ELASTICITY

The kernel is pure Python over a frozen heap of about 80 MB of linked
objects, so it is sensitive to the same interpreter and memory-hierarchy
contention as the simulator.  It never calls the program, so a change to
the program leaves it unchanged.  The simulator's time varies somewhat
more strongly with contention than the kernel's: the slope of log
program time on log kernel time was 1.22 over 750 paired samples of a
handoff round and a kernel run on a 2-vCPU x86 VM, hence
``ELASTICITY``.  There, scaling cut the spread of run throughput
(IQR / median over ten runs) from 16% to 9% on ``handoff-quiet``.
"""

from __future__ import annotations

import gc
import random
import time

#: Kernel seconds on the reference host (a 2-vCPU x86 VM, fast phase).
NOMINAL_S = 0.025
ELASTICITY = 1.25
HEAP_NODES = 200_000
LINKS = 3
VISITS = 5_000


class _Node:
    __slots__ = ("key", "value", "links")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = {"a": key, "b": str(key)}
        self.links = ()


class HostSpeed:
    """The calibration heap plus running totals of kernel time."""

    def __init__(self) -> None:
        rng = random.Random(1)
        heap = [_Node(i) for i in range(HEAP_NODES)]
        for node in heap:
            node.links = tuple(heap[rng.randrange(HEAP_NODES)]
                               for _ in range(LINKS))
        self._heap = heap
        self._visits = [rng.randrange(HEAP_NODES) for _ in range(VISITS)]
        # The heap lives for the whole run: keep it out of every
        # collection, so it does not slow the program's own GC.
        gc.freeze()
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.samples = 0

    def _kernel(self) -> int:
        heap, total, seen = self._heap, 0, {}
        for index in self._visits:
            for node in heap[index].links:
                total += node.value["a"]
                seen[node.key & 1023] = node.value["b"]
        return total + len(seen)

    def sample(self) -> None:
        """Time one run of the kernel."""
        cpu0, wall0 = time.process_time(), time.perf_counter()
        self._kernel()
        self.wall_s += time.perf_counter() - wall0
        self.cpu_s += time.process_time() - cpu0
        self.samples += 1


def host_scale(kernel_s: float, runs: int) -> float:
    """Factor from measured to reference-host time, for work timed
    alongside ``runs`` kernel runs that took ``kernel_s`` in all."""
    return (NOMINAL_S * runs / kernel_s) ** ELASTICITY
