"""Deterministic virtual clock used by every component of the simulation.

All timing results reported by the benchmark harness come from this clock,
never from wall-clock time.  Components *charge* durations for the work
they model (CPU time for a checkpoint, wire time for a transfer) and the
clock advances accordingly.  Timers (e.g. the AlarmManagerService) register
callbacks that fire as the clock sweeps past their deadlines.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional


class ClockError(Exception):
    """Raised on invalid clock operations (e.g. moving time backwards)."""


@dataclass(order=True)
class _Timer:
    deadline: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    popped: bool = field(default=False, compare=False)


class TimerHandle:
    """Handle returned by :meth:`SimClock.call_at`; allows cancellation."""

    def __init__(self, timer: _Timer, clock: "SimClock") -> None:
        self._timer = timer
        self._clock = clock

    def cancel(self) -> None:
        timer = self._timer
        if timer.cancelled or timer.popped:
            return
        timer.cancelled = True
        self._clock._cancelled += 1

    @property
    def deadline(self) -> float:
        return self._timer.deadline

    @property
    def cancelled(self) -> bool:
        return self._timer.cancelled


class SimClock:
    """A monotonically advancing virtual clock with scheduled callbacks.

    The clock counts seconds as floats.  ``advance`` moves time forward,
    firing any timers whose deadlines are crossed, in deadline order.
    """

    #: Compact the heap once at least this many cancelled entries are
    #: buried in it *and* they outnumber the live ones; below the floor a
    #: rebuild costs more than the dead entries do.
    COMPACT_FLOOR = 64

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._timers: List[_Timer] = []
        self._seq = itertools.count()
        self._cancelled = 0
        self._dispatch_seq = 0
        self._dispatch = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def dispatch_token(self) -> int:
        """Identity of the innermost timer callback currently running.

        0 outside any dispatch.  Each fired timer gets a fresh token for
        the duration of its callback; nested advances push new tokens
        and restore the old one when they return.  Observers (the
        scheduler's time ledger) use this to tell whether a piece of
        code was reached synchronously from a given frame — same token
        — or through a timer callback that fired in between.
        """
        return self._dispatch

    def advance(self, seconds: float) -> None:
        """Move time forward by ``seconds``, firing due timers in order."""
        if seconds < 0:
            raise ClockError(f"cannot advance clock by {seconds!r} seconds")
        self.advance_to(self._now + seconds)

    def advance_to(self, deadline: float) -> None:
        """Move time forward to an absolute ``deadline``.

        Re-entrant: a timer callback may itself advance the clock (a
        resumed session charging time synchronously).  The nested sweep
        shares the heap, and the outer sweep resumes from wherever the
        nested one left ``now`` — time never moves backwards.
        """
        if deadline < self._now:
            raise ClockError(
                f"cannot move clock backwards from {self._now} to {deadline}"
            )
        # Fire timers one at a time; a callback may schedule new timers,
        # which fire in this sweep too when due before the deadline.
        while self._timers and self._timers[0].deadline <= deadline:
            timer = heapq.heappop(self._timers)
            timer.popped = True
            if timer.cancelled:
                self._cancelled -= 1
                continue
            self._now = max(self._now, timer.deadline)
            outer = self._dispatch
            self._dispatch_seq += 1
            self._dispatch = self._dispatch_seq
            try:
                timer.callback()
            finally:
                self._dispatch = outer
        self._now = max(self._now, deadline)
        self._compact()

    def call_at(self, deadline: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to run when the clock reaches ``deadline``.

        A deadline in the past fires on the next advance (immediately at
        the current time), matching how an expired alarm behaves.
        """
        timer = _Timer(deadline=deadline, seq=next(self._seq), callback=callback)
        heapq.heappush(self._timers, timer)
        return TimerHandle(timer, self)

    def call_after(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ClockError(f"negative delay {delay!r}")
        return self.call_at(self._now + delay, callback)

    def pending_timers(self) -> int:
        """Number of scheduled, uncancelled timers (O(1))."""
        return len(self._timers) - self._cancelled

    def next_deadline(self) -> Optional[float]:
        """Earliest pending deadline, or None when nothing is scheduled."""
        self._prune_head()
        return self._timers[0].deadline if self._timers else None

    def close(self) -> None:
        """Drop every pending timer and its callback.

        Called by whoever owns the clock once its world is finished:
        a pending callback (a battery check, a kernel alarm, a parked
        session) holds the object that scheduled it, which holds the
        clock, so the heap is the clock's only edge back into the
        world.  Time itself stays readable.
        """
        for timer in self._timers:
            timer.cancelled = timer.popped = True
            timer.callback = None
        self._timers = []
        self._cancelled = 0

    def _prune_head(self) -> None:
        """Pop cancelled entries off the top of the heap."""
        while self._timers and self._timers[0].cancelled:
            heapq.heappop(self._timers).popped = True
            self._cancelled -= 1

    def _compact(self) -> None:
        """Lazily drop cancelled timers buried in the heap.

        Cancellation only flags the entry; long multi-session scenarios
        would otherwise accumulate dead entries for every rescheduled
        flow.  Rebuilding is O(n), amortised by the floor check.
        """
        if (self._cancelled >= self.COMPACT_FLOOR
                and self._cancelled * 2 > len(self._timers)):
            for timer in self._timers:
                if timer.cancelled:
                    timer.popped = True
            self._timers = [t for t in self._timers if not t.cancelled]
            heapq.heapify(self._timers)
            self._cancelled = 0
