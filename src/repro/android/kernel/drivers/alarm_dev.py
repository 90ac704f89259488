"""Kernel alarm driver.

Backs the AlarmManagerService: alarms fire at absolute virtual-clock
deadlines regardless of "sleep" state.  Per the paper, CRIA does not need
to checkpoint this driver directly because only system services use it;
app-visible alarm state migrates via Selective Record/Adaptive Replay.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.android.kernel.drivers.base import Driver, DriverError
from repro.sim.clock import TimerHandle


@dataclass
class KernelAlarm:
    alarm_id: int
    deadline: float
    callback: Callable[[], None]
    handle: TimerHandle = field(repr=False, default=None)  # type: ignore[assignment]


class AlarmDriver(Driver):
    name = "alarm"

    def __init__(self, kernel) -> None:
        super().__init__(kernel)
        self._ids = itertools.count(1)
        self._alarms: Dict[int, KernelAlarm] = {}

    def set_alarm(self, deadline: float, callback: Callable[[], None]) -> KernelAlarm:
        alarm_id = next(self._ids)

        def fire() -> None:
            self._alarms.pop(alarm_id, None)
            callback()

        handle = self.kernel.clock.call_at(deadline, fire)
        alarm = KernelAlarm(alarm_id=alarm_id, deadline=deadline,
                            callback=callback, handle=handle)
        self._alarms[alarm_id] = alarm
        return alarm

    def cancel(self, alarm_id: int) -> None:
        alarm = self._alarms.pop(alarm_id, None)
        if alarm is None:
            raise DriverError(f"alarm {alarm_id} not set")
        alarm.handle.cancel()

    def close(self) -> None:
        """World teardown: drop every pending alarm.  Its callback
        holds the service that set it, which reaches this driver (the
        timer itself goes when the world closes the clock)."""
        self._alarms.clear()
        super().close()

    def pending(self) -> int:
        return len(self._alarms)

    def checkpoint_state(self, process) -> None:
        # Only system services hold kernel alarms; app alarm state is
        # carried by Selective Record/Adaptive Replay (paper §3.3).
        return None
