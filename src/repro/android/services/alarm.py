"""AlarmManagerService (paper §3.2's second worked example).

Alarms are scheduled on the kernel alarm driver; expiry broadcasts the
PendingIntent's Intent (explicitly targeted at the creator package) via
the service context.  Expired alarms leave the service state — but *not*
the record log, which is exactly why replay needs the ``alarmMgrSet``
proxy to skip alarms whose trigger time precedes the checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.android.app.intent import Intent, PendingIntent
from repro.android.services.base import ServiceContext, ServiceError, SystemService


@dataclass
class AlarmEntry:
    alarm_type: int
    trigger_at: float
    operation: PendingIntent
    interval: Optional[float] = None   # repeating alarms
    kernel_alarm_id: Optional[int] = None


class AlarmManagerService(SystemService):
    SERVICE_KEY = "alarm"
    DESCRIPTOR = "IAlarmManagerService"

    def new_app_state(self) -> Dict[str, Any]:
        return {"alarms": {}}   # PendingIntent -> AlarmEntry

    # -- AIDL interface ------------------------------------------------------

    def set(self, caller, alarm_type: int, trigger_at: float,
            operation: PendingIntent) -> None:
        self._set_common(caller, alarm_type, trigger_at, operation, None)

    def setRepeating(self, caller, alarm_type: int, trigger_at: float,
                     interval: float, operation: PendingIntent) -> None:
        if interval <= 0:
            raise ServiceError(f"bad repeat interval {interval!r}")
        self._set_common(caller, alarm_type, trigger_at, operation, interval)

    def remove(self, caller, operation: PendingIntent) -> None:
        state = self.app_state(caller)
        entry = state["alarms"].pop(operation, None)
        if entry is not None and entry.kernel_alarm_id is not None:
            try:
                self.ctx.kernel.alarm.cancel(entry.kernel_alarm_id)
            except Exception:
                pass   # already fired

    def setTime(self, caller, millis: float) -> None:
        raise ServiceError("setTime requires the SET_TIME permission")

    # -- internals -----------------------------------------------------------------

    def _set_common(self, caller, alarm_type: int, trigger_at: float,
                    operation: PendingIntent,
                    interval: Optional[float]) -> None:
        package = self._package_of(caller)
        state = self.app_state(package)
        previous = state["alarms"].pop(operation, None)
        if previous is not None and previous.kernel_alarm_id is not None:
            try:
                self.ctx.kernel.alarm.cancel(previous.kernel_alarm_id)
            except Exception:
                pass
        entry = AlarmEntry(alarm_type=alarm_type, trigger_at=trigger_at,
                           operation=operation, interval=interval)
        self._schedule(package, entry)
        state["alarms"][operation] = entry

    def _schedule(self, package: str, entry: AlarmEntry) -> None:
        def fire() -> None:
            self._on_expiry(package, entry)

        kernel_alarm = self.ctx.kernel.alarm.set_alarm(entry.trigger_at, fire)
        entry.kernel_alarm_id = kernel_alarm.alarm_id

    def _on_expiry(self, package: str, entry: AlarmEntry) -> None:
        intent = entry.operation.intent
        if intent.component is None:
            intent = Intent(intent.action, component=package, **intent.extras)
        self.ctx.send_broadcast(intent)
        state = self.app_state(package)
        if entry.interval is not None:
            entry.trigger_at += entry.interval
            self._schedule(package, entry)
        else:
            state["alarms"].pop(entry.operation, None)

    # -- migration support ------------------------------------------------------------

    def cancel_all_for(self, package: str) -> int:
        """Cancel every kernel alarm an app still has armed.

        Called by the home device's post-migration cleanup: the app's
        alarms now live on the guest; leaving them armed here would fire
        them into a device the app has left.
        """
        if not self.has_app_state(package):
            return 0
        alarms = self.app_state(package)["alarms"]
        for entry in alarms.values():
            if entry.kernel_alarm_id is not None:
                try:
                    self.ctx.kernel.alarm.cancel(entry.kernel_alarm_id)
                except Exception:
                    pass
        count = len(alarms)
        alarms.clear()
        return count

    # -- verification support ---------------------------------------------------------

    def active_alarms(self, package: str) -> List[AlarmEntry]:
        if not self.has_app_state(package):
            return []
        return sorted(self.app_state(package)["alarms"].values(),
                      key=lambda e: e.trigger_at)

    def snapshot(self, package: str) -> Dict[str, Any]:
        return {
            "alarms": [(e.operation.intent.action, e.trigger_at, e.interval)
                       for e in self.active_alarms(package)],
        }
