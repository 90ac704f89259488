"""NotificationManagerService (paper §3.2's first worked example)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.android.app.notification import Notification, Toast
from repro.android.services.base import ServiceContext, ServiceError, SystemService


class NotificationManagerService(SystemService):
    SERVICE_KEY = "notification"
    DESCRIPTOR = "INotificationManagerService"

    def new_app_state(self) -> Dict[str, Any]:
        return {"active": {}, "toasts": [], "enabled": True}

    # -- AIDL interface ------------------------------------------------------

    def enqueueNotification(self, caller, notification_id: int,
                            notification: Notification) -> None:
        state = self.app_state(caller)
        if not state["enabled"]:
            raise ServiceError(
                f"notifications disabled for {self._package_of(caller)}")
        state["active"][notification_id] = notification

    def cancelNotification(self, caller, notification_id: int) -> None:
        state = self.app_state(caller)
        state["active"].pop(notification_id, None)

    def cancelAllNotifications(self, caller) -> None:
        self.app_state(caller)["active"].clear()

    def enqueueToast(self, caller, text: str, duration: str) -> None:
        self.app_state(caller)["toasts"].append(Toast(text, duration))

    def cancelToast(self, caller, text: str) -> None:
        state = self.app_state(caller)
        state["toasts"] = [t for t in state["toasts"] if t.text != text]

    def setNotificationsEnabled(self, caller, enabled: bool) -> None:
        self.app_state(caller)["enabled"] = bool(enabled)

    def areNotificationsEnabled(self, caller) -> bool:
        return self.app_state(caller)["enabled"]

    def getActiveNotificationCount(self, caller) -> int:
        return len(self.app_state(caller)["active"])

    # -- verification support ---------------------------------------------------

    def snapshot(self, package: str) -> Dict[str, Any]:
        state = self.app_state_or_default(package)
        return {
            "active": {nid: (n.title, n.text)
                       for nid, n in sorted(state["active"].items())},
            "enabled": state["enabled"],
        }
