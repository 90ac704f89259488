"""Intents, PendingIntents, and broadcast receivers.

Intents are Android's messaging objects (paper §2).  Apps register
BroadcastReceivers with the ActivityManagerService; system services
broadcast Intents (connectivity changes, alarm expiry) that the AMS
routes to matching receivers.  PendingIntent identity matters: the
AlarmManager drop rules match on the ``operation`` PendingIntent, and two
PendingIntents compare equal when package, action, and request code all
match — mirroring Android's ``PendingIntent`` equality contract.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple


class Intent:
    """A messaging object: action plus extras, optionally explicit."""

    def __init__(self, action: str, component: Optional[str] = None,
                 **extras: Any) -> None:
        self.action = action
        self.component = component   # explicit target package, when set
        self.extras: Dict[str, Any] = dict(extras)

    def get_extra(self, key: str, default: Any = None) -> Any:
        return self.extras.get(key, default)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Intent):
            return NotImplemented
        return (self.action == other.action
                and self.component == other.component
                and self.extras == other.extras)

    def __hash__(self) -> int:
        return hash((self.action, self.component))

    def __repr__(self) -> str:
        return f"Intent(action={self.action!r}, component={self.component!r})"


@dataclass(frozen=True)
class IntentFilter:
    actions: Tuple[str, ...]

    def matches(self, intent: Intent) -> bool:
        return intent.action in self.actions


class PendingIntent:
    """A token allowing another process to fire an Intent as this app.

    Equality follows Android: same creator package, action, and request
    code are the *same* PendingIntent (this drives AlarmManager @if
    matching).
    """

    _ids = itertools.count(1)

    def __init__(self, creator_package: str, intent: Intent,
                 request_code: int = 0) -> None:
        self.token_id = next(self._ids)
        self.creator_package = creator_package
        self.intent = intent
        self.request_code = request_code

    def _identity(self) -> Tuple[str, str, int]:
        return (self.creator_package, self.intent.action, self.request_code)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PendingIntent):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def __repr__(self) -> str:
        return (f"PendingIntent({self.creator_package!r}, "
                f"{self.intent.action!r}, rc={self.request_code})")


class BroadcastReceiver:
    """App-side listener for broadcast Intents."""

    _ids = itertools.count(1)

    def __init__(self, callback: Callable[[Intent], None],
                 intent_filter: IntentFilter,
                 owner_package: str = "") -> None:
        self.receiver_id = next(self._ids)
        self.callback = callback
        self.intent_filter = intent_filter
        self.owner_package = owner_package

    def on_receive(self, intent: Intent) -> None:
        self.callback(intent)

    def __repr__(self) -> str:
        return (f"BroadcastReceiver(id={self.receiver_id}, "
                f"actions={self.intent_filter.actions})")


# Well-known broadcast actions used across the framework and tests.
ACTION_CONNECTIVITY_CHANGE = "android.net.conn.CONNECTIVITY_CHANGE"
ACTION_WIFI_STATE_CHANGED = "android.net.wifi.WIFI_STATE_CHANGED"
ACTION_BATTERY_LOW = "android.intent.action.BATTERY_LOW"
ACTION_AIRPLANE_MODE = "android.intent.action.AIRPLANE_MODE"
ACTION_CONFIGURATION_CHANGED = "android.intent.action.CONFIGURATION_CHANGED"
