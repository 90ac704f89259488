"""The input pipeline: touch events from the driver to the app.

Events injected at the InputManagerService are routed by the
InputDispatcher: system-level gesture listeners (Flux's two-finger-swipe
detector registers here) see every event first and may consume the
stream; otherwise the event reaches the foreground activity, which
hit-tests its view tree.  Views receive ``on_touch`` callbacks; the
whole path is what makes "swipe to migrate" an end-to-end story rather
than a synthetic trigger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.core.migration.gesture import TouchEvent


@dataclass
class DispatchRecord:
    event: TouchEvent
    consumed_by: str        # "gesture" | activity name | "dropped"


class InputDispatcher:
    """Per-device event router."""

    def __init__(self, device) -> None:
        self.device = device
        self._gesture_listeners: List[Callable[[TouchEvent], bool]] = []
        self.dispatched: List[DispatchRecord] = []

    # -- system-level gesture listeners (Flux) -----------------------------------

    def add_gesture_listener(self,
                             listener: Callable[[TouchEvent], bool]) -> None:
        """``listener(event) -> consumed`` sees events before apps do."""
        self._gesture_listeners.append(listener)

    # -- injection & routing --------------------------------------------------------

    def inject(self, event: TouchEvent) -> DispatchRecord:
        for listener in self._gesture_listeners:
            if listener(event):
                record = DispatchRecord(event, "gesture")
                self.dispatched.append(record)
                return record
        activity = self._foreground_activity()
        if activity is None:
            record = DispatchRecord(event, "dropped")
        else:
            activity.dispatch_touch(event)
            record = DispatchRecord(event, activity.name)
        self.dispatched.append(record)
        return record

    def inject_tap(self, x: float, y: float, pointer_id: int = 0,
                   at: Optional[float] = None) -> None:
        time = at if at is not None else self.device.clock.now
        self.inject(TouchEvent(time, pointer_id, x, y, "down"))
        self.inject(TouchEvent(time + 0.05, pointer_id, x, y, "up"))

    def _foreground_activity(self):
        for package in self.device.running_packages():
            thread = self.device.thread_of(package)
            if thread is None or thread.in_background:
                continue
            resumed = thread.resumed_activities()
            if resumed:
                return resumed[0]
        return None


class SystemGestureNavigator:
    """Flux's system-level gesture hook: two-finger swipe -> target menu.

    Registers a gesture listener with the dispatcher; while two fingers
    are down, events are consumed (the app never sees the swipe), and a
    completed vertical two-finger swipe opens the migration target menu.
    """

    def __init__(self, device, on_swipe: Callable[[], None]) -> None:
        from repro.core.migration.gesture import TwoFingerSwipeDetector
        self.device = device
        self.on_swipe = on_swipe
        self._active_pointers: set = set()
        self._saw_two = False
        self.detector = TwoFingerSwipeDetector(lambda det: on_swipe())
        device.input_dispatcher.add_gesture_listener(self._on_event)

    def _on_event(self, event: TouchEvent) -> bool:
        if event.action == "down":
            self._active_pointers.add(event.pointer_id)
        elif event.action == "up":
            self._active_pointers.discard(event.pointer_id)
        became_multi = (not self._saw_two
                        and len(self._active_pointers) >= 2)
        if became_multi:
            # The system takes the gesture over: the app that already
            # received the first finger's down gets an ACTION_CANCEL,
            # exactly as Android's input pipeline does.
            self._saw_two = True
            self._cancel_app_gesture(event.time)
        multi_touch = self._saw_two
        self.detector.feed(event)
        if not self._active_pointers:
            self._saw_two = False
        # Consume while a multi-finger gesture is in flight; single-finger
        # interaction passes through to the app.
        return multi_touch

    def _cancel_app_gesture(self, time: float) -> None:
        activity = self.device.input_dispatcher._foreground_activity()
        if activity is not None:
            activity.dispatch_touch(TouchEvent(time, -1, 0.0, 0.0, "cancel"))
