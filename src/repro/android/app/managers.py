"""App-facing system-service managers.

These are the framework classes apps actually call (NotificationManager,
AlarmManager, SensorManager, …).  Each wraps a generated AIDL proxy;
because the proxy carries the app's recorder, every ``@record``-decorated
call is logged transparently — the app code never sees Flux (paper §3.2).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.android.app.intent import Intent, PendingIntent
from repro.android.app.notification import Notification


class ManagerError(Exception):
    pass


class SystemServiceManager:
    """Base: delegates unknown attributes to the AIDL proxy."""

    def __init__(self, proxy) -> None:
        self._proxy = proxy

    def __getattr__(self, name: str):
        return getattr(self._proxy, name)

    def detach_thread(self) -> None:
        """World teardown hook; only managers that hold their thread
        have an edge to cut.  Defined here so ``__getattr__`` never
        forwards it to the proxy.  (Not ``close``: that name is app
        API, e.g. ``CameraManager.close``.)"""

    def rebind_remotes(self, fixup, recorder) -> None:
        """Point the proxy at the guest device after restore.

        Handle *numbers* are app state and survive migration (CRIA
        re-injects them in the guest's Binder driver); the IBinder's
        driver/process pointers are kernel state and must be re-made.
        ``fixup(old_remote) -> new IBinder`` preserves the handle.
        """
        self._proxy._remote = fixup(self._proxy._remote)
        self._proxy._recorder = recorder


class NotificationManager(SystemServiceManager):
    def notify(self, notification_id: int, notification: Notification) -> None:
        self._proxy.enqueueNotification(notification_id, notification)

    def cancel(self, notification_id: int) -> None:
        self._proxy.cancelNotification(notification_id)

    def cancel_all(self) -> None:
        self._proxy.cancelAllNotifications()


class AlarmManager(SystemServiceManager):
    RTC = 1
    RTC_WAKEUP = 0
    ELAPSED_REALTIME = 3

    def set(self, alarm_type: int, trigger_at: float,
            operation: PendingIntent) -> None:
        self._proxy.set(alarm_type, trigger_at, operation)

    def set_repeating(self, alarm_type: int, trigger_at: float,
                      interval: float, operation: PendingIntent) -> None:
        self._proxy.setRepeating(alarm_type, trigger_at, interval, operation)

    def cancel(self, operation: PendingIntent) -> None:
        self._proxy.remove(operation)


class SensorManager(SystemServiceManager):
    """Wraps ISensorService plus per-connection ISensorEventConnection."""

    def __init__(self, proxy, thread) -> None:
        super().__init__(proxy)
        self._thread = thread
        self._connection = None      # ISensorEventConnectionProxy
        self._channel_fd: Optional[int] = None
        self._listeners: Dict[int, Any] = {}   # sensor handle -> listener

    def get_sensor_list(self) -> List[Any]:
        return self._proxy.getSensorList()

    def default_sensor(self, sensor_type: str):
        for sensor in self.get_sensor_list():
            if sensor.sensor_type == sensor_type:
                return sensor
        return None

    def _ensure_connection(self):
        if self._connection is None:
            remote = self._proxy.createSensorEventConnection()
            registry = self._thread.framework.registry
            compiled = registry.get("ISensorEventConnection")
            self._connection = compiled.new_proxy(remote,
                                                  self._thread.recorder)
        return self._connection

    def register_listener(self, listener, sensor_handle: int,
                          sampling_rate: int = 10) -> None:
        connection = self._ensure_connection()
        if self._channel_fd is None:
            fd_token = connection.getSensorChannel()
            self._channel_fd = fd_token.fd
        connection.enableSensor(sensor_handle, sampling_rate)
        self._listeners[sensor_handle] = listener

    def unregister_listener(self, sensor_handle: int) -> None:
        if self._connection is None:
            raise ManagerError("no sensor connection")
        self._connection.disableSensor(sensor_handle)
        self._listeners.pop(sensor_handle, None)

    def detach_thread(self) -> None:
        self._thread = None

    def rebind_remotes(self, fixup, recorder) -> None:
        super().rebind_remotes(fixup, recorder)
        if self._connection is not None:
            self._connection._remote = fixup(self._connection._remote)
            self._connection._recorder = recorder

    @property
    def channel_fd(self) -> Optional[int]:
        return self._channel_fd

    def poll_events(self) -> List[Any]:
        """Drain delivered sensor events from the channel socket."""
        if self._channel_fd is None:
            return []
        sock = self._thread.process.fds.get(self._channel_fd)
        events = []
        while True:
            data = sock.recv()
            if data is None:
                break
            events.append(data)
        for event in events:
            for listener in self._listeners.values():
                listener(event)
        return events


class AudioManager(SystemServiceManager):
    STREAM_MUSIC = 3
    STREAM_RING = 2
    STREAM_ALARM = 4

    def set_stream_volume(self, stream: int, index: int) -> None:
        self._proxy.setStreamVolume(stream, index, 0)

    def get_stream_volume(self, stream: int) -> int:
        return self._proxy.getStreamVolume(stream)

    def request_audio_focus(self, client_id: str,
                            stream: int = STREAM_MUSIC) -> int:
        return self._proxy.requestAudioFocus(client_id, stream, 1)

    def abandon_audio_focus(self, client_id: str) -> int:
        return self._proxy.abandonAudioFocus(client_id)


class WifiManager(SystemServiceManager):
    def acquire_lock(self, lock_id: str, mode: int = 1) -> None:
        self._proxy.acquireWifiLock(lock_id, mode)

    def release_lock(self, lock_id: str) -> None:
        self._proxy.releaseWifiLock(lock_id)


class ConnectivityManager(SystemServiceManager):
    def is_connected(self) -> bool:
        info = self._proxy.getActiveNetworkInfo()
        return info is not None and info.connected


class LocationManager(SystemServiceManager):
    GPS_PROVIDER = "gps"
    NETWORK_PROVIDER = "network"

    def request_updates(self, provider: str, listener_id: str,
                        min_time: float = 1.0,
                        min_distance: float = 0.0) -> None:
        self._proxy.requestLocationUpdates(provider, min_time, min_distance,
                                           listener_id)

    def remove_updates(self, listener_id: str) -> None:
        self._proxy.removeUpdates(listener_id)


class PowerManager(SystemServiceManager):
    PARTIAL_WAKE_LOCK = 1
    SCREEN_DIM_WAKE_LOCK = 6

    class WakeLock:
        def __init__(self, proxy, lock_id: str, flags: int, tag: str) -> None:
            self._proxy = proxy
            self.lock_id = lock_id
            self.flags = flags
            self.tag = tag
            self.held = False

        def acquire(self) -> None:
            self._proxy.acquireWakeLock(self.lock_id, self.flags, self.tag)
            self.held = True

        def release(self) -> None:
            self._proxy.releaseWakeLock(self.lock_id)
            self.held = False

    def new_wake_lock(self, flags: int, tag: str) -> "PowerManager.WakeLock":
        # Deterministic per-manager sequence (not id(self): memory
        # addresses vary run-to-run and would leak into the record log).
        self._lock_seq = getattr(self, "_lock_seq", 0) + 1
        lock_id = f"{tag}:{self._lock_seq}"
        return self.WakeLock(self._proxy, lock_id, flags, tag)


class ClipboardManager(SystemServiceManager):
    def set_text(self, text: str) -> None:
        self._proxy.setPrimaryClip({"text": text})

    def get_text(self) -> Optional[str]:
        clip = self._proxy.getPrimaryClip()
        return None if clip is None else clip.get("text")


class Vibrator(SystemServiceManager):
    def vibrate(self, milliseconds: int) -> None:
        self._proxy.vibrate(milliseconds)

    def cancel(self) -> None:
        self._proxy.cancelVibrate()


class CameraManager(SystemServiceManager):
    def open(self, camera_id: int = 0) -> None:
        self._proxy.connectCamera(camera_id)

    def close(self, camera_id: int = 0) -> None:
        self._proxy.disconnectCamera(camera_id)


class InputMethodManager(SystemServiceManager):
    def show_soft_input(self) -> None:
        self._proxy.showSoftInput(0)

    def hide_soft_input(self) -> None:
        self._proxy.hideSoftInput(0)


class KeyguardManager(SystemServiceManager):
    pass


class UiModeManager(SystemServiceManager):
    pass


class ActivityManager(SystemServiceManager):
    def start_service(self, intent: Intent):
        return self._proxy.startService(intent)

    def stop_service(self, intent: Intent) -> int:
        return self._proxy.stopService(intent)

    def broadcast(self, intent: Intent) -> None:
        self._proxy.broadcastIntent(intent)


# ServiceManager key -> (descriptor, manager class)
MANAGER_BINDINGS: Dict[str, Any] = {
    "activity": ("IActivityManagerService", ActivityManager),
    "notification": ("INotificationManagerService", NotificationManager),
    "alarm": ("IAlarmManagerService", AlarmManager),
    "sensor": ("ISensorService", SensorManager),
    "audio": ("IAudioService", AudioManager),
    "wifi": ("IWifiService", WifiManager),
    "connectivity": ("IConnectivityManagerService", ConnectivityManager),
    "location": ("ILocationManagerService", LocationManager),
    "power": ("IPowerManagerService", PowerManager),
    "clipboard": ("IClipboardService", ClipboardManager),
    "vibrator": ("IVibratorService", Vibrator),
    "camera": ("ICameraManagerService", CameraManager),
    "input_method": ("IInputMethodManagerService", InputMethodManager),
    "keyguard": ("IKeyguardService", KeyguardManager),
    "ui_mode": ("IUiModeManagerService", UiModeManager),
}
