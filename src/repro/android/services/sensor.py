"""SensorService and SensorEventConnection (paper §3.2's third example).

``createSensorEventConnection`` hands the app a *new binder object* with
an interface of its own, and ``getSensorChannel`` hands it a unix-domain
socket — the two kinds of returned handles whose identities must survive
migration via ``@replayproxy`` methods (sensorCreateConnection and
sensorGetChannel).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.android.binder.ibinder import CallerAwareBinder, IBinder
from repro.android.binder.parcel import FdToken
from repro.android.kernel.files import UnixSocket
from repro.android.services.base import ServiceContext, ServiceError, SystemService


@dataclass(frozen=True)
class Sensor:
    handle: int
    sensor_type: str         # "accelerometer", "gyroscope", ...
    name: str
    max_rate_hz: int


class SensorEventConnection(CallerAwareBinder):
    """Per-app event channel; a binder node of its own."""

    DESCRIPTOR = "ISensorEventConnection"
    _ids = itertools.count(1)

    def __init__(self, service: "SensorService", package: str) -> None:
        super().__init__()
        self.connection_id = next(self._ids)
        self.service = service
        self.package = package
        self.enabled_sensors: Dict[int, int] = {}   # handle -> rate
        self.service_socket: Optional[UnixSocket] = None
        self.client_fd: Optional[int] = None
        self.destroyed = False

    # -- AIDL interface ------------------------------------------------------

    def enableSensor(self, caller, handle: int, sampling_rate: int) -> None:
        self._check_alive()
        sensor = self.service.sensor_by_handle(handle)
        if sensor is None:
            raise ServiceError(f"no sensor with handle {handle}")
        rate = min(sampling_rate, sensor.max_rate_hz)
        self.enabled_sensors[handle] = rate

    def disableSensor(self, caller, handle: int) -> None:
        self._check_alive()
        self.enabled_sensors.pop(handle, None)

    def getSensorChannel(self, caller) -> FdToken:
        """Create the event socket pair; client end lands in caller's fds."""
        self._check_alive()
        if self.service_socket is not None:
            raise ServiceError(
                f"connection {self.connection_id} already has a channel")
        service_end, client_end = UnixSocket.pair(
            label=f"sensor-events:{self.package}")
        self.service_socket = service_end
        self.client_fd = caller.fds.install(client_end)
        return FdToken(self.client_fd)

    def flush(self, caller) -> None:
        self._check_alive()

    def destroy(self, caller) -> None:
        self.destroyed = True
        self.enabled_sensors.clear()
        if self.service_socket is not None:
            self.service_socket.close()

    # -- event delivery (driven by hardware simulation) ---------------------------

    def deliver(self, handle: int, payload: bytes) -> bool:
        if self.destroyed or handle not in self.enabled_sensors:
            return False
        if self.service_socket is None:
            return False
        self.service_socket.send(payload)
        return True

    def _check_alive(self) -> None:
        if self.destroyed:
            raise ServiceError(f"connection {self.connection_id} destroyed")


class SensorService(SystemService):
    SERVICE_KEY = "sensor"
    DESCRIPTOR = "ISensorService"

    def __init__(self, ctx: ServiceContext, system_process) -> None:
        super().__init__(ctx)
        self._system_process = system_process
        self._sensors: List[Sensor] = list(
            getattr(ctx.hardware, "sensors", ()) or ())
        self._privacy_enabled = False
        self.connections: List[SensorEventConnection] = []

    def new_app_state(self) -> Dict[str, Any]:
        return {"connections": []}

    def close(self) -> None:
        for connection in self.connections:
            connection.service = None
            if connection.service_socket is not None:
                connection.service_socket.close()

    # -- AIDL interface ------------------------------------------------------

    def getSensorList(self, caller) -> List[Sensor]:
        return list(self._sensors)

    def hasSensor(self, caller, sensor_type: str) -> bool:
        return any(s.sensor_type == sensor_type for s in self._sensors)

    def createSensorEventConnection(self, caller) -> IBinder:
        return self.create_connection_for(caller)

    def create_connection_for(self, caller,
                              at_handle: Optional[int] = None) -> IBinder:
        """Create a connection; ``at_handle`` pins the client handle id.

        The pinned form is what the ``sensorCreateConnection`` replay
        proxy uses so the restored app keeps seeing the handle it held
        on the home device (paper §3.2).
        """
        package = self._package_of(caller)
        connection = SensorEventConnection(self, package)
        driver = self.ctx.kernel.binder
        node = driver.create_node(self._system_process, connection,
                                  f"sensor-connection:{connection.connection_id}",
                                  system_service=True)
        connection.attach_node(node)
        if at_handle is None:
            handle = driver.acquire_ref(caller, node)
        else:
            driver.inject_ref(caller, at_handle, node)
            handle = at_handle
        self.connections.append(connection)
        self.app_state(package)["connections"].append(connection)
        return IBinder(driver, caller, handle)

    def getSensorPrivacyState(self, caller) -> int:
        return 1 if self._privacy_enabled else 0

    def setSensorPrivacy(self, caller, enabled: bool) -> None:
        self._privacy_enabled = bool(enabled)

    def isDataInjectionEnabled(self, caller) -> bool:
        return False

    # -- hardware-side API ------------------------------------------------------

    def sensor_by_handle(self, handle: int) -> Optional[Sensor]:
        for sensor in self._sensors:
            if sensor.handle == handle:
                return sensor
        return None

    def inject_event(self, handle: int, payload: bytes) -> int:
        """Hardware pushes an event; returns delivery count."""
        delivered = 0
        for connection in self.connections:
            if connection.deliver(handle, payload):
                delivered += 1
        return delivered

    # -- migration support --------------------------------------------------------

    def release_all_for(self, package: str) -> int:
        """Destroy an app's event connections (after it migrated away).

        Each connection is a node owned by ``system_server``, so the
        app's exit does not free it: left alone it would keep receiving
        events into a dead client socket, and deliver twice once the
        app returns with a new connection.  Returns how many went.
        """
        released = [c for c in self.connections if c.package == package]
        if not released:
            return 0
        self.connections = [c for c in self.connections
                            if c.package != package]
        driver = self.ctx.kernel.binder
        for connection in released:
            connection.destroy(None)
            if connection.binder_node is not None:
                driver.release_node(connection.binder_node)
        return len(released)

    def snapshot(self, package: str) -> Dict[str, Any]:
        state = self.app_state_or_default(package)
        live = [c for c in state["connections"] if not c.destroyed]
        return {
            "connections": len(live),
            "enabled": sorted(
                (handle, rate)
                for c in live for handle, rate in c.enabled_sensors.items()),
        }
