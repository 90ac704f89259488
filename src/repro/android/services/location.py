"""LocationManagerService.

Providers come from the hardware profile (a tablet without GPS exposes
only the network provider); Adaptive Replay's hardware-absence path
(paper §3.2: "should the guest device not contain hardware that was
previously in use, e.g. GPS") rewrites provider arguments on replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.android.services.base import ServiceContext, ServiceError, SystemService


GPS_PROVIDER = "gps"
NETWORK_PROVIDER = "network"


@dataclass
class Location:
    provider: str
    latitude: float
    longitude: float
    accuracy_m: float
    time: float


@dataclass
class LocationRequest:
    provider: str
    min_time: float
    min_distance: float
    listener_id: str


class LocationManagerService(SystemService):
    SERVICE_KEY = "location"
    DESCRIPTOR = "ILocationManagerService"

    def __init__(self, ctx: ServiceContext) -> None:
        super().__init__(ctx)
        self._providers = list(
            getattr(ctx.hardware, "location_providers", None)
            or [GPS_PROVIDER, NETWORK_PROVIDER])
        self._enabled = {p: True for p in self._providers}
        self._last_known: Dict[str, Location] = {}
        # provider -> remote LocationManagerService (gps_tether extension)
        self._tethered: Dict[str, "LocationManagerService"] = {}

    def new_app_state(self) -> Dict[str, Any]:
        return {"requests": {}, "gps_listeners": []}

    # -- AIDL interface ------------------------------------------------------

    def requestLocationUpdates(self, caller, provider: str, min_time: float,
                               min_distance: float, listener_id: str) -> None:
        self._check_provider(provider)
        self.app_state(caller)["requests"][listener_id] = LocationRequest(
            provider=provider, min_time=min_time, min_distance=min_distance,
            listener_id=listener_id)

    def removeUpdates(self, caller, listener_id: str) -> None:
        self.app_state(caller)["requests"].pop(listener_id, None)

    def getLastKnownLocation(self, caller, provider: str) -> Optional[Location]:
        self._check_provider(provider)
        remote = self._tethered.get(provider)
        if remote is not None:
            return remote._last_known.get(provider)
        return self._last_known.get(provider)

    def addGpsStatusListener(self, caller, listener_id: str) -> None:
        if GPS_PROVIDER not in self._providers:
            raise ServiceError("device has no GPS hardware")
        listeners = self.app_state(caller)["gps_listeners"]
        if listener_id not in listeners:
            listeners.append(listener_id)

    def removeGpsStatusListener(self, caller, listener_id: str) -> None:
        listeners = self.app_state(caller)["gps_listeners"]
        if listener_id in listeners:
            listeners.remove(listener_id)

    def getProviders(self, caller, enabled_only: bool) -> List[str]:
        if not enabled_only:
            return list(self._providers)
        return [p for p in self._providers if self._enabled[p]]

    def isProviderEnabled(self, caller, provider: str) -> bool:
        return self._enabled.get(provider, False)

    def getBestProvider(self, caller, enabled_only: bool) -> Optional[str]:
        providers = self.getProviders(caller, enabled_only)
        if GPS_PROVIDER in providers:
            return GPS_PROVIDER
        return providers[0] if providers else None

    # -- hardware-side API ------------------------------------------------------

    def report_fix(self, provider: str, latitude: float, longitude: float,
                   accuracy_m: float = 10.0) -> Location:
        self._check_provider(provider)
        location = Location(provider=provider, latitude=latitude,
                            longitude=longitude, accuracy_m=accuracy_m,
                            time=self.ctx.clock.now)
        self._last_known[provider] = location
        return location

    def has_provider(self, provider: str) -> bool:
        return provider in self._providers

    def attach_tethered_provider(self, provider: str,
                                 remote: "LocationManagerService") -> None:
        """gps_tether extension (paper §3.2): serve ``provider`` by
        forwarding to the home device's location service over the
        network instead of local hardware."""
        if provider not in self._providers:
            self._providers.append(provider)
            self._enabled[provider] = True
        self._tethered[provider] = remote

    def is_tethered(self, provider: str) -> bool:
        return provider in self._tethered

    def _check_provider(self, provider: str) -> None:
        if provider not in self._providers:
            raise ServiceError(f"no location provider {provider!r}")

    def snapshot(self, package: str) -> Dict[str, Any]:
        state = self.app_state_or_default(package)
        return {
            "requests": sorted(
                (r.listener_id, r.provider)
                for r in state["requests"].values()),
            "gps_listeners": sorted(state["gps_listeners"]),
        }
