"""The Adaptive Replay engine.

Walks the migrated record log in order and re-issues each call against
the guest device's services *through the app's own (recording) proxies*,
so the guest's call log ends up consistent — a second migration carries
the right state.  Methods decorated with ``@replayproxy`` go through
their registered proxy instead; hardware differences are adapted (GPS
absent -> network provider fallback; paper §3.2's "communication with
that device ... over the network" option is modelled as an adaptation
note plus fallback).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.android.binder.ibinder import IBinder
from repro.android.services.aidl_sources import SERVICE_SPECS
from repro.core.replay.proxies import lookup as lookup_proxy


DESCRIPTOR_TO_KEY: Dict[str, str] = {
    spec.interface: spec.key for spec in SERVICE_SPECS}


class ReplayError(Exception):
    pass


@dataclass
class ReplayReport:
    package: str
    replayed: int = 0
    skipped: int = 0
    proxied: int = 0
    adaptations: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def note_skip(self, entry, why: str) -> None:
        self.skipped += 1
        self.notes.append(f"skip {entry.interface}.{entry.method}: {why}")

    def note_proxy(self, entry, what: str) -> None:
        self.proxied += 1
        self.notes.append(f"proxy {entry.interface}.{entry.method}: {what}")

    def note_adaptation(self, entry, what: str) -> None:
        self.adaptations.append(
            f"{entry.interface}.{entry.method}: {what}")

    @property
    def total_handled(self) -> int:
        return self.replayed + self.skipped + self.proxied


class ReplaySession:
    """One app's replay onto one guest device."""

    def __init__(self, device, restored, image, extensions=None,
                 home_location_service=None) -> None:
        from repro.core.extensions import FluxExtensions
        self.device = device
        self.thread = restored.thread
        self.process = restored.process
        self.image = image
        self.extensions = extensions or FluxExtensions.none()
        self.home_location_service = home_location_service
        self.checkpoint_time = image.checkpoint_time
        self.report = ReplayReport(package=image.package)
        self.metrics = device.metrics
        self.events = device.events
        self._home_volumes: Dict[int, int] = dict(
            image.metadata.get("stream_max_volumes", {}))
        self._pending = {ref.handle: ref for ref in restored.pending_refs}

    # -- context helpers used by proxies ----------------------------------------

    def home_stream_max(self, stream: int) -> Optional[int]:
        return self._home_volumes.get(stream)

    def service_proxy(self, descriptor: str):
        """The app's own rebound proxy for a named system service."""
        key = DESCRIPTOR_TO_KEY[descriptor]
        manager = self.thread.context.get_system_service(key)
        return manager._proxy

    def anonymous_proxy(self, descriptor: str, handle: int):
        """A recording proxy over an app-held handle (sub-object calls)."""
        remote = IBinder(self.device.binder, self.process, handle)
        compiled = self.device.registry.get(descriptor)
        return compiled.new_proxy(remote, self.thread.recorder)

    def resolve_pending(self, handle: int) -> None:
        self._pending.pop(handle, None)

    def unresolved_pending(self) -> List[int]:
        return sorted(self._pending)

    def record_replayed(self, entry, result: Any = None) -> None:
        """Append a proxied call to the guest's log without re-invoking."""
        self.thread.recorder.on_call(entry.interface, entry.method,
                                     dict(entry.args), result)

    # -- the replay loop ---------------------------------------------------------

    def replay_all(self) -> ReplayReport:
        # inc(0) still creates the series: an app whose log pruned to
        # nothing shows up as "0 entries replayed", not as a gap.
        self.metrics.counter("replay", "log_entries",
                             app=self.report.package).inc(
            len(self.image.record_log))
        for entry in self.image.record_log:
            self._dispatch(entry)
        if self._pending:
            raise ReplayError(
                f"{self.report.package}: pending binder handles never "
                f"re-created: {self.unresolved_pending()}")
        return self.report

    def _dispatch(self, entry) -> None:
        app = self.report.package
        meta = self.device.registry.meta(entry.interface).method(entry.method)
        proxy_name = meta.replay_proxy
        if proxy_name is not None:
            lookup_proxy(proxy_name)(self, entry)
            self.metrics.counter("replay", "calls_proxied", app=app,
                                 proxy=proxy_name).inc()
            self.events.emit("replay.proxy", app=app, proxy=proxy_name,
                             interface=entry.interface, method=entry.method)
            return
        if self._should_skip(entry):
            self.metrics.counter("replay", "calls_skipped", app=app).inc()
            self.events.emit("replay.skip", app=app,
                             interface=entry.interface, method=entry.method)
            return
        self.invoke(entry)
        self.report.replayed += 1
        self.metrics.counter("replay", "calls_replayed", app=app).inc()
        self.events.emit("replay.invoke", app=app,
                         interface=entry.interface, method=entry.method)

    def _should_skip(self, entry) -> bool:
        """Calls that cannot be expressed at all on the guest's hardware."""
        if (entry.interface == "ILocationManagerService"
                and entry.method in ("addGpsStatusListener",
                                     "removeGpsStatusListener")):
            location_service = self.device.service("location")
            if not location_service.has_provider("gps"):
                if self._try_tether("gps", entry):
                    return False
                self.report.note_skip(
                    entry, "guest has no GPS hardware; GPS status events "
                    "unavailable (network proxying to home device offered)")
                return True
        return False

    def _try_tether(self, provider: str, entry) -> bool:
        """gps_tether extension: keep using the home device's hardware."""
        if not self.extensions.gps_tether:
            return False
        if self.home_location_service is None:
            return False
        location_service = self.device.service("location")
        if not location_service.is_tethered(provider):
            location_service.attach_tethered_provider(
                provider, self.home_location_service)
            self.report.note_adaptation(
                entry, f"provider {provider!r} tethered to the home "
                "device over the network")
        return True

    def invoke(self, entry, args_override: Optional[Dict[str, Any]] = None) -> Any:
        """Re-issue the recorded call against the guest's services."""
        args = dict(args_override if args_override is not None else entry.args)
        target_handle = args.pop("__target__", None)
        args = self._adapt_hardware(entry, args)

        if entry.interface in DESCRIPTOR_TO_KEY:
            proxy = self.service_proxy(entry.interface)
        elif target_handle is not None:
            proxy = self.anonymous_proxy(entry.interface, target_handle)
        else:
            raise ReplayError(
                f"cannot route {entry.interface}.{entry.method}: "
                "no service key and no target handle")
        method = getattr(proxy, entry.method)
        return method(**args)

    # -- hardware-absence adaptation ---------------------------------------------

    def _adapt_hardware(self, entry, args: Dict[str, Any]) -> Dict[str, Any]:
        if entry.interface != "ILocationManagerService":
            return args
        location_service = self.device.service("location")
        provider = args.get("provider")
        if provider is not None and not location_service.has_provider(provider):
            if self._try_tether(provider, entry):
                return args
            fallback = "network"
            self.report.note_adaptation(
                entry,
                f"guest lacks provider {provider!r}; falling back to "
                f"{fallback!r} (user may instead proxy {provider} over the "
                "network to the home device)")
            self.metrics.counter("replay", "calls_remapped",
                                 app=self.report.package,
                                 provider=str(provider)).inc()
            args = dict(args)
            args["provider"] = fallback
        return args


def replay_log(device, restored, image, extensions=None,
               home_location_service=None) -> ReplayReport:
    """Convenience wrapper: build a session and replay the whole log."""
    return ReplaySession(device, restored, image, extensions,
                         home_location_service).replay_all()
