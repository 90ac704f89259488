"""System-service base machinery.

Every system service lives in the ``system_server`` process, keeps
app-specific state keyed by package name, and serves Binder transactions
through its generated AIDL stub.  Services receive a shared
:class:`ServiceContext` giving them the clock, kernel, hardware profile,
and a broadcast hook (wired to the ActivityManagerService once it is up).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.android.binder.ibinder import CallerAwareBinder


class ServiceError(Exception):
    """A service rejected a call (bad args, missing hardware, permissions)."""


@dataclass
class ServiceContext:
    """Shared plumbing handed to every system service."""

    clock: Any
    kernel: Any
    hardware: Any = None       # DeviceProfile; None in bare unit tests
    broadcast: Optional[Callable[[Any], None]] = None
    broadcast_sticky: Optional[Callable[[Any], None]] = None

    def close(self) -> None:
        """World teardown: the broadcast hooks are the ActivityManager's
        bound methods, and it holds this context."""
        self.broadcast = self.broadcast_sticky = None

    def send_broadcast(self, intent) -> None:
        if self.broadcast is not None:
            self.broadcast(intent)

    def send_sticky_broadcast(self, intent) -> None:
        if self.broadcast_sticky is not None:
            self.broadcast_sticky(intent)
        elif self.broadcast is not None:
            self.broadcast(intent)


class SystemService(CallerAwareBinder):
    """Base class: per-app state, context access, registration helper."""

    #: ServiceManager registration name; subclasses must override.
    SERVICE_KEY = ""
    #: AIDL descriptor; subclasses must override.
    DESCRIPTOR = ""
    def __init__(self, ctx: ServiceContext) -> None:
        super().__init__()
        self.ctx = ctx
        self._app_state: Dict[str, Dict[str, Any]] = {}

    # -- app-specific state -------------------------------------------------

    def app_state(self, caller_or_package) -> Dict[str, Any]:
        """Mutable state bucket for the calling app's package."""
        package = self._package_of(caller_or_package)
        return self._app_state.setdefault(package, self.new_app_state())

    def new_app_state(self) -> Dict[str, Any]:
        """Initial per-app state; subclasses override to shape it."""
        return {}

    def has_app_state(self, package: str) -> bool:
        return package in self._app_state

    def app_state_or_default(self, package: str) -> Dict[str, Any]:
        """Like :meth:`app_state` but without materializing state.

        Snapshots use this so "app never called us" and "app's calls
        cancelled out" compare equal across a migration.
        """
        state = self._app_state.get(package)
        return state if state is not None else self.new_app_state()

    def drop_app_state(self, package: str) -> None:
        """Discard an app's state (after it migrates away or uninstalls)."""
        self._app_state.pop(package, None)

    def packages(self) -> List[str]:
        return sorted(self._app_state)

    @staticmethod
    def _package_of(caller_or_package) -> str:
        if isinstance(caller_or_package, str):
            return caller_or_package
        package = getattr(caller_or_package, "package", None)
        if package is None:
            raise ServiceError(
                f"caller {caller_or_package!r} has no package identity")
        return package

    # -- snapshotting (test/verification support) ------------------------------

    def snapshot(self, package: str) -> Dict[str, Any]:
        """A comparable snapshot of the app-visible state for ``package``.

        Used by migration tests: the snapshot on the home device before
        migration must equal the snapshot on the guest after replay.
        Default implementation returns a shallow copy of the state dict;
        services with richer state override this.
        """
        if package not in self._app_state:
            return {}
        return {k: v for k, v in self._app_state[package].items()}

    def close(self) -> None:
        """World teardown hook for services that hold objects pointing
        back at them; the rest have nothing to cut."""
