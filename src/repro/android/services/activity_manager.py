"""ActivityManagerService: component lifecycle, broadcasts, providers.

Beyond its decorated AIDL surface, the AMS owns the framework internals
Flux leans on (paper §3.3): moving an app to the background, the task
idler that later stops it, and dispatching trim-memory requests into the
app's ActivityThread.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.android.app.intent import Intent, IntentFilter
from repro.android.graphics.renderer import TRIM_MEMORY_COMPLETE
from repro.android.services.base import ServiceContext, ServiceError, SystemService


@dataclass
class ReceiverRegistration:
    package: str
    receiver_id: str
    intent_filter: IntentFilter


@dataclass
class ProviderConnection:
    client_package: str
    authority: str
    provider_package: str


class ActivityManagerService(SystemService):
    SERVICE_KEY = "activity"
    DESCRIPTOR = "IActivityManagerService"

    #: Seconds the task idler waits before stopping a backgrounded app.
    #: The paper calls the dependence on this delay out as the
    #: unoptimized part of migration preparation (§4).
    TASK_IDLE_DELAY = 0.30

    def __init__(self, ctx: ServiceContext) -> None:
        super().__init__(ctx)
        #: package -> ActivityThread: the device's only registry of
        #: running apps, left only when the app's process dies.
        self._threads: Dict[str, Any] = {}
        self._receivers: Dict[str, ReceiverRegistration] = {}
        self._provider_connections: List[ProviderConnection] = []
        self._orientations: Dict[int, int] = {}
        self._uri_grants: Dict[str, Tuple[str, int]] = {}
        self._sticky: Dict[str, Intent] = {}     # action -> last intent
        #: Wired at boot: an app's death drops its windows from the
        #: WindowManagerService and its record log from the Recorder.
        self.window_manager = None
        self.recorder = None
        self.broadcasts_delivered = 0

    # -- application attach (framework-internal) --------------------------------

    def attach_application(self, package: str, thread) -> None:
        self._threads[package] = thread
        driver = self.ctx.kernel.binder
        system = self.binder_node.owner     # system_server
        handle = driver.acquire_ref(system, thread.app_thread_node)

        def on_death(dead, package=package, thread=thread) -> None:
            # Like Android's appDiedLocked: whatever killed the process
            # (a migration, killBackgroundProcesses, a rollback), drop
            # the reference and the windows that still reach it, so the
            # dead process is freed at once.
            driver.release_ref(system, handle)
            self.window_manager.remove_process_windows(dead.owner)
            # Unless a migrated-in instance replaced it, the app is gone,
            # and so is its heap unless a migration or a rollback
            # rebound it to another process.
            if self._threads.get(package) is thread:
                self.detach_application(package)
                if thread.process is dead.owner:
                    thread.close()

        driver.link_to_death(system, handle, on_death)

    def detach_application(self, package: str) -> None:
        self._threads.pop(package, None)
        self.recorder.forget_app(package)
        stale = [rid for rid, reg in self._receivers.items()
                 if reg.package == package]
        for rid in stale:
            del self._receivers[rid]
        self._provider_connections = [
            c for c in self._provider_connections
            if package not in (c.client_package, c.provider_package)]

    def thread_of(self, package: str):
        return self._threads.get(package)

    def is_running(self, package: str) -> bool:
        return package in self._threads

    def running_packages(self) -> List[str]:
        return sorted(self._threads)

    def kill_package_processes(self, package: str) -> None:
        """Kill every process of ``package``; the death detaches it."""
        kernel = self.ctx.kernel
        for process in kernel.processes_of_package(package):
            kernel.kill_process(process.pid)

    # -- AIDL interface ------------------------------------------------------

    def startActivity(self, caller, intent: Intent) -> int:
        package = intent.component or self._package_of(caller)
        thread = self._require_thread(package)
        activities = list(thread.activities.values())
        if activities:
            thread.resume_all()
            return activities[0].token
        raise ServiceError(
            f"{package}: no activity to start; launch via the app runtime")

    def finishActivity(self, caller, activity_token: int) -> None:
        thread = self._require_thread(self._package_of(caller))
        activity = thread.activities.get(activity_token)
        if activity is None:
            raise ServiceError(f"no activity token {activity_token}")
        from repro.android.app.activity import ActivityState
        if activity.state is ActivityState.RESUMED:
            activity.perform_transition(ActivityState.PAUSED)
        if activity.state is ActivityState.PAUSED:
            activity.perform_transition(ActivityState.STOPPED)
        activity.perform_transition(ActivityState.DESTROYED)
        if activity.window is not None:
            activity.window.destroy()
        del thread.activities[activity_token]
        # The activity underneath comes back (back-stack pop).
        if not thread.in_background and not thread.resumed_activities():
            top = thread.top_activity()
            if top is not None:
                thread._resume_one(top)

    def moveTaskToFront(self, caller, task_id: int) -> None:
        self.foreground_app(self._package_of(caller))

    def moveTaskToBack(self, caller, task_id: int) -> None:
        self.background_app(self._package_of(caller))

    def startService(self, caller, service: Intent) -> str:
        package = service.component or self._package_of(caller)
        thread = self._require_thread(package)
        name = service.get_extra("service_name", service.action)
        thread.start_app_service(name, service)
        return f"{package}/{name}"

    def stopService(self, caller, service: Intent) -> int:
        package = service.component or self._package_of(caller)
        thread = self._threads.get(package)
        if thread is None:
            return 0
        name = service.get_extra("service_name", service.action)
        return 1 if thread.stop_app_service(name) else 0

    def bindService(self, caller, service: Intent, connection_id: str,
                    flags: int) -> bool:
        state = self.app_state(caller)
        state.setdefault("bindings", {})[connection_id] = service
        return True

    def unbindService(self, caller, connection_id: str) -> bool:
        bindings = self.app_state(caller).setdefault("bindings", {})
        return bindings.pop(connection_id, None) is not None

    def registerReceiver(self, caller, receiver_id: str,
                         intent_filter: IntentFilter) -> Optional[Intent]:
        self._receivers[receiver_id] = ReceiverRegistration(
            package=self._package_of(caller), receiver_id=receiver_id,
            intent_filter=intent_filter)
        # Sticky semantics: registration returns the last matching sticky
        # broadcast, so an app (re-)registering on a guest device learns
        # the guest's current hardware state immediately.
        for action in intent_filter.actions:
            sticky = self._sticky.get(action)
            if sticky is not None:
                return sticky
        return None

    def unregisterReceiver(self, caller, receiver_id: str) -> None:
        self._receivers.pop(receiver_id, None)

    def broadcastIntent(self, caller, intent: Intent) -> None:
        self.broadcast(intent)

    def removeStickyBroadcast(self, caller, action: str) -> None:
        self._sticky.pop(action, None)

    def setRequestedOrientation(self, caller, activity_token: int,
                                orientation: int) -> None:
        self._orientations[activity_token] = orientation

    def grantUriPermission(self, caller, target_pkg: str, uri: str,
                           mode_flags: int) -> None:
        self._uri_grants[uri] = (target_pkg, mode_flags)

    def revokeUriPermission(self, caller, uri: str, mode_flags: int) -> None:
        self._uri_grants.pop(uri, None)

    def getRunningAppProcesses(self, caller) -> List[Dict[str, Any]]:
        return [{"package": pkg, "pid": thread.process.pid}
                for pkg, thread in sorted(self._threads.items())]

    def getMemoryInfo(self, caller) -> Dict[str, int]:
        total = getattr(self.ctx.hardware, "ram_bytes", 1 << 30)
        used = sum(t.process.memory_footprint()
                   for t in self._threads.values())
        return {"total": total, "available": max(0, total - used)}

    def getTasks(self, caller, max_num: int) -> List[Dict[str, Any]]:
        tasks = [{"package": pkg,
                  "num_activities": len(thread.activities)}
                 for pkg, thread in self._threads.items()]
        return tasks[:max_num]

    def killBackgroundProcesses(self, caller, package_name: str) -> None:
        thread = self._threads.get(package_name)
        if thread is not None and thread.in_background:
            self.kill_package_processes(package_name)

    def getContentProvider(self, caller, authority: str) -> Dict[str, Any]:
        provider, owner_pkg = self._find_provider(authority)
        connection = ProviderConnection(
            client_package=self._package_of(caller), authority=authority,
            provider_package=owner_pkg)
        self._provider_connections.append(connection)
        return {"authority": authority, "provider": provider}

    def removeContentProvider(self, caller, authority: str) -> None:
        package = self._package_of(caller)
        for connection in list(self._provider_connections):
            if (connection.client_package == package
                    and connection.authority == authority):
                self._provider_connections.remove(connection)
                return

    def reportActivityStatus(self, caller, activity_token: int,
                             status: int) -> None:
        pass

    def getConfiguration(self, caller) -> Dict[str, Any]:
        screen = getattr(self.ctx.hardware, "screen", None)
        return {"screen": screen,
                "country": getattr(self.ctx.hardware, "country", "US")}

    # -- framework internals used by Flux ----------------------------------------

    def broadcast_sticky(self, intent: Intent) -> None:
        """Broadcast and remember: future registrations see it."""
        self._sticky[intent.action] = intent
        self.broadcast(intent)

    def sticky_intent(self, action: str) -> Optional[Intent]:
        return self._sticky.get(action)

    def broadcast(self, intent: Intent) -> None:
        """Deliver ``intent`` to every matching registered receiver."""
        for registration in list(self._receivers.values()):
            if (intent.component is not None
                    and registration.package != intent.component):
                continue
            if not registration.intent_filter.matches(intent):
                continue
            thread = self._threads.get(registration.package)
            if thread is None:
                continue
            thread.dispatch_broadcast(registration.receiver_id, intent)
            self.broadcasts_delivered += 1

    def background_app(self, package: str) -> None:
        """Pause now; the task idler stops the app after the idle delay."""
        thread = self._require_thread(package)
        thread.pause_all()
        # Weakly: a pending timer must not keep a dead app's process.
        idling = weakref.ref(thread)

        def idle() -> None:
            thread = idling()
            if thread is not None and self._threads.get(package) is thread:
                thread.stop_all()

        self.ctx.clock.call_after(self.TASK_IDLE_DELAY, idle)

    def foreground_app(self, package: str) -> None:
        thread = self._require_thread(package)
        thread.resume_all()

    def trim_memory(self, package: str,
                    level: int = TRIM_MEMORY_COMPLETE) -> None:
        thread = self._require_thread(package)
        thread.handle_trim_memory(level)

    def provider_connections_of(self, package: str) -> List[ProviderConnection]:
        return [c for c in self._provider_connections
                if c.client_package == package]

    def receiver_registrations_of(self, package: str) -> List[str]:
        return sorted(r.receiver_id for r in self._receivers.values()
                      if r.package == package)

    # -- helpers --------------------------------------------------------------------

    def _require_thread(self, package: str):
        thread = self._threads.get(package)
        if thread is not None:
            return thread
        raise ServiceError(f"package {package!r} is not running")

    def _find_provider(self, authority: str):
        for package, thread in self._threads.items():
            provider = thread.providers.get(authority)
            if provider is not None:
                return provider, package
        raise ServiceError(f"no content provider for {authority!r}")

    def snapshot(self, package: str) -> Dict[str, Any]:
        bindings = {}
        if self.has_app_state(package):
            bindings = dict(self.app_state(package).get("bindings", {}))
        return {
            "receivers": self.receiver_registrations_of(package),
            "bindings": sorted(bindings),
        }
