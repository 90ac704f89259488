"""ActivityThread and AppContext: the in-process app runtime.

The ActivityThread hosts an app's activities, receivers, app services,
and hardware renderer, and implements the framework side of the
trim-memory chain the paper repurposes in §3.3.  The AppContext exposes
``get_system_service``, constructing manager wrappers whose AIDL proxies
carry the app's recorder.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Type

from repro.android.app.activity import Activity, ActivityState
from repro.android.app.intent import BroadcastReceiver, Intent, IntentFilter
from repro.android.app.managers import MANAGER_BINDINGS, SensorManager
from repro.android.graphics.renderer import (
    TRIM_MEMORY_COMPLETE,
    HardwareRenderer,
)


class AppRuntimeError(Exception):
    pass


class AppService:
    """A background (non-UI) app component, paper §2."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.running = False
        self.start_count = 0

    def on_start_command(self, intent: Optional[Intent]) -> None:
        self.running = True
        self.start_count += 1

    def on_destroy(self) -> None:
        self.running = False


class ContentProvider:
    """Shared-data component reached via short-lived Binder connections."""

    def __init__(self, authority: str) -> None:
        self.authority = authority
        self._rows: Dict[str, Dict[str, Any]] = {}

    def insert(self, key: str, row: Dict[str, Any]) -> None:
        self._rows[key] = dict(row)

    def query(self, key: str) -> Optional[Dict[str, Any]]:
        row = self._rows.get(key)
        return dict(row) if row is not None else None


class AppContext:
    """Per-app android.content.Context equivalent."""

    def __init__(self, thread: "ActivityThread") -> None:
        self._thread = thread
        self._managers: Dict[str, Any] = {}

    @property
    def package(self) -> str:
        return self._thread.package

    def get_system_service(self, key: str):
        if key in self._managers:
            return self._managers[key]
        framework = self._thread.framework
        if key in MANAGER_BINDINGS:
            descriptor, manager_cls = MANAGER_BINDINGS[key]
        else:
            # Services without a dedicated manager class still get the
            # generic recording wrapper (e.g. input, nsd, text_services).
            from repro.android.app.managers import SystemServiceManager
            from repro.android.services.aidl_sources import spec_for
            descriptor = spec_for(key).interface
            manager_cls = SystemServiceManager
        remote = framework.service_manager.get_service(self._thread.process,
                                                       key)
        proxy = framework.registry.get(descriptor).new_proxy(
            remote, self._thread.recorder)
        if manager_cls is SensorManager:
            manager = manager_cls(proxy, self._thread)
        else:
            manager = manager_cls(proxy)
        self._managers[key] = manager
        return manager

    def close(self) -> None:
        """World teardown: cut the managers' and this context's edges
        back to the thread."""
        for manager in self._managers.values():
            manager.detach_thread()
        self._thread = None

    def rebind_managers(self, fixup, recorder) -> None:
        """Fix every cached manager's remote after restore on a guest.

        Manager objects (and the handle numbers inside them) are app
        heap state and must survive; only the kernel-side plumbing the
        IBinders point at is replaced.
        """
        for manager in self._managers.values():
            manager.rebind_remotes(fixup, recorder)


class ActivityThread:
    """One per app process; drives components and the render pipeline."""

    def __init__(self, framework, package: str, process) -> None:
        self.framework = framework        # device-level FrameworkContext
        self.package = package
        self.process = process
        self.recorder = framework.recorder.bind_app(package)
        self.context = AppContext(self)
        self.renderer = HardwareRenderer(process, framework.gl)
        self.activities: Dict[int, Activity] = {}
        self.receivers: Dict[str, BroadcastReceiver] = {}
        self._receiver_seq = 0
        self.app_services: Dict[str, AppService] = {}
        self.providers: Dict[str, ContentProvider] = {}
        self.in_background = False
        self.trim_levels_seen: List[int] = []
        self.app_thread_node = self._publish_app_thread_node()

    def _publish_app_thread_node(self):
        """Create the app-owned binder node the AMS holds a reference to
        (the ApplicationThread of real Android).  Its death is how the
        system learns the app process died."""
        driver = self.framework.kernel.binder
        return driver.create_node(self.process, self,
                                  f"appthread:{self.package}")

    @property
    def clock(self):
        return self.framework.clock

    # -- activity lifecycle ---------------------------------------------------

    def launch_activity(self, activity_cls: Type[Activity],
                        name: str = "") -> Activity:
        # Launching a new activity sends the current one to Paused
        # (partially obscured; paper §2) — the back stack.
        self.pause_all()
        activity = activity_cls(name or activity_cls.__name__, self)
        window = self.framework.window_service.add_window(
            self.package, self.process, title=activity.name)
        activity.attach_window(window)
        activity.on_create(dict(activity.saved_state))
        self.activities[activity.token] = activity
        activity.perform_transition(ActivityState.RESUMED)
        if activity.view_root is not None:
            self.renderer.draw(activity.view_root)
        return activity

    def resumed_activities(self) -> List[Activity]:
        return [a for a in self.activities.values()
                if a.state is ActivityState.RESUMED]

    def pause_all(self) -> None:
        for activity in self.resumed_activities():
            activity.perform_transition(ActivityState.PAUSED)

    def stop_all(self) -> None:
        """Task idler's work: stop paused activities, free their surfaces."""
        for activity in self.activities.values():
            if activity.state is ActivityState.PAUSED:
                activity.perform_transition(ActivityState.STOPPED)
                if activity.window is not None:
                    activity.window.destroy_surface()
        self.in_background = True

    def back_stack(self) -> List[Activity]:
        """Live activities in launch order; the last one is the top."""
        return [a for a in self.activities.values()
                if a.state is not ActivityState.DESTROYED]

    def top_activity(self) -> Optional[Activity]:
        stack = self.back_stack()
        return stack[-1] if stack else None

    def resume_all(self) -> None:
        """Bring the app to the foreground: only the *top* of the back
        stack becomes Resumed; anything beneath stays Paused/Stopped."""
        top = self.top_activity()
        if top is not None:
            self._resume_one(top)
        self.in_background = False

    def _resume_one(self, activity: Activity) -> None:
        if activity.state in (ActivityState.PAUSED, ActivityState.STOPPED):
            if (activity.window is not None
                    and not activity.window.has_surface):
                activity.window.recreate_surface(self.framework.screen)
            activity.perform_transition(ActivityState.RESUMED)
            if activity.view_root is not None:
                activity.view_root.invalidate_all()
                self.renderer.draw(activity.view_root)

    # -- trim-memory chain (paper §3.3, verbatim order) --------------------------

    def handle_trim_memory(self, level: int) -> None:
        self.trim_levels_seen.append(level)
        for activity in self.activities.values():
            activity.on_trim_memory(level)
        if level < TRIM_MEMORY_COMPLETE:
            self.renderer.start_trim_memory(level)
            return
        window_service = self.framework.window_service
        window_service.start_trim_memory(self.process, self.renderer)
        for activity in self.activities.values():
            if activity.view_root is not None:
                self.renderer.destroy_hardware_resources(activity.view_root)
        window_service.end_trim_memory(self.process, self.renderer)
        for activity in self.activities.values():
            if activity.view_root is not None:
                activity.view_root.destroy()
                activity.view_root = None   # rebuilt by conditional init

    def rebuild_view_roots(self) -> None:
        """Conditional re-initialization after restore (paper §3.3)."""
        for activity in self.activities.values():
            if activity.view_root is None:
                activity.on_create(dict(activity.saved_state))

    # -- restore support (used by CRIA's restore engine) ---------------------------

    def rebind(self, framework, process) -> None:
        """Re-attach this thread to a (possibly different) device.

        The thread object *is* the app's heap in our model: CRIA carries
        it in the checkpoint image and calls ``rebind`` on the guest.
        Everything device-specific — renderer, windows, service proxies,
        the recorder — is dropped and lazily rebuilt against the guest
        framework; everything app-specific (activity fields, receiver
        callbacks, app services, providers) survives untouched.
        """
        from repro.android.binder.ibinder import IBinder

        self.framework = framework
        self.process = process
        self.recorder = framework.recorder.bind_app(self.package)

        def fixup(old_remote):
            return IBinder(framework.kernel.binder, process,
                           old_remote.handle)

        self.context.rebind_managers(fixup, self.recorder)
        self.renderer = HardwareRenderer(process, framework.gl)
        self.app_thread_node = self._publish_app_thread_node()
        for activity in self.activities.values():
            window = framework.window_service.add_window(
                self.package, process, title=activity.name)
            window.destroy_surface()   # app is still backgrounded
            activity.attach_window(window)
            activity.thread = self

    def close(self) -> None:
        """World teardown: cut every edge from this app back into its
        device (activities, the context's managers, the framework).
        The app-thread node's edge to this thread is cut by the Binder
        driver.  Activity state stays readable."""
        for activity in self.activities.values():
            activity.close()
        self.context.close()
        self.framework = None

    # -- broadcasts ---------------------------------------------------------------

    def register_receiver(self, callback, actions) -> str:
        receiver = BroadcastReceiver(callback, IntentFilter(tuple(actions)),
                                     owner_package=self.package)
        # Per-thread sequence, not the process-global receiver counter:
        # the id string lands in the record log, so its length must not
        # depend on how many receivers other apps registered before.
        self._receiver_seq = getattr(self, "_receiver_seq", 0) + 1
        receiver_id = f"{self.package}:recv:{self._receiver_seq}"
        self.receivers[receiver_id] = receiver
        activity_manager = self.context.get_system_service("activity")
        activity_manager.registerReceiver(receiver_id,
                                          IntentFilter(tuple(actions)))
        return receiver_id

    def unregister_receiver(self, receiver_id: str) -> None:
        self.receivers.pop(receiver_id, None)
        activity_manager = self.context.get_system_service("activity")
        activity_manager.unregisterReceiver(receiver_id)

    def dispatch_broadcast(self, receiver_id: str, intent: Intent) -> None:
        receiver = self.receivers.get(receiver_id)
        if receiver is not None and receiver.intent_filter.matches(intent):
            receiver.on_receive(intent)

    # -- app services / providers ---------------------------------------------------

    def start_app_service(self, name: str,
                          intent: Optional[Intent] = None) -> AppService:
        service = self.app_services.get(name)
        if service is None:
            service = AppService(name)
            self.app_services[name] = service
        service.on_start_command(intent)
        return service

    def stop_app_service(self, name: str) -> bool:
        service = self.app_services.pop(name, None)
        if service is None:
            return False
        service.on_destroy()
        return True

    def publish_provider(self, authority: str) -> ContentProvider:
        provider = ContentProvider(authority)
        self.providers[authority] = provider
        return provider

    # -- configuration / connectivity callbacks ---------------------------------------

    def on_configuration_changed(self, config) -> None:
        for activity in self.activities.values():
            activity.on_configuration_changed(config)

    def __repr__(self) -> str:
        return (f"ActivityThread(package={self.package!r}, "
                f"pid={self.process.pid})")
