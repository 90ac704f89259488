"""Model-based testing of the app lifecycle across kill paths.

A hypothesis state machine launches a single-process app (Flappy Bird)
and a multi-process one (Facebook) on two paired devices, then
backgrounds, kills, terminates, migrates and rolls back migrations of
them in any order, relaunching after any kill.  A plain-Python model
says where each app runs.  After every step, on every device, the app
registry, the kernel's process table and ``system_server``'s binder
references must agree with the model, and every process a step killed
must already be freed by reference counting (DESIGN.md, "App
lifecycle").
"""

import weakref

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.android.device import Device
from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
from repro.android.services.activity_manager import ActivityManagerService
from repro.apps.games import FLAPPY_BIRD
from repro.apps.social import FACEBOOK
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.cria.restore import RestoreFaultPlan
from repro.sim import SimClock
from repro.sim.rng import RngFactory
from tests.integration.test_handoff_leaks import collector_off, system_refs

APPS = (FLAPPY_BIRD, FACEBOOK)
PACKAGES = tuple(app.package for app in APPS)

#: Picks one of the running (or stopped) apps, modulo how many.
picks = st.integers(0, len(APPS) - 1)


class AppLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        clock, rngs = SimClock(), RngFactory(17)
        self.devices = [Device(NEXUS_4, clock, rngs, name="home"),
                        Device(NEXUS_7_2013, clock, rngs, name="guest")]
        self.clock = clock
        home, guest = self.devices
        for app in APPS:
            app.install(home)
        home.pairing_service.pair(guest)
        guest.pairing_service.pair(home)
        self.bases = [system_refs(device) for device in self.devices]
        #: Weak references to every app process any device created.
        self.spawned = []
        for device in self.devices:
            self._track_spawns(device.kernel)
        #: Reference model: package -> index of the device running it.
        self.where = {}

    def _track_spawns(self, kernel):
        create = kernel.create_process

        def tracking_create(*args, **kwargs):
            process = create(*args, **kwargs)
            if process.package in PACKAGES:
                self.spawned.append(weakref.ref(process))
            return process

        kernel.create_process = tracking_create

    def _freeing(self, step):
        """Run ``step`` with the collector off; every app process dead
        afterwards must be unreachable already."""
        with collector_off():
            step()
            assert [ref for ref in self.spawned
                    if ref() is not None and not ref().alive] == []
        self.spawned = [ref for ref in self.spawned if ref() is not None]

    def _running(self, pick):
        """One running app and the device it runs on."""
        running = [app for app in APPS if app.package in self.where]
        app = running[pick % len(running)]
        return app, self.devices[self.where[app.package]]

    # -- rules -------------------------------------------------------------

    @precondition(lambda self: len(self.where) < len(APPS))
    @rule(pick=picks, index=st.integers(0, 1))
    def launch(self, pick, index):
        stopped = [app for app in APPS if app.package not in self.where]
        app = stopped[pick % len(stopped)]
        # Relaunch after any kill: nothing of the old instance is left
        # to refuse it ("already running").
        app.install_and_launch(self.devices[index])
        self.where[app.package] = index

    @precondition(lambda self: self.where)
    @rule(pick=picks, idle=st.booleans())
    def background(self, pick, idle):
        app, device = self._running(pick)
        device.activity_service.background_app(app.package)
        if idle:
            self.clock.advance(ActivityManagerService.TASK_IDLE_DELAY + 0.1)
        # Otherwise the task idler is still pending, and fires during a
        # later step, perhaps after the app was killed.

    @precondition(lambda self: self.where)
    @rule(pick=picks)
    def kill_background_processes(self, pick):
        app, device = self._running(pick)
        killed = device.thread_of(app.package).in_background
        self._freeing(lambda: device.activity_service.killBackgroundProcesses(
            device.system_process, app.package))
        if killed:
            del self.where[app.package]

    @precondition(lambda self: self.where)
    @rule(pick=picks)
    def terminate(self, pick):
        app, device = self._running(pick)
        del self.where[app.package]
        self._freeing(lambda: device.terminate_app(app.package))

    @precondition(lambda self: self.where)
    @rule(pick=picks, faulted=st.booleans(),
          fail_after_steps=st.integers(1, 6))
    def migrate(self, pick, faulted, fail_after_steps):
        app, source = self._running(pick)
        index = self.devices.index(source)
        target = self.devices[1 - index]
        fault = (RestoreFaultPlan(fail_after_steps=fail_after_steps)
                 if faulted else None)
        outcome = []

        def step():
            try:
                source.migration_service.migrate(
                    target, app.package, restore_fault=fault)
            except MigrationError as error:
                outcome.append(error.reason)
            else:
                outcome.append(None)

        self._freeing(step)
        reason = outcome[0]
        if app.multi_process:
            # A refusal is a step too: the app stays where it was.
            assert reason is MigrationRefusal.MULTI_PROCESS
        elif faulted:
            # Rolled back: the guest's partial restore is gone.
            assert reason is MigrationRefusal.RESTORE_FAILED
        else:
            assert reason is None
            self.where[app.package] = 1 - index

    # -- invariants -----------------------------------------------------------

    @invariant()
    def registry_matches_model(self):
        for index, device in enumerate(self.devices):
            expected = sorted(package for package, at in self.where.items()
                              if at == index)
            registered = [package for package in PACKAGES
                          if device.activity_service.is_running(package)]
            assert device.running_packages() == sorted(registered) \
                == expected, device.name

    @invariant()
    def registered_apps_are_alive(self):
        for device in self.devices:
            for package in device.running_packages():
                assert device.thread_of(package).process.alive

    @invariant()
    def no_process_of_an_unregistered_app(self):
        for device in self.devices:
            running = set(device.running_packages())
            strays = [process.name for process in device.kernel.processes()
                      if process.package in PACKAGES
                      and process.package not in running]
            assert strays == [], device.name

    @invariant()
    def system_server_holds_one_ref_per_app(self):
        for device, base in zip(self.devices, self.bases):
            assert system_refs(device) == \
                base + len(device.running_packages()), device.name


AppLifecycle.TestCase.settings = settings(
    max_examples=12, stateful_step_count=16, deadline=None)
TestAppLifecycle = AppLifecycle.TestCase


def test_migration_onto_a_guest_running_the_app_is_refused():
    """Flappy Bird Nexus 4 -> Nexus 7, relaunched natively on the Nexus
    4, then migrated back: the Nexus 4 already runs it, so the
    migration is refused before any guest state exists, and each
    device keeps exactly its one registered instance."""
    clock, rngs = SimClock(), RngFactory(17)
    nexus_4 = Device(NEXUS_4, clock, rngs, name="nexus-4")
    nexus_7 = Device(NEXUS_7_2013, clock, rngs, name="nexus-7")
    FLAPPY_BIRD.install(nexus_4)
    nexus_4.pairing_service.pair(nexus_7)
    nexus_7.pairing_service.pair(nexus_4)
    package = FLAPPY_BIRD.package
    FLAPPY_BIRD.install_and_launch(nexus_4)
    assert nexus_4.migration_service.migrate(nexus_7, package).success
    FLAPPY_BIRD.install_and_launch(nexus_4)
    namespaces = len(nexus_4.kernel.namespaces())

    try:
        nexus_7.migration_service.migrate(nexus_4, package)
    except MigrationError as error:
        reason, failed = error.reason, error.report
    else:
        reason = failed = None

    assert reason is MigrationRefusal.GUEST_ALREADY_RUNNING
    assert failed.refusal is reason
    assert len(nexus_4.kernel.namespaces()) == namespaces
    for device in (nexus_4, nexus_7):
        processes = [process for process in device.kernel.processes()
                     if process.package == package]
        assert [process.name for process in processes] == \
            [f"{package}:main"], device.name
        assert device.running_packages() == [package]
        assert device.thread_of(package).process is processes[0]
        assert processes[0].alive
        assert processes[0].state.value != "frozen"


def _sensor_nodes(device):
    """``system_server``'s sensor-connection nodes."""
    return [node for node
            in device.binder.state(device.system_process).owned_nodes
            if node.label.startswith("sensor-connection:")]


def test_a_migrated_out_app_leaves_no_sensor_connection_behind():
    """Flappy Bird Nexus 4 -> Nexus 7 and back.  Once it has left the
    Nexus 4, an accelerometer event there reaches no one; after the
    round trip it reaches the returned app once, not once more through
    the connection the first instance left."""
    clock, rngs = SimClock(), RngFactory(17)
    nexus_4 = Device(NEXUS_4, clock, rngs, name="nexus-4")
    nexus_7 = Device(NEXUS_7_2013, clock, rngs, name="nexus-7")
    FLAPPY_BIRD.install(nexus_4)
    nexus_4.pairing_service.pair(nexus_7)
    nexus_7.pairing_service.pair(nexus_4)
    package = FLAPPY_BIRD.package
    FLAPPY_BIRD.install_and_launch(nexus_4)
    home_sensors = nexus_4.service("sensor")
    [accelerometer] = [sensor.handle
                       for sensor in home_sensors.getSensorList(None)
                       if sensor.sensor_type == "accelerometer"]
    assert home_sensors.inject_event(accelerometer, b"tilt") == 1
    nodes = _sensor_nodes(nexus_4)

    assert nexus_4.migration_service.migrate(nexus_7, package).success
    assert home_sensors.inject_event(accelerometer, b"tilt") == 0
    assert home_sensors.connections == []
    assert _sensor_nodes(nexus_4) == []
    assert not any(node.alive or node.service for node in nodes)
    assert nexus_7.service("sensor").inject_event(accelerometer,
                                                  b"tilt") == 1

    assert nexus_7.migration_service.migrate(nexus_4, package).success
    assert home_sensors.inject_event(accelerometer, b"tilt") == 1
    assert nexus_7.service("sensor").inject_event(accelerometer,
                                                  b"tilt") == 0
    assert len(_sensor_nodes(nexus_4)) == 1
    assert _sensor_nodes(nexus_7) == []
