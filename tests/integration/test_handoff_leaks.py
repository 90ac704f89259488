"""Long handoff runs keep per-kernel, per-GPU and per-service tables
bounded, and a migrated-out app leaves nothing behind.

Every app of the catalog migrates back and forth between one paper
device pair, round after round.  Tables keyed by process must follow
the live processes, not every process that ever ran.  Every process a
migration kills must be freed by reference counting by the time
``migrate`` returns: the cyclic collector stays off while the apps
migrate.  A process's death releases ``system_server``'s reference to
the app's thread node and removes the process's windows (DESIGN.md,
"World ownership and teardown").  The same holds with every telemetry
plane off.

With the telemetry planes off nothing else may grow with run length
either: the memory ratchet below bounds what the perfbench handoff
rounds keep per migration (DESIGN.md, "What grows with run length").
A second ratchet bounds the same rounds with every plane on, where the
event ring and the timeline are what grows.
"""

import contextlib
import gc
import weakref
from typing import Dict, List, NamedTuple, Tuple

import pytest

from repro.android.device import Device
from repro.android.hardware.profiles import (
    NEXUS_4,
    NEXUS_7_2013,
    PAPER_DEVICE_PAIRS,
)
from repro.apps.catalog import MIGRATABLE_APPS
from repro.apps.games import FLAPPY_BIRD
from repro.apps.social import FACEBOOK
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.cria.restore import RestoreFaultPlan
from repro.sim import SimClock
from repro.sim.rng import RngFactory
from repro.sim.telemetry import EVENTS_ENV, METRICS_ENV, TIMELINE_ENV
from tests.helpers import retention

ROUNDS = 12

#: kB the perfbench handoff rounds may keep per migration with every
#: telemetry plane off (``tests/helpers/retention.py``).  Measured on
#: CPython 3.11, seed 0: 5.60 when the tracer kept a flat event log and
#: every migration's span tree, the service every report, and a
#: migrated-out app its sensor connections on home; 0.54 after, of
#: which 0.37 was the chunk store; 0.48 once the store kept no capacity
#: bookkeeping; 0.20 once it kept no digest for the two chunks keyed by
#: checkpoint time, which no later split can hit.  What is left is
#: mostly the alarm service and its driver (0.13).
RETAINED_KB_PER_MIGRATION = 0.3

#: The same bound with every telemetry plane on.  Measured on CPython
#: 3.11, seed 0: 2.85 when every metric kept a sample track, 1.98 with
#: a value alone; the event ring holds 1.24 of that.
RETAINED_KB_PER_MIGRATION_TELEMETRY = 2.2

TELEMETRY = ("telemetry-on", "telemetry-off")


@contextlib.contextmanager
def telemetry_env(mode):
    """All three telemetry knobs ``=0`` for ``telemetry-off``."""
    with pytest.MonkeyPatch.context() as patch:
        for name in (METRICS_ENV, EVENTS_ENV, TIMELINE_ENV):
            if mode == "telemetry-off":
                patch.setenv(name, "0")
            else:
                patch.delenv(name, raising=False)
        yield


@contextlib.contextmanager
def collector_off():
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def system_refs(device):
    """How many binder references ``system_server`` holds."""
    return len(device.binder.state(device.system_process).refs)


def windows_of_dead(device):
    """Window-table entries whose process has exited."""
    return [window for window in device.window_service._windows.values()
            if not window.process.alive]


def live(refs):
    return [ref() for ref in refs if ref() is not None]


class HandedOff(NamedTuple):
    mode: str
    home: Device
    guest: Device
    packages: List[str]
    #: Per round, per device: (namespaces, GL tables, system_server
    #: refs, windows of dead processes).
    snapshots: List[Dict[str, Tuple[int, int, int, int]]]
    #: Per migration: (package, killed processes still alive).
    survivors: List[Tuple[str, int]]
    #: ``system_server`` refs per device before any app launched.
    bases: Dict[str, int]


def _hand_off(mode) -> HandedOff:
    with telemetry_env(mode):
        home_profile, guest_profile = PAPER_DEVICE_PAIRS[0]
        clock, rngs = SimClock(), RngFactory(5)
        home = Device(home_profile, clock, rngs, name="home")
        guest = Device(guest_profile, clock, rngs, name="guest")
    assert home.telemetry.enabled is (mode == "telemetry-on")
    for app in MIGRATABLE_APPS:
        app.install(home)
    home.pairing_service.pair(guest)
    guest.pairing_service.pair(home)
    bases = {device.name: system_refs(device) for device in (home, guest)}
    for app in MIGRATABLE_APPS:
        app.install_and_launch(home)
    packages = [app.package for app in MIGRATABLE_APPS]
    source, target = home, guest
    snapshots, survivors = [], []
    with collector_off():
        for _ in range(ROUNDS):
            for package in packages:
                killed = [weakref.ref(process)
                          for process in source.app_processes(package)]
                assert killed
                assert source.migration_service.migrate(
                    target, package).success
                survivors.append((package, len(live(killed))))
            source, target = target, source
            snapshots.append({device.name: (
                len(device.kernel.namespaces()),
                len(device.vendor_gl._allocations),
                system_refs(device),
                len(windows_of_dead(device)),
            ) for device in (home, guest)})
    return HandedOff(mode, home, guest, packages, snapshots, survivors,
                     bases)


@pytest.fixture(scope="module")
def handed_off():
    """``ROUNDS`` rounds with telemetry on, then with it off."""
    return [_hand_off(mode) for mode in TELEMETRY]


def test_namespaces_count_only_resident_migrated_in_apps(handed_off):
    for run in handed_off:
        home, guest, packages = run.home, run.guest, run.packages
        # After an even number of rounds every app is back on home,
        # each restored there by its last migration; the guest holds
        # none.
        assert len(home.kernel.namespaces()) == len(packages)
        assert guest.kernel.namespaces() == []
        for round_, counts in enumerate(run.snapshots, start=1):
            resident = home if round_ % 2 == 0 else guest
            for name, (namespaces, _, _, _) in counts.items():
                assert namespaces == (len(packages) if name == resident.name
                                      else 0), (run.mode, round_, name)
        for device in (home, guest):
            for namespace in device.kernel.namespaces():
                assert all(device.kernel.has_pid(real)
                           for real in namespace.bindings().values())


def test_gl_allocation_table_bounded_by_live_processes(handed_off):
    for run in handed_off:
        for device in (run.home, run.guest):
            assert all(device.kernel.has_pid(pid)
                       for pid in device.vendor_gl._allocations)
        live_processes = max(len(run.home.kernel.processes()),
                             len(run.guest.kernel.processes()))
        assert all(tables <= live_processes for counts in run.snapshots
                   for _, tables, _, _ in counts.values()), run.mode


def test_killed_home_processes_freed_when_migrate_returns(handed_off):
    for run in handed_off:
        assert len(run.survivors) == ROUNDS * len(run.packages)
        assert [entry for entry in run.survivors if entry[1]] == [], run.mode


def test_window_table_holds_only_live_processes(handed_off):
    for run in handed_off:
        assert all(dead == 0 for counts in run.snapshots
                   for _, _, _, dead in counts.values()), run.mode
        for device in (run.home, run.guest):
            assert windows_of_dead(device) == []


def test_no_span_tree_outlives_its_migration(handed_off):
    for run in handed_off:
        for device in (run.home, run.guest):
            assert device.tracer.root_spans() == [], (run.mode, device.name)


def test_export_scope_keeps_the_migration_root():
    clock, rngs = SimClock(), RngFactory(4)
    home = Device(NEXUS_4, clock, rngs, name="home")
    guest = Device(NEXUS_7_2013, clock, rngs, name="guest")
    FLAPPY_BIRD.install_and_launch(home)
    home.pairing_service.pair(guest)
    with home.tracer.exporting():
        report = home.migration_service.migrate(guest, FLAPPY_BIRD.package)
    [root] = home.tracer.root_spans()
    assert root.category == "migration" and root.closed
    assert [span.name for span in root.children] == list(report.stages)


def test_retained_memory_per_migration_ratchet():
    result = retention.measure(seed=0)
    assert result["failed"] == 0
    assert result["migrations"] == (retention.LAST - retention.FIRST) * 64
    assert result["kb_per_migration"] <= RETAINED_KB_PER_MIGRATION, \
        retention.format_report(result)


def test_retained_memory_per_migration_with_telemetry_ratchet():
    result = retention.measure(seed=0, quiet=False)
    assert result["failed"] == 0
    assert result["kb_per_migration"] <= \
        RETAINED_KB_PER_MIGRATION_TELEMETRY, retention.format_report(result)


def test_system_server_refs_follow_resident_apps(handed_off):
    """One reference per resident app's thread node, every round."""
    for run in handed_off:
        for round_, counts in enumerate(run.snapshots, start=1):
            resident = run.home if round_ % 2 == 0 else run.guest
            for name, (_, _, refs, _) in counts.items():
                expected = run.bases[name] + (
                    len(run.packages) if name == resident.name else 0)
                assert refs == expected, (run.mode, round_, name)


@pytest.mark.parametrize("mode", TELEMETRY)
@pytest.mark.parametrize("fail_after_steps", [1, 6])
def test_restore_fault_rollback_frees_guest_processes(mode,
                                                      fail_after_steps):
    """A restore that fails part-way kills what it built on the guest;
    those processes are freed when ``migrate`` raises, and the app then
    migrates cleanly."""
    with telemetry_env(mode):
        clock, rngs = SimClock(), RngFactory(2)
        home = Device(NEXUS_4, clock, rngs, name="home")
        guest = Device(NEXUS_7_2013, clock, rngs, name="guest")
        FLAPPY_BIRD.install_and_launch(home)
        home.pairing_service.pair(guest)
    bases = {device.name: system_refs(device) for device in (home, guest)}
    restored = []
    create = guest.kernel.create_process

    def tracking_create(*args, **kwargs):
        process = create(*args, **kwargs)
        restored.append(weakref.ref(process))
        return process

    guest.kernel.create_process = tracking_create
    with collector_off():
        try:
            home.migration_service.migrate(
                guest, FLAPPY_BIRD.package,
                restore_fault=RestoreFaultPlan(
                    fail_after_steps=fail_after_steps))
        except MigrationError as error:
            assert error.reason is MigrationRefusal.RESTORE_FAILED
        else:
            pytest.fail("the armed restore fault did not fire")
        assert restored
        assert live(restored) == []
        assert home.running_packages() == [FLAPPY_BIRD.package]
        assert {device.name: system_refs(device)
                for device in (home, guest)} == bases

        killed = [weakref.ref(process)
                  for process in home.app_processes(FLAPPY_BIRD.package)]
        assert home.migration_service.migrate(
            guest, FLAPPY_BIRD.package).success
        assert live(killed) == []
    for device in (home, guest):
        assert windows_of_dead(device) == []
    assert system_refs(home) == bases["home"] - 1
    assert system_refs(guest) == bases["guest"] + 1


@pytest.mark.parametrize("app", [FLAPPY_BIRD, FACEBOOK],
                         ids=["flappy-bird", "facebook"])
@pytest.mark.parametrize("mode", TELEMETRY)
def test_kill_background_processes_releases_ref_and_windows(mode, app):
    """Every process of the app dies, the app leaves the registry and
    is freed, and it can be launched again."""
    with telemetry_env(mode):
        device = Device(NEXUS_4, SimClock(), RngFactory(3), name="home")
    before = system_refs(device)
    thread = app.install_and_launch(device)
    assert system_refs(device) == before + 1
    assert device.window_service.windows_of(app.package)
    device.activity_service.background_app(app.package)
    device.clock.advance(1.0)
    with collector_off():
        killed = [weakref.ref(process)
                  for process in device.app_processes(app.package)]
        assert len(killed) == 1 + app.multi_process
        device.activity_service.killBackgroundProcesses(thread.process,
                                                        app.package)
        del thread
        assert live(killed) == []
    assert device.app_processes(app.package) == []
    assert device.running_packages() == []
    assert device.thread_of(app.package) is None
    assert system_refs(device) == before
    assert device.window_service.windows_of(app.package) == []
    assert windows_of_dead(device) == []
    assert app.install_and_launch(device).process.alive
    assert device.running_packages() == [app.package]
