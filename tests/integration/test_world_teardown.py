"""World teardown: a finished world is freed by reference counting.

``run_site``, ``run_scenario`` and ``run_pair`` close their world once
its results are exported (``Device.close``; DESIGN.md, "World ownership
and teardown").  With the cyclic collector off for the world's whole
life, every ``Device`` must be dead afterwards and ``gc.collect()`` must
find next to nothing.  A new child-to-parent edge that ``close()`` does
not cut shows up here as a live device or as cyclic garbage.
"""

import contextlib
import gc
import weakref

import pytest

from repro.android.device import Device
from repro.android.hardware.profiles import (
    NEXUS_4,
    NEXUS_7_2013,
    PAPER_DEVICE_PAIRS,
)
from repro.apps.catalog import TOP_APPS
from repro.apps.games import CANDY_CRUSH, FLAPPY_BIRD, SUBWAY_SURFERS
from repro.apps.social import FACEBOOK
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.cria.restore import RestoreFaultPlan
from repro.experiments.fleet import FleetSpec, build_sites, run_site
from repro.experiments.harness import run_pair
from repro.experiments.scenario import ScenarioSpec, SessionSpec, run_scenario
from repro.sim import SimClock
from repro.sim.rng import RngFactory

#: Objects one finished world may leave for ``gc.collect()``.  Measured
#: on CPython 3.11: 0 for every world below (a fleet site left about
#: 8,500 before worlds were closed).  The smallest cycle ``close()``
#: cuts, a sensor socket pair with its two inboxes, leaves 4.
GARBAGE_BOUND = 4

#: Sensors (a socket pair), GL, alarms and notifications, and the two
#: refusals (the discard path): every kind of edge close() cuts.
APPS = (FLAPPY_BIRD, CANDY_CRUSH, SUBWAY_SURFERS, FACEBOOK)


@pytest.fixture
def device_refs(monkeypatch):
    """A weakref to every Device built while the test runs."""
    refs = []
    init = Device.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Device, "__init__", tracking_init)
    return refs


@contextlib.contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def assert_freed(refs, expected_devices):
    assert len(refs) == expected_devices
    alive = [ref() for ref in refs if ref() is not None]
    assert alive == []
    assert gc.collect() < GARBAGE_BOUND


def test_fleet_site_is_freed(device_refs):
    spec = FleetSpec(devices=12, arrivals=40, seed=7)
    warmup, site = build_sites(spec)[:2]
    # The first world builds lazily created interpreter state.
    run_site(spec, warmup)
    device_refs.clear()
    with collector_off():
        run_site(spec, site)
        assert_freed(device_refs, len(site.devices))


def _scenario():
    devices = (("home", NEXUS_4), ("guest", NEXUS_7_2013))
    sessions = tuple(SessionSpec("home", "guest", app.package)
                     for app in APPS)
    result = run_scenario(ScenarioSpec(devices=devices, sessions=sessions,
                                       seed=5))
    statuses = sorted(outcome.status for outcome in result.sessions)
    assert statuses == ["migrated", "migrated", "refused", "refused"]


def test_scenario_world_is_freed(device_refs):
    _scenario()
    device_refs.clear()
    with collector_off():
        _scenario()
        assert_freed(device_refs, 2)


def _pair():
    home, guest = PAPER_DEVICE_PAIRS[0]
    outcome = run_pair(home, guest, APPS, seed=4, include_failures=True)
    assert len(outcome.reports) == 2 and len(outcome.refusals) == 2


def test_pair_world_is_freed(device_refs):
    _pair()
    device_refs.clear()
    with collector_off():
        _pair()
        assert_freed(device_refs, 2)


def _faulted_migration():
    """Restore fails on the guest; the pipeline rolls the app back."""
    clock = SimClock()
    factory = RngFactory(2)
    home = Device(NEXUS_4, clock, factory, name="home")
    guest = Device(NEXUS_7_2013, clock, factory, name="guest")
    FLAPPY_BIRD.install_and_launch(home)
    home.pairing_service.pair(guest)
    try:
        home.migration_service.migrate(
            guest, FLAPPY_BIRD.package,
            restore_fault=RestoreFaultPlan(fail_after_steps=1))
    except MigrationError as error:
        assert error.reason is MigrationRefusal.RESTORE_FAILED
    else:
        pytest.fail("the armed restore fault did not fire")
    assert home.running_packages() == [FLAPPY_BIRD.package]
    home.close()
    guest.close()
    clock.close()


def test_device_closed_after_migration_error_is_freed(device_refs):
    _faulted_migration()
    device_refs.clear()
    with collector_off():
        _faulted_migration()
        assert_freed(device_refs, 2)


def test_close_runs_no_simulated_work():
    """Teardown only cuts edges: with every catalog app running, it
    issues no transaction, moves no clock and leaves every export as
    it was (a manager's ``close`` is app API and must not be called)."""
    home = Device(NEXUS_4, SimClock(), RngFactory(2), name="home")
    for app in TOP_APPS:
        app.install_and_launch(home)
    now = home.clock.now
    transactions = home.binder.total_transactions
    snapshot = home.metrics.snapshot()
    events = home.events.export()
    home.close()
    home.close()
    assert home.clock.now == now
    assert home.binder.total_transactions == transactions
    assert home.metrics.snapshot() == snapshot
    assert home.events.export() == events
