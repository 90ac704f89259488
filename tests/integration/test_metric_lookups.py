"""Hot call sites hold their metric series.

Each interposed Binder call, recorded call, restore step and delivery
once paid a registry lookup, which builds the series key string.  The
binder driver, the per-app recorder, links, the chunk store and each
device's per-package restore steps now hold their series from its first
use (DESIGN.md, "Metric series").  This ratchet counts the
``MetricsRegistry.counter``/``gauge``/``histogram`` calls (the calls
perfbench's ``metrics.lookup`` span counts) over warm migrations of one
paper device pair.
"""

import contextlib

from repro.android.device import Device
from repro.android.hardware.profiles import PAPER_DEVICE_PAIRS
from repro.apps.catalog import MIGRATABLE_APPS
from repro.sim import SimClock
from repro.sim.metrics import MetricsRegistry
from repro.sim.rng import RngFactory
from repro.sim.telemetry import EVENTS_ENV, METRICS_ENV, TIMELINE_ENV

#: Registry lookups per warm migration, telemetry on.  Measured on the
#: first paper pair, seed 3: 37.94 when every call site looked its
#: series up on every call; 18.06 with the series held.  What is left
#: is looked up once per migration: checkpoint, transfer, replay and
#: session series, and the series of the link and of the app recorder
#: each migration builds.
LOOKUPS_PER_MIGRATION = 18.1

#: Rounds before counting (each device has then restored every app)
#: and rounds counted; every app crosses the pair once a round.
WARM_ROUNDS, COUNTED_ROUNDS = 2, 4


def _pair():
    home_profile, guest_profile = PAPER_DEVICE_PAIRS[0]
    clock, rngs = SimClock(), RngFactory(3)
    home = Device(home_profile, clock, rngs, name="home")
    guest = Device(guest_profile, clock, rngs, name="guest")
    for app in MIGRATABLE_APPS:
        app.install(home)
    home.pairing_service.pair(guest)
    guest.pairing_service.pair(home)
    for app in MIGRATABLE_APPS:
        app.install_and_launch(home)
    return home, guest


def _rounds(devices, rounds):
    """Migrate every app across the pair ``rounds`` times; returns the
    migrations made."""
    source, target = devices
    for _ in range(rounds):
        for app in MIGRATABLE_APPS:
            assert source.migration_service.migrate(
                target, app.package).success
        source, target = target, source
    return rounds * len(MIGRATABLE_APPS)


@contextlib.contextmanager
def _counting_lookups(monkeypatch):
    calls = []
    for method in ("counter", "gauge", "histogram"):
        lookup = getattr(MetricsRegistry, method)

        def counted(self, *args, _lookup=lookup, **labels):
            calls.append(args[:2])
            return _lookup(self, *args, **labels)

        monkeypatch.setattr(MetricsRegistry, method, counted)
    yield calls
    monkeypatch.undo()


def test_warm_migration_lookup_ratchet(monkeypatch):
    for name in (METRICS_ENV, EVENTS_ENV, TIMELINE_ENV):
        monkeypatch.delenv(name, raising=False)
    devices = _pair()
    _rounds(devices, WARM_ROUNDS)
    with _counting_lookups(monkeypatch) as calls:
        migrations = _rounds(devices, COUNTED_ROUNDS)
    per_migration = len(calls) / migrations
    assert per_migration <= LOOKUPS_PER_MIGRATION, per_migration
    # The held sites are gone from the warm path.
    assert not {("binder", "transactions"), ("chunks", "store_bytes"),
                ("cria", "restore_sub_ops")} & set(calls)


def test_holders_add_no_series_with_every_knob_off(monkeypatch):
    for name in (METRICS_ENV, EVENTS_ENV, TIMELINE_ENV):
        monkeypatch.setenv(name, "0")
    devices = _pair()
    _rounds(devices, 2)
    for device in devices:
        assert not device.metrics.enabled
        assert len(device.metrics) == 0
        held = [metric for series in device.binder._series.values()
                for metric in series]
        held += device.restore_steps.values()
        assert held and set(held) <= {device.metrics.counter("x", "y"),
                                      device.metrics.histogram("x", "y")}
