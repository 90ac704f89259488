"""Long handoff runs keep per-kernel and per-GPU tables bounded.

Every app of the catalog migrates back and forth between one paper
device pair, round after round.  Tables keyed by process must follow
the live processes, not every process that ever ran.
"""

import pytest

from repro.android.device import Device
from repro.android.hardware.profiles import PAPER_DEVICE_PAIRS
from repro.apps.catalog import MIGRATABLE_APPS
from repro.sim import SimClock
from repro.sim.rng import RngFactory

ROUNDS = 12


@pytest.fixture(scope="module")
def handed_off():
    """(home, guest, per-round snapshots) after ``ROUNDS`` rounds."""
    home_profile, guest_profile = PAPER_DEVICE_PAIRS[0]
    clock, rngs = SimClock(), RngFactory(5)
    home = Device(home_profile, clock, rngs, name="home")
    guest = Device(guest_profile, clock, rngs, name="guest")
    for app in MIGRATABLE_APPS:
        app.install(home)
    home.pairing_service.pair(guest)
    guest.pairing_service.pair(home)
    for app in MIGRATABLE_APPS:
        app.install_and_launch(home)
    packages = [app.package for app in MIGRATABLE_APPS]
    source, target = home, guest
    snapshots = []
    for _ in range(ROUNDS):
        for package in packages:
            assert source.migration_service.migrate(target, package).success
        source, target = target, source
        snapshots.append({device.name: (len(device.kernel.namespaces()),
                                        len(device.vendor_gl._allocations))
                          for device in (home, guest)})
    return home, guest, packages, snapshots


def test_namespaces_count_only_resident_migrated_in_apps(handed_off):
    home, guest, packages, snapshots = handed_off
    # After an even number of rounds every app is back on home, each
    # restored there by its last migration; the guest holds none.
    assert len(home.kernel.namespaces()) == len(packages)
    assert guest.kernel.namespaces() == []
    for round_, counts in enumerate(snapshots, start=1):
        resident = home if round_ % 2 == 0 else guest
        for name, (namespaces, _) in counts.items():
            assert namespaces == (len(packages) if name == resident.name
                                  else 0), (round_, name)
    for device in (home, guest):
        for namespace in device.kernel.namespaces():
            assert all(device.kernel.has_pid(real)
                       for real in namespace.bindings().values())


def test_gl_allocation_table_bounded_by_live_processes(handed_off):
    home, guest, _, snapshots = handed_off
    for device in (home, guest):
        assert all(device.kernel.has_pid(pid)
                   for pid in device.vendor_gl._allocations)
    live = max(len(home.kernel.processes()), len(guest.kernel.processes()))
    assert all(tables <= live for counts in snapshots
               for _, tables in counts.values())
