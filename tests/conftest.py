"""Shared fixtures: booted devices, paired device pairs, a demo app."""

from __future__ import annotations

import pytest

from repro.android.app.activity import Activity
from repro.android.app.views import View, ViewGroup
from repro.android.device import Device
from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2012, NEXUS_7_2013
from repro.android.storage.apk import ApkFile
from repro.experiments.harness import run_sweep
from repro.sim import SimClock, units
from repro.sim.rng import RngFactory


DEMO_PACKAGE = "com.example.demo"


class DemoActivity(Activity):
    """Small plain-UI activity used across the suite."""

    def on_create(self, saved_state) -> None:
        root = ViewGroup("root")
        for i in range(4):
            root.add_view(View(f"item-{i}"))
        self.set_content_view(root)


@pytest.fixture(scope="session")
def sweep():
    """The default four-pair, sixteen-app sweep, run once per session
    and shared by argument with every test that reads it."""
    return run_sweep()


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def device(clock):
    """A single booted Nexus 4."""
    return Device(NEXUS_4, clock, RngFactory(1), name="solo")


@pytest.fixture
def device_pair(clock):
    """A paired (home, guest) pair: Nexus 4 home, Nexus 7 (2013) guest."""
    factory = RngFactory(2)
    home = Device(NEXUS_4, clock, factory, name="home")
    guest = Device(NEXUS_7_2013, clock, factory, name="guest")
    return home, guest


@pytest.fixture
def heterogeneous_pair(clock):
    """Nexus 7 (2012) home (kernel 3.1, no GPS) to Nexus 4 guest."""
    factory = RngFactory(3)
    home = Device(NEXUS_7_2012, clock, factory, name="home")
    guest = Device(NEXUS_4, clock, factory, name="guest")
    return home, guest


def install_demo(device, package: str = DEMO_PACKAGE,
                 apk_mb: float = 5.0, **apk_kwargs) -> ApkFile:
    apk = ApkFile(package, 7, units.mb(apk_mb), **apk_kwargs)
    device.install_app(apk)
    return apk


def launch_demo(device, package: str = DEMO_PACKAGE,
                activity_cls=DemoActivity, heap_mb: float = 6.0, **kwargs):
    install_demo(device, package)
    return device.launch_app(package, activity_cls,
                             heap_bytes=units.mb(heap_mb), **kwargs)


@pytest.fixture
def demo_thread(device):
    return launch_demo(device)
