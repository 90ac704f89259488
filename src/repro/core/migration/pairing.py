"""Pairing: one-time preparation of a guest device for migrations.

Paper §3.1: pairing (1) syncs the home device's core frameworks and
libraries to a private area on the guest's data partition, hard-linking
files identical to the guest's own system partition (rsync
``--link-dest``); (2) syncs each app's APK and data directories
(including app-specific SD card directories, but not common SD data);
(3) pseudo-installs each APK's metadata with the guest's
PackageManagerService, creating the wrapper app; (4) refuses apps whose
required API level exceeds the guest's stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.android.net.link import Link, link_between
from repro.android.storage.sync import RsyncEngine, SyncResult
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.migration import costs
from repro.sim.scheduler import Charge, drive_sync
from repro.sim.telemetry import Telemetry


def flux_root(home_name: str) -> str:
    """Guest-side private area holding a home device's synced files."""
    return f"/data/flux/{home_name}"


@dataclass
class PairedApp:
    package: str
    version_code: int
    apk_synced_bytes: int
    data_synced_bytes: int


@dataclass
class PairingReport:
    home: str
    guest: str
    framework_sync: SyncResult
    apps: List[PairedApp] = field(default_factory=list)
    incompatible: List[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def constant_bytes_total(self) -> int:
        """Logical size of the constant data set (paper: 215 MB)."""
        return self.framework_sync.bytes_total

    @property
    def constant_bytes_after_linking(self) -> int:
        """What remains after hard links (paper: 123 MB)."""
        return self.framework_sync.bytes_after_linking

    @property
    def constant_bytes_compressed(self) -> int:
        """Compressed delta over the wire (paper: 56 MB)."""
        return self.framework_sync.bytes_compressed


class PairingService:
    """Runs on every Flux device; pairs this (home) device with guests."""

    def __init__(self, device) -> None:
        self.device = device
        self._paired_with: Dict[str, PairingReport] = {}
        #: Pairing links record metrics and events into the device's
        #: planes but no timeline: the pinned scenario and fleet
        #: timelines hold no pairing wire occupancy, and adding it
        #: would be a deliberate change to them.
        self._link_telemetry = replace(device.telemetry,
                                       timeline=Telemetry.null().timeline)

    def _link(self, guest) -> Link:
        """The link pairing and verification sync over when given none."""
        home = self.device
        return link_between(home.profile, guest.profile, home.rng_factory,
                            telemetry=self._link_telemetry)

    def is_paired_with(self, guest_name: str) -> bool:
        return guest_name in self._paired_with

    def pairing_with(self, guest_name: str) -> Optional[PairingReport]:
        return self._paired_with.get(guest_name)

    def pair(self, guest, link: Optional[Link] = None) -> PairingReport:
        """Pair this home device with ``guest``; returns the report."""
        return drive_sync(self._pair_steps(guest, link or self._link(guest)),
                          self.device.clock)

    def _pair_steps(self, guest, link: Link):
        """:meth:`pair` as a session: yields its CPU charges and link
        deliveries, returns the :class:`PairingReport`."""
        home = self.device
        started = home.clock.now
        rsync = RsyncEngine()

        # 1. Core frameworks + libraries, hard-linked against the guest's
        #    own /system where contents are identical.
        framework_sync = rsync.sync(
            home.storage, "/system",
            guest.storage, f"{flux_root(home.name)}/system",
            link_dest_prefix="/system")
        yield Charge(costs.pairing_scan_cost(
            framework_sync.files_considered, home.profile.cpu_factor))
        yield link.plan(framework_sync.bytes_compressed)

        report = PairingReport(home=home.name, guest=guest.name,
                               framework_sync=framework_sync)

        # 2 + 3. Per-app APKs, data directories, pseudo-install.
        for info in home.package_service.installed_packages(
                include_pseudo=False):
            if info.api_level > guest.profile.api_level:
                report.incompatible.append(info.package)
                continue
            report.apps.append(
                (yield from self._pair_app(guest, link, rsync, info)))

        report.seconds = home.clock.now - started
        self._paired_with[guest.name] = report
        guest_pairing = getattr(guest, "pairing_service", None)
        if guest_pairing is not None:
            guest_pairing._paired_with.setdefault(home.name, report)
        return report

    def _pair_app(self, guest, link: Link, rsync: RsyncEngine, info):
        home = self.device
        package = info.package
        root = flux_root(home.name)

        apk_sync = rsync.sync(home.storage, f"/data/app/{package}.apk",
                              guest.storage, f"{root}/app/{package}.apk")
        data_sync = rsync.sync(home.storage, f"/data/data/{package}",
                               guest.storage, f"{root}/data/{package}")
        sd_sync = rsync.sync(home.storage,
                             f"/sdcard/Android/data/{package}",
                             guest.storage,
                             f"{root}/sdcard/{package}")
        payload = (apk_sync.bytes_compressed + data_sync.bytes_compressed
                   + sd_sync.bytes_compressed)
        if payload:
            yield link.plan(payload)

        if not (guest.package_service.is_installed(package)
                and not guest.package_service.is_pseudo(package)):
            # No wrapper needed when the guest has a native install; the
            # migrated instance is kept distinct from it (paper §3.4).
            guest.package_service.pseudo_install(info)
        yield Charge(costs.PAIRING_PSEUDO_INSTALL_COST
                     / home.profile.cpu_factor)
        return PairedApp(
            package=package, version_code=info.version_code,
            apk_synced_bytes=apk_sync.bytes_delta,
            data_synced_bytes=(data_sync.bytes_delta + sd_sync.bytes_delta))

    # -- migration-time verification (paper: APK verified, updated if stale) --

    def verify_app(self, guest, package: str) -> int:
        """Re-verify a paired app's APK/data; returns the compressed
        delta bytes, which the caller's transfer carries."""
        home = self.device
        if not self.is_paired_with(guest.name):
            raise MigrationError(MigrationRefusal.NOT_PAIRED,
                                 f"{home.name} not paired with {guest.name}")
        # Refused before anything is written to the guest.
        info = home.package_service.get_package(package)
        if info.api_level > guest.profile.api_level:
            raise MigrationError(
                MigrationRefusal.API_LEVEL_INCOMPATIBLE,
                f"{package} needs API {info.api_level}")
        rsync = RsyncEngine()
        root = flux_root(home.name)
        apk_sync = rsync.sync(home.storage, f"/data/app/{package}.apk",
                              guest.storage, f"{root}/app/{package}.apk")
        data_sync = rsync.sync(home.storage, f"/data/data/{package}",
                               guest.storage, f"{root}/data/{package}")
        sd_sync = rsync.sync(home.storage,
                             f"/sdcard/Android/data/{package}",
                             guest.storage, f"{root}/sdcard/{package}")
        delta = (apk_sync.bytes_compressed + data_sync.bytes_compressed
                 + sd_sync.bytes_compressed)
        if not guest.package_service.is_installed(package):
            # Installed on the home device since the original pairing:
            # the per-app sync above covered it; create the wrapper now.
            guest.package_service.pseudo_install(info)
        else:
            guest_info = guest.package_service.get_package(package)
            if (guest_info.pseudo
                    and guest_info.version_code != info.version_code):
                guest.package_service.pseudo_install(info)
        return delta
