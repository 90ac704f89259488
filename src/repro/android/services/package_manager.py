"""PackageManagerService: installed-app metadata.

Tracks real installs and Flux's *pseudo-installs* (paper §3.1): during
pairing the guest learns an app's metadata — permissions, components,
API level — without receiving the app's executable, creating the wrapper
app that migration later restores into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.android.services.base import ServiceContext, ServiceError, SystemService


@dataclass
class PackageInfo:
    package: str
    version_code: int
    api_level: int                 # minimum Android API the APK requires
    apk_size: int                  # bytes
    permissions: Tuple[str, ...] = ()
    multi_process: bool = False    # manifest requests multiple processes
    pseudo: bool = False           # Flux wrapper install (metadata only)

    def clone_as_pseudo(self) -> "PackageInfo":
        return PackageInfo(
            package=self.package, version_code=self.version_code,
            api_level=self.api_level, apk_size=self.apk_size,
            permissions=self.permissions, multi_process=self.multi_process,
            pseudo=True)


class PackageManagerService(SystemService):
    SERVICE_KEY = "package"
    DESCRIPTOR = "IPackageManagerService"

    def __init__(self, ctx: ServiceContext) -> None:
        super().__init__(ctx)
        self._packages: Dict[str, PackageInfo] = {}

    # -- installs ------------------------------------------------------------

    def install(self, info: PackageInfo) -> None:
        existing = self._packages.get(info.package)
        if existing is not None and not existing.pseudo:
            if existing.version_code > info.version_code:
                raise ServiceError(
                    f"{info.package}: downgrade from {existing.version_code} "
                    f"to {info.version_code} not allowed")
        self._packages[info.package] = info

    def pseudo_install(self, info: PackageInfo) -> PackageInfo:
        """Pairing-time wrapper install: metadata only (paper §3.1)."""
        existing = self._packages.get(info.package)
        if existing is not None and not existing.pseudo:
            raise ServiceError(
                f"{info.package} natively installed; pseudo-install refused")
        pseudo = info.clone_as_pseudo()
        self._packages[info.package] = pseudo
        return pseudo

    def uninstall(self, package: str) -> None:
        if package not in self._packages:
            raise ServiceError(f"{package} not installed")
        del self._packages[package]

    # -- queries ------------------------------------------------------------------

    def is_installed(self, package: str) -> bool:
        return package in self._packages

    def is_pseudo(self, package: str) -> bool:
        info = self._packages.get(package)
        return info is not None and info.pseudo

    def get_package(self, package: str) -> PackageInfo:
        try:
            return self._packages[package]
        except KeyError:
            raise ServiceError(f"{package} not installed") from None

    def installed_packages(self, include_pseudo: bool = True) -> List[PackageInfo]:
        infos = sorted(self._packages.values(), key=lambda p: p.package)
        if not include_pseudo:
            infos = [p for p in infos if not p.pseudo]
        return infos

    def has_permission(self, package: str, permission: str) -> bool:
        info = self._packages.get(package)
        return info is not None and permission in info.permissions

    def total_apk_bytes(self, include_pseudo: bool = False) -> int:
        return sum(p.apk_size
                   for p in self.installed_packages(include_pseudo))
