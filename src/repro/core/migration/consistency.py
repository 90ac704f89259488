"""Cross-device app-state consistency (paper §3.4).

After an app migrates out, its home device remembers where it went.
Starting the app natively on the home device while it still lives on a
guest raises a prompt: sync the guest's state back, or proceed and lose
the guest-side modifications.  Migrating the app back home resolves the
inconsistency and clears the mark.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.android.storage.sync import RsyncEngine


class ConsistencyChoice(enum.Enum):
    SYNC_BACK = "sync-back"
    DISCARD_GUEST_STATE = "discard-guest-state"


class ConsistencyConflict(Exception):
    """App started at home while its live state is on a guest device."""

    def __init__(self, package: str, guest_name: str) -> None:
        super().__init__(
            f"{package} was migrated to {guest_name} and not migrated back; "
            "choose SYNC_BACK or DISCARD_GUEST_STATE")
        self.package = package
        self.guest_name = guest_name


@dataclass
class MigratedOutRecord:
    package: str
    guest_name: str
    migrated_at: float


class ConsistencyManager:
    def __init__(self, device) -> None:
        self.device = device
        self._migrated_out: Dict[str, MigratedOutRecord] = {}

    # -- bookkeeping ---------------------------------------------------------

    def mark_migrated_out(self, package: str, guest_name: str) -> None:
        self._migrated_out[package] = MigratedOutRecord(
            package=package, guest_name=guest_name,
            migrated_at=self.device.clock.now)

    def mark_returned(self, package: str) -> None:
        self._migrated_out.pop(package, None)

    def is_migrated_out(self, package: str) -> Optional[MigratedOutRecord]:
        return self._migrated_out.get(package)

    # -- home-launch gate (paper: the prompt) -------------------------------------

    def check_native_start(self, package: str) -> None:
        """Raise :class:`ConsistencyConflict` when state lives elsewhere."""
        record = self._migrated_out.get(package)
        if record is not None:
            raise ConsistencyConflict(package, record.guest_name)

    def resolve_native_start(self, package: str, guest,
                             choice: ConsistencyChoice) -> None:
        """Apply the user's choice for a conflicted native start."""
        record = self._migrated_out.get(package)
        if record is None:
            return
        if choice is ConsistencyChoice.SYNC_BACK:
            self.sync_state_back(package, guest)
        # Either way the guest's running instance is discarded and the
        # home copy becomes authoritative.
        guest.terminate_app(package)
        self.mark_returned(package)

    def sync_state_back(self, package: str, guest) -> int:
        """Pull the app's data directory changes back from the guest."""
        from repro.core.migration.pairing import flux_root

        home = self.device
        rsync = RsyncEngine()
        root = flux_root(home.name)
        result = rsync.sync(guest.storage, f"{root}/data/{package}",
                            home.storage, f"/data/data/{package}")
        return result.bytes_delta
