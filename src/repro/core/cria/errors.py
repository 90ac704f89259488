"""Migration failure taxonomy.

Every refusal the paper describes gets a stable reason code so the
app-support experiment can assert exactly which apps fail and why
(Facebook -> MULTI_PROCESS, Subway Surfers -> PRESERVED_EGL_CONTEXT).
"""

from __future__ import annotations

import enum


class MigrationRefusal(enum.Enum):
    MULTI_PROCESS = "multi-process"
    PRESERVED_EGL_CONTEXT = "preserved-egl-context"
    EXTERNAL_BINDER_CONNECTION = "external-non-system-binder"
    ACTIVE_CONTENT_PROVIDER = "active-content-provider"
    COMMON_SDCARD_FILES = "common-sdcard-files-open"
    API_LEVEL_INCOMPATIBLE = "api-level-incompatible"
    NOT_PAIRED = "not-paired"
    NOT_RUNNING = "not-running"
    # The guest already runs the package natively: restoring over it
    # would leave two instances with one registered.
    GUEST_ALREADY_RUNNING = "guest-already-running"
    DEVICE_STATE_RESIDUE = "device-specific-state-residue"
    # Admission control (scenario layer): one of the endpoints is
    # already hosting a migration and the admission policy is "refuse"
    # rather than "queue".
    DEVICE_BUSY = "device-busy"
    # Admission control (placement layer): no surface in the population
    # satisfies the app's recorded needs (screen, sensors, location,
    # vibrator) — the demand is refused before any session is compiled.
    NO_FEASIBLE_GUEST = "no-feasible-guest"
    # Runtime faults (as opposed to static app-shape refusals): the
    # migration started and was aborted by the stage pipeline, which
    # rolled the app back to the home device.
    LINK_DOWN = "link-down"
    RESTORE_FAILED = "restore-failed"


#: Reasons that are mid-flight faults, not up-front policy refusals.
#: Only these (and unexpected exceptions) mark a report's
#: ``faulted_stage`` — a refusal means "this app cannot migrate", a
#: fault means "this migration attempt died and was rolled back".
RUNTIME_FAULTS = frozenset({
    MigrationRefusal.LINK_DOWN,
    MigrationRefusal.RESTORE_FAILED,
})


class MigrationError(Exception):
    """Raised when an app cannot be migrated; carries the reason code.

    ``report`` is the failed attempt's ``MigrationReport`` when the
    error leaves ``MigrationService.migrate``/``migrate_steps`` (None
    elsewhere); it is not pickled.
    """

    def __init__(self, reason: MigrationRefusal, detail: str = "") -> None:
        self.reason = reason
        self.detail = detail
        self.report = None
        message = reason.value if not detail else f"{reason.value}: {detail}"
        super().__init__(message)

    @property
    def is_fault(self) -> bool:
        return self.reason in RUNTIME_FAULTS

    def __reduce__(self):
        # Exception's default reduce replays __init__ with the formatted
        # message (a str), not (reason, detail) — which made the error
        # un-picklable.  Process-pool sweep workers propagate refusals
        # across the process boundary, so the round-trip must be exact.
        return (MigrationError, (self.reason, self.detail))


class CheckpointError(Exception):
    """Internal checkpoint/restore mechanics failed (a bug, not a refusal)."""
