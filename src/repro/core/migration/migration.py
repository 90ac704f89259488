"""The migration service: orchestrates the five stages of Figure 13.

1. **Preparation** — background the app (task idler frees surfaces),
   trim memory at highest severity, eglUnload the vendor GL library.
2. **Checkpoint** — CRIA freezes the process and captures the image,
   including the pruned record log.
3. **Transfer** — verify/sync APK and data deltas, send the compressed
   image over the link.
4. **Restore** — CRIA resurrects the app in the wrapper on the guest,
   in a private PID namespace with its Binder handles re-injected.
5. **Reintegration** — adaptively replay the record log, signal the
   connectivity interrupt and hardware changes, bring the app to the
   foreground.

Each stage is a :class:`repro.core.migration.stages.Stage` object with a
forward action and a rollback action; the :class:`StagePipeline` runs
them atomically — a fault at any stage (an injected link drop, a failed
restore) rolls completed stages back so the app is still running on the
home device and the guest holds no partial process state.  Stage timing
comes from the pipeline's hierarchical tracer spans.

The report separates total, user-perceived (preparation and checkpoint
hide behind the target-selection menu) and non-transfer times, matching
the paper's Figures 12-14 definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.android.net.link import Link, link_between
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.cria.restore import RestoreFaultPlan
from repro.core.extensions import FluxExtensions
from repro.core.migration.stages import MigrationContext, StagePipeline
from repro.core.replay.engine import ReplayReport
from repro.sim.scheduler import drive_sync


STAGES = ("preparation", "checkpoint", "transfer", "restore", "reintegration")


def perceived_seconds(total: float, stages: Dict[str, float]) -> float:
    """Total minus the stages hidden behind the target menu (§4); a
    report and a metrics row both read perceived time through here."""
    return total - stages.get("preparation", 0.0) \
        - stages.get("checkpoint", 0.0)


@dataclass
class MigrationReport:
    package: str
    home: str
    guest: str
    #: The attempt's label on both telemetry planes,
    #: ``<home>/<package>@<attempt>`` (:meth:`MigrationService.migrate_steps`).
    session: str = ""
    success: bool = False
    refusal: Optional[MigrationRefusal] = None
    refusal_detail: str = ""
    #: Stage name -> seconds, derived from the pipeline's tracer spans.
    #: On a faulted migration this holds every completed stage plus the
    #: faulted stage's partial duration.
    stages: Dict[str, float] = field(default_factory=dict)
    #: Name of the stage a fault aborted the migration in (None when
    #: the migration succeeded or was refused before the pipeline ran).
    faulted_stage: Optional[str] = None
    image_raw_bytes: int = 0
    image_compressed_bytes: int = 0
    #: Image bytes that actually crossed the wire.  Equal to
    #: ``image_compressed_bytes`` on the serial path; smaller under
    #: ``pipelined_transfer`` when the guest's chunk store hit.  On a
    #: link-faulted migration: the bytes delivered before the drop.
    image_wire_bytes: int = 0
    data_delta_bytes: int = 0
    record_log_entries: int = 0
    record_log_bytes: int = 0
    #: Chunked-transfer stats (pipelined_transfer only; else zero).
    transfer_chunks_total: int = 0
    transfer_chunks_cached: int = 0
    chunk_bytes_cached: int = 0
    replay: Optional[ReplayReport] = None
    #: The stage that dominated this migration's wall time, and the
    #: dominant-descendant chain under it (derived from the span tree):
    #: each entry is ``{"name", "category", "seconds", "self_seconds"}``.
    dominant_stage: Optional[str] = None
    critical_path: List[Dict[str, object]] = field(default_factory=list)
    #: Contention decomposition of the session's wall time, populated by
    #: the scenario runner (None on the synchronous single-migration
    #: path, where wall time == work time by construction).  Keys:
    #: ``wall_s``, ``admission_queue_s``, ``resource_wait_s``,
    #: ``link_dilation_s``, ``active_s`` — the last four sum to
    #: ``wall_s`` within float tolerance.
    wait_profile: Optional[Dict[str, float]] = None

    @property
    def total_seconds(self) -> float:
        return sum(self.stages.values())

    @property
    def perceived_seconds(self) -> float:
        """Total minus the stages hidden behind the target menu (§4)."""
        return perceived_seconds(self.total_seconds, self.stages)

    @property
    def non_transfer_seconds(self) -> float:
        """Figure 14: user-perceived time excluding data transfer."""
        return self.perceived_seconds - self.stages.get("transfer", 0.0)

    @property
    def transferred_bytes(self) -> int:
        """Figure 15's 'data transferred' — what crossed the wire."""
        image_bytes = self.image_wire_bytes or self.image_compressed_bytes
        return image_bytes + self.data_delta_bytes

    @property
    def chunk_hit_rate(self) -> float:
        """Fraction of image chunks the guest's store already had."""
        if not self.transfer_chunks_total:
            return 0.0
        return self.transfer_chunks_cached / self.transfer_chunks_total

    def stage_fraction(self, stage: str) -> float:
        total = self.total_seconds
        return self.stages.get(stage, 0.0) / total if total else 0.0


class MigrationService:
    """Runs on the home device; drives migrations to paired guests.

    ``extensions`` (per call) selects which of the paper's §3.4
    extension sketches are active; everything is off by default,
    matching the published prototype.
    """

    def __init__(self, device) -> None:
        self.device = device
        #: Migrations started from this device; numbers the sessions.
        self.attempts = 0

    def migrate(self, guest, package: str,
                link: Optional[Link] = None,
                extensions: Optional[FluxExtensions] = None,
                restore_fault: Optional[RestoreFaultPlan] = None
                ) -> MigrationReport:
        """Migrate ``package`` from this device to ``guest``.

        Raises :class:`MigrationError` on refusal or on a fault (link
        drop, restore failure); the error's ``report`` is the failed
        report, with the refusal reason and, for pipeline faults, the
        faulted stage.  ``restore_fault`` arms deterministic restore
        fault injection (tests/experiments); link faults are armed on
        the ``link`` itself via :class:`LinkFaultPlan`.
        """
        return drive_sync(
            self.migrate_steps(guest, package, link=link,
                               extensions=extensions,
                               restore_fault=restore_fault),
            self.device.clock)

    def migrate_steps(self, guest, package: str,
                      link: Optional[Link] = None,
                      extensions: Optional[FluxExtensions] = None,
                      restore_fault: Optional[RestoreFaultPlan] = None):
        """Generator form of :meth:`migrate` for cooperative scheduling.

        Yields the pipeline's charge points (so a
        :class:`~repro.sim.scheduler.Scheduler` can interleave several
        migrations) and returns the :class:`MigrationReport`;
        :meth:`migrate` is exactly this generator driven inline.  Each
        attempt gets a deterministic session label
        ``<home>/<package>@<attempt>`` carried on both telemetry planes
        and kept as ``report.session``.
        """
        home = self.device
        report = MigrationReport(
            package=package, home=home.name, guest=guest.name,
            session=f"{home.name}/{package}@{self.attempts}")
        self.attempts += 1
        try:
            yield from self._migrate(guest, package, link, report,
                                     extensions or FluxExtensions.none(),
                                     restore_fault)
        except MigrationError as error:
            report.refusal = error.reason
            report.refusal_detail = error.detail
            error.report = report
            self._recover_home(package)
            raise
        report.success = True
        return report

    # -- the five stages ----------------------------------------------------

    def _migrate(self, guest, package: str, link: Optional[Link],
                 report: MigrationReport,
                 extensions: FluxExtensions,
                 restore_fault: Optional[RestoreFaultPlan] = None):
        home = self.device
        pairing = home.pairing_service
        if not pairing.is_paired_with(guest.name):
            raise MigrationError(MigrationRefusal.NOT_PAIRED,
                                 f"{home.name} !~ {guest.name}")
        thread = home.thread_of(package)
        if thread is None:
            raise MigrationError(MigrationRefusal.NOT_RUNNING, package)
        if guest.thread_of(package) is not None:
            raise MigrationError(MigrationRefusal.GUEST_ALREADY_RUNNING,
                                 f"{package} already runs on {guest.name}")
        info = home.package_service.get_package(package)
        if info.api_level > guest.profile.api_level:
            raise MigrationError(
                MigrationRefusal.API_LEVEL_INCOMPATIBLE,
                f"needs API {info.api_level} > guest "
                f"{guest.profile.api_level}")

        link = link or link_between(home.profile, guest.profile,
                                    home.rng_factory,
                                    telemetry=home.telemetry)
        if not link.telemetry.enabled:
            # Caller-built links (fault injection, tests) record into
            # the home device's planes, so transfer metrics, link.fault
            # events and wire-occupancy samples are not lost.
            link.telemetry = home.telemetry
        ctx = MigrationContext(
            home=home, guest=guest, package=package, link=link,
            report=report, extensions=extensions,
            restore_fault=restore_fault,
            thread=thread, process=thread.process, session=report.session)
        yield from StagePipeline().steps(ctx)

        # Post-commit: every stage succeeded; the app now lives on the
        # guest, so erase the home-side residuals and mark consistency.
        self._cleanup_home(package)
        home.consistency.mark_migrated_out(package, guest.name)
        home.metrics.counter("migration", "sessions",
                             session=report.session, app=package).inc()

    # -- home-side aftermath -----------------------------------------------------

    def _cleanup_home(self, package: str) -> None:
        """Remove every residual the app leaves in home-side services.

        The app's live state now belongs to the guest; anything still
        visible here — notifications on the status bar, armed alarms,
        held locks — is exactly the residual-dependency problem the
        paper's design eliminates.  (Found by the model-based ring test:
        a stale notification resurfaced when the app later migrated back
        to a device that had kept its old service state.)
        """
        from repro.android.services.base import SystemService

        home = self.device
        home.service("power").release_all_for(package)
        home.service("camera").release_all_for(package)
        home.service("sensor").release_all_for(package)
        home.service("alarm").cancel_all_for(package)
        home.terminate_app(package)     # its death forgets the record log
        for service in home.services.values():
            if isinstance(service, SystemService):
                service.drop_app_state(package)

    def _recover_home(self, package: str) -> None:
        """Final safety net after a refusal or rolled-back fault.

        The stage pipeline already compensated stage by stage; this
        re-checks the invariant (app thawed and foregrounded if it is
        still here) so even a failed compensation leaves the home
        device usable.
        """
        home = self.device
        thread = home.thread_of(package)
        if thread is None:
            return
        try:
            if thread.process.state.value == "frozen":
                thread.process.thaw()
            home.activity_service.foreground_app(package)
        except Exception:
            pass
