"""The migration lifecycle as an explicit, abortable stage pipeline.

The paper's Figure 13 names five stages; here each is a :class:`Stage`
object declaring its forward action (``steps``) and its compensating
action (``rollback``), driven by a :class:`StagePipeline` that
guarantees atomicity: a fault at any stage — an injected link drop
mid-transfer, a failed restore on the guest, a genuine bug — rolls back
the faulted stage and then every completed stage in reverse order, so
the app is still running on the home device and the guest holds no
partial process state.  What legitimately survives a rollback is cache,
not state: synced APK/data deltas and received chunk-store entries stay,
which is exactly what lets a retry under ``pipelined_transfer`` resume,
moving only the chunks the guest has not already seen.

Observability threads through the same seam: the pipeline opens one
``migration`` span on the home tracer, nests a span per stage (and the
transfer stage nests per-chunk spans), and derives
``MigrationReport.stages`` from those spans — the Chrome-trace export
(a ``flux-sim migrate --bundle-out`` bundle's ``trace.json``) and the
report are two views of one measurement.

Fault injection lives at the layers faults actually occur:
:class:`repro.android.net.link.LinkFaultPlan` on the link and
:class:`repro.core.cria.restore.RestoreFaultPlan` on the restore engine;
the stages translate those layer errors into ``MigrationError`` with the
``LINK_DOWN`` / ``RESTORE_FAILED`` reason codes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.android.net.link import Delivery, Link, LinkDownError
from repro.core.cria.checkpoint import checkpoint_app
from repro.core.cria.errors import (
    CheckpointError,
    MigrationError,
    MigrationRefusal,
)
from repro.core.cria.preparation import check_preparable, prepare_app
from repro.core.cria.restore import (
    RestoreFaultPlan,
    restore_app,
)
from repro.core.extensions import FluxExtensions
from repro.core.migration import costs
from repro.core.replay.engine import replay_log
from repro.sim.scheduler import Charge


@dataclass
class MigrationContext:
    """Mutable state threaded through the pipeline.

    Stages read what earlier stages produced and record what later
    stages (and rollbacks) need; the report accumulates the numbers.
    """

    home: object
    guest: object
    package: str
    link: Link
    report: object                      # MigrationReport
    extensions: FluxExtensions
    restore_fault: Optional[RestoreFaultPlan] = None
    thread: object = None               # home-side ActivityThread
    process: object = None              # home-side main kernel process
    prep_report: object = None
    image: object = None                # CheckpointImage
    frame: bytes = b""                  # serialized wire frame
    frozen_processes: List[object] = field(default_factory=list)
    restored: object = None             # RestoredApp on the guest
    session: str = ""                   # session label on both telemetry planes


def _emit(ctx: MigrationContext, kind: str, **attrs) -> None:
    """Emit a causal event on the home device's flight recorder."""
    ctx.home.events.emit(kind, **attrs)


def _record_chunks(ctx: MigrationContext, chunks, windows,
                   burst_start: float) -> None:
    """One ``chunk`` span and one ``link.chunk`` event per chunk sent,
    each span over its pipeline window after the link latency."""
    tracer, offset = ctx.home.tracer, burst_start + ctx.link.latency_s
    for chunk, (start, end) in zip(chunks, windows):
        tracer.add_span(f"chunk:{chunk.label or chunk.digest[:8]}",
                        offset + start, offset + end,
                        category="chunk", wire_bytes=chunk.wire_bytes)
        _emit(ctx, "link.chunk", digest=chunk.digest[:12],
              label=chunk.label, wire_bytes=chunk.wire_bytes)


class Stage:
    """One migration stage: a forward action plus its compensation.

    The forward action is :meth:`steps` — a generator that *yields* its
    charge points (:class:`~repro.sim.scheduler.Charge` for CPU work,
    :class:`~repro.android.net.link.Delivery` for wire time) instead of
    advancing the clock directly, so a scheduler can suspend the
    migration at every charge and interleave it with others.  It must
    either complete or leave nothing behind that ``rollback`` (its own,
    for partial effects, plus earlier stages') cannot erase.
    ``rollback`` is best-effort synchronous compensation and must be
    idempotent: the pipeline calls it on the faulted stage first, then
    on completed stages in reverse order.
    """

    name: str = "?"

    def steps(self, ctx: MigrationContext):
        """Yield-point generator form of the forward action."""
        raise NotImplementedError

    def rollback(self, ctx: MigrationContext) -> None:
        """Undo this stage's effects; default is stateless (no-op)."""


class PreparationStage(Stage):
    """Background the app, trim memory, eglUnload (paper §3.1/§3.3)."""

    name = "preparation"

    def steps(self, ctx: MigrationContext):
        home = ctx.home
        check_preparable(home, ctx.package, ctx.extensions)
        view_count = sum(a.view_root.view_count()
                         for a in ctx.thread.activities.values()
                         if a.view_root is not None)
        context_count = home.vendor_gl.live_context_count(ctx.process.pid)
        ctx.prep_report = prepare_app(home, ctx.package, ctx.extensions)
        yield Charge(costs.preparation_cost(
            view_count, context_count, home.profile.cpu_factor))

    def rollback(self, ctx: MigrationContext) -> None:
        # The app was only backgrounded, but the trim-memory chain
        # destroyed its view roots: the same conditional initialization
        # reintegration uses rebuilds them, then foregrounding recreates
        # the surfaces and resumes (and draws) the app on home.
        try:
            ctx.thread.rebuild_view_roots()
            ctx.home.activity_service.foreground_app(ctx.package)
        except Exception:
            pass


class CheckpointStage(Stage):
    """Freeze the process tree and capture the image.

    On the pipelined path compression is deferred to the transfer stage
    where it overlaps the wire; the serial path serializes+compresses
    here, as published.
    """

    name = "checkpoint"

    def steps(self, ctx: MigrationContext):
        home, report = ctx.home, ctx.report
        image = checkpoint_app(home, ctx.package, ctx.extensions)
        ctx.image = image
        ctx.frozen_processes = list(home.app_processes(ctx.package))
        if ctx.prep_report.gl_capture is not None:
            image.metadata["gl_capture"] = ctx.prep_report.gl_capture
        report.image_raw_bytes = image.raw_bytes()
        report.image_compressed_bytes = image.compressed_bytes()
        report.record_log_entries = len(image.record_log)
        report.record_log_bytes = image.record_log_bytes()
        if ctx.extensions.pipelined_transfer:
            yield Charge(costs.serialize_cost(
                report.image_raw_bytes, home.profile.cpu_factor))
        else:
            yield Charge(costs.checkpoint_cost(
                report.image_raw_bytes, home.profile.cpu_factor))

    def rollback(self, ctx: MigrationContext) -> None:
        # Thaw every process the checkpoint froze — including those a
        # partially-failed multi-process checkpoint left frozen, so look
        # at the live process list, not just what a completed run
        # recorded.  The record log was never consumed (that happens in
        # the post-commit cleanup), so the recorder still holds the
        # app's entries.
        for process in ctx.home.app_processes(ctx.package):
            try:
                if process.state.value == "frozen":
                    process.thaw()
            except Exception:
                pass
        ctx.frozen_processes = []


class TransferStage(Stage):
    """Verify/sync APK+data deltas, then move the image over the link.

    A :class:`LinkDownError` (injected or real) surfaces as
    ``MigrationError(LINK_DOWN)``.  On the pipelined path the chunks
    fully delivered before the drop are recorded in the guest's chunk
    store — they really did arrive — which is what a retry resumes from.
    """

    name = "transfer"

    def steps(self, ctx: MigrationContext):
        from repro.core.cria.wire import serialize_image

        home, report, link = ctx.home, ctx.report, ctx.link
        ctx.frame = serialize_image(ctx.image)
        pairing = home.pairing_service
        try:
            report.data_delta_bytes = pairing.verify_app(
                ctx.guest, ctx.package)
            if ctx.extensions.pipelined_transfer:
                yield from self._pipelined(ctx)
            else:
                report.image_wire_bytes = report.image_compressed_bytes
                yield link.plan(report.transferred_bytes,
                                session=ctx.session)
                self._index_serial(ctx)
        except LinkDownError as error:
            if not ctx.extensions.pipelined_transfer:
                report.image_wire_bytes = error.delivered_bytes
            raise MigrationError(MigrationRefusal.LINK_DOWN,
                                 str(error)) from error
        home.metrics.counter("link", "migration_bytes",
                             app=ctx.package).inc(report.transferred_bytes)

    def _index_serial(self, ctx: MigrationContext) -> None:
        """Index the whole-image transfer's chunks in both chunk stores.

        The serial path moves the full compressed image, but both ends
        still record what crossed: the store is a digest index of chunks
        a device has received (or sent), whatever transfer mode moved
        them — so a later ``pipelined_transfer`` hop can dedupe against
        a serial one.  Pure bookkeeping: no clock, no RNG, no wire.
        """
        from repro.core.migration.chunks import chunk_image

        chunks = chunk_image(ctx.image)
        ctx.guest.chunk_store.add_many(chunks)
        ctx.home.chunk_store.add_many(chunks)
        ctx.home.metrics.counter(
            "chunks", "wire_bytes", app=ctx.package).inc(
            sum(c.wire_bytes for c in chunks))

    def _pipelined(self, ctx: MigrationContext):
        """Chunked transfer: digest negotiation, chunk cache, pipeline.

        The image is split into content-addressed chunks; the guest's
        chunk store is consulted so only unseen chunks travel, and the
        compression of chunk *i+1* overlaps the send of chunk *i* on
        the virtual clock (pipeline fill + drain, not sum-of-stages).
        The app-data delta was already synced by ``verify_app``.
        """
        from repro.core.migration.chunks import chunk_image

        home, guest, link, report = ctx.home, ctx.guest, ctx.link, ctx.report
        plan = chunk_image(ctx.image)
        cached, missing = guest.chunk_store.split(plan)
        report.transfer_chunks_total = len(plan)
        report.transfer_chunks_cached = len(cached)
        report.chunk_bytes_cached = sum(c.raw_bytes for c in cached)
        metrics = home.metrics
        metrics.counter("chunks", "hits", app=ctx.package).inc(len(cached))
        metrics.counter("chunks", "misses", app=ctx.package).inc(len(missing))
        metrics.counter("chunks", "bytes_avoided", app=ctx.package).inc(
            sum(c.wire_bytes for c in cached))
        metrics.counter("chunks", "wire_bytes", app=ctx.package).inc(
            sum(c.wire_bytes for c in missing))

        # Digest negotiation + the data delta ride one round trip.
        negotiation_bytes = costs.CHUNK_DIGEST_BYTES * len(plan)
        yield link.plan(report.data_delta_bytes + negotiation_bytes,
                        session=ctx.session)

        wire_sizes = [c.wire_bytes for c in missing]
        compress_times = [costs.chunk_compress_cost(
            c.raw_bytes, home.profile.cpu_factor) for c in missing]
        send_times = link.burst_send_seconds(wire_sizes)
        windows = costs.pipeline_schedule(compress_times, send_times)
        burst_start = home.clock.now
        total_wire = sum(wire_sizes)

        budget = link.fault_budget()
        if budget is not None and total_wire > budget:
            yield from self._pipelined_fault(ctx, missing, wire_sizes,
                                             windows, burst_start, budget,
                                             negotiation_bytes)
            return

        burst_seconds = link.latency_s + costs.pipeline_seconds(
            compress_times, send_times)
        if cached:
            _emit(ctx, "link.chunks_cached", count=len(cached),
                  bytes=sum(c.wire_bytes for c in cached))
        _record_chunks(ctx, missing, windows, burst_start)
        yield Delivery(link, total_wire, burst_seconds,
                       session=ctx.session)
        report.image_wire_bytes = total_wire + negotiation_bytes

        # Both ends now hold every chunk: the guest received them, the
        # home sent (and can re-derive) them — so a later return hop
        # (guest -> home) benefits symmetrically.
        guest.chunk_store.add_many(plan)
        home.chunk_store.add_many(plan)

    def _pipelined_fault(self, ctx: MigrationContext, missing, wire_sizes,
                         windows, burst_start: float, budget: int,
                         negotiation_bytes: int):
        """The burst crosses the armed drop point: deliver the prefix.

        Chunks whose wire bytes fit wholly under the fault budget
        arrive (and enter both chunk stores — the resume set); the
        drop is charged mid-flight through the first chunk that does
        not fit, then the link raises.
        """
        home, guest, link = ctx.home, ctx.guest, ctx.link
        delivered = 0
        cumulative = 0
        drop_offset = 0.0
        for size, (start, end) in zip(wire_sizes, windows):
            if cumulative + size > budget:
                fraction = (budget - cumulative) / size if size else 0.0
                drop_offset = start + (end - start) * fraction
                break
            cumulative += size
            delivered += 1
            drop_offset = end
        arrived = missing[:delivered]
        _record_chunks(ctx, arrived, windows, burst_start)
        guest.chunk_store.add_many(arrived)
        home.chunk_store.add_many(arrived)
        ctx.report.image_wire_bytes = budget + negotiation_bytes
        yield Delivery(link, budget, link.latency_s + drop_offset,
                       fault=True, session=ctx.session)


class RestoreStage(Stage):
    """Resurrect the image on the guest, after frame integrity checks.

    ``restore_app`` is internally atomic: any failure (injected
    :class:`RestoreFault` or a genuine corruption) erases its partial
    processes and namespace from the guest before the error reaches the
    pipeline, where it surfaces as ``MigrationError(RESTORE_FAILED)``.
    """

    name = "restore"

    def steps(self, ctx: MigrationContext):
        from repro.core.cria.wire import verify_against_image

        guest, report = ctx.guest, ctx.report
        try:
            verify_against_image(ctx.frame, ctx.image)
            ctx.restored = restore_app(guest, ctx.image,
                                       fault_plan=ctx.restore_fault)
        except CheckpointError as error:
            raise MigrationError(MigrationRefusal.RESTORE_FAILED,
                                 str(error)) from error
        yield Charge(costs.restore_cost(
            report.image_raw_bytes, guest.profile.cpu_factor))

    def rollback(self, ctx: MigrationContext) -> None:
        # Only reached when restore completed but a later stage faulted:
        # point the thread (the app's heap) back at its still-present
        # home process, then tear the restored app off the guest.
        restored = ctx.restored
        if restored is None:
            return
        guest = ctx.guest
        try:
            ctx.thread.rebind(ctx.home.framework, ctx.process)
        except Exception:
            pass
        try:
            # Killing the restored processes also drops their namespace.
            guest.terminate_app(ctx.package)
        except Exception:
            pass
        ctx.restored = None


class ReintegrationStage(Stage):
    """Replay the record log, signal hardware changes, foreground."""

    name = "reintegration"

    def steps(self, ctx: MigrationContext):
        home, guest, report = ctx.home, ctx.guest, ctx.report
        restored = ctx.restored
        report.replay = replay_log(
            guest, restored, ctx.image, ctx.extensions,
            home_location_service=(home.service("location")
                                   if ctx.extensions.gps_tether else None))
        restored.process.thaw()
        for proc in restored.secondary_processes:
            proc.thaw()
        self._reintegrate(ctx)
        yield Charge(costs.reintegration_cost(
            report.replay.total_handled, guest.profile.cpu_factor))

    def _reintegrate(self, ctx: MigrationContext) -> None:
        """Hardware-change + connectivity signals, then foreground."""
        guest, restored = ctx.guest, ctx.restored
        thread = restored.thread
        # Conditional initialization rebuilds the UI sized for the guest.
        thread.rebuild_view_roots()
        gl_capture = ctx.image.metadata.get("gl_capture")
        if gl_capture is not None and ctx.extensions.gl_record_replay:
            from repro.core.glreplay import replay_capture
            replay_capture(thread, gl_capture)
        config = {"screen": guest.profile.screen,
                  "country": guest.profile.country}
        thread.on_configuration_changed(config)
        # Connectivity appears as a loss followed by a new connection.
        guest.service("connectivity").simulate_connectivity_interrupt()
        guest.activity_service.foreground_app(restored.package)


#: The paper's Figure 13 lifecycle, in order.
def default_stages() -> List[Stage]:
    return [PreparationStage(), CheckpointStage(), TransferStage(),
            RestoreStage(), ReintegrationStage()]


class StagePipeline:
    """Drives stages in order; on a fault, compensates in reverse.

    Atomicity contract: after a fault at stage *k*, stage *k*'s own
    rollback runs first (clearing any partial effects its ``steps`` left),
    then stages *k-1 … 0* roll back in reverse order.  Rollback actions
    are best-effort and exception-isolated — a failing compensation is
    traced, never masks the original fault, and never blocks the
    remaining compensations.

    Every stage runs inside a tracer span nested under one ``migration``
    span; ``report.stages`` is derived from those spans (including the
    partial duration of a faulted stage), and ``report.faulted_stage``
    names the stage that aborted the migration.
    """

    def __init__(self, stages: Optional[List[Stage]] = None) -> None:
        self.stages = list(stages) if stages is not None \
            else default_stages()

    def steps(self, ctx: MigrationContext):
        """The pipeline as a cooperative session (yields charge points).

        Suspension happens only inside a stage's own yields; everything
        between two yields — rollback included — is one atomic step, so
        the atomicity contract is unchanged under interleaving.  Spans
        stay open across suspensions: wall time another session consumes
        while this one is suspended mid-stage genuinely is wire/CPU
        contention and belongs in the stage's measured duration.
        """
        tracer = ctx.home.tracer
        completed: List[Stage] = []
        recorders = (ctx.home.events, ctx.guest.events)
        if ctx.session:
            # The session label rides every event both devices emit for
            # this migration, so interleaved scenario logs segment
            # cleanly (flux-sim explain groups by it).
            for recorder in recorders:
                recorder.set_context(session=ctx.session)
        _emit(ctx, "migration.start", package=ctx.package,
              home=ctx.home.name, guest=ctx.guest.name)
        migration = tracer.span("migration", category="migration",
                                package=ctx.package, home=ctx.home.name,
                                guest=ctx.guest.name)
        try:
            with migration as root:
                for stage in self.stages:
                    # Stage context labels every event either device
                    # emits while the stage runs (guest-side restore and
                    # replay events have no open home-tracer span to
                    # attribute them).
                    for recorder in recorders:
                        recorder.set_context(stage=stage.name,
                                             package=ctx.package)
                    _emit(ctx, "stage.start", stage=stage.name)
                    handle = tracer.span(stage.name, category="stage")
                    try:
                        with handle:
                            yield from stage.steps(ctx)
                    except Exception as error:
                        refused = (isinstance(error, MigrationError)
                                   and not error.is_fault)
                        reason = (error.reason.value
                                  if isinstance(error, MigrationError)
                                  else type(error).__name__)
                        # A policy refusal means the app cannot migrate;
                        # a fault means this attempt died mid-flight.
                        # Both roll back, only faults mark the stage.
                        if not refused:
                            ctx.report.faulted_stage = stage.name
                            root.annotate(faulted_stage=stage.name,
                                          refusal=reason)
                            _emit(ctx, "stage.fault", stage=stage.name,
                                  reason=reason)
                        else:
                            root.annotate(refusal=reason)
                            _emit(ctx, "migration.refused",
                                  stage=stage.name, reason=reason)
                        self._derive_stage_times(ctx, root)
                        self._rollback(ctx, stage, completed, reason)
                        self._clear_context(recorders)
                        raise
                    _emit(ctx, "stage.end", stage=stage.name,
                          seconds=round(handle.span.duration, 6))
                    completed.append(stage)
                self._derive_stage_times(ctx, root)
        finally:
            # The report now holds the stage times and critical path;
            # the tree itself is kept only inside an export scope.
            tracer.release(migration.span)
        # Emitted before the context clears so the terminal event still
        # carries the session label (segmenting needs it to close the
        # segment it opened).
        _emit(ctx, "migration.done", package=ctx.package,
              total_seconds=round(ctx.report.total_seconds, 6))
        self._clear_context(recorders)

    @staticmethod
    def _clear_context(recorders) -> None:
        for recorder in recorders:
            recorder.clear_context("stage", "package", "session")

    def _derive_stage_times(self, ctx: MigrationContext, root) -> None:
        """``report.stages`` from the span tree."""
        from repro.sim.trace import critical_path

        stage_spans = [span for span in root.children
                       if span.category == "stage" and span.closed]
        for span in stage_spans:
            ctx.report.stages[span.name] = span.duration
        if not stage_spans:
            return
        dominant = max(stage_spans, key=lambda s: s.duration)
        ctx.report.dominant_stage = dominant.name
        ctx.report.critical_path = [
            {"name": span.name, "category": span.category,
             "seconds": span.duration, "self_seconds": span.self_seconds}
            for span in critical_path(dominant)]
        ctx.home.metrics.counter("migration", "dominant_stage",
                                 stage=dominant.name, app=ctx.package).inc()

    def _rollback(self, ctx: MigrationContext, faulted: Stage,
                  completed: List[Stage], reason: str) -> None:
        _emit(ctx, "migration.rollback_begin", package=ctx.package,
              faulted_stage=faulted.name, reason=reason)
        for stage in [faulted] + list(reversed(completed)):
            try:
                stage.rollback(ctx)
                _emit(ctx, "stage.rollback", stage=stage.name)
            except Exception as rollback_error:   # compensations never mask
                _emit(ctx, "stage.rollback_error", stage=stage.name,
                      error=repr(rollback_error))
        _emit(ctx, "migration.rolled_back", package=ctx.package,
              faulted_stage=faulted.name)
