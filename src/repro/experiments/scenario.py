"""Multi-device scenario runner: staggered concurrent migrations.

A *scenario* is a world — one virtual clock, one seeded RNG tree, N
booted devices, one shared radio medium — plus M migration sessions,
each with a start time and a (home, guest, package) route.  Sessions
run as cooperative generators on the discrete-event
:class:`~repro.sim.scheduler.Scheduler`: a session suspends at every
clock charge, so two migrations in flight at once interleave their
stages and contend for the shared medium's bandwidth fairly.

Admission control guards each device with an exclusive
:class:`~repro.sim.scheduler.Resource`: a device hosts at most one
migration at a time (its tracer span stack and flight-recorder stage
context are per-device, so overlapping migrations on one device would
cross-contaminate attribution — exactly what the guard models).  Policy
``queue`` waits for the endpoints to free up, FIFO; ``refuse`` records
a ``DEVICE_BUSY`` refusal instead.

Determinism contract: sessions are executed in *canonical order* —
sorted by ``(start, home, guest, package)`` — regardless of the order
``ScenarioSpec.sessions`` lists them, so results are independent of
submission order.  A single-session scenario is byte-identical
(reports, metrics snapshots, event streams) to :func:`run_pair` on the
same profiles and seed: the same boots, installs, pairing, link
construction and stage pipeline run in the same order on the same
clock; the scheduler adds no charges of its own.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.android.device import Device
from repro.android.hardware.profiles import DeviceProfile
from repro.android.net.link import Link, Medium, link_between
from repro.apps.catalog import app_by_package
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.extensions import FluxExtensions
from repro.core.migration.migration import MigrationReport
from repro.experiments.harness import format_table
from repro.sim import SimClock
from repro.sim.events import EventLog
from repro.sim.rng import RngFactory
from repro.sim.scheduler import Resource, Scheduler, Session
from repro.sim.telemetry import Telemetry, export
from repro.sim.timeline import chrome_counter_events


class ScenarioError(Exception):
    pass


ADMISSION_POLICIES = ("queue", "refuse")


@dataclass(frozen=True)
class SessionSpec:
    """One requested migration: route, package, start time."""

    home: str
    guest: str
    package: str
    start: float = 0.0
    extensions: Optional[FluxExtensions] = None
    #: Frozen, JSON-able key/values describing the placement decision
    #: that chose this route (``PlacementDecision.attrs()``); when set,
    #: the session emits a ``placement.decision`` event on the world
    #: recorder at submit time, so ``flux-sim explain --why`` can say
    #: why the migration landed where it did.
    placement: Optional[Tuple[Tuple[str, object], ...]] = None

    @property
    def canonical_key(self) -> Tuple[float, str, str, str]:
        return (self.start, self.home, self.guest, self.package)


@dataclass(frozen=True)
class ScenarioSpec:
    """A world (named devices) plus its migration sessions."""

    devices: Tuple[Tuple[str, DeviceProfile], ...]
    sessions: Tuple[SessionSpec, ...]
    seed: int = 0
    admission: str = "queue"

    def __post_init__(self) -> None:
        if self.admission not in ADMISSION_POLICIES:
            raise ScenarioError(
                f"unknown admission policy {self.admission!r} "
                f"(use one of {ADMISSION_POLICIES})")
        names = [name for name, _ in self.devices]
        if len(set(names)) != len(names):
            raise ScenarioError(f"duplicate device names in {names}")
        for session in self.sessions:
            if session.home not in names or session.guest not in names:
                raise ScenarioError(
                    f"session {session.home}->{session.guest} references "
                    f"unknown devices (world has {names})")
            if session.home == session.guest:
                raise ScenarioError(
                    f"session migrates {session.package} from "
                    f"{session.home} to itself")
            if session.start < 0:
                raise ScenarioError(
                    f"negative start time {session.start!r}")
        # A device launches-and-migrates each package at most once per
        # scenario: a second (home, package) session would re-migrate an
        # app that already left the device.  Catch it here, with names,
        # instead of as a confusing late scheduler-time failure.
        routes = [(s.home, s.package) for s in self.sessions]
        duplicates = sorted({route for route in routes
                             if routes.count(route) > 1})
        if duplicates:
            listed = ", ".join(f"{home}:{package}"
                               for home, package in duplicates)
            raise ScenarioError(
                f"duplicate (home, package) sessions: {listed} — a "
                f"device can launch and migrate each package once per "
                f"scenario")


@dataclass
class SessionOutcome:
    """What one session did: status, report, queueing, timing."""

    spec: SessionSpec
    #: ``migrated`` | ``faulted`` | ``refused`` | ``rejected`` (the
    #: last only under admission="refuse" when an endpoint was busy).
    status: str = "pending"
    #: The deterministic session label carried on both telemetry planes
    #: (empty for rejected sessions: no migration attempt ran).
    session: str = ""
    report: Optional[MigrationReport] = None
    refusal: Optional[MigrationRefusal] = None
    refusal_detail: str = ""
    submitted: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Wall-time decomposition from the scheduler/medium ledgers:
    #: ``wall_s == admission_queue_s + resource_wait_s + link_dilation_s
    #: + active_s`` within float tolerance.  Mirrored onto the report.
    wait_profile: Optional[Dict[str, float]] = None

    @property
    def queued_seconds(self) -> float:
        """Time spent waiting for busy endpoints before starting.

        Read from the scheduler's blocked-time ledger when available
        (the measured enqueue→grant suspension), falling back to the
        started−submitted interval for outcomes without a profile.
        """
        if self.wait_profile is not None:
            return self.wait_profile["admission_queue_s"]
        if self.started is None:
            return 0.0
        return self.started - self.submitted


@dataclass
class ScenarioResult:
    """Everything a scenario produced, in canonical session order."""

    device_names: List[str]
    sessions: List[SessionOutcome]
    #: Merged snapshot over every device, in listed device order.
    metrics: Dict
    #: All devices' events causally merged (one shared clock).
    events: EventLog
    #: The world's edge-sampled time series (shares, queue depths,
    #: active flows, sessions in flight), exported.
    timeline: Dict[str, List[List[float]]] = field(default_factory=dict)
    #: First submission to last completion across all sessions.
    makespan: float = 0.0
    #: device name -> fraction of the makespan it hosted a migration
    #: (held its admission resource).
    device_utilization: Dict[str, float] = field(default_factory=dict)

    @property
    def reports(self) -> Dict[str, MigrationReport]:
        """package -> successful report (the run_pair-compatible view)."""
        return {o.spec.package: o.report for o in self.sessions
                if o.status == "migrated"}

    @property
    def refusals(self) -> Dict[str, MigrationRefusal]:
        return {o.spec.package: o.refusal for o in self.sessions
                if o.refusal is not None}

    def outcome_for(self, package: str) -> SessionOutcome:
        for outcome in self.sessions:
            if outcome.spec.package == package:
                return outcome
        raise KeyError(package)


class ScenarioWorld:
    """The booted world a scenario runs in."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        self.clock = SimClock()
        self.rng_factory = RngFactory(spec.seed)
        #: The world's own planes.  Its timeline is shared by every
        #: device, link, resource and the scheduler, so all samples land
        #: on one coherent virtual timeline.  Its flight recorder holds
        #: the events that belong to no one device (admission queueing
        #: happens *between* devices); a separate stream keeps
        #: per-device event sequences — and their byte-identity
        #: contracts — untouched.
        self.telemetry = Telemetry.from_env(self.clock, "world")
        self.devices: "OrderedDict[str, Device]" = OrderedDict(
            (name, Device(profile, self.clock, self.rng_factory, name=name,
                          timeline=self.telemetry.timeline))
            for name, profile in spec.devices)
        self.scheduler = Scheduler(self.clock, telemetry=self.telemetry)
        #: All links share one radio medium, so concurrent transfers
        #: contend fairly.
        self.medium = Medium(self.clock, telemetry=self.telemetry)
        self._resources = {name: Resource(name, clock=self.clock,
                                          telemetry=self.telemetry)
                           for name in self.devices}

    def close(self) -> None:
        """Tear the world down once its results are exported: close
        every device, then the world's clock (see Device.close)."""
        for device in self.devices.values():
            device.close()
        self.clock.close()

    def resource(self, device_name: str) -> Resource:
        return self._resources[device_name]

    def device_utilization(self, makespan: float) -> Dict[str, float]:
        if makespan <= 0:
            return {name: 0.0 for name in self.devices}
        return {name: self._resources[name].held_seconds / makespan
                for name in self.devices}

    def link_for(self, home: Device, guest: Device) -> Link:
        """A fresh link per migration, exactly as the service default
        builds one (same RNG stream: streams restart per derivation),
        attached to the world's shared medium."""
        link = link_between(home.profile, guest.profile, home.rng_factory,
                            telemetry=home.telemetry)
        link.medium = self.medium
        return link


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Boot the world, run every session to completion, collect results."""
    world = ScenarioWorld(spec)
    try:
        return _run_world(world, spec)
    finally:
        world.close()


def _run_world(world: ScenarioWorld, spec: ScenarioSpec) -> ScenarioResult:
    ordered = sorted(spec.sessions, key=lambda s: s.canonical_key)

    # Install every session's app on its home device up front (idempotent
    # per device), then pair each route once — mirroring run_pair's
    # install-all-then-pair sequencing.
    for session in ordered:
        app_by_package(session.package).install(world.devices[session.home])
    paired = set()
    for session in ordered:
        route = (session.home, session.guest)
        if route in paired:
            continue
        home, guest = world.devices[session.home], world.devices[session.guest]
        if not home.pairing_service.is_paired_with(guest.name):
            home.pairing_service.pair(guest)
        paired.add(route)

    # Session starts are offsets from the end of world setup (booting,
    # installing and pairing consume virtual time of their own).
    base = world.clock.now
    outcomes = [SessionOutcome(spec=session,
                               submitted=base + session.start)
                for session in ordered]
    handles = [world.scheduler.spawn(
        _session(world, outcome),
        name=f"{outcome.spec.home}->{outcome.spec.guest}:"
             f"{outcome.spec.package}",
        at=outcome.submitted) for outcome in outcomes]
    world.scheduler.run()

    for session_handle in world.scheduler.sessions:
        if session_handle.error is not None:
            raise session_handle.error

    for outcome, handle in zip(outcomes, handles):
        _attribute_wait(world, outcome, handle)

    metrics, events, timeline = export(world.devices.values(),
                                       world.telemetry)
    finished = [o.finished for o in outcomes if o.finished is not None]
    makespan = (max(finished) - min(o.submitted for o in outcomes)
                if finished else 0.0)
    return ScenarioResult(device_names=list(world.devices),
                          sessions=outcomes,
                          metrics=metrics, events=events,
                          timeline=timeline,
                          makespan=makespan,
                          device_utilization=world.device_utilization(
                              makespan))


def _attribute_wait(world: ScenarioWorld, outcome: SessionOutcome,
                    handle: Session) -> None:
    """Decompose the session's wall time from the measured ledgers.

    Every term is a *measurement*, not a residual: admission queueing is
    the scheduler's blocked-on-resource time, dilation is the medium's
    per-session stretch attribution, and active time is the session's
    runnable time plus the solo (undilated) share of its flow waits —
    so the four terms sum to the wall interval exactly (modulo float
    addition order), which the contention experiment asserts.
    """
    if outcome.finished is None:
        return
    wall = outcome.finished - outcome.submitted
    admission = handle.blocked.get("resource", 0.0)
    blocked_flow = handle.blocked.get("flow", 0.0)
    blocked_other = sum(seconds for kind, seconds in handle.blocked.items()
                        if kind not in ("resource", "flow"))
    dilation = (world.medium.dilation_for(outcome.session)
                if outcome.session else 0.0)
    profile = {
        "wall_s": wall,
        "admission_queue_s": admission,
        # Post-admission resource stalls; sessions today only queue on
        # device resources before starting, so this is structurally 0.0
        # (kept as its own term so the decomposition names every state
        # the ledger distinguishes).
        "resource_wait_s": 0.0,
        "link_dilation_s": dilation,
        "active_s": handle.working_s + (blocked_flow - dilation)
        + blocked_other,
    }
    outcome.wait_profile = profile
    if outcome.report is not None:
        outcome.report.wait_profile = dict(profile)


def scenario_metrics_document(spec: ScenarioSpec,
                              result: ScenarioResult) -> Dict:
    """The scenario's merged metrics + per-session outcomes, JSON-ready.

    This is what ``flux-sim scenario --metrics-out`` writes and what a
    scenario run bundle stores as ``metrics.json``; the per-session
    rows carry the wait profiles the diff engine attributes contention
    regressions with.
    """
    from repro.sim.metrics import rollup_counters
    from repro.sim.rows import ROUTE_FIELDS, session_fields, write_fields
    sessions = [{**write_fields(outcome.spec, ROUTE_FIELDS),
                 **session_fields(outcome)} for outcome in result.sessions]
    return {
        "schema": 1,
        "scenario": {
            "devices": [name for name, _ in spec.devices],
            "admission": spec.admission,
            "seed": spec.seed,
            "makespan": round(result.makespan, 6),
            "device_utilization": {d: round(u, 6) for d, u in
                                   sorted(result.device_utilization.items())},
            "sessions": sessions,
        },
        "metrics": result.metrics,
        "rollup": rollup_counters(result.metrics),
    }


def render_sessions(rows: Sequence[Dict], title: str = "") -> str:
    """The session table ``flux-sim scenario`` and ``flux-sim fleet``
    print: one line per session row of their metrics documents.

    Reads the row fields of :mod:`repro.sim.rows`, plus ``placement``
    and ``site`` where a row has them (fleet rows); the ``site`` column
    appears only when the rows carry one.  "why" is the refusal of a
    session that got a guest and then failed; otherwise the placement
    detail (a placement refusal, a shed, a migrated session's
    prediction), else the refusal.
    """
    sited = any("site" in row for row in rows)
    table = []
    for row in rows:
        profile = row["wait_profile"]
        table.append(((row["site"],) if sited else ()) + (
            f"{row['home']}->{row['guest'] or '-'}",
            row["package"],
            row["status"].upper(),
            row["session"] or "-",
            f"{profile['wall_s']:.3f}" if profile else "-",
            (row["guest"] and row["refusal"])
            or row.get("placement", {}).get("detail") or row["refusal"] or "",
        ))
    return format_table(
        (("site",) if sited else ())
        + ("route", "package", "status", "session", "wall (s)", "why"),
        table, title=title)


def scenario_trace_document(result: ScenarioResult) -> List[Dict]:
    """Chrome-trace view of a scenario: one track per session, stage
    spans from the causal event log, admission instants, and a counter
    track per timeline series (shares, queue depths, active flows).

    Rebuilt entirely from the result's event log and timeline — the
    same sources ``flux-sim explain`` reads — so the trace and the
    blame breakdown can never disagree.
    """
    doc: List[Dict] = []
    tids: Dict[str, int] = {}
    for index, outcome in enumerate(result.sessions, start=1):
        who = (f"{outcome.spec.home}->{outcome.spec.guest}:"
               f"{outcome.spec.package}")
        tids[who] = index
        if outcome.session:
            tids[outcome.session] = index
        doc.append({"name": "thread_name", "ph": "M", "pid": 1,
                    "tid": index,
                    "args": {"name": outcome.session or f"({outcome.status}) "
                             f"{who}"}})
    open_stages: Dict[Tuple[str, str], float] = {}
    for event in result.events:
        attrs = event.get("attrs", {})
        kind = event["kind"]
        session = attrs.get("session")
        if kind == "stage.start" and session in tids:
            open_stages[(session, attrs.get("stage", "?"))] = event["t"]
        elif kind == "stage.end" and session in tids:
            stage = attrs.get("stage", "?")
            start = open_stages.pop((session, stage), None)
            if start is not None:
                doc.append({"name": stage, "cat": "stage", "ph": "X",
                            "pid": 1, "tid": tids[session],
                            "ts": round(start * 1e6, 3),
                            "dur": round((event["t"] - start) * 1e6, 3),
                            "args": {"session": session}})
        elif kind in ("resource.enqueue", "resource.grant"):
            who = attrs.get("who")
            if who in tids:
                doc.append({"name": kind, "cat": "admission", "ph": "i",
                            "pid": 1, "tid": tids[who], "s": "t",
                            "ts": round(event["t"] * 1e6, 3),
                            "args": dict(attrs)})
    doc.extend(chrome_counter_events(result.timeline))
    return doc


def _session(world: ScenarioWorld, outcome: SessionOutcome):
    """One migration as a cooperative session generator.

    Endpoint resources are acquired in sorted-name order (ordered
    acquisition: no deadlock possible) before any device state is
    touched; the workload launch and the migration run while both are
    held, and both release whatever happens.
    """
    spec = outcome.spec
    home, guest = world.devices[spec.home], world.devices[spec.guest]
    who = f"{spec.home}->{spec.guest}:{spec.package}"
    if spec.placement is not None:
        # The decision that routed this demand here, on the world
        # recorder at submit time (before any queueing), keyed by the
        # same ``who`` the admission events carry.
        world.telemetry.events.emit("placement.decision", who=who,
                                    **dict(spec.placement))
    first, second = sorted((spec.home, spec.guest))
    if world.spec.admission == "refuse":
        if world.resource(first).busy or world.resource(second).busy:
            outcome.status = "rejected"
            outcome.refusal = MigrationRefusal.DEVICE_BUSY
            busy = (first if world.resource(first).busy else second)
            outcome.refusal_detail = f"{busy} already hosting a migration"
            outcome.finished = world.clock.now
            return
        world.resource(first).try_acquire(who)
        world.resource(second).try_acquire(who)
    else:
        yield world.resource(first).acquire(who)
        yield world.resource(second).acquire(who)
    try:
        outcome.started = world.clock.now
        app_by_package(spec.package).install_and_launch(home)
        try:
            report = yield from home.migration_service.migrate_steps(
                guest, spec.package, link=world.link_for(home, guest),
                extensions=spec.extensions)
        except MigrationError as error:
            report = error.report
            outcome.status = ("faulted" if report.faulted_stage
                              else "refused")
            outcome.refusal = error.reason
            outcome.refusal_detail = error.detail
            home.terminate_app(spec.package)
        else:
            outcome.status = "migrated"
        outcome.report = report
        outcome.session = report.session
    finally:
        outcome.finished = world.clock.now
        world.resource(second).release()
        world.resource(first).release()
