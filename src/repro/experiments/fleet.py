"""Fleet layer: seeded demand over a device population, placed and run.

A *fleet* scales the scenario runner from one hand-written world to a
population: ``--devices N`` surfaces (profiles cycling through
:data:`~repro.android.hardware.profiles.FLEET_PROFILE_CYCLE`) are
partitioned into *sites* of ``site_size`` devices.  Each site is a
sealed scenario world — its own virtual clock, its own shared-WiFi
:class:`~repro.android.net.link.Medium`, its own admission resources —
exactly the sealed-simulation shape the sweep's process fan-out already
exploits, which is what makes fleet runs shardable.

Per site, a seeded arrival process (exponential interarrivals on the
site's own RNG stream) generates migration *demands*: at ``t``, device
``H`` wants to move the next package from its seeded app mix somewhere.
Each demand is routed through the chosen
:class:`~repro.core.migration.placement.PlacementEngine`; feasible
assignments compile into :class:`~repro.experiments.scenario.SessionSpec`
sessions (placement decision attached, so the flight recorder carries a
``placement.decision`` event per session) and run on the existing
discrete-event scheduler.  Infeasible demands are refused with
``NO_FEASIBLE_GUEST``; under ``admission="shed"`` demands aimed at
overloaded surfaces are shed at compile time instead of queued.

Determinism contract: population, demands, and placements are pure
functions of the :class:`FleetSpec`; sites are independent simulations
merged in site order regardless of worker count or shard grouping.
The same spec therefore produces byte-identical fleet documents across
runs, ``--shard`` counts, and serial vs process runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.android.hardware.profiles import FLEET_PROFILE_CYCLE, DeviceProfile
from repro.apps.catalog import TOP_APPS, app_by_package
from repro.core.migration.placement import (
    Demand,
    LoadLedger,
    PlacementDecision,
    PLACEMENT_POLICIES,
    engine_for,
    infeasibility,
    predict_migration_seconds,
    recorded_needs,
)
from repro.experiments.harness import fan_out, format_table, resolve_workers
from repro.experiments.scenario import ScenarioSpec, SessionSpec, run_scenario
from repro.sim.metrics import merge_snapshots, rollup_counters
from repro.sim.rng import RngFactory, derive_seed
from repro.sim.timeline import series_key, split_series_key


class FleetError(Exception):
    pass


FLEET_ADMISSION_POLICIES = ("queue", "refuse", "shed")

#: Mean seconds between demand arrivals at one site.
MEAN_INTERARRIVAL_S = 4.0


@dataclass(frozen=True)
class FleetSpec:
    """A fleet run's full configuration (the determinism unit)."""

    devices: int = 12
    arrivals: int = 40
    seed: int = 0
    policy: str = "cost-model"
    site_size: int = 4
    admission: str = "queue"
    #: Under ``admission="shed"``: a demand is shed (dropped at compile
    #: time) when either endpoint's projected queue depth reaches this.
    shed_depth: int = 4

    def __post_init__(self) -> None:
        if self.devices < 2:
            raise FleetError(f"a fleet needs >= 2 devices, got "
                             f"{self.devices}")
        if self.arrivals < 0:
            raise FleetError(f"negative arrivals {self.arrivals!r}")
        if self.site_size < 2:
            raise FleetError(f"a site needs >= 2 devices, got "
                             f"site_size={self.site_size}")
        if self.policy not in PLACEMENT_POLICIES:
            raise FleetError(f"unknown placement policy {self.policy!r} "
                             f"(use one of {PLACEMENT_POLICIES})")
        if self.admission not in FLEET_ADMISSION_POLICIES:
            raise FleetError(
                f"unknown admission policy {self.admission!r} "
                f"(use one of {FLEET_ADMISSION_POLICIES})")
        if self.shed_depth < 1:
            raise FleetError(f"shed_depth must be >= 1, got "
                             f"{self.shed_depth}")


class Site(NamedTuple):
    """One sealed slice of the population: a scenario world to be."""

    index: int
    name: str
    devices: Tuple[Tuple[str, DeviceProfile], ...]
    arrivals: int


class SiteOutcome(NamedTuple):
    """What one site's simulation produced (picklable, JSON-able)."""

    site: str
    rows: List[Dict]
    metrics: Dict
    events: List[Dict]
    timeline: Dict[str, List[List[float]]]
    makespan: float
    device_utilization: Dict[str, float]
    medium_utilization: float


@dataclass
class FleetResult:
    """Everything a fleet run produced, merged in site order."""

    spec: FleetSpec
    sites: List[str]
    #: One row per demand, site-major then arrival order: placement
    #: decision plus (for compiled sessions) the scenario outcome.
    rows: List[Dict]
    metrics: Dict
    #: Every site's event stream, site-labeled, concatenated in site
    #: order (sites are independent clocks; merging by time would be
    #: meaningless — same shape as the sweep's pair-labeled stream).
    events: List[Dict]
    #: Every site's timeline, ``site=<name>`` folded into the keys.
    timeline: Dict[str, List[List[float]]] = field(default_factory=dict)
    makespan_by_site: Dict[str, float] = field(default_factory=dict)
    device_utilization: Dict[str, float] = field(default_factory=dict)
    medium_utilization: Dict[str, float] = field(default_factory=dict)
    slo: Dict = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Fleet completion: the slowest site's makespan (sites run in
        parallel wall-clock-wise; their virtual clocks are private)."""
        return max(self.makespan_by_site.values(), default=0.0)


# -- population / demand generation ------------------------------------------


def build_sites(spec: FleetSpec) -> List[Site]:
    """Partition the population into sites and apportion the arrivals.

    Device ``i`` is named ``dev{i:02d}`` (globally unique, so merged
    fleet telemetry never collides) with profile ``FLEET_PROFILE_CYCLE[i
    % len]``.  Sites take ``site_size`` consecutive devices; a trailing
    singleton folds into the previous site (a one-device site could
    never host a migration).  Arrivals spread round-robin-evenly:
    ``arrivals // S`` per site plus one for the first ``arrivals % S``.
    """
    names = [f"dev{i:02d}" for i in range(spec.devices)]
    profiles = [FLEET_PROFILE_CYCLE[i % len(FLEET_PROFILE_CYCLE)]
                for i in range(spec.devices)]
    groups: List[List[Tuple[str, DeviceProfile]]] = []
    for start in range(0, spec.devices, spec.site_size):
        groups.append(list(zip(names[start:start + spec.site_size],
                               profiles[start:start + spec.site_size])))
    if len(groups) > 1 and len(groups[-1]) < 2:
        groups[-2].extend(groups.pop())
    site_count = len(groups)
    base, remainder = divmod(spec.arrivals, site_count)
    per_site = [base + (1 if i < remainder else 0)
                for i in range(site_count)]
    capacity = len(TOP_APPS)
    if max(per_site) > capacity:
        raise FleetError(
            f"{max(per_site)} arrivals at one site exceeds the "
            f"{capacity}-app catalog (each site demands each package at "
            f"most once); add devices or reduce --arrivals")
    return [Site(index=i, name=f"site{i}", devices=tuple(group),
                 arrivals=per_site[i])
            for i, group in enumerate(groups)]


def site_demands(spec: FleetSpec, site: Site) -> List[Demand]:
    """The site's seeded demand stream — a pure function of the spec.

    One RNG stream per site drives arrivals and home selection; one
    stream per device shuffles its app mix.  A package is demanded at
    most once per site (the scenario contract: each (home, package)
    launches once; keeping it site-unique also keeps guests from
    hosting two instances of one package).
    """
    factory = RngFactory(spec.seed)
    rng = factory.stream("fleet", site.name, "arrivals")
    profile_of = dict(site.devices)
    mixes: Dict[str, List[str]] = {}
    for name, profile in site.devices:
        # A device only demands packages it can host itself: the app
        # must launch and run its workload at home before it can be
        # migrated anywhere (a wall display never demands a vibrator
        # app — that app could not have started there).
        packages = [app.package for app in TOP_APPS
                    if infeasibility(recorded_needs(app), profile,
                                     profile) is None]
        factory.stream("fleet", site.name, name, "mix").shuffle(packages)
        mixes[name] = packages
    used: set = set()
    demands: List[Demand] = []
    t = 0.0
    for _ in range(site.arrivals):
        t += rng.expovariate(1.0 / MEAN_INTERARRIVAL_S)
        eligible = [name for name, _ in site.devices
                    if any(p not in used for p in mixes[name])]
        if not eligible:
            break
        home = eligible[rng.randrange(len(eligible))]
        package = next(p for p in mixes[home] if p not in used)
        used.add(package)
        demands.append(Demand(arrival=round(t, 6), home=home,
                              package=package))
    return demands


# -- placement compilation ---------------------------------------------------


def place_site(spec: FleetSpec, site: Site, demands: Sequence[Demand]
               ) -> Tuple[List[SessionSpec], List[Dict]]:
    """Route every demand through the engine; compile the accepted ones.

    Returns ``(sessions, rows)`` where each row carries the demand, the
    decision, and a provisional status (``placed`` rows are finalized
    from the scenario outcome by :func:`run_site`).
    """
    engine = engine_for(spec.policy)
    ledger = LoadLedger()
    profile_of = dict(site.devices)
    sessions: List[SessionSpec] = []
    rows: List[Dict] = []
    for demand in demands:
        now = demand.arrival
        app = app_by_package(demand.package)
        home_view = ledger.view(demand.home, profile_of[demand.home], now)
        candidates = [ledger.view(name, profile, now)
                      for name, profile in site.devices
                      if name != demand.home]
        decision = engine.choose(demand, app, home_view, candidates)
        row = {
            "site": site.name,
            "arrival": demand.arrival,
            "home": demand.home,
            "guest": decision.guest,
            "package": demand.package,
            "placement": dict(decision.attrs()),
            "status": "placed",
            "session": None,
            "refusal": None,
        }
        if decision.guest is None:
            row["status"] = "refused"
            row["refusal"] = decision.refusal.value
            rows.append(row)
            continue
        if spec.admission == "shed":
            guest_view = next(c for c in candidates
                              if c.name == decision.guest)
            depth = max(home_view.queue_depth, guest_view.queue_depth)
            if depth >= spec.shed_depth:
                row["status"] = "shed"
                row["placement"]["detail"] = (
                    f"shed: projected queue depth {depth} >= "
                    f"{spec.shed_depth}")
                rows.append(row)
                continue
        prediction = predict_migration_seconds(
            app, profile_of[demand.home], profile_of[decision.guest],
            active_flows=next(c for c in candidates
                              if c.name == decision.guest).active_flows)
        ledger.commit(demand.home, decision.guest, now, prediction)
        sessions.append(SessionSpec(home=demand.home, guest=decision.guest,
                                    package=demand.package,
                                    start=demand.arrival,
                                    placement=decision.attrs()))
        rows.append(row)
    return sessions, rows


# -- site execution ----------------------------------------------------------


def _medium_busy_seconds(timeline: Dict[str, List[List[float]]]) -> float:
    """Seconds the site medium had at least one active flow, integrated
    from its edge-sampled ``medium/active_flows`` series."""
    samples = timeline.get(series_key("medium/active_flows",
                                      {"medium": "medium"}), [])
    busy, prev_t, prev_v = 0.0, None, 0.0
    for t, value in samples:
        if prev_t is not None and prev_v > 0:
            busy += t - prev_t
        prev_t, prev_v = t, value
    return busy


def run_site(spec: FleetSpec, site: Site) -> SiteOutcome:
    """Generate, place, and execute one site; resolve its rows."""
    demands = site_demands(spec, site)
    sessions, rows = place_site(spec, site, demands)
    scenario_spec = ScenarioSpec(
        devices=site.devices,
        sessions=tuple(sessions),
        seed=derive_seed(spec.seed, "fleet", site.name),
        admission=("refuse" if spec.admission == "refuse" else "queue"))
    result = run_scenario(scenario_spec)
    by_route = {(o.spec.home, o.spec.package): o for o in result.sessions}
    for row in rows:
        if row["status"] != "placed":
            row.update(submitted=None, queued_seconds=None,
                       wait_profile=None, stages={}, critical_path=[],
                       faulted_stage=None, total_seconds=None,
                       transferred_bytes=0)
            continue
        outcome = by_route[(row["home"], row["package"])]
        report = outcome.report
        row.update({
            "status": outcome.status,
            "session": outcome.session or None,
            "refusal": (outcome.refusal.value if outcome.refusal
                        else None),
            "submitted": round(outcome.submitted, 6),
            "queued_seconds": round(outcome.queued_seconds, 6),
            "wait_profile": ({k: round(v, 6) for k, v in
                              sorted(outcome.wait_profile.items())}
                             if outcome.wait_profile else None),
            "stages": ({s: round(v, 6) for s, v in report.stages.items()}
                       if report is not None else {}),
            "critical_path": (report.critical_path
                              if report is not None else []),
            "faulted_stage": (report.faulted_stage
                              if report is not None else None),
            "total_seconds": (round(report.total_seconds, 6)
                              if report is not None else None),
            "transferred_bytes": (report.transferred_bytes
                                  if report is not None else 0),
        })
    makespan = round(result.makespan, 6)
    busy = _medium_busy_seconds(result.timeline)
    return SiteOutcome(
        site=site.name,
        rows=rows,
        metrics=result.metrics,
        events=result.events,
        timeline=result.timeline,
        makespan=makespan,
        device_utilization={name: round(value, 6) for name, value in
                            result.device_utilization.items()},
        medium_utilization=(round(busy / makespan, 6)
                            if makespan > 0 else 0.0))


# -- merging / reporting -----------------------------------------------------


def _percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile over an ascending sequence (0.0 empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * p // 100))  # ceil(n*p/100)
    return sorted_values[int(rank) - 1]


def fleet_slo(rows: Sequence[Dict]) -> Dict:
    """The fleet report's headline numbers, from the demand rows alone."""
    walls = sorted(row["wait_profile"]["wall_s"] for row in rows
                   if row["status"] == "migrated" and row.get("wait_profile"))
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    demands = len(rows)
    refused = counts.get("refused", 0) + counts.get("rejected", 0)
    shed = counts.get("shed", 0)
    return {
        "demands": demands,
        "migrated": counts.get("migrated", 0),
        "faulted": counts.get("faulted", 0),
        "refused": counts.get("refused", 0),
        "rejected": counts.get("rejected", 0),
        "shed": shed,
        "p50_s": round(_percentile(walls, 50), 6),
        "p95_s": round(_percentile(walls, 95), 6),
        "p99_s": round(_percentile(walls, 99), 6),
        "refusal_rate": round(refused / demands, 6) if demands else 0.0,
        "shed_rate": round(shed / demands, 6) if demands else 0.0,
    }


def merge_site_outcomes(spec: FleetSpec, sites: Sequence[Site],
                        outcomes: Sequence[SiteOutcome]) -> FleetResult:
    """Fold per-site outcomes (serial or pooled, any shard grouping's)
    into one FleetResult — always in the given site order, which
    callers keep in global site-index order; that is the whole
    shard-merge determinism story."""
    rows: List[Dict] = []
    events: List[Dict] = []
    timeline: Dict[str, List[List[float]]] = {}
    makespans: Dict[str, float] = {}
    device_utilization: Dict[str, float] = {}
    medium_utilization: Dict[str, float] = {}
    for outcome in outcomes:
        rows.extend(outcome.rows)
        for event in outcome.events:
            tagged = dict(event)
            tagged["site"] = outcome.site
            events.append(tagged)
        for key, samples in outcome.timeline.items():
            name, labels = split_series_key(key)
            labels["site"] = outcome.site
            timeline[series_key(name, labels)] = samples
        makespans[outcome.site] = outcome.makespan
        device_utilization.update(outcome.device_utilization)
        medium_utilization[outcome.site] = outcome.medium_utilization
    metrics = merge_snapshots([o.metrics for o in outcomes])
    return FleetResult(
        spec=spec,
        sites=[site.name for site in sites],
        rows=rows,
        metrics=metrics,
        events=events,
        timeline={key: timeline[key] for key in sorted(timeline)},
        makespan_by_site=makespans,
        device_utilization=device_utilization,
        medium_utilization=medium_utilization,
        slo=fleet_slo(rows))


def run_fleet(spec: FleetSpec,
              shard: Optional[Tuple[int, int]] = None,
              shard_count: Optional[int] = None,
              workers: Union[int, str, None] = None,
              start_method: Optional[str] = None) -> FleetResult:
    """Run a fleet (or one shard of it) and merge in site order.

    ``shard=(k, n)`` runs only sites ``i % n == k`` — a *partial* fleet
    for distributed runs; ``shard_count=n`` runs all ``n`` shard groups
    (each group one :func:`~repro.experiments.harness.fan_out` batch)
    and reassembles the outcomes in global site order, which is
    byte-identical to the unsharded run.  ``workers`` > 1 runs a group's
    sites on that many processes; the default is serial.
    """
    if shard is not None and shard_count is not None:
        raise FleetError("pass shard=(k, n) or shard_count=n, not both")
    sites = build_sites(spec)
    if shard is not None:
        k, n = shard
        if n < 1 or not 0 <= k < n:
            raise FleetError(f"bad shard {k}/{n}: need 0 <= K < N")
        sites = [site for site in sites if site.index % n == k]
    groups = ([sites] if not shard_count else
              [[site for site in sites if site.index % shard_count == g]
               for g in range(shard_count)])
    by_index: Dict[int, SiteOutcome] = {}
    for group in groups:
        # run_site is read from the module here, at call time, so a
        # patched fleet.run_site (perfbench's SiteHook) is what runs.
        outcomes = fan_out(run_site, [(spec, site) for site in group],
                           resolve_workers(workers, len(group)),
                           start_method)
        by_index.update((site.index, outcome)
                        for site, outcome in zip(group, outcomes))
    ordered = [by_index[site.index] for site in sites]
    return merge_site_outcomes(spec, sites, ordered)


# -- documents / rendering ---------------------------------------------------


def fleet_metrics_document(spec: FleetSpec, result: FleetResult,
                           shard: Optional[str] = None) -> Dict:
    """The fleet's merged metrics + per-demand rows, JSON-ready.

    What ``flux-sim fleet --metrics-out`` writes and a fleet run bundle
    stores as ``metrics.json``; the rows carry both the placement
    decisions and the wait profiles, so the diff engine can attribute a
    latency regression to placement or to contention.
    """
    return {
        "schema": 1,
        "fleet": {
            "devices": spec.devices,
            "arrivals": spec.arrivals,
            "seed": spec.seed,
            "policy": spec.policy,
            "site_size": spec.site_size,
            "admission": spec.admission,
            "shard": shard,
            "sites": list(result.sites),
            "slo": result.slo,
            "makespan_by_site": {s: round(m, 6) for s, m in
                                 sorted(result.makespan_by_site.items())},
            "device_utilization": {d: round(u, 6) for d, u in
                                   sorted(result.device_utilization.items())},
            "medium_utilization": {s: round(u, 6) for s, u in
                                   sorted(result.medium_utilization.items())},
            "sessions": result.rows,
        },
        "metrics": result.metrics,
        "rollup": rollup_counters(result.metrics),
    }


def render_fleet(result: FleetResult) -> str:
    """The human-readable fleet report ``flux-sim fleet`` prints."""
    rows = []
    for row in result.rows:
        guest = row["guest"] or "-"
        profile = row.get("wait_profile") or {}
        rows.append((
            row["site"],
            f"{row['home']}->{guest}",
            row["package"],
            row["status"].upper(),
            row["session"] or "-",
            (f"{profile['wall_s']:.3f}" if profile else "-"),
            row["placement"].get("detail", "") or row.get("refusal") or "",
        ))
    slo = result.slo
    lines = [format_table(
        ("site", "route", "package", "status", "session", "wall (s)",
         "why"),
        rows, title=f"fleet: {result.spec.devices} devices / "
                    f"{len(result.sites)} sites, "
                    f"{slo['demands']} demands, "
                    f"policy={result.spec.policy}, "
                    f"seed={result.spec.seed}")]
    lines.append("")
    lines.append(
        f"latency: p50 {slo['p50_s']:.3f}s  p95 {slo['p95_s']:.3f}s  "
        f"p99 {slo['p99_s']:.3f}s  ({slo['migrated']} migrated)")
    lines.append(
        f"refusals: {slo['refusal_rate']:.1%} "
        f"({slo['refused']} refused, {slo['rejected']} rejected), "
        f"shed {slo['shed_rate']:.1%} ({slo['shed']})")
    busiest = sorted(result.device_utilization.items(),
                     key=lambda item: (-item[1], item[0]))[:3]
    if busiest:
        lines.append("busiest devices: " + ", ".join(
            f"{name} {value:.0%}" for name, value in busiest))
    lines.append("medium utilization: " + ", ".join(
        f"{site} {value:.0%}" for site, value in
        sorted(result.medium_utilization.items())))
    return "\n".join(lines)
