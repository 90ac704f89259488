"""The benchmark's workloads: closed-loop handoffs and serial fleets.

Every workload is single-process and single-threaded.  Its inputs are a
pure function of ``--seed``; its simulated output is checked per op and
folded into a SHA-256 digest per run.  Host time is what is measured.

A run is a number of *epochs* derived from ``--seconds``: each epoch is
a fixed amount of work on freshly built state (handoff: new worlds, then
``HANDOFF_EPOCH_ROUNDS`` rounds; fleet: one ``run_fleet`` of
``FLEET_EPOCH``).  Only the epochs' work is timed.  Fixed work, not a
deadline, keeps the digest, the latency sample count and the memory the
simulation keeps identical on every commit; fresh state per epoch keeps
the per-op cost from drifting as event rings, spans, metric series and
histories grow over a long run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import pickle
import random
import resource
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from hostspeed import host_scale

#: Rounds of 64 migrations per handoff epoch, and the epoch's nominal
#: length (about 300 migrations/s on a 2-core x86 VM).
HANDOFF_EPOCH_ROUNDS = 12
HANDOFF_EPOCH_SECONDS = 2.5
#: One fleet epoch: (devices, arrivals) at the CI fleet-smoke density of
#: 40 arrivals per 12 devices, and the epoch's nominal length.
FLEET_EPOCH = (120, 400)
FLEET_EPOCH_SECONDS = 4.0
#: The warm-up fleet: the CI fleet-smoke size.
FLEET_WARMUP = (12, 40)
#: Warm-up fleets per fleet run; setup_s reports their median.
FLEET_SETUP_REPEATS = 5

QUIET_ENV = {"FLUX_METRICS": "0", "FLUX_EVENTS": "0", "FLUX_TIMELINE": "0"}
STAGES = ("preparation", "checkpoint", "transfer", "restore",
          "reintegration")

#: Simulation counters read after each epoch, reported as exact counts.
COUNTERS = {
    "count.binder.transactions": "binder/transactions",
    "count.record.calls_recorded": "record/calls_recorded",
    "count.record.calls_pruned": "record/calls_pruned",
    "count.replay.calls_replayed": "replay/calls_replayed",
    "count.cria.pages": "cria/pages",
    "count.chunks.wire_bytes": "chunks/wire_bytes",
    "count.link.bytes_total": "link/bytes_total",
    "replay.calls_proxied": "replay/calls_proxied",
}


def set_telemetry(quiet: bool) -> None:
    """Telemetry knobs for every Device built from now on."""
    for key, value in QUIET_ENV.items():
        if quiet:
            os.environ[key] = value
        else:
            os.environ.pop(key, None)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def epochs_for(seconds: int, epoch_seconds: float) -> int:
    return max(1, round(seconds / epoch_seconds))


def rollup(snapshot: Dict) -> Dict[str, float]:
    """The ``COUNTERS`` of one metrics snapshot."""
    from repro.sim.metrics import rollup_counters

    totals = rollup_counters(snapshot)
    return {name: totals.get(key, 0) for name, key in COUNTERS.items()}


@dataclass
class Window:
    """What the timed epochs of one run measured and checked."""

    ops: int = 0
    failed: int = 0
    #: Timed seconds, summed over epochs, calibration kernel excluded.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: The same, each epoch's scaled to the reference host (hostspeed).
    scaled_wall_s: float = 0.0
    scaled_cpu_s: float = 0.0
    #: Calibration kernel seconds and runs inside the timed epochs.
    kernel_s: float = 0.0
    kernel_runs: int = 0
    #: Seconds of each setup: build plus warm-up.
    setups: List[float] = field(default_factory=list)
    #: Calibration kernel seconds and runs, one run before each setup.
    setup_kernel_s: float = 0.0
    setup_kernel_runs: int = 0
    #: Wall seconds of each span group, in span-group id order: one
    #: migrate() call on handoff, one epoch on fleet.
    group_walls: List[float] = field(default_factory=list)
    #: Latency samples: migrate() wall on handoff, host seconds spent
    #: inside one migration session's steps on fleet.
    latencies: List[float] = field(default_factory=list)
    digest: str = ""
    #: Digest of the warm-up work (equal across setups).
    warmup_digest: str = ""
    #: Peak RSS at the first timed op, after the first epoch, at the end.
    rss_start_kb: int = 0
    rss_first_epoch_kb: int = 0
    rss_end_kb: int = 0
    first_epoch_ops: int = 0
    counters: Dict[str, float] = field(default_factory=dict)
    evicted: int = 0
    #: Pickled bytes of every fleet SiteOutcome (traced run only).
    site_outcome_bytes: int = 0
    #: Whole-run check failures.
    problems: List[str] = field(default_factory=list)

    FAILURES_SHOWN = 5

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= self.FAILURES_SHOWN:
            print(f"failed op: {message}", file=sys.stderr)

    @property
    def scale(self) -> float:
        """Mean factor from measured to reference-host time."""
        return self.scaled_wall_s / self.wall_s

    def set_up(self, build, speed):
        """Run ``build`` as one timed setup, after a full collection and
        one calibration kernel; returns what ``build`` returns."""
        gc.collect()
        kernel_wall = speed.wall_s
        speed.sample()
        self.setup_kernel_s += speed.wall_s - kernel_wall
        self.setup_kernel_runs += 1
        started = time.perf_counter()
        result = build()
        self.setups.append(time.perf_counter() - started)
        return result

    def timed(self, body, speed, spans=None) -> None:
        """Run ``body`` as timed work, after a full collection; with
        ``spans``, the layer entry points are traced while it runs.
        Calibration kernels ``body`` runs on ``speed`` are not timed."""
        gc.collect()
        if not self.rss_start_kb:
            self.rss_start_kb = peak_rss_kb()
        kernel_wall, kernel_cpu, runs = speed.wall_s, speed.cpu_s, \
            speed.samples
        first_latency = len(self.latencies)
        with spans if spans is not None else contextlib.nullcontext():
            cpu0, wall0 = time.process_time(), time.perf_counter()
            body()
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
        kernel_s = speed.wall_s - kernel_wall
        wall -= kernel_s
        cpu -= speed.cpu_s - kernel_cpu
        scale = host_scale(kernel_s, speed.samples - runs)
        self.kernel_s += kernel_s
        self.kernel_runs += speed.samples - runs
        self.wall_s += wall
        self.cpu_s += cpu
        self.scaled_wall_s += wall * scale
        self.scaled_cpu_s += cpu * scale
        latencies = self.latencies
        for index in range(first_latency, len(latencies)):
            latencies[index] *= scale

    def end_epoch(self) -> None:
        """Record peak RSS once an epoch's ops are counted."""
        self.rss_end_kb = peak_rss_kb()
        if not self.first_epoch_ops:
            self.rss_first_epoch_kb = self.rss_end_kb
            self.first_epoch_ops = self.ops

    def add_counters(self, counters: Dict[str, float]) -> None:
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value


def _same(digests: List[str], what: str, window: Window) -> str:
    if len(set(digests)) > 1:
        window.problems.append(f"{what} digests differ: "
                               f"{sorted(set(d[:16] for d in digests))}")
    return digests[0]


# -- handoff ------------------------------------------------------------------


class PairWorld:
    """One paper device pair; ``source`` holds every app between rounds."""

    def __init__(self, home, guest) -> None:
        self.home, self.guest = home, guest
        self.source, self.target = home, guest

    def flip(self) -> None:
        self.source, self.target = self.target, self.source

    @property
    def devices(self):
        return (self.home, self.guest)


def handoff_orders(seed: int, rounds: int) -> List[List[str]]:
    """The app order of the warm-up round and of each timed round."""
    from repro.apps.catalog import MIGRATABLE_APPS

    rng = random.Random(seed)
    packages = [app.package for app in MIGRATABLE_APPS]
    return [rng.sample(packages, len(packages)) for _ in range(1 + rounds)]


def build_pair_worlds(seed: int) -> List[PairWorld]:
    """Boot each paper pair, install all apps, pair both ways, launch."""
    from repro.android.device import Device
    from repro.android.hardware.profiles import PAPER_DEVICE_PAIRS
    from repro.apps.catalog import MIGRATABLE_APPS
    from repro.sim import SimClock
    from repro.sim.rng import RngFactory, derive_seed

    worlds = []
    for index, (home_profile, guest_profile) in enumerate(PAPER_DEVICE_PAIRS):
        clock = SimClock()
        rngs = RngFactory(derive_seed(seed, "perfbench", str(index)))
        home = Device(home_profile, clock, rngs, name="home")
        guest = Device(guest_profile, clock, rngs, name="guest")
        for app in MIGRATABLE_APPS:
            app.install(home)
        home.pairing_service.pair(guest)
        guest.pairing_service.pair(home)
        for app in MIGRATABLE_APPS:
            app.install_and_launch(home)
        worlds.append(PairWorld(home, guest))
    return worlds


def _migration_problem(report, source, target, package) -> Optional[str]:
    if not report.success:
        return "report not successful"
    if not target.app_processes(package):
        return "no process on the destination"
    if source.app_processes(package):
        return "process left on the source"
    if set(report.stages) != set(STAGES):
        return f"stages {sorted(report.stages)}"
    if any(seconds < 0 for seconds in report.stages.values()):
        return f"negative stage time {report.stages}"
    if report.transferred_bytes <= 0:
        return "no bytes transferred"
    return None


def run_rounds(worlds: List[PairWorld], orders: List[List[str]],
               window: Window, digests: List["hashlib._Hash"],
               speed=None, spans=None) -> None:
    """Migrate every app to the other side of each pair, round by round.

    Each op's record ``(total_seconds, stages, transferred_bytes)``
    updates every hasher in ``digests``.  With ``speed``, the host-speed
    kernel runs before each round.
    """
    clock = time.perf_counter
    for order in orders:
        if speed is not None:
            speed.sample()
        for world in worlds:
            source, target = world.source, world.target
            service = source.migration_service
            for package in order:
                if spans is not None:
                    spans.op = len(window.group_walls)
                started = clock()
                try:
                    report = service.migrate(target, package)
                except Exception:  # an op failure is counted, not fatal
                    window.group_walls.append(clock() - started)
                    window.ops += 1
                    window.fail(f"{package}: {traceback.format_exc()}")
                    continue
                elapsed = clock() - started
                window.group_walls.append(elapsed)
                window.latencies.append(elapsed)
                window.ops += 1
                problem = _migration_problem(report, source, target, package)
                if problem is not None:
                    window.fail(f"{package}: {problem}")
                record = repr((report.total_seconds,
                               list(report.stages.items()),
                               report.transferred_bytes)).encode()
                for digest in digests:
                    digest.update(record)
            world.flip()


class Handoff:
    """Closed loop of handoffs between the paper's four device pairs.

    Every epoch rebuilds the same worlds from the same seed and runs the
    same rounds, so every epoch must reach the same digest.
    """

    def __init__(self, seed: int, seconds: int, speed, quiet: bool) -> None:
        self.seed = seed
        self.speed = speed
        self.quiet = quiet
        self.epochs = epochs_for(seconds, HANDOFF_EPOCH_SECONDS)
        self.orders = handoff_orders(seed, HANDOFF_EPOCH_ROUNDS)

    @property
    def size(self) -> str:
        return f"rounds={HANDOFF_EPOCH_ROUNDS}x{self.epochs}"

    def warm_up(self, window: Window) -> List[PairWorld]:
        """Fresh worlds after one warm-up round (digest on ``window``)."""
        worlds = build_pair_worlds(self.seed)
        warmup = Window()
        digest = hashlib.sha256()
        run_rounds(worlds, self.orders[:1], warmup, [digest])
        if warmup.failed:
            window.problems.append("warm-up round failed")
        window.warmup_digest = digest.hexdigest()
        return worlds

    def run(self, spans=None) -> Window:
        window = Window()
        run_digest = hashlib.sha256()
        epoch_digests, warmup_digests = [], []
        for _ in range(self.epochs):
            worlds = window.set_up(lambda: self.warm_up(window), self.speed)
            warmup_digests.append(window.warmup_digest)
            before = self._counters(worlds)
            epoch_digest = hashlib.sha256()
            window.timed(lambda: run_rounds(
                worlds, self.orders[1:], window, [run_digest, epoch_digest],
                self.speed, spans), self.speed, spans)
            epoch_digests.append(epoch_digest.hexdigest())
            after = self._counters(worlds)
            window.add_counters({name: after[name] - before[name]
                                 for name in after})
            window.evicted += sum(device.events.evicted for world in worlds
                                  for device in world.devices)
            window.end_epoch()
            del worlds
        _same(warmup_digests, "warm-up", window)
        _same(epoch_digests, "epoch", window)
        window.digest = run_digest.hexdigest()
        return window

    @staticmethod
    def _counters(worlds: List[PairWorld]) -> Dict[str, float]:
        from repro.sim.metrics import merge_snapshots

        return rollup(merge_snapshots(device.metrics.snapshot()
                                      for world in worlds
                                      for device in world.devices))

    def cross_check(self, window: Window) -> None:
        """The warm-up round with the other telemetry setting must give
        the same digest: telemetry never changes simulated results."""
        other = Window()
        set_telemetry(not self.quiet)
        try:
            self.warm_up(other)
        finally:
            set_telemetry(self.quiet)
        if other.warmup_digest != window.warmup_digest:
            window.problems.append(
                f"warm-up digest {other.warmup_digest[:16]} with telemetry "
                f"{'on' if self.quiet else 'off'} differs from "
                f"{window.warmup_digest[:16]}")


# -- fleet --------------------------------------------------------------------


class SessionClock:
    """Host seconds spent inside each migration session's steps.

    Wraps ``MigrationService.migrate_steps`` so every send into the
    session generator is timed.  A step that runs another session's
    step nested inside it is charged only its own part.  The wrapper
    costs about 0.35 us a step: about 0.02% of a fleet epoch.
    """

    def __init__(self, samples: List[float]) -> None:
        self.samples = samples
        self._nested: List[float] = []
        self._original = None

    def _timed(self, steps):
        own = 0.0
        value, error = None, None
        while True:
            self._nested.append(0.0)
            started = time.perf_counter()
            try:
                if error is not None:
                    op = steps.throw(error)
                else:
                    op = steps.send(value)
            except StopIteration as stop:
                own += self._close_bracket(started)
                self.samples.append(own)
                return stop.value
            except BaseException:
                own += self._close_bracket(started)
                self.samples.append(own)
                raise
            own += self._close_bracket(started)
            try:
                value, error = (yield op), None
            except BaseException as thrown:  # re-raised inside the session
                value, error = None, thrown

    def _close_bracket(self, started: float) -> float:
        elapsed = time.perf_counter() - started
        inner = self._nested.pop()
        if self._nested:
            self._nested[-1] += elapsed
        return elapsed - inner

    def __enter__(self) -> "SessionClock":
        from repro.core.migration.migration import MigrationService

        original = self._original = MigrationService.migrate_steps
        timed = self._timed

        def migrate_steps(service, *args, **kwargs):
            return timed(original(service, *args, **kwargs))

        MigrationService.migrate_steps = migrate_steps
        return self

    def __exit__(self, *exc) -> None:
        from repro.core.migration.migration import MigrationService

        MigrationService.migrate_steps = self._original


class SiteHook:
    """Runs the host-speed kernel before each site ``run_fleet`` runs;
    with ``keep``, collects every ``SiteOutcome`` it produces."""

    def __init__(self, speed, keep: bool) -> None:
        self.speed = speed
        self.keep = keep
        self.outcomes: List[object] = []

    def __enter__(self) -> "SiteHook":
        import repro.experiments.fleet as fleet

        self._original = original = fleet.run_site

        def run_site(spec, site):
            self.speed.sample()
            outcome = original(spec, site)
            if self.keep:
                self.outcomes.append(outcome)
            return outcome

        fleet.run_site = run_site
        return self

    def __exit__(self, *exc) -> None:
        import repro.experiments.fleet as fleet

        fleet.run_site = self._original


def fleet_spec(seed: int, size):
    from repro.experiments.fleet import FleetSpec

    devices, arrivals = size
    return FleetSpec(devices=devices, arrivals=arrivals, seed=seed,
                     policy="cost-model", site_size=4, admission="queue")


def _fleet_row_problem(row: Dict) -> Optional[str]:
    from repro.core.cria.errors import RUNTIME_FAULTS, MigrationRefusal

    if row["status"] == "refused":
        # Expected: no feasible guest, or an app the paper's prototype
        # cannot migrate (multi-process, preserved EGL context, ...).
        # A fault, an unpaired route or a busy device is not.
        unexpected = {reason.value for reason in RUNTIME_FAULTS} | {
            MigrationRefusal.NOT_PAIRED.value,
            MigrationRefusal.NOT_RUNNING.value,
            MigrationRefusal.DEVICE_BUSY.value}
        if row["refusal"] in unexpected:
            return f"refused: {row['refusal']}"
        return None
    if row["status"] != "migrated":
        return f"status {row['status']}"
    stages = row["stages"]
    if set(stages) != set(STAGES):
        return f"stages {sorted(stages)}"
    if any(seconds < 0 for seconds in stages.values()):
        return f"negative stage time {stages}"
    if row["transferred_bytes"] <= 0:
        return "no bytes transferred"
    return None


def fleet_digest(result) -> str:
    """SHA-256 over a fleet's demand rows and its SLO summary."""
    document = json.dumps([result.rows, result.slo], sort_keys=True)
    return hashlib.sha256(document.encode()).hexdigest()


class Fleet:
    """Serial ``run_fleet`` epochs; an op is one demand.

    Epoch ``k`` uses the fleet seed derived from ``(seed, k)``, so a run
    covers several demand mixes.
    """

    def __init__(self, seed: int, seconds: int, speed) -> None:
        from repro.sim.rng import derive_seed

        self.speed = speed
        self.epochs = epochs_for(seconds, FLEET_EPOCH_SECONDS)
        self.specs = [fleet_spec(derive_seed(seed, "perfbench", str(k)),
                                 FLEET_EPOCH) for k in range(self.epochs)]
        self.warmup_spec = fleet_spec(seed, FLEET_WARMUP)

    @property
    def size(self) -> str:
        devices, arrivals = FLEET_EPOCH
        return f"fleet={devices}/{arrivals}x{self.epochs}"

    def run(self, spans=None) -> Window:
        from repro.experiments.fleet import run_fleet

        window = Window()
        warmup_digests = []
        for _ in range(FLEET_SETUP_REPEATS):
            warmup_digests.append(window.set_up(
                lambda: fleet_digest(run_fleet(self.warmup_spec)),
                self.speed))
        window.warmup_digest = _same(warmup_digests, "warm-up", window)

        run_digest = hashlib.sha256()
        results = []
        for epoch, spec in enumerate(self.specs):
            sites = SiteHook(self.speed, keep=spans is not None)

            def body() -> None:
                if spans is not None:
                    spans.op = epoch
                with SessionClock(window.latencies), sites:
                    results.append(run_fleet(spec))

            started = time.perf_counter()
            window.timed(body, self.speed, spans)
            window.group_walls.append(time.perf_counter() - started)
            result = results.pop()
            for row in result.rows:
                problem = _fleet_row_problem(row)
                if problem is not None:
                    window.fail(f"{row['site']} {row['package']}: {problem}")
            window.ops += len(result.rows)
            run_digest.update(fleet_digest(result).encode())
            window.add_counters(rollup(result.metrics))
            window.site_outcome_bytes += sum(
                len(pickle.dumps(outcome)) for outcome in sites.outcomes)
            window.end_epoch()
            del result, sites
        window.digest = run_digest.hexdigest()
        return window

    def cross_check(self, window: Window) -> None:
        """The warm-up fleet split into shards must merge back to the
        same rows and SLO as the unsharded warm-up fleets."""
        from repro.experiments.fleet import run_fleet

        sharded = fleet_digest(run_fleet(self.warmup_spec, shard_count=3))
        if sharded != window.warmup_digest:
            window.problems.append(
                f"sharded warm-up digest {sharded[:16]} differs from "
                f"{window.warmup_digest[:16]}")


def make_workload(name: str, seed: int, seconds: int, speed):
    if name == "handoff":
        return Handoff(seed, seconds, speed, quiet=False)
    if name == "handoff-quiet":
        return Handoff(seed, seconds, speed, quiet=True)
    if name == "fleet":
        return Fleet(seed, seconds, speed)
    raise ValueError(f"unknown workload {name!r}")
