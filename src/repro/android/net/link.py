"""Network links between devices.

Devices pair and migrate over WiFi (possibly ad-hoc, paper §1).  A link's
goodput is the minimum of the two endpoints' effective rates, degraded by
a seeded congestion factor — the paper measured on "a congested, urban
environment" campus network.  Transfer time is charged on the shared
virtual clock.

For robustness testing a link carries an optional :class:`LinkFaultPlan`:
a deterministic point (cumulative byte offset, or transfer count) at
which the link drops mid-flight.  The partial transfer is charged to the
clock and accounted — the bytes that made it across really did — and a
:class:`LinkDownError` is raised for the migration pipeline to roll back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim import units
from repro.sim.clock import SimClock, TimerHandle
from repro.sim.metrics import RATE_BUCKETS_MBPS, HeldSeries
from repro.sim.rng import RngFactory
from repro.sim.scheduler import Waiter
from repro.sim.telemetry import Telemetry


class LinkError(Exception):
    pass


class LinkDownError(LinkError):
    """The link dropped mid-transfer (injected by a :class:`LinkFaultPlan`).

    ``delivered_bytes`` of the failing payload crossed before the drop;
    the time for that partial delivery was already charged to the clock.
    """

    def __init__(self, message: str, delivered_bytes: int = 0,
                 seconds: float = 0.0) -> None:
        super().__init__(message)
        self.delivered_bytes = delivered_bytes
        self.seconds = seconds


@dataclass(frozen=True)
class LinkFaultPlan:
    """Deterministic link-drop point.

    ``drop_after_bytes`` — the link dies once its *cumulative* payload
    byte count reaches this offset; a transfer crossing the offset
    delivers only the bytes up to it.  ``drop_after_transfers`` — the
    link dies at the start of transfer number N+1 (0-based count of
    completed transfers), delivering none of it.  Either or both may be
    set; whichever trips first wins.
    """

    drop_after_bytes: Optional[int] = None
    drop_after_transfers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.drop_after_bytes is not None and self.drop_after_bytes < 0:
            raise LinkError(
                f"bad fault offset {self.drop_after_bytes!r}")
        if (self.drop_after_transfers is not None
                and self.drop_after_transfers < 0):
            raise LinkError(
                f"bad fault transfer count {self.drop_after_transfers!r}")
        if self.drop_after_bytes is None and self.drop_after_transfers is None:
            raise LinkError("empty fault plan: set a byte offset or "
                            "a transfer count")


@dataclass
class TransferResult:
    payload_bytes: int
    seconds: float
    effective_mbps: float


class Link:
    """A point-to-point link with latency and congestion jitter.

    ``telemetry`` is where the link accounts its transfers; a migration
    gives a link built without one its home device's handle.
    """

    def __init__(self, bandwidth_mbps: float, latency_s: float = 0.004,
                 congestion: float = 0.85,
                 rng_factory: Optional[RngFactory] = None,
                 name: str = "wifi",
                 fault_plan: Optional[LinkFaultPlan] = None,
                 telemetry: Optional[Telemetry] = None) -> None:
        if bandwidth_mbps <= 0:
            raise LinkError(f"bad bandwidth {bandwidth_mbps!r}")
        if not 0.0 < congestion <= 1.0:
            raise LinkError(
                f"congestion {congestion!r} outside (0, 1]: it is the "
                "fraction of nominal goodput surviving contention")
        if latency_s < 0:
            raise LinkError(f"negative latency {latency_s!r}")
        self.bandwidth_mbps = bandwidth_mbps
        self.latency_s = latency_s
        self.congestion = congestion
        self.name = name
        self.fault_plan = fault_plan
        self._rng = (rng_factory or RngFactory()).stream("link", name)
        self.bytes_transferred = 0
        self.transfers = 0
        self.retries = 0
        self.faulted = False
        self.telemetry = telemetry or Telemetry.null()
        #: When set, scheduled deliveries on this link share the medium's
        #: bandwidth fairly with every other flow on it; when None, each
        #: flow gets a private (uncontended) medium.
        self.medium: Optional["Medium"] = None

    @property
    def telemetry(self) -> Telemetry:
        return self._telemetry

    @telemetry.setter
    def telemetry(self, telemetry: Telemetry) -> None:
        self._telemetry = telemetry
        metrics = telemetry.metrics
        #: ``link/*`` series by name, held for ``telemetry``'s registry.
        self._series = HeldSeries(lambda name: (
            metrics.histogram("link", name, bounds=RATE_BUCKETS_MBPS)
            if name == "effective_mbps" else metrics.counter("link", name)))

    def _deliver(self, payload_bytes: int, seconds: float,
                 fault: bool = False):
        """Account and emit one completed delivery.

        The caller already sits at the completion instant: a
        :class:`Delivery` applied inline has advanced the clock, a medium
        flow finishes on its timer.  Returns a :class:`TransferResult`,
        or for ``fault`` deliveries the :class:`LinkDownError` for the
        caller to raise (or reject a waiter with).
        """
        self.bytes_transferred += payload_bytes
        self.transfers += 1
        if fault:
            self.faulted = True
            self._series["bytes_total"].inc(payload_bytes)
            self._series["transfers"].inc()
            self._series["faults"].inc()
            self.telemetry.events.emit("link.fault", link=self.name,
                                       delivered_bytes=payload_bytes,
                                       seconds=round(seconds, 6))
            return LinkDownError(
                f"link {self.name!r} dropped after {payload_bytes} bytes "
                "of the failing transfer",
                delivered_bytes=payload_bytes, seconds=seconds)
        # A zero-byte payload is a latency-only control round trip: it
        # exercises no goodput, so its effective rate is 0.0.
        effective = (payload_bytes * 8 / seconds / units.MBPS
                     if payload_bytes > 0 and seconds > 0 else 0.0)
        self._account(payload_bytes, effective)
        return TransferResult(payload_bytes=payload_bytes, seconds=seconds,
                              effective_mbps=effective)

    def _sample_busy(self, value: float) -> None:
        """Wire-occupancy edge for a delivery applied inline.

        Scheduled flows are sampled by the medium instead (shares and
        active-flow counts already describe their occupancy).  The
        owning device's name disambiguates identically-named links on
        different device pairs within one shared world timeline.
        """
        timeline = self.telemetry.timeline
        if not timeline.enabled:
            return
        labels = {"link": self.name}
        device = self.telemetry.events.device
        if device:
            labels["device"] = device
        timeline.sample("link/busy", value, **labels)

    def _account(self, payload_bytes: int, effective_mbps: float) -> None:
        self._series["bytes_total"].inc(payload_bytes)
        self._series["transfers"].inc()
        if effective_mbps > 0:
            self._series["effective_mbps"].observe(effective_mbps)
        self.telemetry.events.emit("link.transfer", link=self.name,
                                   bytes=payload_bytes,
                                   mbps=round(effective_mbps, 3))

    # -- fault plumbing ------------------------------------------------------

    def inject_fault(self, plan: Optional[LinkFaultPlan]) -> None:
        """Arm (or with ``None`` disarm) a deterministic drop point.

        Disarming a *tripped* link counts as a retry: the caller is
        re-establishing connectivity to attempt the transfer again.
        """
        if self.faulted and plan is None:
            self.retries += 1
            self._series["retries"].inc()
            self.telemetry.events.emit("link.retry", link=self.name,
                                       retries=self.retries)
        self.fault_plan = plan
        self.faulted = False

    def fault_budget(self) -> Optional[int]:
        """Payload bytes still deliverable before the planned drop.

        ``None`` means unbounded (no plan, or no byte-offset clause).
        Zero means the very next transfer fails immediately.
        """
        plan = self.fault_plan
        if plan is None:
            return None
        if (plan.drop_after_transfers is not None
                and self.transfers >= plan.drop_after_transfers):
            return 0
        if plan.drop_after_bytes is None:
            return None
        return max(0, plan.drop_after_bytes - self.bytes_transferred)

    # -- transfers -----------------------------------------------------------

    def transfer_time(self, payload_bytes: int) -> float:
        """Seconds to move ``payload_bytes``, with congestion jitter.

        A zero-byte payload charges the latency floor only and draws no
        congestion jitter — there is no wire occupancy to jitter, and
        skipping the draw keeps the RNG stream independent of empty
        control transfers.
        """
        if payload_bytes < 0:
            raise LinkError(f"negative payload {payload_bytes!r}")
        if payload_bytes == 0:
            return self.latency_s
        # Jitter multiplies goodput by congestion +/- 10%.
        factor = self.congestion * self._rng.uniform(0.9, 1.1)
        goodput = units.mbps(self.bandwidth_mbps) * factor
        return self.latency_s + units.transfer_seconds(payload_bytes, goodput)

    def plan(self, payload_bytes: int, session: str = "") -> "Delivery":
        """The :class:`Delivery` that moves one whole payload.

        Draws the congestion jitter (so call order matches the RNG
        stream contract) and consults the fault budget: a payload that
        crosses the armed drop point becomes a fault delivery of the
        budget's bytes, dying the matching fraction of the way in.
        """
        seconds = self.transfer_time(payload_bytes)
        budget = self.fault_budget()
        if budget is None or payload_bytes <= budget:
            return Delivery(self, payload_bytes, seconds, session=session)
        if payload_bytes > 0:
            fraction = budget / payload_bytes
            partial = self.latency_s + (seconds - self.latency_s) * fraction
        else:
            partial = self.latency_s
        return Delivery(self, budget, partial, fault=True, session=session)

    # -- chunked (pipelined) transfers ---------------------------------------

    def burst_send_seconds(self, chunk_bytes: List[float]) -> List[float]:
        """Per-chunk wire times for one back-to-back burst.

        The congestion jitter is drawn once for the whole burst (one
        coherence interval), matching the single draw a whole-image
        transfer makes; per-chunk latency is not charged — the caller
        adds the link's latency once for the burst.
        """
        factor = self.congestion * self._rng.uniform(0.9, 1.1)
        goodput = units.mbps(self.bandwidth_mbps) * factor
        for size in chunk_bytes:
            if size < 0:
                raise LinkError(f"negative payload {size!r}")
        return [units.transfer_seconds(size, goodput)
                for size in chunk_bytes]


# -- fair-share flow arbitration ---------------------------------------------


@dataclass
class _Flow:
    """One in-flight delivery on a :class:`Medium`.

    ``solo_seconds`` is the wire time the delivery would take alone
    (jitter already drawn) — its *work*.  ``progress`` is how much of
    that work has completed; with n concurrent flows each accrues
    elapsed/n work per elapsed second.  A ``fault`` flow ends in a link
    drop once its work is done, with ``payload_bytes`` delivered.

    ``session`` is the owning migration's label (for dilation blame);
    ``peak_others`` is the most *other* flows this one ever shared the
    medium with — the "from N contending flows" in the blame line.
    """

    seq: int
    link: Link
    payload_bytes: int
    solo_seconds: float
    waiter: Waiter
    submitted_at: float
    progress: float = 0.0
    fault: bool = False
    contended: bool = field(default=False)
    session: str = ""
    peak_others: int = 0


class Medium:
    """Timer-driven fair-share bandwidth arbitration across flows.

    Every flow submitted here shares the radio environment: with n
    active flows each progresses at 1/n of its solo rate (processor
    sharing).  A single flow therefore completes in exactly its solo
    time — existing single-flow timings are unchanged — and total bytes
    and total wire seconds are conserved under any interleaving, because
    work (solo seconds) is neither created nor destroyed, only spread
    over wall time.

    Completion is event-driven: one clock timer is kept at the earliest
    projected completion; every submit/finish re-settles accrued
    progress and reschedules.  Flows that finish in the same sweep are
    finalised in submission order, and all link accounting happens
    before any waiter resumes, so event timestamps land at the true
    completion instant.
    """

    EPS = 1e-9

    def __init__(self, clock: SimClock, name: str = "medium",
                 telemetry: Optional[Telemetry] = None) -> None:
        self.clock = clock
        self.name = name
        self.timeline = (telemetry or Telemetry.null()).timeline
        self._flows: List[_Flow] = []
        self._timer: Optional[TimerHandle] = None
        self._last = clock.now
        self._seq = 0
        self.completed_flows = 0
        self.peak_concurrency = 0
        #: Seconds at least one flow was active, summed edge to edge.
        self.busy_seconds = 0.0
        self._edge_at = clock.now
        self._edge_busy = False
        #: session label -> total seconds of dilation (wall minus solo
        #: work) its flows suffered from sharing this medium.
        self.dilation_by_session: Dict[str, float] = {}

    @property
    def active_flows(self) -> int:
        return len(self._flows)

    def dilation_for(self, session: str) -> float:
        """Total contention-induced stretch attributed to ``session``."""
        return self.dilation_by_session.get(session, 0.0)

    def submit(self, link: Link, payload_bytes: int, solo_seconds: float,
               fault: bool = False, session: str = "") -> Waiter:
        """Start a flow; the returned waiter resolves with the
        :class:`TransferResult` (or, for a ``fault`` flow, rejects with
        the :class:`LinkDownError`) at the completion instant."""
        if payload_bytes < 0:
            raise LinkError(f"negative payload {payload_bytes!r}")
        if solo_seconds < 0:
            raise LinkError(f"negative wire time {solo_seconds!r}")
        self._settle()
        self._seq += 1
        flow = _Flow(seq=self._seq, link=link, payload_bytes=payload_bytes,
                     solo_seconds=solo_seconds,
                     waiter=Waiter(f"flow#{self._seq} on {link.name}",
                                   kind="flow"),
                     submitted_at=self.clock.now, fault=fault,
                     session=session)
        self._flows.append(flow)
        if len(self._flows) > 1:
            for active in self._flows:
                active.contended = True
        for active in self._flows:
            active.peak_others = max(active.peak_others,
                                     len(self._flows) - 1)
        self.peak_concurrency = max(self.peak_concurrency, len(self._flows))
        self._sample_state()
        self._reschedule()
        return flow.waiter

    def _sample_state(self) -> None:
        """An edge: close the busy interval since the last edge, then
        sample the active-flow count and per-session fair shares."""
        now = self.clock.now
        if self._edge_busy:
            self.busy_seconds += now - self._edge_at
        self._edge_at, self._edge_busy = now, bool(self._flows)
        if not self.timeline.enabled:
            return
        self.timeline.sample("medium/active_flows", len(self._flows),
                             medium=self.name)
        if self._flows:
            share = 1.0 / len(self._flows)
            for flow in self._flows:
                if flow.session:
                    self.timeline.sample("link/share", share,
                                         medium=self.name,
                                         session=flow.session)

    def _settle(self) -> None:
        """Accrue fair-share progress for the time since the last touch."""
        now = self.clock.now
        if now > self._last:
            if self._flows:
                share = (now - self._last) / len(self._flows)
                for flow in self._flows:
                    flow.progress += share
            self._last = now

    def _reschedule(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._flows:
            return
        n = len(self._flows)
        shortfall = min(f.solo_seconds - f.progress for f in self._flows)
        self._timer = self.clock.call_after(max(shortfall, 0.0) * n,
                                            self._fire)

    def _fire(self) -> None:
        self._timer = None
        self._settle()
        done = [f for f in self._flows
                if f.progress >= f.solo_seconds - self.EPS]
        if done:
            self._flows = [f for f in self._flows if f not in done]
            if self._flows:
                for active in self._flows:
                    active.contended = True
            # Account every completion first (events at the completion
            # instant), then resume waiters in submission order.
            outcomes = []
            for flow in done:
                # An uncontended flow reports its exact solo figures so
                # the inline path's floats reproduce bit-for-bit;
                # contended flows report true wall elapsed time.
                seconds = (self.clock.now - flow.submitted_at
                           if flow.contended else flow.solo_seconds)
                if flow.contended:
                    # Dilation: wall seconds beyond the flow's solo work
                    # — time other flows' shares cost this session.
                    dilation = max(0.0, seconds - flow.solo_seconds)
                    key = flow.session or f"flow#{flow.seq}"
                    self.dilation_by_session[key] = (
                        self.dilation_by_session.get(key, 0.0) + dilation)
                    flow.link.telemetry.events.emit(
                        "link.dilation", link=flow.link.name,
                        session=flow.session,
                        solo=round(flow.solo_seconds, 6),
                        wall=round(seconds, 6),
                        dilation=round(dilation, 6),
                        others=flow.peak_others)
                if flow.session:
                    self.timeline.sample("link/share", 0.0,
                                         medium=self.name,
                                         session=flow.session)
                outcomes.append((flow, flow.link._deliver(
                    flow.payload_bytes, seconds, flow.fault)))
                self.completed_flows += 1
            self._sample_state()
            for flow, outcome in outcomes:
                if isinstance(outcome, LinkDownError):
                    flow.waiter.reject(outcome)
                else:
                    flow.waiter.resolve(outcome)
        self._reschedule()


@dataclass(frozen=True)
class Delivery:
    """One delivery of ``payload_bytes`` taking ``seconds`` of wire time.

    The only way wire time is charged.  :meth:`Link.plan` builds one for
    a whole payload; a caller that schedules its own burst (the
    pipelined transfer) builds one from the burst's schedule.  A
    ``fault`` delivery moves the bytes that crossed before the drop and
    then raises :class:`LinkDownError`.  Yield it from a session:
    :func:`~repro.sim.scheduler.drive_sync` runs :meth:`apply_sync`, a
    :class:`~repro.sim.scheduler.Scheduler` runs :meth:`submit`.
    """

    link: Link
    payload_bytes: int
    seconds: float
    fault: bool = False
    session: str = ""

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise LinkError(f"negative payload {self.payload_bytes!r}")

    def apply_sync(self, clock: SimClock) -> TransferResult:
        """Charge the wire time inline, then account the delivery."""
        link = self.link
        link._sample_busy(1.0)
        clock.advance(self.seconds)
        link._sample_busy(0.0)
        outcome = link._deliver(self.payload_bytes, self.seconds, self.fault)
        if self.fault:
            raise outcome
        return outcome

    def submit(self, clock: SimClock) -> Waiter:
        """Run as a flow on the link's medium, or a private solo one."""
        medium = self.link.medium or Medium(clock,
                                            name=f"solo:{self.link.name}")
        return medium.submit(self.link, self.payload_bytes, self.seconds,
                             fault=self.fault, session=self.session)


#: Goodput fraction of infrastructure WiFi achieved in ad-hoc mode
#: (WiFi Direct / IBSS: no AP aggregation, single spatial stream).
ADHOC_EFFICIENCY = 0.6


def link_between(home_profile, guest_profile,
                 rng_factory: Optional[RngFactory] = None,
                 adhoc: bool = False,
                 telemetry: Optional[Telemetry] = None) -> Link:
    """Link whose goodput is limited by the slower endpoint.

    ``adhoc=True`` models the paper's disconnected-operation mode (§1:
    "if disconnected from the Internet, devices can use ad-hoc
    networking"): no access point, lower goodput, lower latency.
    """
    bandwidth = min(home_profile.wifi_effective_mbps,
                    guest_profile.wifi_effective_mbps)
    name = f"{home_profile.name}->{guest_profile.name}"
    if adhoc:
        return Link(bandwidth_mbps=bandwidth * ADHOC_EFFICIENCY,
                    latency_s=0.002, rng_factory=rng_factory,
                    name=f"{name}(adhoc)", telemetry=telemetry)
    return Link(bandwidth_mbps=bandwidth, rng_factory=rng_factory, name=name,
                telemetry=telemetry)
