"""Fair-share bandwidth arbitration (Medium) and link deliveries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.android.net.link import (
    Delivery,
    Link,
    LinkDownError,
    LinkFaultPlan,
    Medium,
)
from repro.sim import SimClock, units
from repro.sim.rng import RngFactory
from repro.sim.scheduler import Scheduler, drive_sync


def _link(seed=0, name="wifi"):
    return Link(bandwidth_mbps=10.0, latency_s=0.0, congestion=1.0,
                rng_factory=RngFactory(seed), name=name)


def _run_flows(specs):
    """Submit ``(start, payload_mb[, seed])`` flows; return their fates.

    Each flow runs on its own link (accounting isolated, jitter seeded
    per spec so reordering specs keeps each flow's solo time) but all
    share one medium.  Returns ``(start, solo_seconds, end_time)`` per
    flow, in spec order.
    """
    clock = SimClock()
    medium = Medium(clock)
    specs = [spec if len(spec) == 3 else (*spec, spec[1])
             for spec in specs]
    ends = [None] * len(specs)
    solos = [None] * len(specs)

    def submit(i, payload_bytes, seed):
        link = _link(seed=seed, name=f"wifi{seed}")
        solo = link.plan(payload_bytes).seconds
        solos[i] = solo
        waiter = medium.submit(link, payload_bytes, solo)
        waiter.add_done(lambda w, i=i: ends.__setitem__(i, clock.now))

    for i, (start, payload_mb, seed) in enumerate(specs):
        clock.call_at(start, lambda i=i, mb=payload_mb, seed=seed:
                      submit(i, units.mb(mb), seed))
    while clock.next_deadline() is not None:
        clock.advance_to(clock.next_deadline())
    return [(start, solos[i], ends[i])
            for i, (start, _, _) in enumerate(specs)]


def _reference_processor_sharing(flows):
    """Independent PS model: (start, work) -> analytic end times."""
    events = sorted(range(len(flows)), key=lambda i: flows[i][0])
    remaining = {}
    ends = [None] * len(flows)
    t = 0.0
    pending = list(events)
    while pending or remaining:
        next_start = flows[pending[0]][0] if pending else None
        if remaining:
            horizon = t + min(remaining.values()) * len(remaining)
        else:
            horizon = None
        if horizon is None or (next_start is not None
                               and next_start < horizon):
            # Accrue up to the next submission, then admit it.
            if remaining and next_start > t:
                share = (next_start - t) / len(remaining)
                for key in remaining:
                    remaining[key] -= share
            t = max(t, next_start)
            i = pending.pop(0)
            remaining[i] = flows[i][1]
        else:
            share = (horizon - t) / len(remaining)
            for key in remaining:
                remaining[key] -= share
            t = horizon
            done = [k for k, v in remaining.items() if v <= 1e-9]
            for k in done:
                ends[k] = t
                del remaining[k]
    return ends


#: One delivery of a session: a payload the link plans (``None``
#: seconds: jitter and fault budget apply) or one whose wire time the
#: caller scheduled itself, as the pipelined burst does.
_DELIVERIES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=units.mb(4)),
              st.one_of(st.none(),
                        st.floats(min_value=0.0, max_value=5.0))),
    min_size=1, max_size=6)

_FAULT_PLANS = st.one_of(
    st.none(),
    st.tuples(st.one_of(st.none(),
                        st.integers(min_value=0, max_value=units.mb(8))),
              st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
    .filter(lambda clauses: clauses != (None, None))
    .map(lambda clauses: LinkFaultPlan(*clauses)))


def _deliveries_session(link, deliveries, outcomes):
    """Yield each delivery; note its result or the drop, then go on."""
    for payload, seconds in deliveries:
        try:
            if seconds is None:
                result = yield link.plan(payload)
            else:
                result = yield Delivery(link, payload, seconds)
        except LinkDownError as error:
            outcomes.append(("down", error.delivered_bytes, error.seconds))
        else:
            outcomes.append(("ok", result.payload_bytes, result.seconds))


class TestDrivers:
    @settings(max_examples=60, deadline=None)
    @given(deliveries=_DELIVERIES, fault_plan=_FAULT_PLANS,
           bandwidth=st.floats(min_value=0.5, max_value=100.0),
           latency=st.floats(min_value=0.0, max_value=0.05),
           shared_medium=st.booleans())
    def test_inline_and_scheduled_drivers_agree(
            self, deliveries, fault_plan, bandwidth, latency,
            shared_medium):
        def link():
            return Link(bandwidth_mbps=bandwidth, latency_s=latency,
                        rng_factory=RngFactory(3), name="wifi",
                        fault_plan=fault_plan)

        sync_link, sync_clock, sync_outcomes = link(), SimClock(), []
        drive_sync(_deliveries_session(sync_link, deliveries,
                                       sync_outcomes), sync_clock)

        flow_link, clock, outcomes = link(), SimClock(), []
        if shared_medium:
            flow_link.medium = Medium(clock)
        scheduler = Scheduler(clock)
        handle = scheduler.spawn(_deliveries_session(flow_link, deliveries,
                                                     outcomes))
        scheduler.run()

        assert handle.error is None
        assert outcomes == sync_outcomes
        assert clock.now == sync_clock.now
        assert flow_link.bytes_transferred == sync_link.bytes_transferred
        assert flow_link.transfers == sync_link.transfers
        assert flow_link.faulted == sync_link.faulted


class TestSingleFlow:
    def test_solo_timing_matches_the_synchronous_path_exactly(self):
        sync_link = _link()
        sync_clock = SimClock()

        def session(link):
            result = yield link.plan(units.mb(4))
            return result

        sync_result = drive_sync(session(sync_link), sync_clock)

        flow_link = _link()
        clock = SimClock()
        scheduler = Scheduler(clock)
        handle = scheduler.spawn(session(flow_link))
        scheduler.run()
        assert handle.result.seconds == sync_result.seconds
        assert handle.result.payload_bytes == sync_result.payload_bytes
        assert clock.now == sync_clock.now
        assert flow_link.bytes_transferred == sync_link.bytes_transferred

    def test_record_op_matches_record_transfer(self):
        sync_link = _link()
        sync_clock = SimClock()
        sync_result = Delivery(sync_link, units.mb(2),
                               1.25).apply_sync(sync_clock)
        flow_link = _link()
        clock = SimClock()
        scheduler = Scheduler(clock)

        def session():
            yield Delivery(flow_link, units.mb(2), 1.25)

        handle = scheduler.spawn(session())
        scheduler.run()
        assert handle.error is None
        assert clock.now == sync_clock.now == sync_result.seconds

    def test_fault_delivery_rejects_with_link_down(self):
        link = _link()
        clock = SimClock()
        scheduler = Scheduler(clock)

        def session():
            try:
                yield Delivery(link, units.mb(1), 0.5, fault=True)
            except LinkDownError:
                return ("down", clock.now)

        handle = scheduler.spawn(session())
        scheduler.run()
        assert handle.result == ("down", 0.5)
        assert link.faulted
        assert link.bytes_transferred == units.mb(1)


class TestFairShare:
    def test_two_flows_started_together_share_the_wire(self):
        [(_, solo_a, end_a), (_, solo_b, end_b)] = _run_flows(
            [(0.0, 4), (0.0, 4)])
        # Processor sharing: the shorter flow sees exactly half rate
        # until it completes (2x its solo time); the longer one then
        # runs alone and finishes at the total work time.
        shorter, longer = sorted((solo_a, solo_b))
        assert min(end_a, end_b) == pytest.approx(2 * shorter)
        assert max(end_a, end_b) == pytest.approx(solo_a + solo_b)

    def test_total_bytes_are_conserved(self):
        clock = SimClock()
        medium = Medium(clock)
        links = [_link(seed=i, name=f"wifi{i}") for i in range(3)]
        payloads = [units.mb(1), units.mb(2), units.mb(3)]
        for link, payload in zip(links, payloads):
            medium.submit(link, payload, link.plan(payload).seconds)
        while clock.next_deadline() is not None:
            clock.advance_to(clock.next_deadline())
        assert [link.bytes_transferred for link in links] == payloads
        assert medium.completed_flows == 3
        assert medium.peak_concurrency == 3

    @settings(max_examples=30, deadline=None)
    @given(start_b=st.floats(min_value=0.0, max_value=10.0),
           mb_a=st.integers(min_value=1, max_value=16),
           mb_b=st.integers(min_value=1, max_value=16))
    def test_wire_seconds_conserved_under_any_interleaving(
            self, start_b, mb_a, mb_b):
        flows = _run_flows([(0.0, mb_a), (start_b, mb_b)])
        works = [(start, solo) for start, solo, _ in flows]
        expected = _reference_processor_sharing(works)
        for (_, _, end), ref in zip(flows, expected):
            assert end == pytest.approx(ref, abs=1e-6)
        # Busy time equals total work: the wire neither creates nor
        # destroys seconds, it only spreads them over wall time.
        last_end = max(end for _, _, end in flows)
        total_work = sum(solo for _, solo, _ in flows)
        idle = max(0.0, start_b - flows[0][1]) if start_b > flows[0][1] \
            else 0.0
        assert last_end == pytest.approx(total_work + idle, abs=1e-6)

    def test_submission_order_does_not_change_end_times(self):
        forward = _run_flows([(0.0, 3), (0.0, 7)])
        backward = _run_flows([(0.0, 7), (0.0, 3)])
        assert sorted(end for _, _, end in forward) == pytest.approx(
            sorted(end for _, _, end in backward))

    def test_late_joiner_slows_the_first_flow_down(self):
        solo = _run_flows([(0.0, 8)])
        contended = _run_flows([(0.0, 8), (1.0, 8)])
        assert contended[0][2] > solo[0][2]
