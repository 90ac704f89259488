"""Network link model."""

import pytest

from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2012
from repro.android.net.link import (
    Link,
    LinkDownError,
    LinkError,
    LinkFaultPlan,
    link_between,
)
from repro.sim import SimClock, units
from repro.sim.rng import RngFactory


class TestLink:
    def test_transfer_charges_clock(self):
        link = Link(bandwidth_mbps=8.0, latency_s=0.0, congestion=1.0,
                    rng_factory=RngFactory(0))
        clock = SimClock()
        result = link.plan(units.mb(1)).apply_sync(clock)
        assert clock.now == pytest.approx(result.seconds)
        # 1 MB at ~8 Mbps (±10% jitter) is ~1.05 s.
        assert 0.9 <= result.seconds <= 1.25

    def test_bigger_payload_takes_longer(self):
        link = Link(bandwidth_mbps=10.0, rng_factory=RngFactory(0))
        assert link.transfer_time(units.mb(10)) > link.transfer_time(units.mb(1))

    def test_latency_floor(self):
        link = Link(bandwidth_mbps=10.0, latency_s=0.25,
                    rng_factory=RngFactory(0))
        assert link.transfer_time(0) == pytest.approx(0.25)

    def test_deterministic_given_seed(self):
        a = Link(10.0, rng_factory=RngFactory(7), name="x")
        b = Link(10.0, rng_factory=RngFactory(7), name="x")
        assert a.transfer_time(units.mb(2)) == b.transfer_time(units.mb(2))

    def test_accounting(self):
        link = Link(10.0, rng_factory=RngFactory(0))
        clock = SimClock()
        link.plan(100).apply_sync(clock)
        link.plan(200).apply_sync(clock)
        assert link.bytes_transferred == 300
        assert link.transfers == 2

    def test_invalid_parameters(self):
        with pytest.raises(LinkError):
            Link(bandwidth_mbps=0)
        link = Link(10.0, rng_factory=RngFactory(0))
        with pytest.raises(LinkError):
            link.transfer_time(-1)

    def test_link_between_uses_slower_endpoint(self):
        link = link_between(NEXUS_4, NEXUS_7_2012, RngFactory(0))
        assert link.bandwidth_mbps == NEXUS_7_2012.wifi_effective_mbps
        assert "nexus4" in link.name


class TestConstructionBounds:
    def test_congestion_must_be_in_unit_interval(self):
        for congestion in (0.0, -0.2, 1.5):
            with pytest.raises(LinkError, match="congestion"):
                Link(10.0, congestion=congestion,
                     rng_factory=RngFactory(0))
        # 1.0 means an uncontended link and is legal.
        Link(10.0, congestion=1.0, rng_factory=RngFactory(0))

    def test_latency_must_be_non_negative(self):
        with pytest.raises(LinkError, match="latency"):
            Link(10.0, latency_s=-0.01, rng_factory=RngFactory(0))
        Link(10.0, latency_s=0.0, rng_factory=RngFactory(0))


class TestZeroByteTransfer:
    def test_charges_latency_only(self):
        link = Link(10.0, latency_s=0.25, rng_factory=RngFactory(0))
        clock = SimClock()
        result = link.plan(0).apply_sync(clock)
        assert result.seconds == pytest.approx(0.25)
        assert clock.now == pytest.approx(0.25)
        assert result.effective_mbps == 0.0   # no 0/seconds artifact

    def test_draws_no_congestion_jitter(self):
        # An empty control round must not perturb the RNG stream: the
        # next real transfer times identically with or without it.
        a = Link(10.0, rng_factory=RngFactory(7), name="x")
        b = Link(10.0, rng_factory=RngFactory(7), name="x")
        a.plan(0).apply_sync(SimClock())
        assert a.transfer_time(units.mb(2)) == b.transfer_time(units.mb(2))

    def test_still_counts_as_a_transfer(self):
        link = Link(10.0, rng_factory=RngFactory(0))
        link.plan(0).apply_sync(SimClock())
        assert link.transfers == 1
        assert link.bytes_transferred == 0


class TestFaultPlans:
    def test_empty_plan_rejected(self):
        with pytest.raises(LinkError, match="empty fault plan"):
            LinkFaultPlan()

    def test_negative_clauses_rejected(self):
        with pytest.raises(LinkError):
            LinkFaultPlan(drop_after_bytes=-1)
        with pytest.raises(LinkError):
            LinkFaultPlan(drop_after_transfers=-2)

    def test_byte_offset_drop_delivers_partial(self):
        link = Link(10.0, latency_s=0.0, rng_factory=RngFactory(0),
                    fault_plan=LinkFaultPlan(drop_after_bytes=500))
        clock = SimClock()
        healthy = Link(10.0, latency_s=0.0, rng_factory=RngFactory(0))
        full_time = healthy.transfer_time(1000)
        with pytest.raises(LinkDownError) as exc:
            link.plan(1000).apply_sync(clock)
        assert exc.value.delivered_bytes == 500
        assert link.bytes_transferred == 500
        assert link.faulted
        # The partial slice was charged: half the full wire time.
        assert clock.now == pytest.approx(full_time / 2)

    def test_transfer_count_drop_delivers_nothing(self):
        link = Link(10.0, rng_factory=RngFactory(0))
        clock = SimClock()
        link.inject_fault(LinkFaultPlan(drop_after_transfers=1))
        link.plan(100).apply_sync(clock)   # transfer 0 completes
        with pytest.raises(LinkDownError) as exc:
            link.plan(100).apply_sync(clock)
        assert exc.value.delivered_bytes == 0
        assert link.bytes_transferred == 100

    def test_fault_budget_tracks_remaining_bytes(self):
        link = Link(10.0, rng_factory=RngFactory(0))
        assert link.fault_budget() is None
        link.inject_fault(LinkFaultPlan(drop_after_bytes=300))
        assert link.fault_budget() == 300
        link.plan(200).apply_sync(SimClock())
        assert link.fault_budget() == 100

    def test_fault_budget_zero_after_transfer_count(self):
        link = Link(10.0, rng_factory=RngFactory(0))
        link.inject_fault(LinkFaultPlan(drop_after_transfers=0))
        assert link.fault_budget() == 0

    def test_inject_none_disarms(self):
        link = Link(10.0, rng_factory=RngFactory(0),
                    fault_plan=LinkFaultPlan(drop_after_bytes=0))
        link.inject_fault(None)
        assert link.fault_budget() is None
        link.plan(1000).apply_sync(SimClock())   # does not raise

    def test_transfer_below_budget_survives(self):
        link = Link(10.0, rng_factory=RngFactory(0))
        link.inject_fault(LinkFaultPlan(drop_after_bytes=1000))
        link.plan(1000).apply_sync(SimClock())   # exactly at the offset: ok
        assert not link.faulted
