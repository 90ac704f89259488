"""SimClock and timers."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import ClockError, SimClock


class TestAdvance:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_moves_time(self):
        clock = SimClock()
        clock.advance(2.5)
        assert clock.now == 2.5

    def test_advance_to_absolute(self):
        clock = SimClock(start=1.0)
        clock.advance_to(4.0)
        assert clock.now == 4.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ClockError):
            SimClock().advance(-1.0)

    def test_backwards_advance_to_rejected(self):
        clock = SimClock(start=5.0)
        with pytest.raises(ClockError):
            clock.advance_to(4.0)


class TestTimers:
    def test_timer_fires_on_advance(self):
        clock = SimClock()
        fired = []
        clock.call_after(1.0, lambda: fired.append(clock.now))
        clock.advance(0.5)
        assert fired == []
        clock.advance(0.6)
        assert fired == [1.0]

    def test_timer_sees_its_deadline_as_now(self):
        clock = SimClock()
        seen = []
        clock.call_at(3.0, lambda: seen.append(clock.now))
        clock.advance(10.0)
        assert seen == [3.0]
        assert clock.now == 10.0

    def test_timers_fire_in_deadline_order(self):
        clock = SimClock()
        order = []
        clock.call_at(2.0, lambda: order.append("b"))
        clock.call_at(1.0, lambda: order.append("a"))
        clock.call_at(3.0, lambda: order.append("c"))
        clock.advance(5.0)
        assert order == ["a", "b", "c"]

    def test_cancelled_timer_does_not_fire(self):
        clock = SimClock()
        fired = []
        handle = clock.call_after(1.0, lambda: fired.append(1))
        handle.cancel()
        clock.advance(2.0)
        assert fired == []
        assert handle.cancelled

    def test_callback_can_schedule_nested_timer(self):
        clock = SimClock()
        order = []

        def first():
            order.append("first")
            clock.call_after(0.5, lambda: order.append("nested"))

        clock.call_at(1.0, first)
        clock.advance(2.0)
        assert order == ["first", "nested"]

    def test_negative_delay_rejected(self):
        with pytest.raises(ClockError):
            SimClock().call_after(-0.1, lambda: None)

    def test_pending_and_next_deadline(self):
        clock = SimClock()
        assert clock.pending_timers() == 0
        assert clock.next_deadline() is None
        handle = clock.call_at(2.0, lambda: None)
        clock.call_at(5.0, lambda: None)
        assert clock.pending_timers() == 2
        assert clock.next_deadline() == 2.0
        handle.cancel()
        assert clock.pending_timers() == 1
        assert clock.next_deadline() == 5.0

    @given(st.lists(st.floats(min_value=0.001, max_value=100.0),
                    min_size=1, max_size=20))
    def test_timers_always_fire_in_nondecreasing_time_order(self, delays):
        clock = SimClock()
        fire_times = []
        for delay in delays:
            clock.call_after(delay, lambda: fire_times.append(clock.now))
        clock.advance(101.0)
        assert len(fire_times) == len(delays)
        assert fire_times == sorted(fire_times)


class TestTimerHousekeeping:
    def test_cancelled_timer_never_fires(self):
        clock = SimClock()
        fired = []
        handle = clock.call_after(1.0, lambda: fired.append("x"))
        handle.cancel()
        clock.advance(2.0)
        assert fired == []

    def test_cancel_is_idempotent(self):
        clock = SimClock()
        handle = clock.call_after(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert clock.pending_timers() == 0

    def test_cancel_after_fire_is_a_noop(self):
        clock = SimClock()
        handle = clock.call_after(1.0, lambda: None)
        clock.advance(2.0)
        handle.cancel()
        assert clock.pending_timers() == 0

    def test_pending_timers_counts_only_live_entries(self):
        clock = SimClock()
        handles = [clock.call_after(float(i + 1), lambda: None)
                   for i in range(5)]
        assert clock.pending_timers() == 5
        handles[1].cancel()
        handles[3].cancel()
        assert clock.pending_timers() == 3
        clock.advance(10.0)
        assert clock.pending_timers() == 0

    def test_cancelled_entries_are_dropped_during_advance(self):
        clock = SimClock()
        for i in range(10):
            clock.call_after(float(i + 1), lambda: None).cancel()
        clock.advance(20.0)
        assert clock._timers == [] and clock.pending_timers() == 0

    def test_next_deadline_skips_cancelled_heads(self):
        clock = SimClock()
        first = clock.call_after(1.0, lambda: None)
        clock.call_after(2.0, lambda: None)
        first.cancel()
        assert clock.next_deadline() == 2.0

    def test_compaction_drops_buried_cancellations(self):
        # Cancelled entries buried under a live far-future timer are
        # unreachable by the sweep; compaction reclaims them once they
        # cross the floor and outnumber the live ones.
        clock = SimClock()
        clock.call_at(10_000.0, lambda: None)
        handles = [clock.call_at(20_000.0 + i, lambda: None)
                   for i in range(SimClock.COMPACT_FLOOR + 10)]
        for handle in handles:
            handle.cancel()
        assert len(clock._timers) == len(handles) + 1
        clock.advance(1.0)  # no timer due; the sweep still compacts
        assert len(clock._timers) == 1
        assert clock.pending_timers() == 1
        assert clock.next_deadline() == 10_000.0


class TestClose:
    def test_close_drops_pending_timers(self):
        clock = SimClock()
        fired = []
        handle = clock.call_after(1.0, lambda: fired.append("x"))
        clock.advance(0.5)
        clock.close()
        assert clock.pending_timers() == 0
        assert clock.next_deadline() is None
        assert handle.cancelled and handle._timer.callback is None
        clock.advance(2.0)
        assert fired == [] and clock.now == 2.5

    def test_cancel_after_close_is_a_noop(self):
        clock = SimClock()
        handle = clock.call_after(1.0, lambda: None)
        clock.close()
        handle.cancel()
        assert clock.pending_timers() == 0
