"""RngFactory determinism and unit helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import units
from repro.sim.rng import RngFactory, derive_seed


class TestRng:
    def test_same_name_same_stream(self):
        a = RngFactory(42).stream("net", "x")
        b = RngFactory(42).stream("net", "x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_independent(self):
        factory = RngFactory(42)
        a = factory.stream("net", "x")
        b = factory.stream("net", "y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_root_seeds_differ(self):
        a = RngFactory(1).stream("x")
        b = RngFactory(2).stream("x")
        assert a.random() != b.random()

    @given(st.integers(min_value=0, max_value=2**32),
           st.text(max_size=20))
    def test_derive_seed_is_stable_and_63bit(self, seed, name):
        first = derive_seed(seed, name)
        assert first == derive_seed(seed, name)
        assert 0 <= first < 2 ** 63


class TestUnits:
    def test_mb_round_trip(self):
        assert units.to_mb(units.mb(7.5)) == pytest.approx(7.5, abs=1e-6)

    def test_format_size(self):
        assert units.format_size(units.mb(13.6)) == "13.6 MB"
        assert units.format_size(units.kb(187)) == "187 KB"
        assert units.format_size(12) == "12 B"

    def test_transfer_seconds(self):
        # 1 MB over 8 Mbps: exactly (2**20 * 8) / 8e6 seconds.
        assert units.transfer_seconds(units.MB, units.mbps(8)) == \
            pytest.approx(2 ** 20 * 8 / 8e6)

    def test_transfer_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            units.transfer_seconds(100, 0)
