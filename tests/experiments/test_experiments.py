"""The table/figure experiments reproduce the paper's claims.

These are the repository's headline assertions: each test pins one of
the paper's published aggregates.  The migration sweep is shared across
tests through the session-scoped ``sweep`` fixture.
"""

import pytest

from repro.experiments import (
    app_support,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    pairing_cost,
    table2,
    table3,
)


class TestTable2:
    def test_every_paper_service_present(self):
        rows = table2.run()
        assert len(rows) == 22
        assert sum(1 for r in rows if r.hardware) == 14

    def test_undecorated_services_match_paper_tbd(self):
        rows = {r.service: r for r in table2.run()}
        for service in ("bluetooth", "serial", "usb"):
            assert rows[service].paper_loc is None
            assert rows[service].our_decoration_loc is None

    def test_decoration_is_tens_of_lines(self):
        for row in table2.run():
            if row.our_decoration_loc is not None:
                assert 0 < row.our_decoration_loc <= 60

    def test_larger_interfaces_take_more_decoration(self):
        """Structural claim: decoration LOC grows with interface size."""
        rows = [r for r in table2.run() if r.our_decoration_loc]
        big = [r for r in rows if r.our_methods >= 14]
        small = [r for r in rows if r.our_methods <= 5]
        avg = lambda xs: sum(xs) / len(xs)
        assert avg([r.our_decoration_loc for r in big]) > \
            avg([r.our_decoration_loc for r in small])

    def test_render(self):
        text = table2.render()
        assert "IAudioService" in text and "TBD" in text


class TestTable3:
    def test_workloads_match_paper(self):
        rows = {r.title: r for r in table3.run()}
        for title, workload in table3.PAPER_TABLE3.items():
            assert rows[title].workload.replace("'", "'") \
                == workload.replace("'", "'")

    def test_two_unmigratable(self):
        rows = table3.run()
        refused = [r.title for r in rows if not r.migratable]
        assert sorted(refused) == ["Facebook", "Subway Surfers"]


class TestFig12:
    def test_average_total_near_paper(self, sweep):
        ours = fig12.average_total(sweep)
        assert ours == pytest.approx(fig12.PAPER_AVERAGE_TOTAL_SECONDS,
                                     rel=0.15)

    def test_every_cell_populated_and_interactive(self, sweep):
        for row in fig12.run(sweep):
            for seconds in row.seconds_by_pair.values():
                assert 0 < seconds < 30

    def test_slower_pair_is_slower(self, sweep):
        """Nexus 7 (2012) pairs ride the congested 2.4 GHz band."""
        for row in fig12.run(sweep):
            fast = row.seconds_by_pair["Nexus 7 (2013) to Nexus 7 (2013)"]
            slow = row.seconds_by_pair["Nexus 7 (2012) to Nexus 4"]
            assert slow > fast


class TestFig13:
    def test_transfer_dominates(self, sweep):
        assert fig13.average_transfer_fraction(sweep) > \
            fig13.PAPER_TRANSFER_FRACTION_MIN

    def test_fractions_sum_to_one(self, sweep):
        for row in fig13.run(sweep):
            assert sum(row.fractions.values()) == pytest.approx(1.0)

    def test_relative_costs_fairly_constant(self, sweep):
        """Paper: 'the relative cost of each migration stage is fairly
        constant' across apps."""
        rows = fig13.run(sweep)
        transfer_shares = [r.fractions["transfer"] for r in rows]
        assert max(transfer_shares) - min(transfer_shares) < 0.35


class TestFig14:
    def test_non_transfer_average_near_paper(self, sweep):
        avg = fig14.averages(sweep)
        assert avg["non_transfer"] == pytest.approx(
            fig14.PAPER_AVERAGE_NON_TRANSFER_SECONDS, rel=0.2)

    def test_perceived_average_near_paper(self, sweep):
        avg = fig14.averages(sweep)
        assert avg["perceived"] == pytest.approx(
            fig14.PAPER_AVERAGE_PERCEIVED_SECONDS, rel=0.15)


class TestFig15:
    def test_no_migration_over_14mb(self, sweep):
        for row in fig15.run(sweep):
            assert row.transferred_mb <= fig15.PAPER_MAX_TRANSFER_MB

    def test_sync_plus_log_under_200kb(self, sweep):
        for row in fig15.run(sweep):
            assert (row.data_sync_kb + row.record_log_kb) < \
                fig15.PAPER_MAX_SYNC_PLUS_LOG_KB

    def test_transfer_dominated_by_image(self, sweep):
        for row in fig15.run(sweep):
            assert row.image_mb > 0.8 * row.transferred_mb

    def test_correlates_with_apk_size(self, sweep):
        assert fig15.correlation_with_apk_size(sweep) > 0.5


class TestFig16:
    def test_overhead_negligible(self):
        scores = fig16.run()
        assert len(scores) == 18    # 6 benchmarks x 3 devices
        for score in scores:
            assert score.overhead_percent < \
                fig16.PAPER_MAX_OVERHEAD_PERCENT
            assert score.normalized <= 1.0


class TestFig17:
    def test_cdf_anchors(self):
        points = dict(fig17.run(count=30_000))
        from repro.sim import units
        assert points[units.MB] == pytest.approx(0.60, abs=0.03)
        assert points[10 * units.MB] == pytest.approx(0.90, abs=0.03)


class TestAppSupport:
    def test_sixteen_of_eighteen(self):
        rows = app_support.run()
        migrated = [r for r in rows if r.migrated]
        assert len(migrated) == 16
        refusals = {r.title: r.refusal.value for r in rows if not r.migrated}
        assert refusals == {"Facebook": "multi-process",
                            "Subway Surfers": "preserved-egl-context"}


class TestPairingCost:
    def test_paper_numbers(self):
        result = pairing_cost.run()
        assert result.constant_mb == pytest.approx(215, abs=1)
        assert result.after_link_mb == pytest.approx(123, abs=1)
        assert result.compressed_mb == pytest.approx(56, abs=1.5)
        assert len(result.per_app) == 18


class TestTable1:
    def test_all_constructs_verified(self):
        from repro.experiments import table1
        rows = table1.run()
        assert len(rows) == 5
        syntaxes = {r.syntax.split()[0] for r in rows}
        assert {"@record", "@drop", "@if", "@replayproxy", "this"} <= syntaxes

    def test_render(self):
        from repro.experiments import table1
        text = table1.render()
        assert "@replayproxy" in text and "verified against the parser" in text
