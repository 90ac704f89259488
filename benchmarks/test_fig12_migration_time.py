"""Figure 12 bench: the full 16-app x 4-pair migration sweep."""

import pytest

from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
from repro.apps import MIGRATABLE_APPS
from repro.experiments import fig12
from repro.experiments.harness import run_pair


def one_pair():
    return run_pair(NEXUS_4, NEXUS_7_2013, MIGRATABLE_APPS, seed=99).reports


def test_fig12_one_pair_sweep(benchmark):
    """Times one device pair's 16 migrations end to end."""
    reports = benchmark(one_pair)
    assert len(reports) == 16
    assert all(r.success for r in reports.values())


def test_fig12_overall_migration_times(sweep, benchmark):
    average = benchmark(fig12.average_total, sweep)
    assert average == pytest.approx(fig12.PAPER_AVERAGE_TOTAL_SECONDS,
                                    rel=0.15)
    print()
    print(fig12.render(sweep))
