"""Figure 14 bench: user-perceived time excluding data transfer."""

import pytest

from repro.experiments import fig14


def test_fig14_perceived_times(sweep, benchmark):
    rows = benchmark(fig14.run, sweep)
    assert len(rows) == 16
    averages = fig14.averages(sweep)
    assert averages["non_transfer"] == pytest.approx(
        fig14.PAPER_AVERAGE_NON_TRANSFER_SECONDS, rel=0.2)
    print()
    print(fig14.render(sweep))
