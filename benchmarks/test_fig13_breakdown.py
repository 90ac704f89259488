"""Figure 13 bench: per-stage breakdown of migration time."""

from repro.experiments import fig13


def test_fig13_breakdown(sweep, benchmark):
    rows = benchmark(fig13.run, sweep)
    assert len(rows) == 16
    transfer_share = fig13.average_transfer_fraction(sweep)
    assert transfer_share > fig13.PAPER_TRANSFER_FRACTION_MIN
    print()
    print(fig13.render(sweep))
