"""Figure 15 bench: data transferred during migration."""

from repro.experiments import fig15


def test_fig15_data_transferred(sweep, benchmark):
    rows = benchmark(fig15.run, sweep)
    assert max(r.transferred_mb for r in rows) <= fig15.PAPER_MAX_TRANSFER_MB
    assert all((r.data_sync_kb + r.record_log_kb)
               < fig15.PAPER_MAX_SYNC_PLUS_LOG_KB for r in rows)
    print()
    print(fig15.render(sweep))
