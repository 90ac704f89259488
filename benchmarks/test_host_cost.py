"""Host cost of the migration path outside the perfbench layers.

Prints each entry point's inclusive share of ``migrate()`` wall time
over the perfbench handoff rounds (``tests/helpers/host_cost.py``), and
the cyclic collector's cadence over the same rounds: passes per
generation per 1000 migrations, mean and longest pass.  Non-gating: it
checks only that the rounds ran, every share is a fraction and the
collector was observed; run it with ``-m perf -s`` to read the numbers.

It also prints the fleet phases' inclusive shares of one perfbench fleet
epoch: booting devices, pairing, the scheduler's run and the telemetry
export.  Not gated either.
"""

import pytest

from tests.helpers.host_cost import (
    ENTRY_POINTS,
    FLEET_PHASES,
    format_fleet_report,
    format_report,
    measure,
    measure_fleet,
)


@pytest.mark.perf
def test_host_cost_shares():
    result = measure(seed=0, rounds=4)
    print()
    print(format_report(result))
    assert result["failed"] == 0
    assert result["migrations"] == 4 * 64
    assert set(result["shares"]) == {name for _, _, name in ENTRY_POINTS}
    assert all(0.0 < share < 1.0 for share in result["shares"].values())
    assert set(result["collector"]) == {0, 1, 2}
    assert all(row["per_1000"] >= 0.0 and row["max_ms"] >= row["mean_ms"]
               for row in result["collector"].values())


@pytest.mark.perf
def test_fleet_phase_shares():
    result = measure_fleet(seed=0)
    print()
    print(format_fleet_report(result))
    assert result["demands"] == 400
    assert set(result["shares"]) == {name for _, _, name in FLEET_PHASES}
    assert all(0.0 < share < 1.0 for share in result["shares"].values())
