"""Figure 14: user-perceived migration time excluding data transfer.

Paper: preparation and checkpoint hide behind the target-selection menu
(user-perceived average ≈ 5.8 s of the 7.88 s total); excluding the
transfer stage as well leaves an average of 1.35 s — the floor better
networks approach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.catalog import MIGRATABLE_APPS
from repro.experiments.harness import SweepResult, format_table, run_sweep

PAPER_AVERAGE_NON_TRANSFER_SECONDS = 1.35
PAPER_AVERAGE_PERCEIVED_SECONDS = 5.8


@dataclass
class Fig14Row:
    title: str
    package: str
    seconds_by_pair: Dict[str, float]


def run(sweep: SweepResult) -> List[Fig14Row]:
    rows = []
    for spec in MIGRATABLE_APPS:
        seconds = {
            pair: sweep.report_for(pair, spec.package).non_transfer_seconds
            for pair in sweep.pair_labels}
        rows.append(Fig14Row(title=spec.title, package=spec.package,
                             seconds_by_pair=seconds))
    return rows


def averages(sweep: SweepResult) -> Dict[str, float]:
    return {
        "non_transfer": sweep.average_non_transfer_seconds(),
        "perceived": sweep.average_perceived_seconds(),
    }


def render(sweep: Optional[SweepResult] = None) -> str:
    if sweep is None:
        sweep = run_sweep()
    rows = run(sweep)
    table = [
        (r.title, *(f"{r.seconds_by_pair[p]:.2f}" for p in sweep.pair_labels))
        for r in rows]
    text = format_table(
        ("app", *sweep.pair_labels), table,
        title="Figure 14: user-perceived migration time excluding "
              "transfer (seconds)")
    avg = averages(sweep)
    return (f"{text}\n\naverage non-transfer: {avg['non_transfer']:.2f} s "
            f"(paper: {PAPER_AVERAGE_NON_TRANSFER_SECONDS:.2f} s); "
            f"average perceived: {avg['perceived']:.2f} s "
            f"(paper: {PAPER_AVERAGE_PERCEIVED_SECONDS:.1f} s)")
