"""Figure 12: overall migration time per app across four device pairs.

Paper aggregates: all-pairs average 7.88 s, dominated by transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.catalog import MIGRATABLE_APPS
from repro.experiments.harness import SweepResult, format_table, run_sweep

PAPER_AVERAGE_TOTAL_SECONDS = 7.88


@dataclass
class Fig12Row:
    title: str
    package: str
    seconds_by_pair: Dict[str, float]


def run(sweep: SweepResult) -> List[Fig12Row]:
    rows = []
    for spec in MIGRATABLE_APPS:
        seconds = {
            pair: sweep.report_for(pair, spec.package).total_seconds
            for pair in sweep.pair_labels}
        rows.append(Fig12Row(title=spec.title, package=spec.package,
                             seconds_by_pair=seconds))
    return rows


def average_total(sweep: SweepResult) -> float:
    return sweep.average_total_seconds()


def render(sweep: Optional[SweepResult] = None) -> str:
    if sweep is None:
        sweep = run_sweep()
    rows = run(sweep)
    table = [
        (r.title, *(f"{r.seconds_by_pair[p]:.2f}" for p in sweep.pair_labels))
        for r in rows]
    text = format_table(("app", *sweep.pair_labels), table,
                        title="Figure 12: overall migration times (seconds)")
    ours = average_total(sweep)
    return (f"{text}\n\nall-pairs average: {ours:.2f} s "
            f"(paper: {PAPER_AVERAGE_TOTAL_SECONDS:.2f} s)")
