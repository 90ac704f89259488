"""Figure 13: percentage breakdown of migration time by stage.

Paper: relative stage costs are fairly constant across apps, with data
transfer dominating — over half the time on average.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.catalog import MIGRATABLE_APPS
from repro.core.migration.migration import STAGES
from repro.experiments.harness import SweepResult, format_table, run_sweep

PAPER_TRANSFER_FRACTION_MIN = 0.50


@dataclass
class Fig13Row:
    title: str
    package: str
    fractions: Dict[str, float]    # stage -> mean fraction across pairs


def run(sweep: SweepResult) -> List[Fig13Row]:
    rows = []
    for spec in MIGRATABLE_APPS:
        reports = sweep.reports_for_app(spec.package)
        fractions = {
            stage: sum(r.stage_fraction(stage) for r in reports)
            / len(reports)
            for stage in STAGES}
        rows.append(Fig13Row(title=spec.title, package=spec.package,
                             fractions=fractions))
    return rows


def average_transfer_fraction(sweep: SweepResult) -> float:
    return sweep.average_stage_fraction("transfer")


def render(sweep: Optional[SweepResult] = None) -> str:
    if sweep is None:
        sweep = run_sweep()
    rows = run(sweep)
    table = [
        (r.title, *(f"{r.fractions[s] * 100:.1f}%" for s in STAGES))
        for r in rows]
    text = format_table(("app", *STAGES), table,
                        title="Figure 13: migration time breakdown "
                              "(mean % across device pairs)")
    avg = average_transfer_fraction(sweep)
    return (f"{text}\n\naverage transfer share: {avg * 100:.1f}% "
            f"(paper: > {PAPER_TRANSFER_FRACTION_MIN * 100:.0f}%)")
