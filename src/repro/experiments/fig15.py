"""Figure 15: data transferred per migration, next to APK size.

Paper claims checked here: transfers are dominated by the checkpoint
image; no migration moves more than 14 MB; the compressed data-directory
sync plus record log stay under a combined 200 KB; migration time
correlates with data transferred (and loosely with install size).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.apps.catalog import MIGRATABLE_APPS
from repro.experiments.harness import SweepResult, format_table, run_sweep
from repro.sim import units

PAPER_MAX_TRANSFER_MB = 14.0
PAPER_MAX_SYNC_PLUS_LOG_KB = 200.0


@dataclass
class Fig15Row:
    title: str
    package: str
    apk_mb: float
    transferred_mb: float          # mean across pairs
    image_mb: float
    data_sync_kb: float
    record_log_kb: float


def run(sweep: SweepResult) -> List[Fig15Row]:
    rows = []
    for spec in MIGRATABLE_APPS:
        reports = sweep.reports_for_app(spec.package)
        n = len(reports)
        transferred = sum(r.transferred_bytes for r in reports) / n
        image = sum(r.image_compressed_bytes for r in reports) / n
        data_sync = sum(r.data_delta_bytes for r in reports) / n
        # The record log travels inside the image; exposed separately so
        # the paper's "sync + log < 200 KB combined" claim is checkable.
        log_bytes = sum(r.record_log_bytes for r in reports) / n
        rows.append(Fig15Row(
            title=spec.title, package=spec.package, apk_mb=spec.apk_mb,
            transferred_mb=units.to_mb(int(transferred)),
            image_mb=units.to_mb(int(image)),
            data_sync_kb=units.to_kb(int(data_sync)),
            record_log_kb=units.to_kb(int(log_bytes))))
    return rows


def correlation_with_apk_size(sweep: SweepResult) -> float:
    """Pearson correlation between APK size and bytes transferred."""
    rows = run(sweep)
    xs = [r.apk_mb for r in rows]
    ys = [r.transferred_mb for r in rows]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    var_x = sum((x - mean_x) ** 2 for x in xs)
    var_y = sum((y - mean_y) ** 2 for y in ys)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / (var_x ** 0.5 * var_y ** 0.5)


def render(sweep: Optional[SweepResult] = None) -> str:
    if sweep is None:
        sweep = run_sweep()
    rows = run(sweep)
    table = [(r.title, f"{r.transferred_mb:.2f}", f"{r.image_mb:.2f}",
              f"{r.data_sync_kb:.0f}", f"{r.apk_mb:.1f}") for r in rows]
    text = format_table(
        ("app", "transferred MB", "image MB", "data sync KB", "APK MB"),
        table, title="Figure 15: data transferred during migration "
                     "(mean across device pairs)")
    worst = max(r.transferred_mb for r in rows)
    corr = correlation_with_apk_size(sweep)
    return (f"{text}\n\nmax transferred: {worst:.2f} MB "
            f"(paper: <= {PAPER_MAX_TRANSFER_MB:.0f} MB); "
            f"APK-size correlation r = {corr:.2f}")
