"""Per-pair cProfile reports for the sweep (``flux-sim sweep --profile-out``).

The process fan-out makes the sweep scale across cores, but the serial
per-pair cost is what every worker pays; this module is the measuring
plane for the serial hot-path work.  Each device pair runs under its own
:class:`cProfile.Profile` (serially — profiling a process pool would
profile the pool plumbing, not the simulation), and the report is
written with a *deterministic ordering*: rows sort by internal time,
with ties broken by call count and then by the stripped
``path:line(function)`` location, so two runs of the deterministic
simulation produce reports whose row order differs only where the
measured times genuinely differ.  Paths are stripped to their
``repro/``-relative form so reports diff cleanly across machines.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import List, Optional, Sequence, Tuple

from repro.android.hardware.profiles import PAPER_DEVICE_PAIRS, DeviceProfile
from repro.apps.catalog import MIGRATABLE_APPS
from repro.apps.common import AppSpec
from repro.experiments.harness import pair_label, run_pair

#: Rows shown per pair section.
DEFAULT_TOP = 25


def _strip_path(path: str) -> str:
    """``/abs/prefix/src/repro/x.py`` -> ``repro/x.py`` (stable across
    machines); stdlib/built-in locations pass through unchanged."""
    for marker in ("/repro/", "\\repro\\"):
        index = path.rfind(marker)
        if index >= 0:
            return "repro/" + path[index + len(marker):].replace("\\", "/")
    return path


def _stat_rows(profile: cProfile.Profile,
               top: int) -> List[Tuple[str, int, float, float]]:
    """(location, calls, tottime, cumtime) rows, deterministically ordered."""
    stats = pstats.Stats(profile)
    rows = []
    for (path, line, name), (cc, nc, tt, ct, _callers) in stats.stats.items():
        location = (f"{_strip_path(path)}:{line}({name})"
                    if line else f"{_strip_path(path)}({name})")
        rows.append((location, nc, tt, ct))
    rows.sort(key=lambda r: (-r[2], -r[1], r[0]))
    return rows[:top]


def _format_section(title: str, rows: Sequence[Tuple[str, int, float, float]],
                    wall_seconds: float) -> str:
    lines = [title, "=" * len(title),
             f"wall: {wall_seconds:.4f}s (informational; row order is "
             "deterministic up to measured-time ties)",
             f"{'calls':>9}  {'tottime':>9}  {'cumtime':>9}  location"]
    for location, calls, tottime, cumtime in rows:
        lines.append(
            f"{calls:>9}  {tottime:>9.4f}  {cumtime:>9.4f}  {location}")
    return "\n".join(lines)


def profile_sweep(apps: Sequence[AppSpec] = MIGRATABLE_APPS,
                  pairs: Sequence[Tuple[DeviceProfile, DeviceProfile]]
                  = PAPER_DEVICE_PAIRS,
                  seed: int = 0, include_failures: bool = False,
                  top: int = DEFAULT_TOP) -> str:
    """Profile each pair of the sweep serially; one report section per pair.

    Returns the full report text.  The profiled runs bypass the sweep
    cache by construction (each pair is run directly), so the numbers
    always reflect this process, this interpreter, now.
    """
    import time

    sections = []
    for home_profile, guest_profile in pairs:
        profile = cProfile.Profile()
        start = time.perf_counter()
        profile.enable()
        run_pair(home_profile, guest_profile, apps, seed=seed,
                 include_failures=include_failures)
        profile.disable()
        wall = time.perf_counter() - start
        sections.append(_format_section(
            pair_label(home_profile, guest_profile),
            _stat_rows(profile, top), wall))
    return "\n\n".join(sections) + "\n"


def top_offenders(report: str, count: int = 3) -> List[str]:
    """The first ``count`` locations of the first pair section (summary)."""
    offenders = []
    for line in report.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0].isdigit():
            offenders.append(parts[3])
            if len(offenders) >= count:
                break
    return offenders


def write_profile(path: str, report: Optional[str] = None, **kwargs) -> str:
    """Write (generating if needed) a sweep profile report to ``path``."""
    if report is None:
        report = profile_sweep(**kwargs)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(report)
    return report
