"""Ablation: retry-with-resume vs retry-from-scratch after a link fault.

BinderCracker-style systematic fault injection (see ISSUE 2 / DESIGN.md)
gives every migration fault a defined outcome: the stage pipeline rolls
completed stages back, the app keeps running on the home device, and the
guest holds no partial process state.  What a rollback deliberately
*keeps* is cache — under ``FluxExtensions.pipelined_transfer`` the
content-addressed chunks that fully crossed the wire before the drop
stay in the guest's chunk store — so a retry resumes, negotiating
digests and moving only the chunks the guest has never seen.  The serial
(paper-faithful) path has no such cache and retries from scratch.

Measured here: migrate the largest catalog app (Candy Crush, ~13.5 MB
compressed image) over a link armed to drop after ``DROP_AFTER_BYTES``
cumulative payload bytes (~60% through the image), then retry over a
healthy link.  The interesting column is the retry's image wire bytes:
from-scratch pays the full image again; resume pays roughly the lost
tail plus the always-fresh descriptor/record-log chunks and the digest
negotiation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import repro.sim.units as units
from repro.android.device import Device
from repro.android.hardware.profiles import NEXUS_7_2013
from repro.android.net.link import LinkFaultPlan, link_between
from repro.apps import app_by_title
from repro.core.cria.errors import MigrationError
from repro.core.extensions import FluxExtensions
from repro.experiments.harness import format_table
from repro.sim import SimClock
from repro.sim.rng import RngFactory


APP_TITLE = "Candy Crush Saga"
SEED = 23
#: Cumulative link-payload offset of the injected drop — roughly 60%
#: through Candy Crush's compressed image, so a resumed retry has a
#: large delivered prefix to skip.
DROP_AFTER_BYTES = units.mb(8)


@dataclass
class FaultAblationRow:
    config: str
    faulted_stage: str
    first_wire_bytes: int          # image bytes delivered before the drop
    retry_wire_bytes: int          # image bytes the retry moved
    retry_chunk_hit_rate: float
    retry_seconds: float
    home_still_running: bool       # app usable at home between attempts
    guest_partial_processes: int   # guest residue after the rollback


def _measure(config: str, extensions: FluxExtensions,
             seed: int = SEED) -> FaultAblationRow:
    clock = SimClock()
    factory = RngFactory(seed)
    home = Device(NEXUS_7_2013, clock, factory, name="home")
    guest = Device(NEXUS_7_2013, clock, factory, name="guest")
    spec = app_by_title(APP_TITLE)
    spec.install_and_launch(home)
    home.pairing_service.pair(guest)

    link = link_between(home.profile, guest.profile, home.rng_factory)
    link.inject_fault(LinkFaultPlan(drop_after_bytes=DROP_AFTER_BYTES))
    try:
        home.migration_service.migrate(guest, spec.package, link=link,
                                       extensions=extensions)
        raise AssertionError("injected link fault did not fire")
    except MigrationError as error:
        failed = error.report

    home_ok = home.running_packages() == [spec.package]
    residue = len(guest.kernel.processes_of_package(spec.package))

    retry = home.migration_service.migrate(guest, spec.package,
                                           extensions=extensions)
    return FaultAblationRow(
        config=config,
        faulted_stage=failed.faulted_stage or "?",
        first_wire_bytes=failed.image_wire_bytes,
        retry_wire_bytes=retry.image_wire_bytes,
        retry_chunk_hit_rate=retry.chunk_hit_rate,
        retry_seconds=retry.total_seconds,
        home_still_running=home_ok,
        guest_partial_processes=residue)


def run(seed: int = SEED) -> List[FaultAblationRow]:
    configs: List[Tuple[str, FluxExtensions]] = [
        ("serial, retry from scratch", FluxExtensions.none()),
        ("pipelined, retry with resume",
         FluxExtensions(pipelined_transfer=True)),
    ]
    return [_measure(name, extensions, seed=seed)
            for name, extensions in configs]


def resume_savings(rows: List[FaultAblationRow] = None) -> float:
    """Fraction of retry image bytes the chunk-cache resume avoids."""
    rows = rows or run()
    scratch = next(r for r in rows if "scratch" in r.config)
    resume = next(r for r in rows if "resume" in r.config)
    if not scratch.retry_wire_bytes:
        return 0.0
    return 1.0 - resume.retry_wire_bytes / scratch.retry_wire_bytes


def render() -> str:
    rows = run()
    table = [(r.config, r.faulted_stage,
              units.format_size(r.first_wire_bytes),
              units.format_size(r.retry_wire_bytes),
              f"{r.retry_chunk_hit_rate * 100:.0f}%",
              f"{r.retry_seconds:.2f}",
              "yes" if r.home_still_running else "NO",
              str(r.guest_partial_processes))
             for r in rows]
    text = format_table(
        ("configuration", "faulted stage", "delivered before drop",
         "retry image wire", "retry chunk hits", "retry s",
         "home app alive", "guest residue"),
        table,
        title="Fault ablation: link drop at "
              f"{units.format_size(DROP_AFTER_BYTES)} cumulative, then "
              f"retry ({APP_TITLE})")
    savings = resume_savings(rows)
    return (f"{text}\n\nretry image bytes avoided by chunk-cache resume "
            f"(vs retry-from-scratch): {savings:.0%}; every fault rolls "
            "back to a running home app and a clean guest")
