"""Contention: two concurrent migrations sharing one radio medium.

The multi-surface promise (paper §1) implies several devices re-hosting
apps over the *same* congested network at once.  The scenario layer
makes that measurable: two disjoint device pairs run the same app's
migration concurrently over a shared :class:`Medium`, whose fair-share
arbitration gives each in-flight transfer 1/n of its solo rate.

Measured here: the transfer-stage time of each concurrent migration
against its solo baseline.  With full overlap each would see exactly
half the bandwidth (2.0x); the observed slowdown sits a little below
because the stages that do not touch the wire (preparation, checkpoint,
restore, reintegration) never contend, so the transfers only partially
overlap.  Total wire bytes are conserved — contention spreads work over
wall time, it does not create or destroy it.  The merged event log is
deterministic: rerunning the scenario (in any submission order)
reproduces the identical interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.android.hardware.profiles import PAPER_DEVICE_PAIRS
from repro.apps.catalog import MIGRATABLE_APPS
from repro.experiments.harness import format_table
from repro.experiments.scenario import (
    ScenarioResult,
    ScenarioSpec,
    SessionSpec,
    run_scenario,
)

SEED = 0
APP = MIGRATABLE_APPS[0]


@dataclass
class ContentionRow:
    config: str
    session: str
    transfer_seconds: float
    slowdown: float
    total_seconds: float
    wire_bytes: int
    #: Wall-time decomposition: queued + dilation + own work == wall.
    wall_seconds: float = 0.0
    queued_seconds: float = 0.0
    dilation_seconds: float = 0.0
    own_seconds: float = 0.0


@dataclass
class ContentionResult:
    rows: List[ContentionRow]
    solo_transfer_seconds: float
    events_digest: str
    #: Two runs with opposite submission orders produced identical
    #: merged event logs (the determinism contract, checked every run).
    deterministic: bool


def _world(sessions) -> ScenarioSpec:
    home_p, guest_p = PAPER_DEVICE_PAIRS[0]
    return ScenarioSpec(
        devices=(("home1", home_p), ("guest1", guest_p),
                 ("home2", home_p), ("guest2", guest_p)),
        sessions=tuple(sessions), seed=SEED)


def _events_digest(result: ScenarioResult) -> str:
    import hashlib
    import json

    payload = json.dumps(list(result.events), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def run(seed: int = SEED) -> ContentionResult:
    home_p, guest_p = PAPER_DEVICE_PAIRS[0]
    solo = run_scenario(ScenarioSpec(
        devices=(("home1", home_p), ("guest1", guest_p)),
        sessions=(SessionSpec("home1", "guest1", APP.package),),
        seed=seed))
    solo_transfer = solo.reports[APP.package].stages["transfer"]

    routes = [("home1", "guest1"), ("home2", "guest2")]
    sessions = [SessionSpec(h, g, APP.package) for h, g in routes]
    both = run_scenario(_world(sessions))
    reversed_order = run_scenario(_world(reversed(sessions)))
    digest = _events_digest(both)
    deterministic = digest == _events_digest(reversed_order)

    rows = []
    for outcome in both.sessions:
        report = outcome.report
        profile = outcome.wait_profile
        # The decomposition invariant this experiment exists to assert:
        # the measured terms reassemble the observed wall time exactly.
        decomposed = (profile["admission_queue_s"]
                      + profile["resource_wait_s"]
                      + profile["link_dilation_s"] + profile["active_s"])
        if abs(decomposed - profile["wall_s"]) > 1e-6:
            raise AssertionError(
                f"wait profile of {outcome.session} does not sum to wall "
                f"time: {decomposed!r} != {profile['wall_s']!r}")
        rows.append(ContentionRow(
            config=f"{outcome.spec.home}->{outcome.spec.guest}",
            session=outcome.session,
            transfer_seconds=report.stages["transfer"],
            slowdown=report.stages["transfer"] / solo_transfer,
            total_seconds=report.total_seconds,
            wire_bytes=report.transferred_bytes,
            wall_seconds=profile["wall_s"],
            queued_seconds=profile["admission_queue_s"]
            + profile["resource_wait_s"],
            dilation_seconds=profile["link_dilation_s"],
            own_seconds=profile["active_s"]))
    return ContentionResult(rows=rows,
                            solo_transfer_seconds=solo_transfer,
                            events_digest=digest,
                            deterministic=deterministic)


def render() -> str:
    result = run()
    headers = ["route", "session", "transfer (s)", "slowdown",
               "queued (s)", "dilated (s)", "own work (s)", "wall (s)",
               "wire bytes"]
    rows = [[r.config, r.session, f"{r.transfer_seconds:.3f}",
             f"x{r.slowdown:.2f}", f"{r.queued_seconds:.3f}",
             f"{r.dilation_seconds:.3f}", f"{r.own_seconds:.3f}",
             f"{r.wall_seconds:.3f}",
             f"{r.wire_bytes:,}"] for r in result.rows]
    lines = [
        f"Contention: 2 concurrent {APP.title} migrations on one medium "
        f"(solo transfer {result.solo_transfer_seconds:.3f}s)",
        format_table(headers, rows),
        "each row: queued + dilated + own work == wall (asserted)",
        f"merged event log digest {result.events_digest} "
        f"(submission-order independent: {result.deterministic})",
    ]
    return "\n".join(lines)
