"""Post-mortems over a migration's causal event log (``flux-sim explain``).

A migration's ``--events-out`` JSONL is a flat, causally-ordered stream
(see :mod:`repro.sim.events`).  This module segments that stream into
migrations (``migration.start`` … ``migration.done`` /
``migration.rolled_back``), picks the one worth explaining (a faulted or
refused attempt beats a success), and reconstructs the causal chain a
human would ask for first:

    triggering event  ->  stage.fault  ->  rollbacks  ->  rolled_back

i.e. *which* low-layer event (``link.fault``, ``cria.restore_fault``)
killed *which* stage, and what the pipeline unwound afterwards.  The
rendered report also shows the last N events before the fault (the
flight-recorder tail) with their Binder transaction ids — every ``#seq``
and ``txn=`` printed resolves back to a line of the JSONL — plus
per-stage event counts and, when a ``--metrics`` document is supplied,
the migration's critical path.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.sim.rows import migration_rows

#: Low-layer events that directly cause a stage fault; the causal chain
#: starts at the last one seen before ``stage.fault``.
TRIGGER_KINDS = ("link.fault", "cria.restore_fault")

#: Pipeline bookkeeping — never the *cause* of a fault, so the fallback
#: trigger search (no known trigger kind present) skips these.
_LIFECYCLE_KINDS = frozenset({
    "migration.start", "migration.done", "migration.refused",
    "migration.rollback_begin", "migration.rolled_back",
    "stage.start", "stage.end", "stage.fault",
    "stage.rollback", "stage.rollback_error",
})


class PostmortemError(Exception):
    """The event stream holds nothing explainable (no migrations)."""


def segment_migrations(events: List[Dict[str, Any]]
                       ) -> List[Dict[str, Any]]:
    """Split a merged event stream into one segment per migration.

    A segment runs from ``migration.start`` through the matching
    terminal event (``migration.done`` or ``migration.rolled_back``);
    events of other devices interleaved in between (guest-side restore
    steps, for instance) belong to the segment.  A start with no
    terminal (the process died mid-flight, or the ring evicted the
    tail's terminal) yields an ``incomplete`` segment.

    Interleaved scenario logs segment by the ``session`` label every
    event of a migration carries: each label gets its own open segment,
    so two concurrent migrations' events never cross-contaminate.
    Events without a label (legacy logs, or bookkeeping between
    migrations) fall back to a per-pair anonymous segment — the
    pre-session behavior, bit for bit.
    """
    segments: List[Dict[str, Any]] = []
    open_map: Dict[Any, Dict[str, Any]] = {}
    for event in events:
        kind = event.get("kind")
        attrs = event.get("attrs", {})
        key = (event.get("pair"), attrs.get("session"))
        if kind == "migration.start":
            prior = open_map.pop(key, None)
            if prior is not None:
                # A new start under the same key before the previous
                # terminal: the ring evicted the tail, or the process
                # died mid-flight.  Keep what we saw.
                segments.append(prior)
            open_map[key] = {
                "package": attrs.get("package", ""),
                "home": attrs.get("home", ""),
                "guest": attrs.get("guest", ""),
                "pair": event.get("pair"),
                "session": attrs.get("session"),
                "events": [event],
                "outcome": "incomplete",
            }
            continue
        current = open_map.get(key)
        if current is None:
            continue
        current["events"].append(event)
        if kind in ("migration.done", "migration.rolled_back"):
            if kind == "migration.done":
                current["outcome"] = "succeeded"
            elif any(e.get("kind") == "migration.refused"
                     for e in current["events"]):
                current["outcome"] = "refused"
            else:
                current["outcome"] = "faulted"
            segments.append(current)
            del open_map[key]
    segments.extend(open_map.values())
    return segments


def _pick_segment(segments: List[Dict[str, Any]],
                  package: Optional[str],
                  session: Optional[str] = None) -> Dict[str, Any]:
    if session is not None:
        segments = [s for s in segments if s.get("session") == session]
        if not segments:
            raise PostmortemError(
                f"no migration session {session!r} in the event log")
    if package is not None:
        segments = [s for s in segments if s["package"] == package]
        if not segments:
            raise PostmortemError(
                f"no migration of {package!r} in the event log")
    failed = [s for s in segments if s["outcome"] in ("faulted", "refused")]
    return (failed or segments)[-1]


def _find(events: List[Dict[str, Any]], kind: str
          ) -> Optional[Dict[str, Any]]:
    for event in events:
        if event.get("kind") == kind:
            return event
    return None


def _trigger_for(events: List[Dict[str, Any]],
                 fault_index: int) -> Optional[Dict[str, Any]]:
    """The event that caused the fault: last trigger-kind event before
    ``stage.fault``, else the last non-lifecycle event before it."""
    for event in reversed(events[:fault_index]):
        if event.get("kind") in TRIGGER_KINDS:
            return event
    for event in reversed(events[:fault_index]):
        if event.get("kind") not in _LIFECYCLE_KINDS:
            return event
    return None


def _causal_chain(segment: Dict[str, Any]) -> List[Dict[str, Any]]:
    """trigger -> stage.fault/migration.refused -> rollbacks -> terminal."""
    events = segment["events"]
    abort = _find(events, "stage.fault") or _find(events,
                                                  "migration.refused")
    if abort is None:
        return []
    abort_index = events.index(abort)
    chain: List[Dict[str, Any]] = []
    trigger = _trigger_for(events, abort_index)
    if trigger is not None:
        chain.append(trigger)
    chain.append(abort)
    for event in events[abort_index + 1:]:
        if event.get("kind") in ("migration.rollback_begin",
                                 "stage.rollback", "stage.rollback_error",
                                 "migration.rolled_back"):
            chain.append(event)
    return chain


def build_postmortem(events: List[Dict[str, Any]],
                     package: Optional[str] = None,
                     last: int = 10,
                     critical_path: Optional[List[Dict[str, Any]]] = None,
                     session: Optional[str] = None
                     ) -> Dict[str, Any]:
    """Digest an event stream into one migration's post-mortem document.

    Raises :class:`PostmortemError` when the stream holds no migration
    (or none of ``package`` / ``session``).  The returned dict is
    JSON-ready; see :func:`render_postmortem` for the human rendering.
    """
    segments = segment_migrations(events)
    if not segments:
        raise PostmortemError(
            "no migration.start event in the log — was it produced by "
            "flux-sim migrate/sweep --events-out with FLUX_EVENTS enabled?")
    segment = _pick_segment(segments, package, session)
    seg_events = segment["events"]

    abort = _find(seg_events, "stage.fault") or _find(seg_events,
                                                      "migration.refused")
    faulted_stage = None
    reason = None
    if abort is not None:
        attrs = abort.get("attrs", {})
        faulted_stage = attrs.get("stage")
        reason = attrs.get("reason")

    stage_counts: Dict[str, int] = {}
    for event in seg_events:
        stage = event.get("attrs", {}).get("stage")
        if stage:
            stage_counts[stage] = stage_counts.get(stage, 0) + 1

    tail: List[Dict[str, Any]] = []
    if abort is not None and last > 0:
        abort_index = seg_events.index(abort)
        tail = seg_events[max(0, abort_index - last):abort_index]

    done = _find(seg_events, "migration.done")
    total_seconds = (done.get("attrs", {}).get("total_seconds")
                     if done is not None else None)

    return {
        "package": segment["package"],
        "home": segment["home"],
        "guest": segment["guest"],
        "pair": segment.get("pair"),
        "session": segment.get("session"),
        "outcome": segment["outcome"],
        "faulted_stage": faulted_stage,
        "reason": reason,
        "total_seconds": total_seconds,
        "migrations_in_log": len(segments),
        "event_count": len(seg_events),
        "stage_counts": stage_counts,
        "causal_chain": _causal_chain(segment),
        "tail": tail,
        "critical_path": critical_path or [],
    }


def build_blame(events: List[Dict[str, Any]], session: str
                ) -> Dict[str, Any]:
    """Rank where one session's wall time went, from the event log alone.

    Reconstructs the contention decomposition the scenario runner
    measures live (``wait_profile``) purely from causal events:

    * **queued** — ``resource.grant`` events for the session's route
      carry the measured enqueue→grant wait and who was ahead
      (``behind``); the blocker's route resolves to its session label
      via the segment that released the resource at our grant instant.
    * **link dilation** — ``link.dilation`` events inside the segment
      carry the medium's per-flow stretch attribution and the peak
      number of contending flows.
    * **own work** — last grant to terminal, minus the dilation: the
      time the session would have taken with the world to itself.

    The three terms sum to the session's wall time (first enqueue to
    terminal) exactly, because each is the same measurement the live
    ledgers make — re-derived from the log, which is the point: a
    post-mortem needs no access to the run that produced it.
    """
    segments = segment_migrations(events)
    matching = [s for s in segments if s.get("session") == session]
    if not matching:
        raise PostmortemError(
            f"no migration session {session!r} in the event log")
    segment = matching[-1]
    seg_events = segment["events"]
    start_t = seg_events[0].get("t", 0.0)
    end_t = seg_events[-1].get("t", start_t)
    who = f"{segment['home']}->{segment['guest']}:{segment['package']}"

    # Admission: the (up to two) endpoint grants for this route at or
    # before the segment opened.  Grants are world-level events, so they
    # live outside the segment; select by time, newest first.
    grants = [e for e in events
              if e.get("kind") == "resource.grant"
              and e.get("attrs", {}).get("who") == who
              and e.get("t", 0.0) <= start_t + 1e-9]
    grants = grants[-2:]
    queued = sum(float(e["attrs"].get("waited", 0.0)) for e in grants)
    behind: List[str] = []
    for grant in grants:
        attrs = grant["attrs"]
        blocker = attrs.get("behind")
        if not blocker or not attrs.get("waited"):
            continue
        # The blocker released at our grant instant; its segment's
        # terminal event carries the same timestamp.
        label = blocker
        for other in segments:
            other_who = (f"{other['home']}->{other['guest']}:"
                         f"{other['package']}")
            other_end = other["events"][-1].get("t")
            if (other_who == blocker and other.get("session")
                    and other_end is not None
                    and other_end <= grant.get("t", 0.0) + 1e-9):
                label = other["session"]
        behind.append(label)
    granted_t = max((e.get("t", start_t) for e in grants), default=start_t)
    submit_t = min((e.get("t", start_t)
                    - float(e["attrs"].get("waited", 0.0))
                    for e in grants), default=start_t)

    dilations = [e for e in seg_events if e.get("kind") == "link.dilation"
                 and e.get("attrs", {}).get("session") == session]
    dilation = sum(float(e["attrs"].get("dilation", 0.0))
                   for e in dilations)
    contenders = max((int(e["attrs"].get("others", 0))
                      for e in dilations), default=0)
    own = (end_t - granted_t) - dilation

    entries = [
        {"kind": "queued", "seconds": queued,
         "detail": ("behind " + ", ".join(behind)) if behind else ""},
        {"kind": "link dilation", "seconds": dilation,
         "detail": (f"from {contenders} contending "
                    f"flow{'s' if contenders != 1 else ''}"
                    if contenders else "")},
        {"kind": "own work", "seconds": own, "detail": ""},
    ]
    entries.sort(key=lambda entry: -entry["seconds"])

    # Fleet sessions carry a placement decision: the world recorder
    # emitted one ``placement.decision`` per session at submit time
    # (keyed by route, like the grants), so the blame can say not just
    # where the time went, but why the migration landed *here* at all.
    placements = [e for e in events
                  if e.get("kind") == "placement.decision"
                  and e.get("attrs", {}).get("who") == who
                  and e.get("t", 0.0) <= end_t + 1e-9]
    placement = dict(placements[-1]["attrs"]) if placements else None

    return {
        "session": session,
        "package": segment["package"],
        "home": segment["home"],
        "guest": segment["guest"],
        "outcome": segment["outcome"],
        "wall_s": end_t - submit_t,
        "entries": entries,
        "placement": placement,
    }


def critical_path_from_metrics(document: Dict[str, Any],
                               package: Optional[str] = None,
                               session: Optional[str] = None,
                               source: str = "metrics document",
                               pair: Optional[str] = None
                               ) -> Optional[List[Dict[str, Any]]]:
    """Pull a critical path out of a ``--metrics-out`` document.

    A document of one migration needs no choosing.  Among several rows,
    ``session`` (an exact label) or else ``package`` selects the first
    match; with neither, the first row wins.  A row with no session (a
    sweep's) matches by its ``{pair}/{package}`` key.  Rows come from
    :func:`repro.sim.rows.migration_rows`, so a malformed document
    raises :class:`~repro.sim.rows.BundleError`.
    """
    rows = migration_rows(document, source)
    if len(rows) > 1:
        rows = [row for row in rows
                if (row["key"] == f"{pair}/{package}"
                    if pair is not None and row["session"] is None
                    else row["session"] == session if session is not None
                    else package in (None, row["package"]))]
    return (rows[0]["critical_path"] or None) if rows else None


def postmortem_from_bundle(bundle, package: Optional[str] = None,
                           last: int = 10,
                           session: Optional[str] = None
                           ) -> Dict[str, Any]:
    """Post-mortem straight from a run bundle — no side files needed.

    The bundle carries both planes the post-mortem wants: the causal
    event log and (via the metrics document) the critical path.  The
    path is looked up for the migration the post-mortem actually
    selected — not for the caller's (possibly absent) filter — so the
    annotation always belongs to the explained attempt.  ``bundle`` is
    any object with ``events()`` and ``metrics_document()``.
    """
    pm = build_postmortem(bundle.events(), package=package, last=last,
                          session=session)
    pm["critical_path"] = critical_path_from_metrics(
        bundle.metrics_document(), package=pm.get("package"),
        session=pm.get("session"), source="metrics.json",
        pair=pm.get("pair")) or []
    return pm


# -- rendering ---------------------------------------------------------------


def format_event(event: Dict[str, Any]) -> str:
    """One JSONL event as a post-mortem line: ``#seq [t] kind k=v txn=``.

    Every ``#seq`` and ``txn=`` printed here resolves back to the
    source JSONL (same numbers, same device stream).
    """
    attrs = event.get("attrs", {})
    extras = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    txn = event.get("txn")
    txn_part = f" txn={txn}" if txn is not None else ""
    device = event.get("device", "")
    return (f"#{event.get('seq')} [{event.get('t', 0.0):10.4f}] "
            f"{device}: {event.get('kind')}{txn_part} {extras}").rstrip()


def render_postmortem(pm: Dict[str, Any]) -> str:
    """The human-readable post-mortem ``flux-sim explain`` prints."""
    lines: List[str] = []
    where = f"{pm['home']} -> {pm['guest']}" if pm["home"] else "?"
    pair = f" [{pm['pair']}]" if pm.get("pair") else ""
    session = (f" session={pm['session']}" if pm.get("session") else "")
    lines.append(f"post-mortem: {pm['package']} ({where}){pair}{session}")

    outcome = pm["outcome"]
    if outcome == "succeeded":
        total = pm.get("total_seconds")
        suffix = f" in {total}s" if total is not None else ""
        lines.append(f"outcome: SUCCEEDED{suffix}")
    elif outcome == "faulted":
        lines.append(f"outcome: FAULTED in {pm['faulted_stage']} stage "
                     f"({pm['reason']}); rolled back")
    elif outcome == "refused":
        lines.append(f"outcome: REFUSED ({pm['reason']}); rolled back")
    else:
        lines.append("outcome: INCOMPLETE (no terminal event in the log)")
    if pm["migrations_in_log"] > 1:
        which = ("failure" if outcome in ("faulted", "refused")
                 else "migration")
        lines.append(f"({pm['migrations_in_log']} migrations in the log; "
                     f"explaining the most recent {which})")

    if pm["stage_counts"]:
        lines.append("")
        lines.append("events per stage:")
        for stage, count in pm["stage_counts"].items():
            marker = "  <- faulted" if stage == pm["faulted_stage"] else ""
            lines.append(f"  {stage:<14} {count:>4}{marker}")

    if pm["causal_chain"]:
        lines.append("")
        lines.append("causal chain:")
        for i, event in enumerate(pm["causal_chain"]):
            prefix = "  " if i == 0 else "  -> "
            lines.append(prefix + format_event(event))

    if pm["tail"]:
        lines.append("")
        lines.append(f"last {len(pm['tail'])} events before the fault:")
        for event in pm["tail"]:
            lines.append("  " + format_event(event))

    if pm["critical_path"]:
        # Percentages only when the migration accrued wall time: a
        # refused session reports total 0.0 and a 0/0 share means
        # nothing (and used to mean a ZeroDivisionError).
        total = pm.get("total_seconds")
        try:
            total = float(total) if total is not None else 0.0
        except (TypeError, ValueError):
            total = 0.0
        parts = []
        for entry in pm["critical_path"]:
            seconds = float(entry["seconds"])
            label = f"{entry['name']} {seconds:.3f}s"
            if total > 0.0:
                label += f" ({seconds / total * 100.0:.0f}%)"
            parts.append(label)
        lines.append("")
        lines.append(f"critical path: {' > '.join(parts)}")
    return "\n".join(lines)


def render_blame(blame: Dict[str, Any]) -> str:
    """The ranked breakdown ``flux-sim explain --why <session>`` prints."""
    lines = [
        f"why: {blame['session']} "
        f"({blame['home']} -> {blame['guest']}) "
        f"{blame['outcome']} after {blame['wall_s']:.3f}s",
    ]
    for entry in blame["entries"]:
        detail = f" {entry['detail']}" if entry["detail"] else ""
        lines.append(f"  {entry['seconds']:8.3f}s  "
                     f"{entry['kind']}{detail}")
    placement = blame.get("placement")
    if placement:
        parts = [f"policy {placement.get('policy', '?')} chose "
                 f"{placement.get('guest') or blame['guest']}"]
        if placement.get("feasible") is not None:
            parts.append(f"{placement['feasible']}/"
                         f"{placement.get('considered', '?')} feasible")
        if placement.get("runner_up"):
            parts.append(f"over {placement['runner_up']}")
        if placement.get("detail"):
            parts.append(str(placement["detail"]))
        lines.append(f"  placement: {'; '.join(parts)}")
    return "\n".join(lines)
