"""Telemetry diff engine: compare two run bundles, attribute regressions.

``flux-sim bench-check`` *detects* drift in a handful of gated
aggregates; this module *attributes* it.  Given two run bundles
(:mod:`repro.sim.bundle`), it aligns them by fingerprint and walks
every plane both runs recorded:

* **counters and histograms** — per-key deltas with a relative
  tolerance band (the same banding the bench gate uses);
* **migrations** — stage-by-stage diffs per aligned migration attempt:
  wall seconds from the stage map, self seconds from the critical path,
  plus outcome flips (migrated -> faulted is the loudest possible
  regression);
* **wait profiles** — per-session queued / resource-wait / dilation /
  active deltas (where contended time moved);
* **events** — a first-divergence search over the merged causal logs:
  the first ``(t, device, seq)`` where the two streams disagree, with
  the surrounding flight-recorder context from both sides — the exact
  place to start reading when two "identical" runs are not;
* **evictions** — per device, section by section, the events each
  side's flight recorders evicted before the bundle was written, so a
  diff of incomplete logs says so (the verdict does not change).

The result is a ranked **suspect table** ("stage ``transfer`` +0.41s
self on nexus4/...", "link dilation +0.38s on session X") and a verdict
with CI-friendly exit codes: 0 identical, 1 within band, 2 regressed.

Everything here is pure: two loaded bundles in, one JSON-ready document
out.  Determinism matters doubly for a diff tool — suspect ranking
breaks ties lexicographically, so the table is stable across submission
orders and re-runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.sim.bundle import RunBundle, fingerprint_differences
from repro.sim.events import evicted_per_device

#: Exit codes ``flux-sim diff`` maps the verdict to.
EXIT_IDENTICAL = 0
EXIT_WITHIN_BAND = 1
EXIT_REGRESSED = 2

VERDICTS = ("identical", "within-band", "regressed")

#: Default relative drift band, matching the bench gate's.
DEFAULT_TOLERANCE = 0.02

#: Events shown on each side of a first divergence.
DEFAULT_CONTEXT = 5

#: Suspect deltas below this (seconds) are noise, not suspects.
MIN_SUSPECT_SECONDS = 1e-6


class DiffError(Exception):
    """Bundles that cannot be meaningfully compared."""


# -- shared delta primitives --------------------------------------------------


def relative_drift(current: float, baseline: float) -> float:
    """|current - baseline| / |baseline| (inf when only baseline is 0)."""
    if baseline == 0:
        return 0.0 if current == 0 else float("inf")
    return abs(current - baseline) / abs(baseline)


def band_edges(baseline: float, tolerance: float) -> Tuple[float, float]:
    """The inclusive [lo, hi] band a value may drift inside."""
    slack = abs(baseline) * tolerance
    return baseline - slack, baseline + slack


def format_delta(label: str, base: float, current: float,
                 tolerance: float) -> str:
    """One value's drift as a human line, naming the band edge it broke.

    Reused by the bench gate's failure output, so ``bench-check`` and
    ``diff`` describe the same drift in the same words::

        counter link/bytes_total: 100 -> 150 (+50.0% outside the
        ±2% band [98, 102])
    """
    drift = relative_drift(current, base)
    lo, hi = band_edges(base, tolerance)
    if drift == float("inf"):
        drift_text = "new" if base == 0 else "gone"
    else:
        sign = "+" if current >= base else "-"
        drift_text = f"{sign}{drift:.1%}"
    if drift > tolerance:
        band = (f"outside the ±{tolerance:.0%} band "
                f"[{lo:g}, {hi:g}]")
    else:
        band = f"within the ±{tolerance:.0%} band"
    return f"{label}: {base:g} -> {current:g} ({drift_text} {band})"


def _delta_entry(key: str, a: float, b: float,
                 tolerance: float) -> Dict[str, Any]:
    drift = relative_drift(b, a)
    return {
        "key": key,
        "a": a,
        "b": b,
        "delta": b - a,
        "drift": drift,
        "within_band": drift <= tolerance,
    }


# -- per-plane diffs ----------------------------------------------------------


def diff_counters(a: Mapping[str, float], b: Mapping[str, float],
                  tolerance: float) -> List[Dict[str, Any]]:
    """Per-counter deltas (only differing keys); missing keys count as 0."""
    entries = []
    for key in sorted(set(a) | set(b)):
        value_a = float(a.get(key, 0))
        value_b = float(b.get(key, 0))
        if value_a != value_b:
            entries.append(_delta_entry(key, value_a, value_b, tolerance))
    return entries


def diff_histograms(a: Mapping[str, Dict[str, Any]],
                    b: Mapping[str, Dict[str, Any]],
                    tolerance: float) -> List[Dict[str, Any]]:
    """Per-histogram count/sum deltas (only differing keys)."""
    entries = []
    for key in sorted(set(a) | set(b)):
        hist_a = a.get(key) or {"count": 0, "sum": 0.0}
        hist_b = b.get(key) or {"count": 0, "sum": 0.0}
        for stat in ("count", "sum"):
            value_a = float(hist_a.get(stat) or 0)
            value_b = float(hist_b.get(stat) or 0)
            if value_a != value_b:
                entries.append(_delta_entry(f"{key}.{stat}", value_a,
                                            value_b, tolerance))
    return entries


def diff_migrations(a_rows: List[Dict[str, Any]],
                    b_rows: List[Dict[str, Any]],
                    tolerance: float) -> List[Dict[str, Any]]:
    """Align migration attempts by key; diff outcomes and stage timings.

    Each aligned pair yields one entry carrying the outcome flip (if
    any) and per-stage deltas — wall seconds always, critical-path self
    seconds when both runs recorded them.  Attempts present on only one
    side yield an ``only_in`` entry (a migration that vanished is a
    diff, not an alignment error).
    """
    index_a = {row["key"]: row for row in a_rows}
    index_b = {row["key"]: row for row in b_rows}
    entries: List[Dict[str, Any]] = []
    for key in sorted(set(index_a) | set(index_b)):
        row_a, row_b = index_a.get(key), index_b.get(key)
        if row_a is None or row_b is None:
            present = row_a or row_b
            entries.append({
                "key": key,
                "only_in": "A" if row_b is None else "B",
                "outcome": present["outcome"],
                "stage_deltas": [],
                "self_deltas": [],
                "outcome_changed": True,
                "outcome_a": row_a["outcome"] if row_a else None,
                "outcome_b": row_b["outcome"] if row_b else None,
                "faulted_stage": present.get("faulted_stage"),
                "total_delta": 0.0,
            })
            continue
        stage_deltas = []
        for stage in sorted(set(row_a["stages"]) | set(row_b["stages"])):
            seconds_a = row_a["stages"].get(stage, 0.0)
            seconds_b = row_b["stages"].get(stage, 0.0)
            if seconds_a != seconds_b:
                stage_deltas.append(_delta_entry(stage, seconds_a,
                                                 seconds_b, tolerance))
        self_deltas = []
        if row_a["self_seconds"] or row_b["self_seconds"]:
            for stage in sorted(set(row_a["self_seconds"])
                                | set(row_b["self_seconds"])):
                seconds_a = row_a["self_seconds"].get(stage, 0.0)
                seconds_b = row_b["self_seconds"].get(stage, 0.0)
                if seconds_a != seconds_b:
                    self_deltas.append(_delta_entry(stage, seconds_a,
                                                    seconds_b, tolerance))
        changed = (row_a["outcome"] != row_b["outcome"]
                   or row_a.get("faulted_stage") != row_b.get(
                       "faulted_stage"))
        if changed or stage_deltas or self_deltas:
            entries.append({
                "key": key,
                "only_in": None,
                "outcome_changed": changed,
                "outcome_a": row_a["outcome"],
                "outcome_b": row_b["outcome"],
                "faulted_stage": (row_b.get("faulted_stage")
                                  or row_a.get("faulted_stage")),
                "stage_deltas": stage_deltas,
                "self_deltas": self_deltas,
                "total_delta": (row_b["total_seconds"]
                                - row_a["total_seconds"]),
            })
    return entries


WAIT_TERMS = ("admission_queue_s", "resource_wait_s", "link_dilation_s",
              "active_s", "wall_s")

#: Suspect-table names for the wait-profile terms.
_WAIT_NAMES = {
    "admission_queue_s": "admission queue",
    "resource_wait_s": "resource wait",
    "link_dilation_s": "link dilation",
    "active_s": "active time",
    "wall_s": "wall time",
}


def diff_wait_profiles(a: Mapping[str, Dict[str, float]],
                       b: Mapping[str, Dict[str, float]],
                       tolerance: float) -> List[Dict[str, Any]]:
    """Per-session wait-profile deltas (queued/resource/dilation/active)."""
    entries: List[Dict[str, Any]] = []
    for session in sorted(set(a) | set(b)):
        profile_a = a.get(session, {})
        profile_b = b.get(session, {})
        term_deltas = []
        for term in WAIT_TERMS:
            value_a = float(profile_a.get(term, 0.0))
            value_b = float(profile_b.get(term, 0.0))
            if value_a != value_b:
                term_deltas.append(_delta_entry(term, value_a, value_b,
                                                tolerance))
        if term_deltas:
            entries.append({"session": session, "terms": term_deltas})
    return entries


def first_divergence(a_events: List[Dict[str, Any]],
                     b_events: List[Dict[str, Any]],
                     context: int = DEFAULT_CONTEXT
                     ) -> Optional[Dict[str, Any]]:
    """The first position where the merged event streams disagree.

    Streams are compared entry-by-entry in their merged causal order;
    the result carries the disagreeing ``(t, device, seq)`` from each
    side plus the ``context`` preceding events (the flight-recorder
    tail leading *into* the divergence — shared by both runs, since
    everything before the divergence is identical by construction).
    Returns None for identical streams.
    """
    limit = min(len(a_events), len(b_events))
    index = None
    for i in range(limit):
        if a_events[i] != b_events[i]:
            index = i
            break
    if index is None:
        if len(a_events) == len(b_events):
            return None
        index = limit            # one stream is a strict prefix
    event_a = a_events[index] if index < len(a_events) else None
    event_b = b_events[index] if index < len(b_events) else None

    def _at(event: Optional[Dict[str, Any]]) -> Optional[List[Any]]:
        if event is None:
            return None
        return [event.get("t"), event.get("device"), event.get("seq")]

    return {
        "index": index,
        "at_a": _at(event_a),
        "at_b": _at(event_b),
        "a": event_a,
        "b": event_b,
        "context": a_events[max(0, index - context):index],
        "a_total": len(a_events),
        "b_total": len(b_events),
    }


def evicted_by_section(events: List[Dict[str, Any]]
                       ) -> List[Dict[str, Any]]:
    """Events the flight recorders evicted, per device, section by
    section (``pair``/``site`` label, None for an unlabeled log), in
    the order the sections first appear.  Devices that lost none are
    omitted, so a complete log yields ``[]``."""
    sections = dict.fromkeys((event.get("pair"), event.get("site"))
                             for event in events)
    return [{"section": pair or site, "device": device, "events": count}
            for pair, site in sections
            for device, count in evicted_per_device(events, pair,
                                                    site).items()]


# -- suspects -----------------------------------------------------------------


def build_suspects(migrations: List[Dict[str, Any]],
                   wait_profiles: List[Dict[str, Any]]
                   ) -> List[Dict[str, Any]]:
    """Rank what most plausibly explains the regression.

    Outcome flips outrank everything (a migration that now faults *is*
    the regression); timing suspects rank by |delta seconds|, stage
    self-time and wait-profile terms competing in one table.  Ties
    break lexicographically so the ranking is stable across runs and
    session submission orders.
    """
    suspects: List[Dict[str, Any]] = []
    for entry in migrations:
        if entry["outcome_changed"]:
            if entry["only_in"]:
                detail = (f"attempt only in "
                          f"{'A' if entry['only_in'] == 'A' else 'B'}")
            else:
                detail = f"{entry['outcome_a']} -> {entry['outcome_b']}"
                if entry.get("faulted_stage"):
                    detail += f" in stage {entry['faulted_stage']}"
            suspects.append({
                "kind": "outcome",
                "subject": entry["key"],
                "stage": entry.get("faulted_stage"),
                "delta_s": entry["total_delta"],
                "detail": detail,
                "priority": 0,
            })
        # Self seconds are sharper than wall seconds (a slow child
        # stage inflates every ancestor's wall time); prefer them when
        # the runs recorded a critical path.
        timing = entry["self_deltas"] or entry["stage_deltas"]
        measure = "self" if entry["self_deltas"] else "wall"
        for delta in timing:
            if abs(delta["delta"]) < MIN_SUSPECT_SECONDS:
                continue
            suspects.append({
                "kind": "stage",
                "subject": entry["key"],
                "stage": delta["key"],
                "delta_s": delta["delta"],
                "detail": (f"stage {delta['key']} "
                           f"{delta['delta']:+.3f}s {measure}"),
                "priority": 1,
            })
    for entry in wait_profiles:
        for delta in entry["terms"]:
            if delta["key"] == "wall_s":     # the sum, not a cause
                continue
            if abs(delta["delta"]) < MIN_SUSPECT_SECONDS:
                continue
            suspects.append({
                "kind": "wait",
                "subject": entry["session"],
                "stage": delta["key"],
                "delta_s": delta["delta"],
                "detail": (f"{_WAIT_NAMES.get(delta['key'], delta['key'])} "
                           f"{delta['delta']:+.3f}s on session "
                           f"{entry['session']}"),
                "priority": 1,
            })
    suspects.sort(key=lambda s: (s["priority"], -abs(s["delta_s"]),
                                 s["subject"], s["stage"] or ""))
    for rank, suspect in enumerate(suspects, start=1):
        suspect["rank"] = rank
    return suspects


# -- the top-level diff -------------------------------------------------------


def diff_bundles(a: RunBundle, b: RunBundle,
                 tolerance: float = DEFAULT_TOLERANCE,
                 context: int = DEFAULT_CONTEXT) -> Dict[str, Any]:
    """Compare two loaded bundles; returns the JSON-ready diff document.

    Raises :class:`DiffError` when the bundles are different kinds —
    a sweep and a scenario have no aligned planes to compare.
    Fingerprint differences within one kind are *reported*, never
    fatal: diffing a perturbed run against a baseline is the point.
    """
    if a.kind != b.kind:
        raise DiffError(
            f"cannot diff a {a.kind!r} bundle against a {b.kind!r} "
            f"bundle ({a.path} vs {b.path})")
    snapshot_a, snapshot_b = a.snapshot(), b.snapshot()
    counters = diff_counters(snapshot_a.get("counters", {}),
                             snapshot_b.get("counters", {}), tolerance)
    gauges = diff_counters(snapshot_a.get("gauges", {}),
                           snapshot_b.get("gauges", {}), tolerance)
    histograms = diff_histograms(snapshot_a.get("histograms", {}),
                                 snapshot_b.get("histograms", {}),
                                 tolerance)
    migrations = diff_migrations(a.migration_rows(), b.migration_rows(),
                                 tolerance)
    wait_profiles = diff_wait_profiles(a.wait_profiles(),
                                       b.wait_profiles(), tolerance)
    events_a, events_b = a.events(), b.events()
    divergence = first_divergence(events_a, events_b, context=context)
    suspects = build_suspects(migrations, wait_profiles)

    numeric = counters + gauges + histograms
    for entry in migrations:
        numeric.extend(entry["stage_deltas"])
        numeric.extend(entry["self_deltas"])
    for entry in wait_profiles:
        numeric.extend(entry["terms"])
    beyond_band = [entry for entry in numeric if not entry["within_band"]]
    outcome_flips = [entry for entry in migrations
                     if entry["outcome_changed"]]
    any_difference = bool(numeric or outcome_flips
                          or divergence is not None)
    if not any_difference:
        verdict = "identical"
    elif beyond_band or outcome_flips:
        verdict = "regressed"
    else:
        verdict = "within-band"
    return {
        "schema": 1,
        "kind": a.kind,
        "a": a.path,
        "b": b.path,
        "tolerance": tolerance,
        "fingerprint": {
            "matches": not fingerprint_differences(a.fingerprint,
                                                   b.fingerprint),
            "differences": {
                field: {"a": values[0], "b": values[1]}
                for field, values in fingerprint_differences(
                    a.fingerprint, b.fingerprint).items()},
        },
        "verdict": verdict,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
        "migrations": migrations,
        "wait_profiles": wait_profiles,
        "first_divergence": divergence,
        "evicted": {"a": evicted_by_section(events_a),
                    "b": evicted_by_section(events_b)},
        "suspects": suspects,
    }


def exit_code(document: Dict[str, Any]) -> int:
    """The CI exit code for a diff document: 0/1/2."""
    return {"identical": EXIT_IDENTICAL,
            "within-band": EXIT_WITHIN_BAND}.get(document["verdict"],
                                                 EXIT_REGRESSED)


# -- rendering ----------------------------------------------------------------


def _format_divergence_event(event: Optional[Dict[str, Any]]) -> str:
    if event is None:
        return "(stream ended)"
    attrs = event.get("attrs", {})
    extras = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
    return (f"#{event.get('seq')} [{event.get('t', 0.0):10.4f}] "
            f"{event.get('device')}: {event.get('kind')} {extras}").rstrip()


def render_diff(document: Dict[str, Any], limit: int = 10) -> str:
    """The human-readable report ``flux-sim diff`` prints."""
    lines: List[str] = []
    lines.append(f"diff ({document['kind']}): {document['a']} vs "
                 f"{document['b']}")
    fingerprint = document["fingerprint"]
    if fingerprint["matches"]:
        lines.append("fingerprints match (same config, env and sha)")
    else:
        lines.append("fingerprint differences:")
        for field, values in fingerprint["differences"].items():
            lines.append(f"  {field}: {values['a']!r} -> {values['b']!r}")
    for side, entries in document["evicted"].items():
        for entry in entries:
            device = (f"{entry['section']}/{entry['device']}"
                      if entry["section"] else entry["device"])
            lines.append(f"log incomplete: {entry['events']} events "
                         f"evicted on {device} ({side.upper()})")

    if document["verdict"] == "identical":
        lines.append("verdict: IDENTICAL (empty diff: every plane "
                     "byte-equal)")
        return "\n".join(lines)

    if document["suspects"]:
        lines.append("")
        lines.append("ranked suspects:")
        for suspect in document["suspects"][:limit]:
            lines.append(f"  #{suspect['rank']:<2} {suspect['delta_s']:+9.3f}s"
                         f"  {suspect['detail']}"
                         + (f" ({suspect['subject']})"
                            if suspect["kind"] == "stage" else ""))
        hidden = len(document["suspects"]) - limit
        if hidden > 0:
            lines.append(f"  ... {hidden} more")

    tolerance = document["tolerance"]
    for section, title in (("counters", "counter deltas"),
                           ("gauges", "gauge deltas"),
                           ("histograms", "histogram deltas")):
        entries = document[section]
        if not entries:
            continue
        lines.append("")
        lines.append(f"{title} ({len(entries)}):")
        shown = sorted(entries, key=lambda e: (-abs(e["delta"]), e["key"]))
        for entry in shown[:limit]:
            lines.append("  " + format_delta(entry["key"], entry["a"],
                                             entry["b"], tolerance))
        if len(entries) > limit:
            lines.append(f"  ... {len(entries) - limit} more")

    for entry in document["wait_profiles"]:
        lines.append("")
        lines.append(f"wait profile, session {entry['session']}:")
        for delta in entry["terms"]:
            lines.append("  " + format_delta(delta["key"], delta["a"],
                                             delta["b"], tolerance))

    divergence = document["first_divergence"]
    if divergence is not None:
        lines.append("")
        lines.append(f"first event divergence at merged index "
                     f"{divergence['index']} "
                     f"(A has {divergence['a_total']} events, "
                     f"B has {divergence['b_total']}):")
        for event in divergence["context"]:
            lines.append("    " + _format_divergence_event(event))
        lines.append("  A: " + _format_divergence_event(divergence["a"]))
        lines.append("  B: " + _format_divergence_event(divergence["b"]))

    lines.append("")
    lines.append(f"verdict: {document['verdict'].upper().replace('-', ' ')} "
                 f"(tolerance ±{tolerance:.0%})")
    return "\n".join(lines)
