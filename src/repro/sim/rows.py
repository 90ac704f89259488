"""Per-migration rows: the one format every metrics document shares.

A metrics document holds one row per migration attempt, in one of four
shapes: ``{"migration": {...}}`` (migrate), ``{"migrations": [...]}``
(sweep), ``{"scenario": {"sessions": [...]}}`` and ``{"fleet":
{"sessions": [...]}}``.  :data:`FIELDS` is the one writer: each field's
formatter and its value in a row with no report.  Documents name the
fields they write, in order.  :func:`migration_rows` is the one reader;
a row of the wrong JSON type raises :class:`BundleError` naming where
it is.  The sim layer imports nothing from ``core``, so fields read a
report's (or a scenario outcome's) attributes by name.
"""

from __future__ import annotations

from collections import defaultdict
from copy import copy
from typing import Any, Callable, Dict, List, NamedTuple, Sequence

from repro.sim.shapes import check


class BundleError(Exception):
    """Unreadable, corrupt, or schema-incompatible bundles or documents."""


class Field(NamedTuple):
    #: The JSON value of the source's attribute of the same name.
    format: Callable[[Any], Any] = lambda value: value
    #: The field's value in a row with no report.
    none: Any = None


def _seconds(value: float) -> float:
    return round(value, 6)


FIELDS: Dict[str, Field] = {
    "home": Field(), "guest": Field(), "package": Field(),
    "success": Field(), "status": Field(),
    "session": Field(lambda label: label or None),
    "refusal": Field(lambda refusal: refusal.value if refusal else None),
    "submitted": Field(_seconds), "queued_seconds": Field(_seconds),
    "wait_profile": Field(lambda profile: (
        {k: round(v, 6) for k, v in sorted(profile.items())}
        if profile else None)),
    "faulted_stage": Field(), "total_seconds": Field(_seconds),
    "stages": Field(lambda stages: {s: round(v, 6)
                                    for s, v in stages.items()}, {}),
    "dominant_stage": Field(), "critical_path": Field(none=[]),
    "transferred_bytes": Field(none=0),
    "chunk_hit_rate": Field(lambda rate: round(rate, 4)),
}

#: The row ``flux-sim migrate`` writes, read off the report.
MIGRATE_FIELDS = ("package", "success", "refusal", "faulted_stage", "stages",
                  "dominant_stage", "critical_path", "transferred_bytes",
                  "chunk_hit_rate", "wait_profile")
#: A sweep row after its ``pair`` and ``package``, read off the report.
SWEEP_FIELDS = ("total_seconds", "stages", "dominant_stage", "critical_path",
                "transferred_bytes", "chunk_hit_rate")
#: A scenario or fleet session's route, read off its ``SessionSpec``.
ROUTE_FIELDS = ("home", "guest", "package")
#: A session's fields read off its outcome, then off the outcome's report.
SESSION_FIELDS = ("status", "session", "refusal", "submitted",
                  "queued_seconds", "wait_profile")
SESSION_REPORT_FIELDS = ("stages", "critical_path", "faulted_stage",
                         "total_seconds", "transferred_bytes")


def write_fields(source: Any, names: Sequence[str]) -> Dict[str, Any]:
    """The ``names`` fields of ``source`` (a report, an outcome, a session
    spec), in order; each at its no-report value when ``source`` is None."""
    if source is None:
        return {name: copy(FIELDS[name].none) for name in names}
    return {name: FIELDS[name].format(getattr(source, name))
            for name in names}


def session_fields(outcome: Any) -> Dict[str, Any]:
    """A scenario outcome's session and report fields; every field at
    its no-report value when ``outcome`` is None (an unplaced demand)."""
    return {**write_fields(outcome, SESSION_FIELDS),
            **write_fields(outcome and outcome.report,
                           SESSION_REPORT_FIELDS)}


#: What the reader requires of a row: every other field it reads is
#: copied as it is.
_ROW = {"stages": ({str: float}, None), "wait_profile": ({str: float}, None),
        "critical_path": ([{"name": str, "self_seconds?": float}], None),
        "total_seconds": (float, None), "status?": str}
_SESSIONS = ({"sessions": ([_ROW], None)}, None)
_DOCUMENT = {"migration": (_ROW, None), "migrations": ([_ROW], None),
             "scenario": _SESSIONS, "fleet": _SESSIONS}


def _normalize(row: Dict[str, Any], template: str) -> Dict[str, Any]:
    path = row.get("critical_path") or []
    stages = {name: float(seconds)
              for name, seconds in (row.get("stages") or {}).items()}
    if "status" in row:                         # scenario/fleet session
        outcome = row["status"]
    elif row.get("success") is False:
        outcome = "faulted" if row.get("faulted_stage") else "refused"
    else:
        outcome = "migrated"
    total, profile = row.get("total_seconds"), row.get("wait_profile")
    # Join-key parts read "?" when missing and "-" when null.
    key = template.format_map(defaultdict(lambda: "?", (
        (k, "-" if v is None else v) for k, v in row.items())))
    return {
        "key": key, "package": row.get("package", "?"), "outcome": outcome,
        "faulted_stage": row.get("faulted_stage"),
        "session": row.get("session"), "stages": stages,
        "self_seconds": {entry["name"]: float(entry["self_seconds"])
                         for entry in path if "self_seconds" in entry},
        "total_seconds": (sum(stages.values()) if total is None
                          else float(total)),
        "dominant_stage": row.get("dominant_stage"), "critical_path": path,
        "wait_profile": ({name: float(seconds)
                          for name, seconds in profile.items()}
                         if profile else None),
    }


def migration_rows(document: Any, source: str = "metrics document"
                   ) -> List[Dict[str, Any]]:
    """One normalized row per migration attempt in a metrics document.

    Keys: ``key`` (the join key for diffing), ``package``, ``outcome``,
    ``stages`` (stage -> wall seconds), ``self_seconds`` (stage ->
    critical-path self time), ``total_seconds``, ``faulted_stage``,
    ``session`` (scenario and fleet), ``dominant_stage``,
    ``critical_path`` and ``wait_profile`` (None when absent).  A
    document, row or row field of the wrong JSON type raises
    :class:`BundleError` naming ``source`` and the row's place.
    """
    check(document, _DOCUMENT, source, BundleError)
    migration = document.get("migration")
    scenario, fleet = document.get("scenario"), document.get("fleet")
    # Where each shape keeps its rows, and the row's join key, stable
    # across runs of one configuration.
    shapes = (([] if migration is None else [migration], "{package}"),
              (document.get("migrations"), "{pair}/{package}"),
              (scenario and scenario.get("sessions"),
               "{home}->{guest}:{package}"),
              (fleet and fleet.get("sessions"),
               "{site}/{home}->{guest}:{package}"))
    return [_normalize(row, template)
            for rows, template in shapes for row in rows or ()]
