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


#: Where each shape keeps its rows (``[]``: a list of rows) and the
#: row's join key, stable across runs of one configuration.
_SHAPES = (("migration", "{package}"),
           ("migrations[]", "{pair}/{package}"),
           ("scenario.sessions[]", "{home}->{guest}:{package}"),
           ("fleet.sessions[]", "{site}/{home}->{guest}:{package}"))


def _expect(value: Any, kind: Any, where: str, what: str = "") -> Any:
    if not isinstance(value, kind) or isinstance(value, bool):
        raise BundleError(f"{where}: expected {what or kind.__name__}, "
                          f"got {type(value).__name__}")
    return value


def _number(value: Any, where: str) -> float:
    return float(_expect(value, (int, float), where, "a number"))


def _seconds_map(value: Any, where: str) -> Dict[str, float]:
    return {name: _number(seconds, f"{where}.{name}")
            for name, seconds in _expect(value, dict, where).items()}


def _normalize(where: str, row: Any, template: str) -> Dict[str, Any]:
    row = _expect(row, dict, where)
    path = _expect(row.get("critical_path") or [], list,
                   f"{where}.critical_path")
    self_seconds = {}
    for index, entry in enumerate(path):
        at = f"{where}.critical_path[{index}]"
        if "self_seconds" in _expect(entry, dict, at):
            name = _expect(entry.get("name"), str, f"{at}.name")
            self_seconds[name] = _number(entry["self_seconds"],
                                         f"{at}.self_seconds")
    stages = _seconds_map(row.get("stages") or {}, f"{where}.stages")
    if "status" in row:                         # scenario/fleet session
        outcome = _expect(row["status"], str, f"{where}.status")
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
        "self_seconds": self_seconds,
        "total_seconds": (sum(stages.values()) if total is None
                          else _number(total, f"{where}.total_seconds")),
        "dominant_stage": row.get("dominant_stage"), "critical_path": path,
        "wait_profile": (_seconds_map(profile, f"{where}.wait_profile")
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
    rows: List[Dict[str, Any]] = []
    _expect(document, dict, source)
    for path, template in _SHAPES:
        single = not path.endswith("[]")
        *outer, name = path.rstrip("[]").split(".")
        value = document
        for member in outer:            # scenario, fleet: an object
            value = _expect(value.get(member) or {}, dict,
                            f"{source}: {member}")
        value, where = value.get(name), f"{source}: {path.rstrip('[]')}"
        if value is None:
            continue
        for index, row in enumerate([value] if single else
                                    _expect(value, list, where)):
            rows.append(_normalize(where if single else f"{where}[{index}]",
                                   row, template))
    return rows
