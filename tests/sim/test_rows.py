"""The per-migration row format: one field table, one reader."""

import re
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.migration.postmortem import critical_path_from_metrics
from repro.sim.rows import (
    FIELDS,
    SESSION_FIELDS,
    SESSION_REPORT_FIELDS,
    BundleError,
    migration_rows,
    session_fields,
    write_fields,
)


class TestWriter:
    def test_formatters_round_once(self):
        report = SimpleNamespace(
            stages={"transfer": 1.23456789}, total_seconds=1.23456789,
            chunk_hit_rate=0.123456, wait_profile={"wall_s": 2.0000001,
                                                   "active_s": 1.0},
            refusal=SimpleNamespace(value="multi-process"))
        row = write_fields(report, ("stages", "total_seconds",
                                    "chunk_hit_rate", "wait_profile",
                                    "refusal"))
        assert row == {"stages": {"transfer": 1.234568},
                       "total_seconds": 1.234568, "chunk_hit_rate": 0.1235,
                       "wait_profile": {"active_s": 1.0, "wall_s": 2.0},
                       "refusal": "multi-process"}
        assert list(row["wait_profile"]) == ["active_s", "wall_s"]

    def test_fields_keep_the_order_named(self):
        names = ("transferred_bytes", "stages", "critical_path")
        assert list(write_fields(None, names)) == list(names)

    def test_no_report_values_are_fresh(self):
        first, second = session_fields(None), session_fields(None)
        assert list(first) == list(SESSION_FIELDS + SESSION_REPORT_FIELDS)
        assert first["stages"] == {} and first["critical_path"] == []
        assert first["transferred_bytes"] == 0
        assert first["stages"] is not second["stages"]
        assert first["critical_path"] is not FIELDS["critical_path"].none

    def test_session_without_report(self):
        outcome = SimpleNamespace(
            status="rejected", session="", refusal=None, submitted=1.0,
            queued_seconds=0.0, wait_profile=None, report=None)
        row = session_fields(outcome)
        assert row["status"] == "rejected"
        assert row["session"] is None
        assert row["stages"] == {} and row["total_seconds"] is None


class TestReader:
    def test_four_shapes_and_their_keys(self):
        session = {"home": "h", "guest": "g", "package": "p",
                   "status": "migrated", "session": "h/p@1"}
        document = {
            "migration": {"package": "m", "success": True},
            "migrations": [{"pair": "a to b", "package": "s"}],
            "scenario": {"sessions": [session]},
            "fleet": {"sessions": [{**session, "site": "site0",
                                    "guest": None, "status": "refused"}]},
        }
        rows = migration_rows(document)
        assert [row["key"] for row in rows] == [
            "m", "a to b/s", "h->g:p", "site0/h->-:p"]
        assert [row["outcome"] for row in rows] == [
            "migrated", "migrated", "migrated", "refused"]

    def test_rows_carry_path_profile_and_dominant_stage(self):
        path = [{"name": "transfer", "seconds": 2.0, "self_seconds": 1.5}]
        (row,) = migration_rows({"migrations": [{
            "pair": "a", "package": "p", "stages": {"transfer": 2},
            "dominant_stage": "transfer", "critical_path": path,
            "wait_profile": {"wall_s": 2}}]})
        assert row["critical_path"] == path
        assert row["self_seconds"] == {"transfer": 1.5}
        assert row["dominant_stage"] == "transfer"
        assert row["wait_profile"] == {"wall_s": 2.0}
        assert row["total_seconds"] == 2.0      # from the stages

    def test_missing_shapes_read_as_no_rows(self):
        assert migration_rows({}) == []
        assert migration_rows({"fleet": {}, "scenario": None}) == []

    @pytest.mark.parametrize("document, where", [
        ([1], "doc: expected dict, got list"),
        ({"migrations": [3]}, "doc: migrations[0]: expected dict, got int"),
        ({"migrations": {"a": 1}}, "doc: migrations: expected list"),
        ({"migration": "x"}, "doc: migration: expected dict, got str"),
        ({"scenario": [1]}, "doc: scenario: expected dict"),
        ({"fleet": {"sessions": [{"stages": [1.0]}]}},
         "doc: fleet.sessions[0].stages: expected dict, got list"),
        ({"migrations": [{"stages": {"transfer": "1"}}]},
         "migrations[0].stages.transfer: expected a number, got str"),
        ({"scenario": {"sessions": [{"wait_profile": [1]}]}},
         "sessions[0].wait_profile: expected dict, got list"),
        ({"migration": {"critical_path": [1]}},
         "migration.critical_path[0]: expected dict, got int"),
        ({"migration": {"critical_path": {"name": "x"}}},
         "migration.critical_path: expected list, got dict"),
        ({"migration": {"critical_path": [{"self_seconds": 1}]}},
         "critical_path[0].name: expected str, got NoneType"),
        ({"migrations": [{"total_seconds": True}]},
         "migrations[0].total_seconds: expected a number, got bool"),
        ({"fleet": {"sessions": [{"status": ["migrated"]}]}},
         "sessions[0].status: expected str, got list"),
    ])
    def test_wrong_json_types_raise_located_errors(self, document, where):
        with pytest.raises(BundleError, match=re.escape(where)):
            migration_rows(document, source="doc")


class TestCriticalPathSelection:
    SWEEP = {"migrations": [
        {"pair": "x", "package": "a", "critical_path": [{"name": "x"}]},
        {"pair": "x", "package": "b", "critical_path": [{"name": "y"}]},
    ]}

    def test_one_migration_needs_no_choosing(self):
        document = {"migration": {"package": "a",
                                  "critical_path": [{"name": "x"}]}}
        assert critical_path_from_metrics(document, "b", "s") == [
            {"name": "x"}]

    def test_session_then_package_then_first(self):
        assert critical_path_from_metrics(self.SWEEP) == [{"name": "x"}]
        assert critical_path_from_metrics(self.SWEEP, "b") == [{"name": "y"}]
        assert critical_path_from_metrics(self.SWEEP, "c") is None
        assert critical_path_from_metrics(self.SWEEP, session="x/a@1") \
            is None

    def test_rows_without_sessions_select_by_pair(self):
        sweep = {"migrations": [
            {**row, "pair": pair} for pair in ("x", "y")
            for row in self.SWEEP["migrations"]]}
        sweep["migrations"][3]["critical_path"] = [{"name": "z"}]
        assert critical_path_from_metrics(sweep, "b", "h/b@4", pair="y") \
            == [{"name": "z"}]
        assert critical_path_from_metrics(sweep, "c", "h/c@4",
                                          pair="y") is None

    def test_rejects_non_objects(self):
        with pytest.raises(BundleError, match="expected dict, got list"):
            critical_path_from_metrics([1])


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=8)
NUMBER = st.integers() | st.floats(allow_nan=False)


def mostly(strategy):
    """``strategy`` three times in four, else any JSON value."""
    return st.one_of(strategy, strategy, strategy, JSON)


SECONDS = mostly(st.dictionaries(st.sampled_from(["transfer", "wall_s"])
                                 | st.text(max_size=3), mostly(NUMBER),
                                 max_size=3))
#: A critical-path entry, with or without each key the reader uses.
ENTRY = st.fixed_dictionaries({}, optional={
    "name": mostly(st.text(max_size=3)), "self_seconds": mostly(NUMBER)})
#: Rows built from the real field names, each field well-formed or of
#: any JSON type, so the property reaches every field check.
ROW = mostly(st.fixed_dictionaries({}, optional={
    **{name: mostly(st.text(max_size=3)) for name in (
        "package", "pair", "site", "home", "guest", "session",
        "faulted_stage", "dominant_stage")},
    "status": mostly(st.sampled_from(["migrated", "refused"])),
    "success": mostly(st.booleans()),
    "stages": SECONDS, "wait_profile": SECONDS,
    "total_seconds": mostly(NUMBER),
    "critical_path": mostly(st.lists(mostly(ENTRY), max_size=3)),
}))
ROWS = mostly(st.lists(ROW, max_size=3))
SESSIONS = mostly(st.fixed_dictionaries({}, optional={"sessions": ROWS}))
DOCUMENT = mostly(st.fixed_dictionaries({}, optional={
    "migration": ROW, "migrations": ROWS, "scenario": SESSIONS,
    "fleet": SESSIONS}))


@settings(max_examples=600, deadline=None)
@given(document=DOCUMENT, package=st.none() | st.text(max_size=2),
       session=st.none() | st.text(max_size=2))
def test_reader_returns_rows_or_a_bundle_error(document, package, session):
    try:
        rows = migration_rows(document)
    except BundleError:
        return
    for row in rows:
        assert isinstance(row["key"], str)
        assert isinstance(row["outcome"], str)
        assert isinstance(row["critical_path"], list)
        assert isinstance(row["total_seconds"], (int, float))
        for seconds in (row["stages"], row["self_seconds"],
                        row["wait_profile"] or {}):
            assert all(isinstance(v, float) for v in seconds.values())
    critical_path_from_metrics(document, package, session)
