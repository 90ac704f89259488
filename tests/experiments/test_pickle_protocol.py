"""The picklable-outcome protocol behind the process-pool sweep.

Every value a sweep worker returns crosses a process boundary, so
everything in a :class:`PairOutcome` — reports with their span-derived
stages and critical paths, metrics snapshots, exported event streams,
and refusal errors — must survive ``pickle.dumps``/``loads`` *exactly*.
"Exactly" is asserted two ways: structural equality, and byte equality
of the sorted-key JSON rendering (the same rendering the byte-identity
determinism tests use).
"""

import dataclasses
import json
import pickle

import pytest

from repro.android.hardware.profiles import PAPER_DEVICE_PAIRS
from repro.apps.catalog import TOP_APPS
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.migration.migration import MigrationReport
from repro.experiments.harness import PairOutcome, run_pair


def _roundtrip(value):
    return pickle.loads(pickle.dumps(value))


def _json_bytes(value):
    return json.dumps(value, sort_keys=True, default=str).encode()


@pytest.fixture(scope="module")
def outcome() -> PairOutcome:
    # The full catalog with include_failures=True is the shape with
    # every field populated: successful reports AND recorded refusals.
    home, guest = PAPER_DEVICE_PAIRS[0]
    return run_pair(home, guest, TOP_APPS, seed=0,
                    include_failures=True)


class TestMigrationReport:
    def test_report_roundtrips_structurally(self, outcome):
        for report in outcome.reports.values():
            clone = _roundtrip(report)
            assert dataclasses.asdict(clone) == dataclasses.asdict(report)

    def test_span_derived_fields_roundtrip(self, outcome):
        successes = [r for r in outcome.reports.values() if r.success]
        assert successes, "fixture pair produced no successful migrations"
        for report in successes:
            clone = _roundtrip(report)
            assert clone.stages and clone.stages == report.stages
            assert clone.critical_path == report.critical_path
            assert clone.dominant_stage == report.dominant_stage

    def test_faulted_stage_roundtrips(self):
        report = MigrationReport(
            package="com.example", home="home", guest="guest",
            success=False, refusal=MigrationRefusal.LINK_DOWN,
            stages={"checkpoint": 1.25, "transfer": 0.5},
            faulted_stage="transfer")
        clone = _roundtrip(report)
        assert clone.faulted_stage == "transfer"
        assert clone.refusal is MigrationRefusal.LINK_DOWN
        assert dataclasses.asdict(clone) == dataclasses.asdict(report)

    def test_report_json_bytes_identical(self, outcome):
        for report in outcome.reports.values():
            clone = _roundtrip(report)
            assert (_json_bytes(dataclasses.asdict(clone))
                    == _json_bytes(dataclasses.asdict(report)))


class TestMetricsAndEvents:
    def test_metrics_snapshot_roundtrips(self, outcome):
        clone = _roundtrip(outcome.metrics)
        assert clone == outcome.metrics
        assert _json_bytes(clone) == _json_bytes(outcome.metrics)

    def test_event_stream_roundtrips(self, outcome):
        clone = _roundtrip(outcome.events)
        assert clone == outcome.events
        assert _json_bytes(list(clone)) == _json_bytes(list(outcome.events))


class TestPairOutcome:
    def test_whole_outcome_roundtrips(self, outcome):
        clone = _roundtrip(outcome)
        assert clone.refusals == outcome.refusals
        assert clone.metrics == outcome.metrics
        assert clone.events == outcome.events
        assert clone.timeline and clone.timeline == outcome.timeline
        assert set(clone.reports) == set(outcome.reports)
        for package, report in outcome.reports.items():
            assert (dataclasses.asdict(clone.reports[package])
                    == dataclasses.asdict(report))

    def test_timeline_is_a_required_field(self):
        # No class-level default shared by every instance.
        assert "timeline" not in PairOutcome._field_defaults

    def test_refusals_are_enum_members(self, outcome):
        assert outcome.refusals, "full-catalog pair had no refusals"
        clone = _roundtrip(outcome)
        for package, refusal in clone.refusals.items():
            # Enum pickling preserves identity, not just equality.
            assert refusal is outcome.refusals[package]


class TestMigrationError:
    def test_error_roundtrips_with_reason_and_detail(self):
        error = MigrationError(MigrationRefusal.MULTI_PROCESS, "two procs")
        clone = _roundtrip(error)
        assert clone.reason is MigrationRefusal.MULTI_PROCESS
        assert clone.detail == "two procs"
        assert str(clone) == str(error)

    def test_error_roundtrips_without_detail(self):
        error = MigrationError(MigrationRefusal.LINK_DOWN)
        clone = _roundtrip(error)
        assert clone.reason is MigrationRefusal.LINK_DOWN
        assert clone.detail == ""
        assert clone.is_fault

    def test_every_refusal_reason_roundtrips(self):
        for reason in MigrationRefusal:
            clone = _roundtrip(MigrationError(reason, "d"))
            assert clone.reason is reason
