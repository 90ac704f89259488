"""Scenario runner: byte-identity, concurrency, admission, contention."""

import dataclasses
import json

import pytest

from repro.android.hardware.profiles import PAPER_DEVICE_PAIRS
from repro.apps.catalog import MIGRATABLE_APPS
from repro.core.cria.errors import MigrationRefusal
from repro.core.migration.postmortem import build_postmortem
from repro.experiments import contention
from repro.experiments.harness import run_pair
from repro.experiments.scenario import (
    ScenarioError,
    ScenarioSpec,
    SessionSpec,
    run_scenario,
)

HOME_P, GUEST_P = PAPER_DEVICE_PAIRS[0]
APPS = MIGRATABLE_APPS[:3]


def _reports_json(reports, strip=()):
    as_dicts = {k: dataclasses.asdict(v) for k, v in reports.items()}
    for report in as_dicts.values():
        for key in strip:
            report.pop(key, None)
    return json.dumps(as_dicts, sort_keys=True, default=str)


def _pair_world(sessions, **kwargs):
    return ScenarioSpec(devices=(("home", HOME_P), ("guest", GUEST_P)),
                        sessions=tuple(sessions), **kwargs)


def _four_device_world(sessions, **kwargs):
    return ScenarioSpec(
        devices=(("home1", HOME_P), ("guest1", GUEST_P),
                 ("home2", HOME_P), ("guest2", GUEST_P)),
        sessions=tuple(sessions), **kwargs)


class TestByteIdentity:
    def test_single_pair_scenario_matches_run_pair_exactly(self):
        """The whole acceptance contract: reports, metrics snapshots and
        event streams from a queued scenario are byte-identical to the
        legacy synchronous ``run_pair`` on the same profiles and seed."""
        pair = run_pair(HOME_P, GUEST_P, APPS, seed=0)
        # Tiny staggered starts pin the canonical order to catalog
        # order; same-pair sessions queue, so they run back to back
        # exactly as run_pair migrates them.
        scenario = run_scenario(_pair_world(
            SessionSpec("home", "guest", app.package, start=i * 1e-6)
            for i, app in enumerate(APPS)))
        # wait_profile is scenario-layer enrichment (run_pair has no
        # admission queue to decompose); everything else is bit-equal.
        assert _reports_json(scenario.reports, strip=("wait_profile",)) \
            == _reports_json(pair.reports, strip=("wait_profile",))
        assert json.dumps(scenario.metrics, sort_keys=True) == \
            json.dumps(pair.metrics, sort_keys=True)
        # Admission events live on the world-level recorder, leaving the
        # per-device streams byte-identical to the synchronous pair run.
        device_events = [e for e in scenario.events
                         if e["device"] != "world"]
        assert json.dumps(device_events, sort_keys=True) == \
            json.dumps(list(pair.events), sort_keys=True)

    def test_single_session_outcome_shape(self):
        app = APPS[0]
        result = run_scenario(_pair_world(
            [SessionSpec("home", "guest", app.package)]))
        outcome = result.outcome_for(app.package)
        assert outcome.status == "migrated"
        assert outcome.session == f"home/{app.package}@0"
        assert outcome.queued_seconds == 0.0
        assert outcome.report.success


class TestSubmissionOrderIndependence:
    def test_reversed_submission_produces_identical_telemetry(self):
        sessions = [SessionSpec(h, g, APPS[0].package)
                    for h, g in (("home1", "guest1"), ("home2", "guest2"))]
        forward = run_scenario(_four_device_world(sessions))
        backward = run_scenario(_four_device_world(reversed(sessions)))
        assert json.dumps(list(forward.events), sort_keys=True) == \
            json.dumps(list(backward.events), sort_keys=True)
        assert json.dumps(forward.metrics, sort_keys=True) == \
            json.dumps(backward.metrics, sort_keys=True)

    def test_same_pair_queue_order_is_canonical(self):
        sessions = [SessionSpec("home", "guest", app.package)
                    for app in APPS]
        forward = run_scenario(_pair_world(sessions))
        backward = run_scenario(_pair_world(reversed(sessions)))
        assert json.dumps(list(forward.events), sort_keys=True) == \
            json.dumps(list(backward.events), sort_keys=True)


class TestAdmissionControl:
    def test_queue_serialises_same_pair_sessions(self):
        result = run_scenario(_pair_world(
            SessionSpec("home", "guest", app.package)
            for app in APPS[:2]))
        # Equal starts: canonical order (package-sorted) decides who
        # goes first; result.sessions is already in that order.
        first, second = result.sessions
        assert first.status == second.status == "migrated"
        assert first.queued_seconds == 0.0
        assert second.queued_seconds > 0.0
        assert second.started >= first.finished

    def test_refuse_rejects_the_concurrent_session(self):
        result = run_scenario(_pair_world(
            (SessionSpec("home", "guest", app.package)
             for app in APPS[:2]), admission="refuse"))
        first, second = result.sessions
        assert first.status == "migrated"
        assert second.status == "rejected"
        assert second.refusal is MigrationRefusal.DEVICE_BUSY
        assert second.report is None and second.session == ""

    def test_refuse_allows_disjoint_pairs(self):
        sessions = [SessionSpec(h, g, APPS[0].package)
                    for h, g in (("home1", "guest1"), ("home2", "guest2"))]
        result = run_scenario(_four_device_world(sessions,
                                                 admission="refuse"))
        assert all(o.status == "migrated" for o in result.sessions)


class TestSpecValidation:
    def test_unknown_device_rejected(self):
        with pytest.raises(ScenarioError, match="unknown devices"):
            _pair_world([SessionSpec("home", "nowhere", APPS[0].package)])

    def test_duplicate_device_names_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate"):
            ScenarioSpec(devices=(("a", HOME_P), ("a", GUEST_P)),
                         sessions=())

    def test_self_migration_rejected(self):
        with pytest.raises(ScenarioError, match="itself"):
            _pair_world([SessionSpec("home", "home", APPS[0].package)])

    def test_unknown_admission_policy_rejected(self):
        with pytest.raises(ScenarioError, match="admission"):
            _pair_world([], admission="coin-flip")

    def test_negative_start_rejected(self):
        with pytest.raises(ScenarioError, match="negative"):
            _pair_world([SessionSpec("home", "guest", APPS[0].package,
                                     start=-1.0)])


class TestExplainSegmentation:
    def test_interleaved_sessions_do_not_cross_contaminate(self):
        sessions = [SessionSpec(h, g, APPS[0].package)
                    for h, g in (("home1", "guest1"), ("home2", "guest2"))]
        result = run_scenario(_four_device_world(sessions))
        labels = [o.session for o in result.sessions]
        assert len(set(labels)) == 2
        for outcome in result.sessions:
            pm = build_postmortem(result.events, session=outcome.session)
            assert pm["session"] == outcome.session
            assert pm["outcome"] == "succeeded"
            assert pm["home"] == outcome.spec.home
            assert pm["guest"] == outcome.spec.guest
            # Every event in the segment that carries a session label
            # carries THIS session's label.
            chain_sessions = {
                e.get("attrs", {}).get("session")
                for e in pm["causal_chain"] + pm["tail"]}
            assert chain_sessions <= {outcome.session, None}

    def test_unknown_session_label_raises(self):
        from repro.core.migration.postmortem import PostmortemError
        result = run_scenario(_pair_world(
            [SessionSpec("home", "guest", APPS[0].package)]))
        with pytest.raises(PostmortemError, match="no migration session"):
            build_postmortem(result.events, session="home/nope@9")


class TestContentionExperiment:
    @pytest.fixture(scope="class")
    def result(self):
        return contention.run()

    def test_fair_share_slowdown(self, result):
        assert len(result.rows) == 2
        for row in result.rows:
            # Full overlap would be exactly 2.0x; the non-wire stages
            # never contend, so the transfers only partially overlap.
            assert 1.3 <= row.slowdown <= 2.2

    def test_wire_bytes_conserved(self, result):
        # Contention spreads work over wall time; every session still
        # moves exactly its solo byte count.
        assert len({row.wire_bytes for row in result.rows}) == 1
        assert result.rows[0].wire_bytes > 0

    def test_deterministic_interleaving(self, result):
        assert result.deterministic
        assert len(result.events_digest) == 16

    def test_render_mentions_the_contract(self):
        text = contention.render()
        assert "slowdown" in text
        assert "submission-order independent: True" in text
