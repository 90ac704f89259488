"""Contention attribution: wait profiles sum to wall time, blame is
reconstructible from the event log alone, and the timeline plane's kill
switch leaves the simulation byte-identical."""

import json

import pytest

from repro.android.hardware.profiles import PAPER_DEVICE_PAIRS
from repro.apps.catalog import MIGRATABLE_APPS
from repro.core.migration.postmortem import (
    PostmortemError,
    build_blame,
)
from repro.experiments.scenario import (
    ScenarioSpec,
    SessionSpec,
    run_scenario,
)
from repro.sim.telemetry import TIMELINE_ENV

HOME_P, GUEST_P = PAPER_DEVICE_PAIRS[0]
APPS = MIGRATABLE_APPS[:2]

#: Event attrs round to 6 decimals, so log-reconstructed seconds match
#: the live profile to ~1e-6, not machine epsilon.
LOG_TOLERANCE = 5e-6

PROFILE_KEYS = {"wall_s", "admission_queue_s", "resource_wait_s",
                "link_dilation_s", "active_s"}


def _queued_scenario():
    """Two same-pair sessions: the second queues behind the first."""
    return run_scenario(ScenarioSpec(
        devices=(("home", HOME_P), ("guest", GUEST_P)),
        sessions=tuple(SessionSpec("home", "guest", app.package)
                       for app in APPS)))


def _contended_scenario():
    """Two disjoint pairs sharing one medium: both transfers dilate."""
    sessions = tuple(SessionSpec(h, g, APPS[0].package)
                     for h, g in (("home1", "guest1"), ("home2", "guest2")))
    return run_scenario(ScenarioSpec(
        devices=(("home1", HOME_P), ("guest1", GUEST_P),
                 ("home2", HOME_P), ("guest2", GUEST_P)),
        sessions=sessions))


def _assert_sums_to_wall(profile):
    decomposed = (profile["admission_queue_s"] + profile["resource_wait_s"]
                  + profile["link_dilation_s"] + profile["active_s"])
    assert decomposed == pytest.approx(profile["wall_s"], abs=1e-9)


class TestDecomposition:
    @pytest.fixture(scope="class")
    def queued(self):
        return _queued_scenario()

    @pytest.fixture(scope="class")
    def contended(self):
        return _contended_scenario()

    def test_every_profile_sums_to_wall_time(self, queued, contended):
        for result in (queued, contended):
            for outcome in result.sessions:
                assert set(outcome.wait_profile) == PROFILE_KEYS
                _assert_sums_to_wall(outcome.wait_profile)

    def test_queued_session_blames_the_admission_queue(self, queued):
        first, second = queued.sessions
        assert first.wait_profile["admission_queue_s"] == 0.0
        # The second session queues for exactly the first's wall time.
        assert second.wait_profile["admission_queue_s"] == pytest.approx(
            first.wait_profile["wall_s"], abs=1e-9)
        assert second.queued_seconds == \
            second.wait_profile["admission_queue_s"]

    def test_contended_sessions_blame_link_dilation(self, contended):
        for outcome in contended.sessions:
            profile = outcome.wait_profile
            assert profile["admission_queue_s"] == 0.0
            assert profile["link_dilation_s"] > 0.0
            # Dilation alone never exceeds the extra wall time the
            # session observed over running its work uncontended.
            assert profile["link_dilation_s"] < profile["wall_s"]

    def test_profile_lands_on_the_report(self, queued):
        for outcome in queued.sessions:
            assert outcome.report.wait_profile == outcome.wait_profile

    def test_makespan_and_utilization(self, queued):
        assert queued.makespan > 0.0
        assert set(queued.device_utilization) == {"home", "guest"}
        for utilization in queued.device_utilization.values():
            assert 0.0 < utilization <= 1.0


class TestBlameFromTheLogAlone:
    @pytest.fixture(scope="class")
    def queued(self):
        return _queued_scenario()

    @pytest.fixture(scope="class")
    def contended(self):
        return _contended_scenario()

    def _assert_blame_matches(self, result, outcome):
        blame = build_blame(result.events, outcome.session)
        profile = outcome.wait_profile
        live = {
            "queued": profile["admission_queue_s"]
            + profile["resource_wait_s"],
            "link dilation": profile["link_dilation_s"],
            "own work": profile["active_s"],
        }
        assert {e["kind"] for e in blame["entries"]} == set(live)
        for entry in blame["entries"]:
            assert entry["seconds"] == pytest.approx(
                live[entry["kind"]], abs=LOG_TOLERANCE)
        assert blame["wall_s"] == pytest.approx(
            profile["wall_s"], abs=LOG_TOLERANCE)

    def test_blame_reproduces_queued_profiles(self, queued):
        for outcome in queued.sessions:
            self._assert_blame_matches(queued, outcome)

    def test_blame_reproduces_contended_profiles(self, contended):
        for outcome in contended.sessions:
            self._assert_blame_matches(contended, outcome)

    def test_blame_names_the_blocking_session(self, queued):
        first, second = queued.sessions
        blame = build_blame(queued.events, second.session)
        (queued_entry,) = [e for e in blame["entries"]
                           if e["kind"] == "queued"]
        assert first.session in queued_entry["detail"]

    def test_entries_rank_most_expensive_first(self, queued, contended):
        for result in (queued, contended):
            for outcome in result.sessions:
                blame = build_blame(result.events, outcome.session)
                seconds = [e["seconds"] for e in blame["entries"]]
                assert seconds == sorted(seconds, reverse=True)

    def test_unknown_session_raises(self, queued):
        with pytest.raises(PostmortemError, match="no migration session"):
            build_blame(queued.events, "home/nope@9")


class TestTimelineKillSwitch:
    def _digest(self, result):
        reports = {
            outcome.session: outcome.report.stages
            for outcome in result.sessions}
        return json.dumps({
            "reports": reports,
            "metrics": result.metrics,
            "events": list(result.events),
        }, sort_keys=True, default=str)

    def test_disabling_the_timeline_changes_nothing(self, monkeypatch):
        monkeypatch.setenv(TIMELINE_ENV, "1")
        with_timeline = _queued_scenario()
        monkeypatch.setenv(TIMELINE_ENV, "0")
        without = _queued_scenario()
        assert self._digest(with_timeline) == self._digest(without)
        # Profiles come from the scheduler ledger, not the timeline.
        for enabled, disabled in zip(with_timeline.sessions,
                                     without.sessions):
            assert enabled.wait_profile == disabled.wait_profile
        assert without.timeline == {}
        assert with_timeline.timeline

    def test_enabled_scenario_collects_the_expected_series(self,
                                                           monkeypatch):
        monkeypatch.setenv(TIMELINE_ENV, "1")
        result = _queued_scenario()
        names = {key.partition("{")[0] for key in result.timeline}
        assert {"link/share", "medium/active_flows",
                "resource/queue_depth",
                "scheduler/sessions_in_flight"} <= names

    def test_repeated_runs_export_identical_series(self, monkeypatch):
        monkeypatch.setenv(TIMELINE_ENV, "1")
        first = _contended_scenario()
        second = _contended_scenario()
        assert json.dumps(first.timeline, sort_keys=True) == \
            json.dumps(second.timeline, sort_keys=True)

    def test_pair_run_is_byte_identical_with_timeline_off(self,
                                                          monkeypatch):
        from repro.experiments.harness import run_pair
        monkeypatch.setenv(TIMELINE_ENV, "1")
        with_timeline = run_pair(HOME_P, GUEST_P, APPS, seed=7)
        monkeypatch.setenv(TIMELINE_ENV, "0")
        without = run_pair(HOME_P, GUEST_P, APPS, seed=7)
        for package, report in with_timeline.reports.items():
            assert report.stages == without.reports[package].stages
        assert with_timeline.metrics == without.metrics
        assert with_timeline.events == without.events
        assert without.timeline == {}
        # The enabled pair run samples the links it transfers over.
        names = {key.partition("{")[0] for key in with_timeline.timeline}
        assert "link/busy" in names


class TestRefusedSessionExplain:
    def test_refused_postmortem_renders_without_percentages(self):
        """A refusal has 0.0s of stage time; the critical-path block
        must not divide by that zero (and shows no bogus shares)."""
        from repro.apps import app_by_title
        from repro.core.migration.postmortem import (
            build_postmortem,
            render_postmortem,
        )
        from repro.experiments.harness import run_pair
        outcome = run_pair(HOME_P, GUEST_P, [app_by_title("Facebook")],
                           seed=0, include_failures=True)
        assert outcome.refusals
        postmortem = build_postmortem(outcome.events)
        assert postmortem["outcome"] == "refused"
        text = render_postmortem(postmortem)
        assert "REFUSED" in text
        assert "%" not in text.split("causal chain")[0].split(
            "events per stage")[-1]
