"""flux-sim explain: post-mortems reconstructed from the causal event log.

The satellite contract: for each fault plan (link drop, restore failure)
the post-mortem names the faulted stage, the triggering event, and a
non-empty causal chain whose ``#seq`` / ``txn=`` references resolve back
to the run bundle's ``events.jsonl``.
"""

import re

import pytest

from repro.cli import main
from repro.core.migration.postmortem import (
    PostmortemError,
    build_postmortem,
    critical_path_from_metrics,
    render_postmortem,
    segment_migrations,
)
from repro.sim.bundle import RunBundle
from repro.sim.telemetry import EVENTS_CAP_ENV


def _seqs_in(text):
    return {int(m) for m in re.findall(r"#(\d+)", text)}


def _txns_in(text):
    return {int(m) for m in re.findall(r"txn=(\d+)", text)}


class TestLinkFaultExplain:
    @pytest.fixture
    def bundle(self, tmp_path):
        bundle = str(tmp_path / "run")
        assert main(["migrate", "--app", "WhatsApp",
                     "--drop-link-after-bytes", "1000000",
                     "--bundle-out", bundle]) == 1
        return bundle

    def test_explain_names_stage_trigger_and_chain(self, bundle, capsys):
        capsys.readouterr()
        assert main(["explain", bundle]) == 0
        out = capsys.readouterr().out
        assert "FAULTED in transfer stage" in out
        assert "link-down" in out
        # The triggering event heads the causal chain.
        assert "causal chain:" in out
        chain = out.split("causal chain:")[1]
        assert "link.fault" in chain.split("\n")[1]
        assert "-> " in chain and "stage.fault" in chain
        assert "migration.rolled_back" in chain
        assert "stage.rollback" in chain
        assert "<- faulted" in out

    def test_printed_ids_resolve_to_the_jsonl(self, bundle, capsys):
        capsys.readouterr()
        assert main(["explain", bundle]) == 0
        out = capsys.readouterr().out
        log = RunBundle.load(bundle).events()
        seqs = {e["seq"] for e in log}
        txns = {e["txn"] for e in log if e["txn"] is not None}
        printed_seqs = _seqs_in(out)
        assert printed_seqs and printed_seqs <= seqs
        assert _txns_in(out) <= txns

    def test_tail_length_flag(self, bundle, capsys):
        capsys.readouterr()
        assert main(["explain", bundle, "--last", "3"]) == 0
        out = capsys.readouterr().out
        assert "last 3 events before the fault:" in out

    def test_metrics_annotates_critical_path(self, bundle, capsys):
        capsys.readouterr()
        assert main(["explain", bundle]) == 0
        assert "critical path:" in capsys.readouterr().out


class TestRestoreFaultExplain:
    def test_explain_names_stage_trigger_and_chain(self, tmp_path,
                                                   capsys):
        bundle = str(tmp_path / "run")
        assert main(["migrate", "--app", "WhatsApp",
                     "--fail-restore-after", "3",
                     "--bundle-out", bundle]) == 1
        capsys.readouterr()
        assert main(["explain", bundle]) == 0
        out = capsys.readouterr().out
        assert "FAULTED in restore stage" in out
        assert "restore-failed" in out
        chain = out.split("causal chain:")[1]
        assert "cria.restore_fault" in chain.split("\n")[1]
        assert "stage.fault" in chain
        assert "migration.rolled_back" in chain
        # Guest-side restore steps attribute to the stage via context.
        log = RunBundle.load(bundle).events()
        steps = [e for e in log if e["kind"] == "cria.restore_step"]
        assert steps
        assert all(e["device"] == "guest" for e in steps)
        assert all(e["attrs"]["stage"] == "restore" for e in steps)


class TestSuccessAndSelection:
    def test_successful_migration_explains_cleanly(self, tmp_path,
                                                   capsys):
        bundle = str(tmp_path / "run")
        assert main(["migrate", "--app", "ZEDGE",
                     "--bundle-out", bundle]) == 0
        capsys.readouterr()
        assert main(["explain", bundle]) == 0
        out = capsys.readouterr().out
        assert "SUCCEEDED" in out
        assert "events per stage:" in out
        assert "causal chain:" not in out

    def test_package_filter_unknown_package_exits(self, tmp_path, capsys):
        bundle = str(tmp_path / "run")
        assert main(["migrate", "--app", "ZEDGE",
                     "--bundle-out", bundle]) == 0
        with pytest.raises(SystemExit):
            main(["explain", bundle, "--package", "com.nope"])

    def test_empty_log_exits_with_hint(self, tmp_path):
        from repro.sim.bundle import collect_fingerprint, write_bundle
        path = write_bundle(str(tmp_path / "run"), kind="migrate",
                            fingerprint=collect_fingerprint("migrate"),
                            events=[])
        with pytest.raises(SystemExit, match="--bundle-out with "
                                             "FLUX_EVENTS enabled"):
            main(["explain", path])

    def test_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="no such bundle"):
            main(["explain", str(tmp_path / "nope")])


class TestEvictionGaps:
    """A device whose first retained event has ``seq = k > 1`` lost
    ``k - 1`` events to its ring; ``explain`` says so."""

    def test_capped_migrate_bundle_names_the_gap(self, tmp_path,
                                                 monkeypatch, capsys):
        # One migrate run emits at most 24 events per device, so only a
        # ring smaller than that evicts; migration.start goes first.
        # The session's later events still explain the migration.
        monkeypatch.setenv(EVENTS_CAP_ENV, "8")
        bundle = str(tmp_path / "run")
        assert main(["migrate", "--app", "Candy Crush",
                     "--bundle-out", bundle]) == 0
        capsys.readouterr()
        assert main(["explain", bundle]) == 0
        out = capsys.readouterr().out
        assert out.startswith("post-mortem: com.king.candycrushsaga "
                              "(home -> guest) session=home/")
        assert "outcome: SUCCEEDED" in out
        gaps = [line for line in out.splitlines()
                if line.startswith("log incomplete:")]
        assert gaps == ["log incomplete: 5 events evicted on guest",
                        "log incomplete: 11 events evicted on home"]
        assert "migration.start evicted" in out
        assert out.index(gaps[-1]) < out.index("events per stage:")

    def test_capped_scenario_bundle_prints_the_gap_before_the_chain(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(EVENTS_CAP_ENV, "30")
        bundle = str(tmp_path / "run")
        assert main(["scenario", "--device", "h1=nexus4",
                     "--device", "g1=nexus7_2013",
                     "--migrate", "h1:g1:bubble",
                     "--migrate", "h1:g1:flappy@30",
                     "--bundle-out", bundle]) == 0
        capsys.readouterr()
        assert main(["explain", bundle]) == 0
        out = capsys.readouterr().out
        assert "com.dotgears.flappybird" in out
        gaps = [line for line in out.splitlines()
                if line.startswith("log incomplete:")]
        assert gaps == ["log incomplete: 4 events evicted on g1",
                        "log incomplete: 14 events evicted on h1"]
        assert out.index(gaps[-1]) < out.index("events per stage:")

    def test_default_cap_prints_nothing_new(self, tmp_path, capsys):
        bundle = str(tmp_path / "run")
        assert main(["migrate", "--app", "Candy Crush",
                     "--bundle-out", bundle]) == 0
        capsys.readouterr()
        assert main(["explain", bundle]) == 0
        out = capsys.readouterr().out
        assert "log incomplete" not in out
        assert "critical path" in out

    def test_gaps_are_counted_within_the_section(self):
        events = [
            _event(1, 0.0, "migration.start", package="a", home="home",
                   guest="guest"),
            _event(7, 0.1, "stage.start", device="guest", stage="restore"),
            _event(8, 0.2, "stage.start", device="guest", stage="restore"),
            _event(2, 0.3, "migration.done", package="a"),
        ]
        other = dict(_event(40, 0.0, "x", device="guest"), pair="p1")
        pm = build_postmortem([other] + events)
        assert pm["evicted"] == {"guest": 6}
        assert "log incomplete: 6 events evicted on guest" in \
            render_postmortem(pm)


def _event(seq, t, kind, device="home", txn=None, **attrs):
    return {"seq": seq, "t": t, "device": device, "kind": kind,
            "txn": txn, "span": None, "attrs": attrs}


class TestSegmentation:
    def test_segments_split_on_lifecycle_events(self):
        events = [
            _event(1, 0.0, "binder.transact", txn=1),
            _event(2, 1.0, "migration.start", package="a", home="home",
                   guest="guest"),
            _event(3, 2.0, "migration.done", package="a"),
            _event(4, 3.0, "migration.start", package="b", home="home",
                   guest="guest"),
            _event(5, 4.0, "stage.fault", stage="transfer",
                   reason="link-down"),
            _event(6, 5.0, "migration.rolled_back", package="b"),
        ]
        segments = segment_migrations(events)
        assert [s["package"] for s in segments] == ["a", "b"]
        assert [s["outcome"] for s in segments] == ["succeeded", "faulted"]

    def test_refusal_and_incomplete_outcomes(self):
        events = [
            _event(1, 0.0, "migration.start", package="a"),
            _event(2, 1.0, "migration.refused", stage="preparation",
                   reason="multi-process"),
            _event(3, 2.0, "migration.rolled_back", package="a"),
            _event(4, 3.0, "migration.start", package="b"),
        ]
        segments = segment_migrations(events)
        assert [s["outcome"] for s in segments] == ["refused", "incomplete"]

    def test_build_picks_most_recent_failure(self):
        events = [
            _event(1, 0.0, "migration.start", package="a"),
            _event(2, 1.0, "link.fault", bytes=3),
            _event(3, 1.0, "stage.fault", stage="transfer",
                   reason="link-down"),
            _event(4, 2.0, "migration.rolled_back", package="a"),
            _event(5, 3.0, "migration.start", package="b"),
            _event(6, 4.0, "migration.done", package="b",
                   total_seconds=1.0),
        ]
        postmortem = build_postmortem(events)
        assert postmortem["package"] == "a"
        assert postmortem["outcome"] == "faulted"
        assert postmortem["faulted_stage"] == "transfer"
        kinds = [e["kind"] for e in postmortem["causal_chain"]]
        assert kinds == ["link.fault", "stage.fault",
                         "migration.rolled_back"]
        # ...while --package selects explicitly.
        assert build_postmortem(events, package="b")["outcome"] == \
            "succeeded"

    def test_no_migrations_raises(self):
        with pytest.raises(PostmortemError):
            build_postmortem([_event(1, 0.0, "binder.transact")])

    def test_render_mentions_multiple_migrations(self):
        events = [
            _event(1, 0.0, "migration.start", package="a"),
            _event(2, 1.0, "migration.done", package="a"),
            _event(3, 2.0, "migration.start", package="b"),
            _event(4, 3.0, "migration.done", package="b"),
        ]
        text = render_postmortem(build_postmortem(events))
        assert "2 migrations in the log" in text
        assert "most recent migration" in text


class TestCriticalPathFromMetrics:
    def test_migrate_document_shape(self):
        path = [{"name": "transfer", "seconds": 1.0}]
        doc = {"migration": {"critical_path": path}}
        assert critical_path_from_metrics(doc) == path

    def test_sweep_document_shape_selects_package(self):
        doc = {"migrations": [
            {"package": "a", "critical_path": [{"name": "x"}]},
            {"package": "b", "critical_path": [{"name": "y"}]},
        ]}
        assert critical_path_from_metrics(doc, "b") == [{"name": "y"}]
        assert critical_path_from_metrics(doc) == [{"name": "x"}]
        assert critical_path_from_metrics({}) is None
