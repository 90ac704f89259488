"""Every row the one reader returns matches the report it was written from.

One real run of each kind writes its run bundle through the CLI;
the test keeps the reports (or scenario outcomes) the writer was given
and checks each row :func:`repro.sim.rows.migration_rows` reads back:
join key, outcome, stages, critical path and wait profile.
"""

import pytest

import repro.cli as cli
from repro.cli import main
from repro.experiments import bench, fleet, scenario
from repro.sim.bundle import RunBundle

TELEMETRY_ENV = ("FLUX_METRICS", "FLUX_EVENTS", "FLUX_EVENTS_CAP",
                 "FLUX_TIMELINE", "FLUX_SWEEP_WORKERS")


@pytest.fixture(autouse=True)
def default_knobs(monkeypatch):
    for name in TELEMETRY_ENV:
        monkeypatch.delenv(name, raising=False)


def _spy(monkeypatch, module, name):
    """Wrap ``module.name``; returns the list of (args, result) calls."""
    calls = []
    original = getattr(module, name)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, spy)
    return calls


def _read_rows(path):
    """The metrics document of the bundle at ``path``, and its rows."""
    bundle = RunBundle.load(str(path))
    return bundle.metrics_document(), bundle.migration_rows()


def _check_report(row, report, wait_profile=None):
    assert row["package"] == report.package
    assert row["stages"] == pytest.approx(report.stages, abs=1e-6)
    assert row["critical_path"] == report.critical_path
    assert row["faulted_stage"] == report.faulted_stage
    assert row["total_seconds"] == pytest.approx(report.total_seconds,
                                                 abs=1e-6)
    if wait_profile is None:
        assert row["wait_profile"] is None
    else:
        assert row["wait_profile"] == pytest.approx(wait_profile, abs=1e-6)


@pytest.mark.parametrize("fault, code, outcome", [
    ([], 0, "migrated"),
    (["--drop-link-after-bytes", "200000"], 1, "faulted"),
], ids=["success", "link-fault"])
def test_migrate(fault, code, outcome, tmp_path, monkeypatch, capsys):
    calls = _spy(monkeypatch, cli, "_migrate_metrics_document")
    path = tmp_path / "run"
    assert main(["migrate", "--app", "Candy Crush", "--bundle-out",
                 str(path)] + fault) == code
    capsys.readouterr()
    ((_, report), _), = calls
    _, (row,) = _read_rows(path)
    assert row["key"] == report.package
    assert row["outcome"] == outcome
    assert row["dominant_stage"] == report.dominant_stage
    _check_report(row, report)
    if outcome == "faulted":
        assert row["faulted_stage"] == "transfer"


def test_sweep_and_its_gated_section(sweep, tmp_path, capsys):
    bundle = tmp_path / "sweep"
    assert main(["sweep", "--bundle-out", str(bundle)]) == 0
    capsys.readouterr()
    loaded = RunBundle.load(str(bundle))
    rows = loaded.migration_rows()
    assert len(rows) == len(sweep.reports) == 64
    for row, (pair, package) in zip(rows, sorted(sweep.reports)):
        report = sweep.reports[(pair, package)]
        assert row["key"] == f"{pair}/{package}"
        assert row["outcome"] == "migrated"
        assert row["dominant_stage"] == report.dominant_stage
        _check_report(row, report)
    assert (bench.build_payload(sweep, {})["sim"]
            == bench.sim_payload_from_bundle(loaded)["sim"])


def test_explain_shows_a_sweep_rows_critical_path(sweep, tmp_path, capsys):
    from repro.core.migration.postmortem import postmortem_from_bundle
    bundle = tmp_path / "sweep"
    assert main(["sweep", "--bundle-out", str(bundle)]) == 0
    capsys.readouterr()
    assert main(["explain", str(bundle)]) == 0
    assert "critical path: " in capsys.readouterr().out
    # Sweep rows carry no session: the row is the post-mortem's pair's.
    postmortem = postmortem_from_bundle(RunBundle.load(str(bundle)))
    report = sweep.reports[(postmortem["pair"], postmortem["package"])]
    assert postmortem["critical_path"] == report.critical_path != []


def _check_session(row, outcome):
    assert row["outcome"] == outcome.status
    assert row["session"] == (outcome.session or None)
    if outcome.report is None:
        assert row["stages"] == {} and row["critical_path"] == []
        assert row["wait_profile"] == (
            pytest.approx(outcome.wait_profile, abs=1e-6)
            if outcome.wait_profile else None)
    else:
        _check_report(row, outcome.report, outcome.wait_profile)


def test_default_scenario(tmp_path, monkeypatch, capsys):
    calls = _spy(monkeypatch, scenario, "run_scenario")
    path = tmp_path / "run"
    assert main(["scenario", "--bundle-out", str(path)]) == 0
    capsys.readouterr()
    ((_, result),) = calls
    _, rows = _read_rows(path)
    assert len(rows) == len(result.sessions) == 2
    for row, outcome in zip(rows, result.sessions):
        spec = outcome.spec
        assert row["key"] == f"{spec.home}->{spec.guest}:{spec.package}"
        _check_session(row, outcome)


def test_pinned_fleet(tmp_path, monkeypatch, capsys):
    calls = _spy(monkeypatch, fleet, "run_scenario")
    path = tmp_path / "run"
    assert main(["fleet", "--devices", "12", "--arrivals", "40",
                 "--seed", "7", "--bundle-out", str(path)]) == 0
    capsys.readouterr()
    by_route = {(o.spec.home, o.spec.package): o
                for _, result in calls for o in result.sessions}
    document, rows = _read_rows(path)
    written = document["fleet"]["sessions"]
    assert len(rows) == len(written) == 40
    unplaced = 0
    for row, raw in zip(rows, written):
        assert row["key"] == (f"{raw['site']}/{raw['home']}->"
                              f"{raw['guest'] or '-'}:{raw['package']}")
        outcome = by_route.get((raw["home"], raw["package"]))
        if outcome is None:             # refused or shed before running
            unplaced += 1
            assert row["outcome"] == raw["status"]
            assert row["stages"] == {} and row["critical_path"] == []
            assert row["wait_profile"] is None
            assert row["total_seconds"] == 0.0
        else:
            _check_session(row, outcome)
    assert len(by_route) + unplaced == 40
