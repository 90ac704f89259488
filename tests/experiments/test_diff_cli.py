"""End-to-end run bundles + ``flux-sim diff``: reflexivity and attribution.

The determinism contract says a run bundle is a pure function of the
configuration, so ``diff(A, A')`` over two same-config runs must be
*empty* (exit 0) for every bundle kind and worker count — and a perturbed
run (link fault, halved link rate) must exit 2 with the top suspect
naming the stage or session that actually regressed.
"""

import pytest

from repro.cli import _boot_pair, _migrate_metrics_document, main
from repro.experiments.harness import clear_sweep_cache
from repro.sim.bundle import RunBundle, collect_fingerprint, write_bundle
from repro.sim.diffing import (
    EXIT_IDENTICAL,
    EXIT_REGRESSED,
    diff_bundles,
)
from repro.sim.telemetry import export

BIBLE = "com.sirma.mobile.bible.android"
WITCH = "com.king.bubblewitch"


def _diff(a, b, **kwargs):
    return diff_bundles(RunBundle.load(a), RunBundle.load(b), **kwargs)


class TestReflexivity:
    def test_migrate_bundles_diff_empty(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["migrate", "--app", "bible", "--bundle-out", a]) == 0
        assert main(["migrate", "--app", "bible", "--bundle-out", b]) == 0
        assert main(["diff", a, b]) == EXIT_IDENTICAL
        out = capsys.readouterr().out
        assert "IDENTICAL" in out and "empty diff" in out

    def test_scenario_bundles_diff_empty(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b.tar.gz")
        assert main(["scenario", "--bundle-out", a]) == 0
        assert main(["scenario", "--bundle-out", b]) == 0
        assert main(["diff", a, b]) == EXIT_IDENTICAL

    def test_sweep_bundles_serial_vs_process_diff_empty(
            self, capsys, tmp_path):
        serial = str(tmp_path / "serial")
        process = str(tmp_path / "process.tar.gz")
        clear_sweep_cache()
        assert main(["sweep", "--workers", "1",
                     "--bundle-out", serial]) == 0
        clear_sweep_cache()     # the pooled run must not reuse it
        assert main(["sweep", "--workers", "2",
                     "--bundle-out", process]) == 0
        assert main(["diff", serial, process]) == EXIT_IDENTICAL
        document = _diff(serial, process)
        # The planes are byte-equal; only the declared worker count and
        # the path it selects differ (the sweep leaves os.environ alone).
        assert document["verdict"] == "identical"
        differing = set(document["fingerprint"]["differences"])
        assert differing == {"executor", "workers"}


def _api_migrate_bundle(path, link_factory=None):
    """A migrate bundle produced through the service API (so tests can
    hand the pipeline a perturbed link the CLI has no flag for)."""
    from repro.apps.catalog import app_by_package
    home, guest = _boot_pair("nexus4", "nexus7_2013", 0)
    spec = app_by_package(BIBLE)
    spec.install_and_launch(home)
    home.pairing_service.pair(guest)
    link = link_factory(home, guest) if link_factory else None
    report = home.migration_service.migrate(guest, BIBLE, link=link)
    metrics, events, timeline = export([home, guest])
    write_bundle(
        str(path),
        kind="migrate",
        fingerprint=collect_fingerprint("migrate", workload=[BIBLE],
                                        pairs=["nexus4->nexus7_2013"],
                                        seed=0),
        metrics=_migrate_metrics_document(metrics, report),
        events=events,
        timeline=timeline)
    return str(path)


def _halved_link(home, guest):
    from repro.android.net.link import Link, link_between
    base = link_between(home.profile, guest.profile, home.rng_factory)
    return Link(bandwidth_mbps=base.bandwidth_mbps / 2, name=base.name,
                rng_factory=home.rng_factory)


class TestAttribution:
    def test_link_fault_flips_the_outcome(self, capsys, tmp_path):
        clean, faulted = str(tmp_path / "clean"), str(tmp_path / "faulted")
        assert main(["migrate", "--app", "bible",
                     "--bundle-out", clean]) == 0
        assert main(["migrate", "--app", "bible",
                     "--drop-link-after-bytes", "100000",
                     "--bundle-out", faulted]) == 1
        assert main(["diff", clean, faulted]) == EXIT_REGRESSED
        out = capsys.readouterr().out
        assert "REGRESSED" in out

        document = _diff(clean, faulted)
        top = document["suspects"][0]
        assert top["kind"] == "outcome"
        assert top["subject"] == BIBLE
        assert top["stage"] == "transfer"
        assert "migrated -> faulted in stage transfer" in top["detail"]

    def test_halved_link_rate_blames_the_transfer_stage(self, tmp_path):
        baseline = _api_migrate_bundle(tmp_path / "baseline")
        halved = _api_migrate_bundle(tmp_path / "halved",
                                     link_factory=_halved_link)
        document = _diff(baseline, halved)
        assert document["verdict"] == "regressed"
        from repro.sim.diffing import exit_code
        assert exit_code(document) == EXIT_REGRESSED
        top = document["suspects"][0]
        assert top["kind"] == "stage"
        assert top["stage"] == "transfer"
        assert top["delta_s"] > 0

    def test_api_bundle_reflexivity(self, tmp_path):
        a = _api_migrate_bundle(tmp_path / "a")
        b = _api_migrate_bundle(tmp_path / "b")
        assert _diff(a, b)["verdict"] == "identical"


class TestSuspectStability:
    SESSIONS = [f"home:guest:{WITCH}@0", f"home:guest:{BIBLE}@1"]

    def _scenario(self, path, seed, sessions):
        args = ["scenario", "--seed", str(seed), "--bundle-out", str(path)]
        for session in sessions:
            args += ["--migrate", session]
        assert main(args) == 0
        return str(path)

    def test_suspects_stable_across_submission_order(self, capsys,
                                                     tmp_path):
        base = self._scenario(tmp_path / "base", 0, self.SESSIONS)
        forward = self._scenario(tmp_path / "fwd", 1, self.SESSIONS)
        backward = self._scenario(tmp_path / "rev", 1,
                                  list(reversed(self.SESSIONS)))
        # Submission order is not configuration: the two seed-1 bundles
        # are the same run, so each diff against the baseline ranks the
        # same suspects in the same order.
        assert _diff(forward, backward)["verdict"] == "identical"
        suspects_fwd = _diff(base, forward)["suspects"]
        suspects_rev = _diff(base, backward)["suspects"]
        assert suspects_fwd == suspects_rev
        assert suspects_fwd  # the seed perturbation did move something


class TestDiffCli:
    def test_json_out_writes_the_document(self, capsys, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["scenario", "--bundle-out", a]) == 0
        assert main(["scenario", "--seed", "1", "--bundle-out", b]) == 0
        out_path = tmp_path / "diff.json"
        code = main(["diff", a, b, "--json-out", str(out_path)])
        assert code == EXIT_REGRESSED
        import json
        document = json.loads(out_path.read_text())
        assert document["verdict"] == "regressed"
        assert document["suspects"]
        assert document["fingerprint"]["differences"]["seed"] == {
            "a": 0, "b": 1}

    def test_kind_mismatch_is_an_error(self, capsys, tmp_path):
        migrate = str(tmp_path / "m")
        scenario = str(tmp_path / "s")
        assert main(["migrate", "--app", "bible",
                     "--bundle-out", migrate]) == 0
        assert main(["scenario", "--bundle-out", scenario]) == 0
        with pytest.raises(SystemExit, match="cannot diff"):
            main(["diff", migrate, scenario])


class TestBundleConsumers:
    def test_explain_reads_a_bundle(self, capsys, tmp_path):
        bundle = str(tmp_path / "run")
        assert main(["scenario", "--bundle-out", bundle]) == 0
        capsys.readouterr()
        assert main(["explain", bundle]) == 0
        out = capsys.readouterr().out
        assert "post-mortem" in out
        assert "critical path" in out

    def test_explain_why_reads_a_bundle(self, capsys, tmp_path):
        bundle = str(tmp_path / "run")
        assert main(["scenario", "--bundle-out", bundle]) == 0
        capsys.readouterr()
        assert main(["explain", bundle,
                     "--why", f"home/{BIBLE}@1"]) == 0
        out = capsys.readouterr().out
        assert "queued behind" in out
