"""Metrics determinism: collection never perturbs the simulation, and
parallel sweeps aggregate metrics identically to serial ones."""

from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
from repro.apps import app_by_title
from repro.experiments.harness import run_pair, run_sweep
from repro.sim.metrics import empty_snapshot, rollup_counters, subsystems_in
from repro.sim.telemetry import METRICS_ENV


APPS = [app_by_title("ZEDGE"), app_by_title("eBay")]


class TestByteIdentity:
    def test_disabling_metrics_changes_nothing(self, monkeypatch):
        """The registry only reads the clock: the same seed must produce
        bit-identical migrations with collection on and off."""
        monkeypatch.setenv(METRICS_ENV, "1")
        with_metrics = run_pair(NEXUS_4, NEXUS_7_2013, APPS, seed=7)
        monkeypatch.setenv(METRICS_ENV, "0")
        without = run_pair(NEXUS_4, NEXUS_7_2013, APPS, seed=7)

        assert with_metrics.reports.keys() == without.reports.keys()
        for package, report in with_metrics.reports.items():
            other = without.reports[package]
            assert report.stages == other.stages, package
            assert report.total_seconds == other.total_seconds, package
            assert report.transferred_bytes == other.transferred_bytes
            assert report.dominant_stage == other.dominant_stage
            assert report.critical_path == other.critical_path

        # The disabled run really collected nothing...
        assert without.metrics == empty_snapshot()
        # ...and the enabled run really collected the instrumented layers.
        assert {"binder", "record", "replay", "chunks", "link", "cria"} \
            <= set(subsystems_in(with_metrics.metrics))

    def test_metrics_env_defaults_on(self, monkeypatch):
        monkeypatch.delenv(METRICS_ENV, raising=False)
        outcome = run_pair(NEXUS_4, NEXUS_7_2013, APPS, seed=7)
        assert outcome.metrics != empty_snapshot()


class TestParallelAggregation:
    def test_parallel_metrics_identical_to_serial(self):
        serial = run_sweep(use_cache=False, workers=1)
        parallel = run_sweep(use_cache=False, workers=4)
        assert serial.pair_metrics.keys() == parallel.pair_metrics.keys()
        for label, snapshot in serial.pair_metrics.items():
            assert snapshot == parallel.pair_metrics[label], label
        assert serial.merged_metrics() == parallel.merged_metrics()
        assert serial.app_metrics() == parallel.app_metrics()

    def test_merged_covers_every_pair(self):
        sweep = run_sweep()
        merged = sweep.merged_metrics()
        rollup = rollup_counters(merged)
        # Four pairs x sixteen apps, one checkpoint per migration.
        assert rollup["cria/checkpoints"] == len(sweep.reports)
        per_pair = sum(rollup_counters(s)["cria/checkpoints"]
                       for s in sweep.pair_metrics.values())
        assert per_pair == rollup["cria/checkpoints"]

    def test_app_partition_is_complete(self):
        sweep = run_sweep()
        apps = sweep.app_metrics()
        packages = {package for _, package in sweep.reports}
        assert packages <= set(apps)
        for package in packages:
            assert apps[package]["counters"], package
