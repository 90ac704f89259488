"""The experiment harness itself: sweep mechanics, formatting."""

import pytest

from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
from repro.apps import MIGRATABLE_APPS, app_by_title
from repro.experiments import harness
from repro.experiments.harness import (
    format_table,
    pair_label,
    run_pair,
    run_sweep,
)


class TestRunPair:
    def test_deterministic_across_runs(self):
        apps = [app_by_title("ZEDGE"), app_by_title("eBay")]
        first = run_pair(NEXUS_4, NEXUS_7_2013, apps, seed=5).reports
        second = run_pair(NEXUS_4, NEXUS_7_2013, apps, seed=5).reports
        for package in first:
            assert first[package].total_seconds == \
                second[package].total_seconds
            assert first[package].transferred_bytes == \
                second[package].transferred_bytes

    def test_seed_changes_timings(self):
        apps = [app_by_title("ZEDGE")]
        a = run_pair(NEXUS_4, NEXUS_7_2013, apps, seed=1)
        b = run_pair(NEXUS_4, NEXUS_7_2013, apps, seed=2)
        (ra,) = a.reports.values()
        (rb,) = b.reports.values()
        # Link jitter differs, non-transfer stages are identical.
        assert ra.stages["transfer"] != rb.stages["transfer"]
        assert ra.stages["checkpoint"] == rb.stages["checkpoint"]

    def test_failures_raise_unless_included(self):
        from repro.core.cria.errors import MigrationError
        apps = [app_by_title("Facebook")]
        with pytest.raises(MigrationError):
            run_pair(NEXUS_4, NEXUS_7_2013, apps, seed=1)
        outcome = run_pair(NEXUS_4, NEXUS_7_2013, apps, seed=1,
                           include_failures=True)
        assert outcome.reports == {}
        assert len(outcome.refusals) == 1


class TestSweepCache:
    """No sweep is cached: every call runs its own, so the telemetry
    knobs and the worker count at the call take effect."""

    APPS = [app_by_title("ZEDGE")]
    PAIRS = [(NEXUS_4, NEXUS_7_2013), (NEXUS_7_2013, NEXUS_4)]

    def test_knobs_at_the_call_take_effect(self, monkeypatch):
        monkeypatch.setenv("FLUX_METRICS", "0")
        quiet = run_sweep(apps=self.APPS, pairs=self.PAIRS)
        assert not quiet.merged_metrics()["counters"]
        monkeypatch.delenv("FLUX_METRICS")
        loud = run_sweep(apps=self.APPS, pairs=self.PAIRS)
        assert loud.merged_metrics()["counters"]

    def test_worker_count_at_the_call_takes_effect(self, monkeypatch):
        calls = []
        real_fan_out = harness.fan_out

        def spy(fn, tasks, workers, start_method=None):
            calls.append(workers)
            return real_fan_out(fn, tasks, workers, start_method)

        monkeypatch.setattr(harness, "fan_out", spy)
        serial = run_sweep(apps=self.APPS, pairs=self.PAIRS, workers=1)
        pooled = run_sweep(apps=self.APPS, pairs=self.PAIRS, workers=2)
        assert calls == [1, 2]
        assert pooled.reports.keys() == serial.reports.keys()

    def test_sweep_covers_all_cells(self, sweep):
        assert len(sweep.reports) == len(MIGRATABLE_APPS) * 4
        assert len(sweep.pair_labels) == 4


class TestParallelSweep:
    APPS = None     # full catalog

    def test_parallel_bit_identical_to_serial(self):
        serial = run_sweep()
        parallel = run_sweep(workers=4)
        assert serial.pair_labels == parallel.pair_labels
        assert serial.reports.keys() == parallel.reports.keys()
        for key, report in serial.reports.items():
            other = parallel.reports[key]
            assert report.stages == other.stages, key
            assert report.transferred_bytes == other.transferred_bytes, key
            assert report.total_seconds == other.total_seconds, key
        assert serial.refusals.keys() == parallel.refusals.keys()

    def test_workers_clamped_to_pair_count(self):
        from repro.experiments.harness import resolve_workers
        assert resolve_workers(16, 4) == 4
        assert resolve_workers(0, 4) == 1
        assert resolve_workers(None, 4) == 1

    def test_env_knob_sets_default(self, monkeypatch):
        from repro.experiments.harness import (
            SWEEP_WORKERS_ENV,
            sweep_workers,
        )
        monkeypatch.delenv(SWEEP_WORKERS_ENV, raising=False)
        assert sweep_workers(None) == 1   # env unset -> serial
        monkeypatch.setenv(SWEEP_WORKERS_ENV, "3")
        assert sweep_workers(None) == 3
        monkeypatch.setenv(SWEEP_WORKERS_ENV, "not-a-number")
        with pytest.raises(ValueError, match=SWEEP_WORKERS_ENV):
            sweep_workers(None)
        apps = [app_by_title("ZEDGE")]
        pairs = [(NEXUS_4, NEXUS_7_2013)]
        monkeypatch.setenv(SWEEP_WORKERS_ENV, "2")
        a = run_sweep(apps=apps, pairs=pairs)
        b = run_sweep(apps=apps, pairs=pairs, workers=1)
        (ra,), (rb,) = a.reports.values(), b.reports.values()
        assert ra.total_seconds == rb.total_seconds


class TestFormatting:
    def test_pair_label(self):
        assert pair_label(NEXUS_4, NEXUS_7_2013) == \
            "Nexus 4 to Nexus 7 (2013)"

    def test_format_table_alignment(self):
        text = format_table(("a", "long-header"),
                            [("xxxx", 1), ("y", 22)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="
        header, rule, row1, row2 = lines[2:]
        assert header.startswith("a    ")
        assert set(rule) <= {"-", " "}
        assert len({len(header), len(rule)}) == 1

    def test_every_experiment_renders(self):
        """Smoke: render() of each experiment yields non-empty text."""
        from repro.experiments import ALL_EXPERIMENTS
        for name, module in ALL_EXPERIMENTS.items():
            if name in ("fig16",):      # slow-ish; covered elsewhere
                continue
            text = module.render()
            assert isinstance(text, str) and len(text) > 100, name
