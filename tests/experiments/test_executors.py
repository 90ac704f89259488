"""The sweep's fan-out: path selection, determinism, and the LRU cache.

The headline contract: ``run_sweep`` produces byte-identical results —
sorted-key JSON of the reports, merged metrics, and merged events — no
matter how many workers ran it (serial in-process, or a process pool)
or which multiprocessing start method launched the workers.
"""

import dataclasses
import json
import os

import pytest

from repro.android.hardware.profiles import (NEXUS_4, NEXUS_7_2012,
                                             NEXUS_7_2013)
from repro.apps import app_by_title
from repro.experiments import harness
from repro.experiments.harness import (
    SWEEP_WORKERS_ENV,
    SweepResult,
    clear_sweep_cache,
    fan_out,
    resolve_workers,
    run_sweep,
)

#: A small sweep (2 pairs x 2 apps) keeps the fan-out matrix fast.
PAIRS = [(NEXUS_4, NEXUS_7_2013), (NEXUS_7_2012, NEXUS_4)]
APPS = [app_by_title("ZEDGE"), app_by_title("eBay")]


def _fingerprint(sweep: SweepResult) -> bytes:
    """Sorted-key JSON bytes of everything a sweep produces."""
    doc = {
        "labels": sweep.pair_labels,
        "reports": {f"{pair}/{pkg}": dataclasses.asdict(report)
                    for (pair, pkg), report in sorted(sweep.reports.items())},
        "refusals": {f"{pair}/{pkg}": refusal.value
                     for (pair, pkg), refusal
                     in sorted(sweep.refusals.items())},
        "metrics": sweep.merged_metrics(),
        "events": sweep.merged_events(),
        "timelines": sweep.merged_timelines(),
    }
    return json.dumps(doc, sort_keys=True, default=str).encode()


def _sweep(**kwargs) -> SweepResult:
    return run_sweep(apps=APPS, pairs=PAIRS, use_cache=False, **kwargs)


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def serial_bytes(self):
        return _fingerprint(_sweep(workers=1))

    def test_process_matches_serial(self, serial_bytes):
        assert _fingerprint(_sweep(workers=2)) == serial_bytes

    def test_spawned_process_matches_serial(self, serial_bytes):
        # spawn children start from a fresh interpreter: this is the
        # strictest test of the picklable-outcome contract (fork
        # inherits every loaded module, spawn re-imports them).
        assert _fingerprint(_sweep(workers=2,
                                   start_method="spawn")) == serial_bytes

    def test_auto_workers_matches_serial(self, serial_bytes):
        assert _fingerprint(_sweep(workers="auto")) == serial_bytes


class TestExecutorSelection:
    def test_workers_auto_means_cpu_count(self):
        expected = min(os.cpu_count() or 1, 4)
        assert resolve_workers("auto", 4) == expected

    def test_explicit_arg_beats_env(self, monkeypatch):
        # An explicit worker count never reads FLUX_SWEEP_WORKERS.
        monkeypatch.setenv(SWEEP_WORKERS_ENV, "nonsense")
        assert _sweep(workers=1).reports

    def test_default_is_process_when_parallel(self):
        # workers alone picks the path: one worker is a plain loop in
        # this process, more run in child processes.
        tasks = [(), (), ()]
        assert fan_out(os.getpid, tasks, 1) == [os.getpid()] * 3
        assert os.getpid() not in fan_out(os.getpid, tasks, 2)

    def test_env_knob_drives_run_sweep(self, monkeypatch):
        monkeypatch.setenv(SWEEP_WORKERS_ENV, "nonsense")
        with pytest.raises(ValueError, match=SWEEP_WORKERS_ENV):
            _sweep()


class TestEnvInheritance:
    """Pool workers see the parent's telemetry knobs as they stand when
    the pool starts, under ``spawn`` too — nothing forwards them."""

    def test_spawned_workers_see_parent_env(self, monkeypatch):
        monkeypatch.setenv("FLUX_EVENTS", "0")
        serial = _sweep(workers=1)
        spawned = _sweep(workers=2, start_method="spawn")
        assert all(events == [] for events in spawned.pair_events.values())
        assert _fingerprint(spawned) == _fingerprint(serial)

    def test_spawned_workers_see_unset_env(self, monkeypatch):
        monkeypatch.setenv("FLUX_EVENTS", "0")
        monkeypatch.delenv("FLUX_EVENTS")
        spawned = _sweep(workers=2, start_method="spawn")
        assert all(spawned.pair_events.values())  # default: events on


class TestSweepCacheLRU:
    def test_cache_is_bounded(self):
        clear_sweep_cache()
        apps = [app_by_title("ZEDGE")]
        for seed in range(harness._SWEEP_CACHE_MAX + 4):
            run_sweep(apps=apps, pairs=[PAIRS[0]], seed=seed)
        assert len(harness._SWEEP_CACHE) == harness._SWEEP_CACHE_MAX

    def test_eviction_is_least_recently_used(self):
        clear_sweep_cache()
        apps = [app_by_title("ZEDGE")]
        first = run_sweep(apps=apps, pairs=[PAIRS[0]], seed=0)
        for seed in range(1, harness._SWEEP_CACHE_MAX):
            run_sweep(apps=apps, pairs=[PAIRS[0]], seed=seed)
        # Touch seed 0 so it is the most recently used, then overflow.
        assert run_sweep(apps=apps, pairs=[PAIRS[0]], seed=0) is first
        run_sweep(apps=apps, pairs=[PAIRS[0]],
                  seed=harness._SWEEP_CACHE_MAX)
        assert run_sweep(apps=apps, pairs=[PAIRS[0]], seed=0) is first
        # seed 1 was the LRU entry and must have been evicted.
        keys = list(harness._SWEEP_CACHE)
        assert not any(key[2] == 1 for key in keys)

    def test_clear_sweep_cache(self):
        run_sweep(apps=[app_by_title("ZEDGE")], pairs=[PAIRS[0]])
        assert harness._SWEEP_CACHE
        clear_sweep_cache()
        assert not harness._SWEEP_CACHE


class TestEmptySweepAverages:
    def test_zero_reports_average_to_zero(self):
        empty = SweepResult(pair_labels=["a to b"], app_titles=["X"],
                            reports={})
        assert empty.average_total_seconds() == 0.0
        assert empty.average_perceived_seconds() == 0.0
        assert empty.average_non_transfer_seconds() == 0.0
        assert empty.average_stage_fraction("transfer") == 0.0
