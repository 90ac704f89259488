"""The bench-check gate's comparison logic (pure, no sweep runs)."""

import pytest

from repro.experiments import bench


def _payload(**overrides):
    sim = {
        "avg_total_seconds": 10.0,
        "avg_perceived_seconds": 4.0,
        "avg_non_transfer_seconds": 2.0,
        "dominant_stages": {"transfer": 60, "checkpoint": 4},
        "counters": {"binder/transactions": 1000, "cria/pages": 5000},
    }
    sim.update(overrides.pop("sim", {}))
    wall = {
        "serial_s": 0.4,
        "process_s": 0.2,
        "process_speedup": 2.0,
        "speedup_pairs": 5,
    }
    wall.update(overrides.pop("wall", {}))
    payload = {
        "benchmark": "fig12_sweep_wall_clock",
        "schema": bench.SCHEMA_VERSION,
        "workers": 4,
        "executor": "process",
        "cpu_count": 4,
        "cells": 64,
        "wall": wall,
        "sim": sim,
    }
    payload.update(overrides)
    return payload


class TestCheck:
    def test_identical_payloads_pass(self):
        assert bench.check(_payload(), _payload()) == []

    def test_drift_within_band_passes(self):
        current = _payload(sim={"avg_total_seconds": 10.1})
        assert bench.check(current, _payload(), tolerance=0.02) == []

    def test_sim_timing_drift_fails(self):
        current = _payload(sim={"avg_total_seconds": 11.0})
        problems = bench.check(current, _payload(), tolerance=0.02)
        assert any("avg_total_seconds" in p for p in problems)

    def test_counter_drift_fails(self):
        current = _payload(
            sim={"counters": {"binder/transactions": 1500,
                              "cria/pages": 5000}})
        problems = bench.check(current, _payload())
        assert any("binder/transactions" in p for p in problems)

    def test_new_counter_not_in_baseline_is_fine(self):
        current = _payload(
            sim={"counters": {"binder/transactions": 1000,
                              "cria/pages": 5000,
                              "link/bytes_total": 123}})
        assert bench.check(current, _payload()) == []

    def test_cell_count_change_fails(self):
        problems = bench.check(_payload(cells=60), _payload())
        assert any("cells" in p for p in problems)

    def test_dominant_stage_mix_change_fails(self):
        current = _payload(
            sim={"dominant_stages": {"transfer": 59, "checkpoint": 5}})
        problems = bench.check(current, _payload())
        assert any("dominant-stage" in p for p in problems)

    def test_schema1_baseline_demands_update(self):
        baseline = {"benchmark": "fig12_sweep_wall_clock", "serial_s": 0.4}
        problems = bench.check(_payload(), baseline)
        assert len(problems) == 1
        assert "--update" in problems[0]

    def test_process_slowdown_fails_on_multicore(self):
        current = _payload(cpu_count=4,
                           wall={"process_speedup": 0.8})
        problems = bench.check(current, _payload())
        assert any("process-executor" in p for p in problems)

    def test_process_slowdown_skipped_on_single_core(self):
        current = _payload(cpu_count=1,
                           wall={"process_speedup": 0.8})
        assert bench.check(current, _payload()) == []

    def test_wall_never_gates_against_baseline(self):
        baseline = _payload(wall={"serial_s": 0.01, "process_s": 0.01})
        assert bench.check(_payload(), baseline) == []

    def test_zero_baseline_counter_gates_exactly(self):
        baseline = _payload(
            sim={"counters": {"binder/transactions": 0,
                              "cria/pages": 5000}})
        same = _payload(
            sim={"counters": {"binder/transactions": 0,
                              "cria/pages": 5000}})
        assert bench.check(same, baseline) == []
        grown = _payload(
            sim={"counters": {"binder/transactions": 1,
                              "cria/pages": 5000}})
        assert bench.check(grown, baseline) != []


class TestDeltaFormatter:
    """The gate reuses the diff engine's formatter (one drift, one
    wording everywhere) — failures name the band edge they broke."""

    def test_timing_problem_names_the_band_edge(self):
        current = _payload(sim={"avg_total_seconds": 11.0})
        problems = bench.check(current, _payload(), tolerance=0.02)
        (problem,) = [p for p in problems if "avg_total_seconds" in p]
        assert problem == ("avg_total_seconds: 10 -> 11 "
                           "(+10.0% outside the ±2% band [9.8, 10.2])")

    def test_counter_problem_names_the_band_edge(self):
        current = _payload(
            sim={"counters": {"binder/transactions": 1500,
                              "cria/pages": 5000}})
        (problem,) = bench.check(current, _payload())
        assert problem == ("counter binder/transactions: 1000 -> 1500 "
                           "(+50.0% outside the ±2% band [980, 1020])")

    def test_wording_matches_flux_sim_diff(self):
        from repro.sim.diffing import format_delta
        current = _payload(sim={"avg_total_seconds": 11.0})
        (problem,) = [p for p in bench.check(current, _payload())
                      if "avg_total_seconds" in p]
        assert problem == format_delta("avg_total_seconds", 10.0, 11.0,
                                       bench.SIM_TOLERANCE)


def _sweep_bundle(tmp_path, transfer=2.0):
    """A tiny synthetic sweep bundle whose sim payload is easy to gate."""
    from repro.sim.bundle import collect_fingerprint, write_bundle
    metrics = {
        "schema": 1,
        "totals": {"counters": {"link/bytes_total": 100}, "gauges": {},
                   "histograms": {}},
        "rollup": {"link/bytes_total": 100, "link/transfers": 2},
        "migrations": [
            {"pair": "a to b", "package": "com.one",
             "dominant_stage": "transfer",
             "stages": {"preparation": 3.0, "checkpoint": 3.0,
                        "transfer": transfer, "restore": 2.0},
             "total_seconds": 8.0 + transfer, "critical_path": []},
        ],
    }
    return write_bundle(str(tmp_path / f"sweep_{transfer}"), kind="sweep",
                        fingerprint=collect_fingerprint(
                            "sweep", executor="serial", workers=1),
                        metrics=metrics)


class TestBundleGate:
    def test_payload_from_bundle(self, tmp_path):
        from repro.sim.bundle import RunBundle
        payload = bench.sim_payload_from_bundle(
            RunBundle.load(_sweep_bundle(tmp_path)))
        assert payload["cells"] == 1
        assert payload["cpu_count"] == 1      # skips the speedup gate
        assert payload["wall"] == {}
        sim = payload["sim"]
        assert sim["avg_total_seconds"] == 10.0
        assert sim["avg_perceived_seconds"] == 4.0    # total - prep - ckpt
        assert sim["avg_non_transfer_seconds"] == 2.0
        assert sim["dominant_stages"] == {"transfer": 1}
        assert sim["counters"]["link/bytes_total"] == 100
        assert sim["counters"]["binder/transactions"] == 0

    def test_bundle_gates_against_a_baseline(self, tmp_path):
        import json

        from repro.sim.bundle import RunBundle
        bundle = _sweep_bundle(tmp_path)
        baseline = tmp_path / "BENCH_sweep.json"
        baseline.write_text(json.dumps(
            bench.sim_payload_from_bundle(RunBundle.load(bundle))))
        code, text = bench.run_check(baseline_path=baseline, bundle=bundle)
        assert code == 0
        assert "bench check OK" in text

        slow = _sweep_bundle(tmp_path, transfer=4.0)
        code, text = bench.run_check(baseline_path=baseline, bundle=slow)
        assert code == 1
        assert "BENCH CHECK FAILED" in text
        assert "avg_total_seconds" in text and "outside the ±2% band" in text

    def test_bundle_must_be_a_sweep(self, tmp_path):
        from repro.sim.bundle import collect_fingerprint, write_bundle
        bundle = write_bundle(str(tmp_path / "m"), kind="migrate",
                              fingerprint=collect_fingerprint("migrate"),
                              metrics={"schema": 1})
        code, text = bench.run_check(bundle=bundle)
        assert code == 2
        assert "expects a sweep bundle" in text

    def test_bundle_cannot_update_the_baseline(self, tmp_path):
        code, text = bench.run_check(bundle=_sweep_bundle(tmp_path),
                                     update=True)
        assert code == 2
        assert "--update" in text

    def test_bundle_without_a_baseline(self, tmp_path):
        code, text = bench.run_check(
            baseline_path=tmp_path / "absent.json",
            bundle=_sweep_bundle(tmp_path))
        assert code == 2
        assert "no baseline" in text


class TestFormatReport:
    def test_pass_report_mentions_counters(self):
        text = bench.format_report(_payload(), _payload(), [])
        assert "bench check OK" in text
        assert "informational" in text

    def test_fail_report_lists_problems(self):
        problems = ["counter cria/pages: 5000 -> 9000 (+80.0% > 2% band)"]
        text = bench.format_report(_payload(), _payload(), problems)
        assert "BENCH CHECK FAILED" in text
        assert "cria/pages" in text


class TestMeasureSweep:
    def test_speedup_is_median_of_interleaved_pairs(self, monkeypatch):
        """One pair hit by host jitter cannot fail the gate: it reads
        the median of the pairs' serial/process ratios."""
        calls = []
        # Scripted walls, in call order: pairs alternate which mode
        # runs first.  Pair 1's process sweep is the jittered one.
        walls = {0: (0.3, 0.2), 1: (0.3, 0.6), 2: (0.3, 0.2),
                 3: (0.3, 0.2), 4: (0.3, 0.2)}
        clock = [0.0]

        def fake_sweep(workers):
            mode = "serial" if workers == 1 else "process"
            pair = len(calls) // 2
            calls.append(mode)
            serial, process = walls[pair]
            clock[0] += serial if mode == "serial" else process
            return mode

        monkeypatch.setattr(bench, "run_sweep", fake_sweep)
        monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])
        sweep, wall = bench.measure_sweep(workers=2)
        assert calls == ["serial", "process", "process", "serial"] * 2 + [
            "serial", "process"]
        assert sweep == "serial"
        assert wall == {"serial_s": 0.3, "process_s": 0.2,
                        "process_speedup": 1.5, "speedup_pairs": 5}


class TestRunCheck:
    @pytest.fixture
    def baseline_path(self, tmp_path):
        return tmp_path / "BENCH_sweep.json"

    def test_missing_baseline_writes_one(self, baseline_path):
        code, text = bench.run_check(baseline_path=baseline_path, workers=2)
        assert code == 0
        assert "wrote baseline" in text
        assert baseline_path.exists()
        code, text = bench.run_check(baseline_path=baseline_path, workers=2)
        assert code == 0
        assert "bench check OK" in text
