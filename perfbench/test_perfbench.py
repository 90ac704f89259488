"""The benchmark's own checks, on short runs of every workload.

    python3 -m pytest perfbench -q

Each run is a subprocess: the quiet workload sets telemetry knobs before
any device exists and the traced run patches layer entry points, so
runs must not share an interpreter.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("handoff", "handoff-quiet", "fleet")
SEED = 3

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)

_RUNS = {}


def bench(workload, trace, cwd=ROOT):
    """(exit code, stdout lines, final JSON or None) of one short run."""
    key = (workload, trace, cwd)
    if key not in _RUNS:
        proc = subprocess.run(
            [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(SEED), "--seconds", "1",
             "--trace", str(trace)],
            cwd=cwd, capture_output=True, text=True, timeout=300)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            result = None
        _RUNS[key] = (proc.returncode, lines, result)
    return _RUNS[key]


def digest_of(lines):
    return next(line.split()[1] for line in lines
                if line.startswith("digest "))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    code, lines, result = bench(workload, trace)
    assert code == 0, "\n".join(lines)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()
            } == {metric["name"]: metric["unit"] for metric in declared}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_end_to_end_metrics_are_never_zero():
    for workload in WORKLOADS:
        _, _, result = bench(workload, 0)
        assert all(entry["value"] > 0
                   for entry in result["metrics"].values()), workload


def test_handoff_and_quiet_handoff_simulate_the_same_migrations():
    _, loud, _ = bench("handoff", 0)
    _, quiet, _ = bench("handoff-quiet", 0)
    assert digest_of(loud) == digest_of(quiet)


def copy_of_the_benchmark(tmp_path):
    """A directory holding only BENCHMARK.json and this one."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    return tmp_path


def test_a_wrong_reference_digest_fails_the_run(tmp_path):
    root = copy_of_the_benchmark(tmp_path)
    with open(root / "perfbench" / "reference.json", "w") as handle:
        json.dump({"rounds=12x1": {str(SEED): "0" * 64}}, handle)
    (root / "src").symlink_to(os.path.join(ROOT, "src"))
    code, lines, result = bench("handoff", 0, cwd=str(root))
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert any("MISMATCH" in line for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_are_non_negative(workload):
    _, _, result = bench(workload, 1)
    for name, entry in result["metrics"].items():
        if name.endswith(".self_ms"):
            assert entry["value"] >= 0, name


@pytest.mark.parametrize("workload,layers", [
    ("handoff", ("cria.checkpoint_app.self_ms", "binder.transact.calls",
                 "metrics.lookup.calls", "scheduler.drive_sync.self_ms",
                 "count.binder.transactions")),
    ("handoff-quiet", ("cria.restore_app.self_ms", "replay.replay_log.self_ms",
                       "chunks.chunk_image.self_ms")),
    ("fleet", ("placement.choose.calls", "scenario.run_scenario.self_ms",
               "scheduler.run.self_ms", "device.boot.self_ms",
               "medium.submit.calls", "executor.site_outcome_bytes")),
])
def test_layers_on_the_path_are_measured(workload, layers):
    _, _, result = bench(workload, 1)
    for name in layers:
        assert result["metrics"][name]["value"] > 0, name


def test_layers_off_the_path_read_zero():
    _, _, handoff = bench("handoff", 1)
    _, _, quiet = bench("handoff-quiet", 1)
    assert handoff["metrics"]["placement.choose.calls"]["value"] == 0
    assert quiet["metrics"]["events.emit.calls"]["value"] > 0
    assert quiet["metrics"]["count.binder.transactions"]["value"] == 0


def test_without_the_program_it_fails_without_a_result(tmp_path):
    code, lines, result = bench("handoff", 0,
                                cwd=str(copy_of_the_benchmark(tmp_path)))
    assert code != 0
    assert result is None
