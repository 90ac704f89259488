"""Wall-clock bench: the Figure 12 sweep, serial against a process pool.

Times the real (not simulated) cost of regenerating the four-pair,
sixteen-app sweep serially and on a process pool, over interleaved
pairs, and records the schema-5 payload in ``BENCH_sweep.json`` at the
repo root via :mod:`repro.experiments.bench`.

Absolute walls are **non-gating** here: each device pair is an
independent simulation, but the process executor's gain depends on the
machine's core count.  What *is* gated here is
correctness — every executor's sweep must stay bit-identical to the
serial one (reports *and* aggregated metrics) even while we time it.
The ``sim`` section and the multi-core ``process_speedup >= 1.0``
floor are gated separately by ``flux-sim bench-check``.
"""

import json

import pytest

from repro.experiments import bench
from repro.experiments.harness import run_sweep


@pytest.mark.perf
class TestSweepWallClock:
    def test_executor_sweep_wall_clock(self):
        sweep, wall = bench.measure_sweep(workers=bench.WORKERS)

        # Gating: determinism.  A pooled run must reproduce the serial
        # run exactly, whatever the interleaving did.
        parallel = run_sweep(use_cache=False, workers=bench.WORKERS,
                             executor="process")
        assert sweep.reports.keys() == parallel.reports.keys()
        for key, report in sweep.reports.items():
            other = parallel.reports[key]
            assert report.stages == other.stages, key
            assert report.transferred_bytes == other.transferred_bytes, key
        assert sweep.merged_metrics() == parallel.merged_metrics()

        payload = bench.build_payload(sweep, wall, workers=bench.WORKERS)
        bench.BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nsweep wall clock ({payload['cpu_count']} cpu, median of "
              f"{wall['speedup_pairs']} pairs): "
              f"serial {wall['serial_s']:.3f}s, "
              f"process({bench.WORKERS}) {wall['process_s']:.3f}s "
              f"(x{wall['process_speedup']}) -> {bench.BENCH_PATH.name}")
