"""Record the reference digests ``run.py`` checks runs against.

    python3 perfbench/make_reference.py [SEED ...]     # default: 0..11

Runs ``handoff-quiet`` (same digests as ``handoff``, faster) and ``fleet``
at the default run length from BENCHMARK.json for each seed, and merges
their digests into ``reference.json``, keyed by workload size and seed.
Only do this after an intended change to simulated results: the table
exists to catch unintended ones.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_FILE = os.path.join(HERE, "reference.json")


def digest_of(workload, seed, seconds):
    """(size, digest) of one run; exits if any op or check failed other
    than a mismatch with the digest being replaced."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    head = next(line.split() for line in lines
                if line.startswith("workload "))
    stats = dict(zip(head[::2], head[1::2]))
    failures = [line for line in lines if line.startswith("check failed")
                and "MISMATCH" not in line]
    if stats["failed"] != "0" or failures:
        sys.exit(f"{workload} seed {seed} failed:\n{proc.stdout}"
                 f"{proc.stderr}")
    digest = next(line.split()[1] for line in lines
                  if line.startswith("digest "))
    return stats["size"], digest


def main(argv):
    seeds = [int(arg) for arg in argv] or list(range(12))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    with open(REFERENCE_FILE) as handle:
        table = json.load(handle)
    for seed in seeds:
        for workload in ("handoff-quiet", "fleet"):
            size, digest = digest_of(workload, seed, seconds)
            table.setdefault(size, {})[str(seed)] = digest
            print(f"{size} seed {seed}: {digest}")
    table = {size: dict(sorted(table[size].items(),
                               key=lambda item: int(item[0])))
             for size in sorted(table)}
    with open(REFERENCE_FILE, "w") as handle:
        json.dump(table, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
