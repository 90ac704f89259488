"""Regenerate every table and figure: ``python -m repro.experiments``.

Pass experiment names (e.g. ``fig12 table2``) to run a subset.
"""

import sys

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.harness import run_sweep

#: The figures drawn from the default sweep.  A run builds that sweep
#: once, at the first of them it renders, and hands it to each.
SWEEP_FIGURES = ("fig12", "fig13", "fig14", "fig15")


def main(argv) -> int:
    names = argv or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; "
              f"choose from {sorted(ALL_EXPERIMENTS)}")
        return 2
    sweep = None
    for name in names:
        module = ALL_EXPERIMENTS[name]
        if name in SWEEP_FIGURES:
            if sweep is None:
                sweep = run_sweep()
            print(module.render(sweep))
        else:
            print(module.render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
