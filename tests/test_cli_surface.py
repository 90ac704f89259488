"""The CLI's settable surface does not grow unseen.

A run writes its telemetry to one artifact, the run bundle
(``--bundle-out``).  A per-plane output flag beside it would be a second
writer whose bytes can drift from the bundle member's.  This scan of
``build_parser()`` fails on two forms:

* an option ending in ``-out`` outside ``ALLOWED_OUT``, each allowed for
  the reason given;
* more settable options, over all subcommands, than ``MAX_OPTIONS``.

A settable option is a positional or optional argument of a subcommand;
``--help`` is not one.  Raising the cap is a deliberate change made in
the same commit as the option it admits.
"""

import argparse
from typing import Iterator, Tuple

from repro.cli import build_parser

ALLOWED_OUT = {
    "--bundle-out": "every subcommand that runs a simulation: the run "
                    "bundle, the one artifact of a run's telemetry",
    "sweep --profile-out": "host measurements (wall clock, cProfile), "
                           "which a bundle never holds so that equal "
                           "configs give equal bundles",
    "diff --json-out": "the diff document of two bundles, not a plane "
                       "of a run",
}

MAX_OPTIONS = 47


def _options() -> Iterator[Tuple[str, argparse.Action]]:
    """``(subcommand, action)`` for every settable option."""
    parser = build_parser()
    [subparsers] = [action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction)]
    for name, subparser in subparsers.choices.items():
        for action in subparser._actions:
            if not isinstance(action, argparse._HelpAction):
                yield name, action


def test_only_allowed_options_write_files():
    found = sorted(
        f"{command} {flag}" for command, action in _options()
        for flag in action.option_strings
        if flag.endswith("-out") and flag not in ALLOWED_OUT
        and f"{command} {flag}" not in ALLOWED_OUT)
    assert found == [], ("output options beside the run bundle; write the "
                         "plane into the bundle instead:\n  "
                         + "\n  ".join(found))


def test_settable_options_stay_within_the_cap():
    count = sum(1 for _ in _options())
    assert count <= MAX_OPTIONS, (
        f"{count} settable options, cap {MAX_OPTIONS}")
