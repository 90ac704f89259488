"""Golden telemetry artifacts: pinned SHA-256 of every file the CLI writes.

The bundle diff compares a serial run with a process run of one commit,
and perfbench's digests cover simulated results only.  These digests pin
the telemetry files themselves (events JSONL, metrics, timeline and
Chrome trace) across commits, so a change to how telemetry is stored
cannot change a byte of what it exports.

A deliberate change to an artifact's content updates the digest here in
the same change, and says why.
"""

import hashlib

import pytest

from repro.cli import main

#: Every telemetry knob, cleared so the pinned runs use the defaults.
TELEMETRY_ENV = ("FLUX_METRICS", "FLUX_EVENTS", "FLUX_EVENTS_CAP",
                 "FLUX_TIMELINE")

MIGRATE = (["migrate", "--app", "Candy Crush"], {
    "events": ("--events-out", "29cee2f057b4278c418caef192bc50fa"
                               "d5def09617a0004c48dd01118129f6f2"),
    "metrics": ("--metrics-out", "66308b076cfb405933d98e986d8fd6cb"
                                 "76a0f12ac5ad84c4b14254a12704f695"),
    "trace": ("--trace-out", "7d7d6db516cecd0231a8850e0497ba96"
                             "81269b2af820eff6270b0d05e1a141fa"),
})

SCENARIO = (["scenario"], {
    "events": ("--events-out", "f059f9008655cb45932f1d0da2de7ba2"
                               "2f3028613a5f535fbc5810f72b4c245b"),
    "metrics": ("--metrics-out", "de9fa617d9924921379bb29fe87d724e"
                                 "b75636a6c29b222b581aba2b3ecc96a2"),
    "timeline": ("--timeline-out", "fe7c174f81e5976cbfb38b6fcc970a77"
                                   "d2055ad21baf89ce4d12e5cc02d848ae"),
    "trace": ("--trace-out", "7955f2de7e68672d725a7db14dbfeda3"
                             "91cff96af14433747cd134bc099a7fe2"),
})

FLEET = (["fleet", "--devices", "12", "--arrivals", "40", "--seed", "7"], {
    "events": ("--events-out", "688d49d2bd127914dfcc265e40891c30"
                               "5c2ea543aee295dd9a392f061de8ad04"),
    "metrics": ("--metrics-out", "d794ff062c86541819d9688db0b388b7"
                                 "afd42e8ae8ce44e93fef28ba039d44c2"),
    "timeline": ("--timeline-out", "d2985546f52cb6063b4cb6778ac887ce"
                                   "3afecb03d9ab5f2d36c4da8f9f2ebce3"),
})


@pytest.mark.parametrize("command, artifacts", [MIGRATE, SCENARIO, FLEET],
                         ids=["migrate", "scenario", "fleet"])
def test_artifact_digests(command, artifacts, tmp_path, monkeypatch,
                          capsys):
    for name in TELEMETRY_ENV:
        monkeypatch.delenv(name, raising=False)
    argv = list(command)
    for plane, (flag, _) in artifacts.items():
        argv += [flag, str(tmp_path / plane)]
    assert main(argv) == 0
    capsys.readouterr()
    digests = {plane: hashlib.sha256(
        (tmp_path / plane).read_bytes()).hexdigest()
        for plane in artifacts}
    assert digests == {plane: digest
                       for plane, (_, digest) in artifacts.items()}
