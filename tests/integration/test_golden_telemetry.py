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
from repro.experiments.harness import clear_sweep_cache

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


#: Run bundles, pinned member by member.  ``manifest.json`` is left out:
#: its fingerprint carries the git SHA.  The faulted migration is the
#: one pinned run whose link is built by the caller and inherits the
#: home device's telemetry; its ``link.fault`` event and its whole
#: timeline exist only through that inheritance.
FAULTED_MIGRATE = (["migrate", "--app", "Candy Crush",
                    "--drop-link-after-bytes", "200000"], 1, {
    "events.jsonl": "75297f55de63dec50b7320627c61254d"
                    "b9b9eeaf270721a53a94a9c2a6a3a263",
    "metrics.json": "04d40033294d6e8349cf8d32104c7361"
                    "c51db469e8d0e543fb31b6ccdcdab54b",
    "timeline.json": "b252c02e51ddf4708e1b88ec296f9399"
                     "50f876733f9a5990a25d8827291f7e97",
    "trace.json": "d14cf52efd36baef9e2b222a888728e3"
                  "bc977fb3ee85ba85a3270065eea3e73e",
})

SWEEP_BUNDLE = (["sweep"], 0, {
    "events.jsonl": "a6aa4d81daf037fc2cc9715fb2208885"
                    "9457214442782a606af4de7d49e6be0e",
    "metrics.json": "311b0faadc54a22efd8ef40ece06695a"
                    "3fb9d17e84ecfc58a17d10122b1fe659",
    "timeline.json": "fcb88a3369fe7bb4472dab8f95978ea3"
                     "fb6ef58fe0270f919bfa97a6d515b30a",
})


@pytest.mark.parametrize("command, code, members",
                         [FAULTED_MIGRATE, SWEEP_BUNDLE],
                         ids=["migrate-link-fault", "sweep"])
def test_bundle_member_digests(command, code, members, tmp_path,
                               monkeypatch, capsys):
    for name in TELEMETRY_ENV:
        monkeypatch.delenv(name, raising=False)
    # A sweep cached by another test may have run under other knobs.
    clear_sweep_cache()
    bundle = tmp_path / "bundle"
    assert main(command + ["--bundle-out", str(bundle)]) == code
    capsys.readouterr()
    digests = {member: hashlib.sha256(
        (bundle / member).read_bytes()).hexdigest() for member in members}
    assert digests == members
