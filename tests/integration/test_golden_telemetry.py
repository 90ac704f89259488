"""Golden telemetry artifacts: pinned SHA-256 of every run-bundle member.

The bundle diff compares a serial run with a process run of one commit,
and perfbench's digests cover simulated results only.  These digests pin
the telemetry members themselves (events JSONL, metrics, timeline and
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

#: The three plain runs, pinned member by member.  Their ``events``
#: digests are those of the per-plane files the CLI wrote before the
#: run bundle became its only export; the other members equal what
#: ``--bundle-out`` wrote then, except ``migrate``'s ``trace.json``
#: (and the faulted run's below): its counter ("C") events are the
#: timeline's series since metrics stopped keeping sample tracks.
MIGRATE = (["migrate", "--app", "Candy Crush"], 0, {
    "events.jsonl": "29cee2f057b4278c418caef192bc50fa"
                    "d5def09617a0004c48dd01118129f6f2",
    "metrics.json": "d0cd403eee76c7b9a4954e4b6a4e88a9"
                    "b97fba0997b1178794536799c0c89d0e",
    "timeline.json": "18c8b47c09a7100bd2fc7352d1227f4e"
                     "2fded9c028a6afafefb95d5e55a051be",
    "trace.json": "7ff0270da70dfef4cb9ce2c442539110"
                  "4ec4b9331fd0c7f88ede78b428b2c1c1",
})

SCENARIO = (["scenario"], 0, {
    "events.jsonl": "f059f9008655cb45932f1d0da2de7ba2"
                    "2f3028613a5f535fbc5810f72b4c245b",
    "metrics.json": "ba7129ae2a1ca72b9c541bda0b37c84b"
                    "2334fc3a4e5e2ff6d9a666883c9e3446",
    "timeline.json": "e76b5749a8cddfcfe661c13fa0d217ae"
                     "c3e0aff0fb9f56ae07141747ca775d11",
    "trace.json": "8f60c63124d46491665cb5c1725acdd7"
                  "88ff315e9cb23bf7928b7444ebf8ccd9",
})

FLEET = (["fleet", "--devices", "12", "--arrivals", "40", "--seed", "7"], 0, {
    "events.jsonl": "688d49d2bd127914dfcc265e40891c30"
                    "5c2ea543aee295dd9a392f061de8ad04",
    "metrics.json": "451de2a7eafeb60184e1b93f810193ed"
                    "b1989096f2b278a27a4fa756860785b4",
    "timeline.json": "b61071203c3ea455a81efc5313a1d5de"
                     "6af3e8ae49351c637c5259ce1718a36f",
})


def _member_digests(command, code, members, tmp_path, monkeypatch, capsys):
    """Run ``command`` with ``--bundle-out`` under the default telemetry
    knobs; the SHA-256 of each named member of its bundle."""
    for name in TELEMETRY_ENV:
        monkeypatch.delenv(name, raising=False)
    bundle = tmp_path / "bundle"
    assert main(command + ["--bundle-out", str(bundle)]) == code
    capsys.readouterr()
    return {member: hashlib.sha256((bundle / member).read_bytes())
            .hexdigest() for member in members}


@pytest.mark.parametrize("command, code, members", [MIGRATE, SCENARIO, FLEET],
                         ids=["migrate", "scenario", "fleet"])
def test_artifact_digests(command, code, members, tmp_path, monkeypatch,
                          capsys):
    assert _member_digests(command, code, members, tmp_path, monkeypatch,
                           capsys) == members


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
    "trace.json": "8b9f4b744c2c91b6cb0e53b88b78cfc0"
                  "5255dd2c7ec5ce60208344a2cc71c467",
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
    assert _member_digests(command, code, members, tmp_path, monkeypatch,
                           capsys) == members
