"""Hostile inputs end in each decoder's own typed error, never a bare one.

Each property starts from a real artifact (a checkpoint frame of a
catalog app, a timeline document, a run bundle), removes or retypes
one field its readers use, and feeds the result back.  The decoder must
accept it or raise its typed error (``WireError``, ``TimelineError``,
``BundleError``); a bare ``KeyError``, ``TypeError`` or
``AttributeError`` fails the property.  A frame keeps a valid checksum,
as a sender that computes one can always give it.
"""

import copy
import functools
import hashlib
import json
import struct
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from repro.android.device import Device
from repro.android.hardware.profiles import NEXUS_4
from repro.apps.games import FLAPPY_BIRD
from repro.core.cria import checkpoint_app, prepare_app
from repro.core.cria.wire import (
    WireError,
    region_payloads,
    serialize_image,
    verify_against_image,
    verify_and_decode,
)
from repro.sim import SimClock
from repro.sim.bundle import (
    BundleError,
    RunBundle,
    collect_fingerprint,
    write_bundle,
)
from repro.sim.diffing import diff_bundles, render_diff
from repro.sim.rng import RngFactory
from repro.sim.timeline import (
    Timeline,
    TimelineError,
    parse_timeline_document,
    timeline_document,
)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=8)
#: Delete the field instead of retyping it.
REMOVE = "<remove>"
REPLACEMENT = st.just(REMOVE) | JSON


def _mutated(document, path, value):
    """A deep copy of ``document`` with the member at ``path`` removed
    (``value`` is REMOVE) or replaced by ``value``."""
    if not path:
        return document if value == REMOVE else value
    document = copy.deepcopy(document)
    *outer, last = path
    parent = document
    for step in outer:
        parent = parent[step]
    if value == REMOVE:
        del parent[last]
    else:
        parent[last] = value
    return document


# -- wire frames --------------------------------------------------------------


_HEADER = struct.Struct(">8sII")


@functools.lru_cache(maxsize=None)
def _checkpoint():
    """A catalog app's checkpoint image, its frame's metadata section
    and its payload section."""
    device = Device(NEXUS_4, SimClock(), RngFactory(11), name="home")
    FLAPPY_BIRD.install_and_launch(device)
    prepare_app(device, FLAPPY_BIRD.package)
    image = checkpoint_app(device, FLAPPY_BIRD.package)
    frame = serialize_image(image)
    _, length, _ = _HEADER.unpack_from(frame)
    return (image, json.loads(frame[_HEADER.size:_HEADER.size + length]),
            frame[_HEADER.size + length:-32])


def _frame(metadata):
    """A checksum-valid frame of ``metadata`` and the real payloads."""
    payload = _checkpoint()[2]
    raw = json.dumps(metadata).encode("utf-8")
    body = _HEADER.pack(b"FLUXIMG1", len(raw), len(payload)) + raw \
        + payload
    return body + hashlib.sha256(body).digest()


def _wire_paths():
    """Every metadata member the guest reads before it restores."""
    paths = [(), ("version",), ("package",), ("processes",)]
    for i, proc in enumerate(_checkpoint()[1]["processes"]):
        paths += [("processes", i), ("processes", i, "virtual_pid"),
                  ("processes", i, "regions")]
        for j in range(len(proc["regions"])):
            region = ("processes", i, "regions", j)
            paths += [region] + [region + (key,) for key in (
                "name", "offset", "length", "digest")]
    return paths


OFFSET = ("processes", 0, "regions", 0, "offset")
NAME = ("processes", 0, "regions", 0, "name")


def test_the_real_frame_passes():
    image, metadata, _ = _checkpoint()
    blob = _frame(metadata)
    assert verify_and_decode(blob) == metadata
    assert len(region_payloads(blob)) == sum(
        len(proc.regions) for proc in image.processes)
    verify_against_image(blob, image)


@settings(max_examples=300, deadline=None)
@given(path=st.deferred(lambda: st.sampled_from(_wire_paths())),
       value=REPLACEMENT)
@example(path=(), value=[1])                        # metadata is a list
@example(path=("processes",), value=REMOVE)
@example(path=("processes",), value=3)
@example(path=OFFSET, value=REMOVE)
@example(path=OFFSET, value="0")
@example(path=OFFSET, value=0.0)
@example(path=NAME, value=["dalvik-heap"])
def test_checksum_valid_frames_decode_or_raise_wire_error(path, value):
    image, metadata, _ = _checkpoint()
    blob = _frame(_mutated(metadata, path, value))
    for decode in (verify_and_decode, region_payloads,
                   lambda frame: verify_against_image(frame, image)):
        try:
            decode(blob)
        except WireError:
            pass


# -- timeline documents -------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _timeline():
    clock = SimClock()
    timeline = Timeline(clock)
    for step in range(3):
        timeline.sample("link.occupancy", step / 2, link="home->guest")
        timeline.sample("sessions.in_flight", step)
        clock.advance(0.25)
    return timeline_document(timeline.export())


_KEY = "link.occupancy{link=home->guest}"
TIMELINE_PATHS = [(), ("schema",), ("series",), ("series", _KEY),
                  ("series", _KEY, 0), ("series", _KEY, 0, 0),
                  ("series", _KEY, 0, 1)]


@settings(max_examples=200, deadline=None)
@given(path=st.sampled_from(TIMELINE_PATHS), value=REPLACEMENT)
@example(path=("series",), value=None)
@example(path=("series", _KEY), value={"t": 0})
@example(path=("series", _KEY, 0, 1), value=True)
def test_timeline_documents_parse_or_raise_timeline_error(path, value):
    try:
        series = parse_timeline_document(_mutated(_timeline(), path, value))
    except TimelineError:
        return
    for key, samples in series.items():
        assert isinstance(key, str)
        for sample in samples:
            assert all(isinstance(x, (int, float))
                       and not isinstance(x, bool) for x in sample)


# -- bundle manifests and the metrics snapshot --------------------------------


@functools.lru_cache(maxsize=None)
def _bundle_members():
    """A sweep bundle's members, its manifest and its metrics."""
    with tempfile.TemporaryDirectory() as root:
        path = write_bundle(
            str(Path(root) / "run"), kind="sweep",
            fingerprint=collect_fingerprint("sweep", seed=3),
            metrics={"totals": {
                "counters": {"binder/transactions": 4},
                "gauges": {"chunks/stored": 2.0},
                "histograms": {"link/seconds": {"count": 2, "sum": 0.5}}},
                "migrations": [{"pair": "a to b", "package": "p",
                                "stages": {"transfer": 1.5}}]},
            events=[{"seq": 1, "t": 0.0, "device": "home",
                     "kind": "migration.start", "attrs": {"package": "p"}}],
            timeline=_timeline()["series"])
        members = {child.name: child.read_bytes()
                   for child in Path(path).iterdir()}
    return (members, json.loads(members["manifest.json"]),
            json.loads(members["metrics.json"]))


MANIFEST_PATHS = [(), ("schema",), ("kind",), ("files",),
                  ("files", "metrics.json"),
                  ("files", "metrics.json", "sha256"),
                  ("files", "metrics.json", "bytes"), ("fingerprint",),
                  ("fingerprint", "seed"), ("fingerprint", "env")]
SNAPSHOT_PATHS = [(), ("totals",), ("totals", "counters"),
                  ("totals", "counters", "binder/transactions"),
                  ("totals", "gauges"), ("totals", "gauges", "chunks/stored"),
                  ("totals", "histograms"),
                  ("totals", "histograms", "link/seconds"),
                  ("totals", "histograms", "link/seconds", "count"),
                  ("totals", "histograms", "link/seconds", "sum")]


def _load_and_diff(members):
    """Load ``members`` as a bundle, then diff it against itself."""
    with tempfile.TemporaryDirectory() as root:
        for name, data in members.items():
            (Path(root) / name).write_bytes(data)
        try:
            bundle = RunBundle.load(root)
            render_diff(diff_bundles(bundle, bundle))
        except BundleError:
            pass


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(MANIFEST_PATHS), value=REPLACEMENT)
@example(path=(), value=[1, 2])
@example(path=("files",), value=None)
@example(path=("files", "metrics.json"), value=7)
@example(path=("fingerprint",), value="x")
def test_manifests_load_or_raise_bundle_error(path, value):
    members, manifest, _ = _bundle_members()
    manifest = _mutated(manifest, path, value)
    _load_and_diff({**members, "manifest.json":
                    json.dumps(manifest).encode("utf-8")})


@settings(max_examples=150, deadline=None)
@given(path=st.sampled_from(SNAPSHOT_PATHS), value=REPLACEMENT)
@example(path=("totals", "counters"), value=[1])
@example(path=("totals", "histograms", "link/seconds", "sum"), value="x")
def test_metrics_snapshots_diff_or_raise_bundle_error(path, value):
    members, manifest, metrics = _bundle_members()
    metrics = json.dumps(_mutated(metrics, path, value)).encode("utf-8")
    manifest = copy.deepcopy(manifest)
    manifest["files"]["metrics.json"] = {
        "bytes": len(metrics), "sha256": hashlib.sha256(metrics).hexdigest()}
    _load_and_diff({**members, "metrics.json": metrics,
                    "manifest.json": json.dumps(manifest).encode("utf-8")})
