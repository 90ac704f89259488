"""DeviceStorage and RsyncEngine against a plain dict-of-entries model.

Mounted :class:`FileSet` trees, the overlay, copy-on-write and the
per-prefix signature cache are representation choices; every public
read and every :class:`SyncResult` must equal what a dict of
``path -> entry`` gives for the same operations.
"""

import gc
import hashlib
import tracemalloc
from dataclasses import dataclass
from typing import Dict, List, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.android.device import Device
from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
from repro.android.storage import (
    DeviceStorage,
    FileSet,
    FsError,
    RsyncEngine,
    SyncResult,
    content_hash_for,
)
from repro.android.storage.filesystem import PackedHashes
from repro.core.migration.pairing import flux_root
from repro.sim import SimClock
from repro.sim.rng import RngFactory


@dataclass
class Row:
    size: int
    content_hash: str
    mtime: float = 0.0
    hard_link_of: Optional[str] = None


class Model:
    """The reference: one dict, every query a scan in sorted order."""

    def __init__(self) -> None:
        self.files: Dict[str, Row] = {}

    def under(self, prefix: str) -> List[str]:
        return sorted(p for p in self.files if p.startswith(prefix))

    def remove_tree(self, prefix: str) -> int:
        doomed = self.under(prefix)
        for path in doomed:
            del self.files[path]
        return len(doomed)

    def signature(self, prefix: str):
        digest = hashlib.sha256()
        total = 0
        paths = self.under(prefix)
        for path in paths:
            row = self.files[path]
            digest.update(path[len(prefix):].encode("utf-8"))
            digest.update(b"\x00")
            digest.update(row.content_hash.encode("ascii"))
            digest.update(row.size.to_bytes(8, "big"))
            total += row.size
        return digest.hexdigest(), len(paths), total


def model_sync(source: Model, source_prefix: str, target: Model,
               target_prefix: str, link_dest: Optional[str],
               ratio: float) -> SyncResult:
    """rsync semantics, file by file."""
    result = SyncResult()
    root = target_prefix.rstrip("/")
    source_sig = source.signature(source_prefix)
    if source_sig[0] == target.signature(root)[0] and source_sig[1]:
        result.files_considered = result.files_already_synced = \
            source_sig[1]
        result.bytes_total = source_sig[2]
        return result
    pool = {}
    if link_dest is not None:
        for path in target.under(link_dest):
            pool[target.files[path].content_hash] = path
    snapshot = [(p, source.files[p]) for p in source.under(source_prefix)]
    for path, row in snapshot:
        result.files_considered += 1
        result.bytes_total += row.size
        dest = root + path[len(source_prefix):]
        current = target.files.get(dest)
        if current is not None and current.content_hash == row.content_hash:
            result.files_already_synced += 1
            continue
        link = pool.get(row.content_hash)
        if link is not None:
            linked = target.files[link]
            target.files.pop(dest, None)
            target.files[dest] = Row(linked.size, linked.content_hash,
                                     linked.mtime, hard_link_of=link)
            result.files_linked += 1
            result.bytes_linked += row.size
            continue
        target.files.pop(dest, None)
        target.files[dest] = Row(row.size, row.content_hash, row.mtime)
        result.files_copied += 1
        result.bytes_delta += row.size
    result.bytes_compressed = int(result.bytes_delta * ratio)
    return result


DIRS = ["/s/f", "/s/v", "/m", "/m/s", "/m/s/f", "/d"]
NAMES = ["/a", "/b", "/c", "/ab"]
PATHS = [d + n for d in DIRS for n in NAMES] + ["/s", "/m/s/f.x"]
MOUNTS = ["/s/f", "/s/v", "/m/s/f", "/m"]
QUERIES = ["", "/", "/s", "/s/", "/s/f", "/s/f/", "/s/f/a", "/s/v", "/m",
           "/m/", "/m/s", "/m/s/f", "/m/s/f/a", "/d", "/x"]
# Partial trees of a mount ("/s/f/a" inside "/s/f"), whole mounts, and
# trees holding mounts next to overlay files.
REMOVED_TREES = ["/s/f/a", "/m/s/f/a", "/s/f/", "/m/s", "/m", "/s", "/d"]
SOURCE_PREFIXES = ["", "/s", "/s/", "/s/f", "/s/f/", "/s/f/a", "/m", "/m/s",
                   "/d"]
TARGET_PREFIXES = ["/m", "/m/", "/m/s", "/m/s/f", "/d", "/d/s"]
LINK_DESTS = [None, "/s", "/s/f", "/m", ""]

storage_ix = st.integers(0, 1)
tokens = st.sampled_from(["t0", "t1", "t2"])
sizes = st.sampled_from([1, 7, 100])

add_op = st.tuples(st.just("add"), storage_ix, st.sampled_from(PATHS), sizes,
                  tokens, st.sampled_from([0.0, 2.5]))
link_op = st.tuples(st.just("link"), storage_ix, st.sampled_from(PATHS),
                    st.sampled_from(PATHS))
remove_op = st.tuples(st.just("remove"), storage_ix, st.sampled_from(PATHS))
remove_tree_op = st.tuples(st.just("remove_tree"), storage_ix,
                           st.sampled_from(REMOVED_TREES))
mount_op = st.tuples(st.just("mount"), storage_ix, st.sampled_from(MOUNTS),
                     st.lists(st.tuples(st.sampled_from(NAMES), sizes, tokens),
                              max_size=4, unique_by=lambda f: f[0]))
sync_op = st.tuples(st.just("sync"), storage_ix,
                    st.sampled_from(SOURCE_PREFIXES), storage_ix,
                    st.sampled_from(TARGET_PREFIXES),
                    st.sampled_from(LINK_DESTS))
# Mounts and syncs drawn twice as often: the mirror path needs a mounted
# source tree, an empty target and a matching link pool together.
ops = st.one_of(add_op, link_op, remove_op, remove_tree_op,
                mount_op, mount_op, sync_op, sync_op)


def apply(op, real: List[DeviceStorage], model: List[Model]):
    """Run ``op`` on both sides; returns both outcomes."""
    kind, i = op[0], op[1]
    storage, ref = real[i], model[i]
    if kind == "add":
        _, _, path, size, token, mtime = op
        storage.add_file(path, size, token, mtime=mtime)
        ref.files[path] = Row(size, content_hash_for(token), mtime)
        return None, None
    if kind == "link":
        _, _, path, target = op
        try:
            storage.add_hard_link(path, target)
        except FsError:
            assert target not in ref.files
            return "FsError", "FsError"
        linked = ref.files[target]
        ref.files[path] = Row(linked.size, linked.content_hash,
                              linked.mtime, hard_link_of=target)
        return None, None
    if kind == "remove":
        try:
            storage.remove(op[2])
        except FsError:
            assert op[2] not in ref.files
            return "FsError", "FsError"
        del ref.files[op[2]]
        return None, None
    if kind == "remove_tree":
        return storage.remove_tree(op[2]), ref.remove_tree(op[2])
    if kind == "mount":
        _, _, prefix, files = op
        files = sorted(files)
        storage.mount(prefix, FileSet(
            [name for name, _, _ in files], [size for _, size, _ in files],
            PackedHashes.of_tokens(token for _, _, token in files)))
        ref.remove_tree(prefix + "/")
        for name, size, token in files:
            ref.files[prefix + name] = Row(size, content_hash_for(token))
        return None, None
    _, src, source_prefix, dst, target_prefix, link_dest = op
    engine = RsyncEngine()
    got = engine.sync(real[src], source_prefix, real[dst], target_prefix,
                      link_dest_prefix=link_dest)
    want = model_sync(model[src], source_prefix, model[dst], target_prefix,
                      link_dest, engine.compression_ratio)
    return got, want


def assert_same(storage: DeviceStorage, ref: Model) -> None:
    for prefix in QUERIES:
        got = [(e.path, e.size, e.content_hash, e.mtime, e.hard_link_of)
               for e in storage.files_under(prefix)]
        want = [(p, r.size, r.content_hash, r.mtime, r.hard_link_of)
                for p in ref.under(prefix) for r in [ref.files[p]]]
        assert got == want, prefix
        signature = storage.tree_signature(prefix)
        assert (signature.digest, signature.file_count,
                signature.total_bytes) == ref.signature(prefix), prefix
        assert storage.tree_size(prefix) == sum(
            ref.files[p].size for p in ref.under(prefix))
        assert storage.unique_bytes(prefix) == sum(
            ref.files[p].size for p in ref.under(prefix)
            if ref.files[p].hard_link_of is None)
        assert storage.file_count(prefix) == len(ref.under(prefix))
    for path in PATHS + sorted(ref.files):
        assert storage.exists(path) == (path in ref.files)
        if path in ref.files:
            entry, row = storage.get(path), ref.files[path]
            assert (entry.size, entry.content_hash, entry.mtime,
                    entry.hard_link_of) == (row.size, row.content_hash,
                                            row.mtime, row.hard_link_of)
        else:
            with pytest.raises(FsError):
                storage.get(path)


#: Mirrors a two-set tree into an empty target whose link pool holds a
#: mounted file of another size and an overlay file with an mtime, so
#: linked sizes, linked mtimes and both link-target kinds are checked.
MIRROR_WITH_LINKS = [
    ("mount", 0, "/s/f", [("/a", 7, "t0"), ("/b", 1, "t1")]),
    ("mount", 0, "/s/v", [("/c", 100, "t2")]),
    ("mount", 1, "/s/v", [("/c", 100, "t0")]),
    ("add", 1, "/d/a", 1, "t1", 2.5),
    ("sync", 0, "/s", 1, "/m", ""),
    ("sync", 0, "/s", 1, "/m/s/f", "/s"),
]


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, max_size=14))
@example(MIRROR_WITH_LINKS)
# A prefix that selects a whole set but lies inside its mount: the
# set's paths are relative to the mount, not to the prefix.
@example([("mount", 0, "/s/f", [("/a", 1, "t0")]),
          ("sync", 0, "/s/f/a", 0, "/m", None)])
# A re-sync into a non-empty mirror goes file by file and, like rsync
# without --delete, keeps target files the source no longer has.
@example([("mount", 0, "/s/f", [("/a", 1, "t0"), ("/b", 7, "t1")]),
          ("sync", 0, "/s", 1, "/m", None),
          ("mount", 0, "/s/f", [("/a", 1, "t2")]),
          ("sync", 0, "/s", 1, "/m", None)])
def test_storage_matches_dict_model(sequence):
    real = [DeviceStorage("a"), DeviceStorage("b")]
    model = [Model(), Model()]
    for op in sequence:
        got, want = apply(op, real, model)
        assert got == want, op
        # Interleave reads so cached signatures are exercised across
        # later writes, not only computed fresh at the end.
        for storage, ref in zip(real, model):
            for prefix in ("/s", "/m", "/m/s"):
                assert (storage.tree_signature(prefix).digest
                        == ref.signature(prefix)[0])
    for storage, ref in zip(real, model):
        assert_same(storage, ref)


def test_packed_hashes_read_back_as_content_hashes():
    tokens_ = ["a", "b", "android-4.4.2/common/7"]
    packed = PackedHashes.of_tokens(tokens_)
    assert list(packed) == [content_hash_for(t) for t in tokens_]
    assert [packed[i] for i in range(3)] == list(packed)
    assert packed[-1] == content_hash_for(tokens_[-1])
    with pytest.raises(IndexError):
        packed[3]


def _booted_pair():
    clock, factory = SimClock(), RngFactory(2)
    return (Device(NEXUS_4, clock, factory, name="home"),
            Device(NEXUS_7_2013, clock, factory, name="guest"))


def test_pairing_mirrors_share_the_home_sets():
    home, guest = _booted_pair()
    home.pairing_service.pair(guest)
    home_sets = home.storage.mounted_sets("/system")
    mirrors = guest.storage.mounted_sets(f"{flux_root(home.name)}/system")
    assert [m for m, _ in mirrors] == [
        f"{flux_root(home.name)}{m}" for m, _ in home_sets]
    for (_, mirror), (_, source) in zip(mirrors, home_sets):
        assert mirror.paths is source.paths
        assert mirror.hashes is source.hashes
        assert mirror.sizes is source.sizes
        assert mirror.signature == source.signature


def test_pairing_grows_traced_memory_by_under_40_kib():
    home, guest = _booted_pair()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = home.pairing_service.pair(guest)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.framework_sync.files_considered == 800
    assert grown < 40 * 1024, grown


def test_write_inside_a_mount_copies_the_set_first():
    home, _ = _booted_pair()
    storage = home.storage
    before = storage.tree_signature("/system/vendor")
    size = storage.tree_size("/system")
    old = storage.files_under("/system/framework")[0]
    storage.add_file(old.path, 5, "patched")
    assert storage.tree_size("/system") == size - old.size + 5
    assert storage.get(old.path).content_hash == content_hash_for("patched")
    assert storage.file_count("/system") == 800
    # The untouched vendor tree keeps its cached signature object.
    assert storage.tree_signature("/system/vendor") is before


def test_remove_tree_inside_a_mount_keeps_the_rest():
    storage = DeviceStorage()
    storage.mount("/s", FileSet(["/a", "/ab", "/b"], [1, 2, 3],
                                PackedHashes.of_tokens("xyz")))
    assert storage.remove_tree("/s/a") == 2
    assert [e.path for e in storage.files_under("/s")] == ["/s/b"]
    assert storage.tree_size("/s") == 3


def test_write_elsewhere_keeps_other_cached_signatures():
    storage = DeviceStorage()
    storage.add_file("/data/data/A/db", 10, "a")
    storage.add_file("/data/data/B/db", 10, "b")
    b = storage.tree_signature("/data/data/B")
    system = storage.tree_signature("/system")
    storage.add_file("/data/data/A/db", 11, "a2")
    assert storage.tree_signature("/data/data/B") is b
    assert storage.tree_signature("/system") is system
