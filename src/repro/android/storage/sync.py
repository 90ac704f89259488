"""rsync-style synchronization with ``--link-dest`` hard-link dedup.

Flux's pairing uses exactly this (paper §3.1): the home device's core
frameworks and libraries are synced into a private area on the guest's
data partition, hard-linking every file whose content already exists on
the guest's system partition and transferring only a compressed delta of
the rest.  The paper's measured numbers (§4: 215 MB constant data,
123 MB after hard links, 56 MB compressed delta for Nexus 7 -> Nexus 7
2013) are what the pairing-cost experiment checks against.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.android.storage.filesystem import (
    DeviceStorage,
    FileEntry,
    LINK_STRIDE,
    NO_LINK,
    FileSet,
    TreeSignature,
    link_code,
)


#: Compression achieved on framework binaries over the wire.  Chosen so
#: the Nexus 7 pairing delta lands at the paper's 56 MB / 123 MB ratio.
DEFAULT_COMPRESSION_RATIO = 0.455


@dataclass
class SyncResult:
    files_considered: int = 0
    files_linked: int = 0
    files_copied: int = 0
    files_already_synced: int = 0
    bytes_total: int = 0          # logical size of the synced tree
    bytes_linked: int = 0         # satisfied by hard links on the target
    bytes_delta: int = 0          # had to travel
    bytes_compressed: int = 0     # what actually crossed the wire

    @property
    def bytes_after_linking(self) -> int:
        return self.bytes_total - self.bytes_linked


class RsyncEngine:
    """Content-hash-driven sync between two DeviceStorage instances."""

    def __init__(self,
                 compression_ratio: float = DEFAULT_COMPRESSION_RATIO) -> None:
        if not 0 < compression_ratio <= 1:
            raise ValueError(f"bad compression ratio {compression_ratio!r}")
        self.compression_ratio = compression_ratio

    def sync(self, source: DeviceStorage, source_prefix: str,
             target: DeviceStorage, target_prefix: str,
             link_dest_prefix: Optional[str] = None) -> SyncResult:
        """Mirror ``source_prefix`` into ``target_prefix`` on ``target``.

        ``link_dest_prefix`` models ``rsync --link-dest``: files whose
        content already exists under it on the target become hard links
        instead of traveling.

        Fast path: when the two trees' memoized signatures match (same
        relative paths, contents, sizes), the sync is a no-op — nothing
        is re-hashed or re-walked.  This is what keeps the
        per-migration ``verify_app`` pass from re-hashing every
        unchanged app tree.

        A source tree made only of mounted :class:`FileSet` objects (the
        frameworks) is mirrored into an empty target by mounting derived
        sets that share the source's columns; anything else goes file by
        file.
        """
        result = SyncResult()
        source_sig = source.tree_signature(source_prefix)
        if not source_sig.file_count:
            return result
        target_root = target_prefix.rstrip("/")
        target_sig = target.tree_signature(target_root)
        if source_sig.digest == target_sig.digest:
            result.files_considered = source_sig.file_count
            result.files_already_synced = source_sig.file_count
            result.bytes_total = source_sig.total_bytes
            return result
        mounted = source.mounted_sets(source_prefix)
        if mounted is not None and not target_sig.file_count:
            self._mirror_sets(mounted, source_prefix, source_sig, target,
                              target_root, link_dest_prefix, result)
        else:
            self._sync_files(source, source_prefix, target, target_root,
                             link_dest_prefix, result)
        result.bytes_compressed = int(result.bytes_delta
                                      * self.compression_ratio)
        return result

    def _mirror_sets(self, mounted: List[Tuple[str, FileSet]],
                     source_prefix: str, source_sig: TreeSignature,
                     target: DeviceStorage, target_root: str,
                     link_dest_prefix: Optional[str],
                     result: SyncResult) -> None:
        """Mount one derived set per source set; hard-link targets and
        linked sizes are resolved in one pass against the link pool."""
        pool = (((), {}) if link_dest_prefix is None
                else _link_pool(target, link_dest_prefix))
        mirrors = []
        for mount, file_set in mounted:
            mirror = _mirror(file_set, pool, result)
            mirrors.append((target_root + mount[len(source_prefix):],
                            mirror))
        for target_mount, mirror in mirrors:
            target.mount(target_mount, mirror)
        if all(mirror.sizes is file_set.sizes
               for (_, mirror), (_, file_set) in zip(mirrors, mounted)):
            target.seed_signature(target_root, source_sig)

    def _sync_files(self, source: DeviceStorage, source_prefix: str,
                    target: DeviceStorage, target_root: str,
                    link_dest_prefix: Optional[str],
                    result: SyncResult) -> None:
        link_pool: Dict[str, FileEntry] = {}
        if link_dest_prefix is not None:
            link_pool = target.by_hash_under(link_dest_prefix)

        for entry in source.files_under(source_prefix):
            result.files_considered += 1
            result.bytes_total += entry.size
            relative = entry.path[len(source_prefix):]
            dest_path = target_root + relative

            if (target.exists(dest_path)
                    and target.get(dest_path).same_content(entry)):
                result.files_already_synced += 1
                continue

            linkable = link_pool.get(entry.content_hash)
            if linkable is not None:
                if target.exists(dest_path):
                    target.remove(dest_path)
                target.add_hard_link(dest_path, linkable.path)
                result.files_linked += 1
                result.bytes_linked += entry.size
                continue

            if target.exists(dest_path):
                target.remove(dest_path)
            target.copy_entry(entry, dest_path)
            result.files_copied += 1
            result.bytes_delta += entry.size

    def verify(self, source: DeviceStorage, source_prefix: str,
               target: DeviceStorage, target_prefix: str) -> List[str]:
        """Paths under source that differ from (or are absent on) target."""
        if (source.tree_signature(source_prefix).digest
                == target.tree_signature(target_prefix.rstrip("/")).digest):
            return []
        stale = []
        for entry in source.files_under(source_prefix):
            relative = entry.path[len(source_prefix):]
            dest_path = target_prefix.rstrip("/") + relative
            if (not target.exists(dest_path)
                    or not target.get(dest_path).same_content(entry)):
                stale.append(entry.path)
        return stale


#: A ``--link-dest`` pool: the ``(base, file_set)`` runs of the pool tree
#: in path order (an overlay run becomes a small set of full paths with
#: base ""), and a map from content hash to ``link_code(run, position)``
#: of the last file with it.
LinkPool = Tuple[Tuple[Tuple[str, FileSet], ...], Dict[str, int]]


def _link_pool(target: DeviceStorage, prefix: str) -> LinkPool:
    runs = []
    index: Dict[str, int] = {}
    for mount, run, lo, hi in target.runs(prefix):
        if mount is None:
            entries = [target.get(path) for path in run]
            run = FileSet(run, [e.size for e in entries],
                          [e.content_hash for e in entries],
                          mtimes=[e.mtime for e in entries])
            mount = ""
        base = link_code(len(runs), 0)
        index.update(zip(islice(run.hashes, lo, hi),
                         range(base + lo, base + hi)))
        runs.append((mount, run))
    return tuple(runs), index


def _mirror(file_set: FileSet, pool: LinkPool,
            result: SyncResult) -> FileSet:
    """``file_set`` as mirrored into an empty target: files whose content
    is in ``pool`` become hard links, the rest are copies."""
    runs, index = pool
    codes = list(map(index.get, file_set.hashes))
    sizes, mtimes = file_set.sizes, file_set.mtimes
    linked = linked_bytes = 0
    for i, code in enumerate(codes):
        if code is None:
            continue
        linked += 1
        linked_bytes += file_set.sizes[i]
        run, position = divmod(code, LINK_STRIDE)
        pool_set = runs[run][1]
        link_size = pool_set.sizes[position]
        if link_size != file_set.sizes[i]:
            if sizes is file_set.sizes:
                sizes = list(sizes)
            sizes[i] = link_size
        link_mtime = pool_set.mtime(position)
        if link_mtime != file_set.mtime(i):
            if mtimes is file_set.mtimes:
                mtimes = [0.0] * len(codes) if mtimes is None else list(mtimes)
            mtimes[i] = link_mtime
    total = sum(file_set.sizes)
    result.files_considered += len(codes)
    result.bytes_total += total
    result.files_linked += linked
    result.bytes_linked += linked_bytes
    result.files_copied += len(codes) - linked
    result.bytes_delta += total - linked_bytes
    if not linked:
        return file_set.mirror(sizes, None, (), mtimes)
    links = array("q", [NO_LINK if code is None else code for code in codes])
    link_targets = tuple((base, run.paths) for base, run in runs)
    return file_set.mirror(sizes, links, link_targets, mtimes)
