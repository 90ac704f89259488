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
from itertools import compress, islice, repeat
from operator import ne
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.android.storage.filesystem import (
    DeviceStorage,
    FileEntry,
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

        Into an empty target nothing can match, so no digest of the
        source is taken.  A source tree made only of mounted
        :class:`FileSet` objects (the frameworks) is then mirrored by
        mounting derived sets that share the source's columns; anything
        else goes file by file.
        """
        result = SyncResult()
        target_root = target_prefix.rstrip("/")
        target_sig = target.tree_signature(target_root)
        if target_sig.file_count:
            source_sig = source.tree_signature(source_prefix)
            if not source_sig.file_count:
                return result
            if source_sig.digest == target_sig.digest:
                result.files_considered = source_sig.file_count
                result.files_already_synced = source_sig.file_count
                result.bytes_total = source_sig.total_bytes
                return result
            mounted = None
        elif not source.file_count(source_prefix):
            return result
        else:
            mounted = source.mounted_sets(source_prefix)
        if mounted is None:
            self._sync_files(source, source_prefix, target, target_root,
                             link_dest_prefix, result)
        else:
            self._mirror_sets(mounted, source_prefix,
                              source.cached_signature(source_prefix),
                              target, target_root, link_dest_prefix, result)
        result.bytes_compressed = int(result.bytes_delta
                                      * self.compression_ratio)
        return result

    def _mirror_sets(self, mounted: List[Tuple[str, FileSet]],
                     source_prefix: str,
                     source_sig: Optional[TreeSignature],
                     target: DeviceStorage, target_root: str,
                     link_dest_prefix: Optional[str],
                     result: SyncResult) -> None:
        """Mount one derived set per source set; hard-link targets and
        linked sizes are resolved in one pass against the link pool.
        The target inherits ``source_sig`` when the source had one and
        every mirror kept its set's sizes; otherwise it is signed when
        first asked."""
        pool = (((), {}, {}, {}) if link_dest_prefix is None
                else _link_pool(target, link_dest_prefix))
        mirrors = []
        for mount, file_set in mounted:
            mirror = _mirror(file_set, pool, result)
            mirrors.append((target_root + mount[len(source_prefix):],
                            mirror))
        for target_mount, mirror in mirrors:
            target.mount(target_mount, mirror)
        if source_sig is not None and all(
                mirror.sizes is file_set.sizes
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


#: A ``--link-dest`` pool: the ``(base, paths)`` link target of each run
#: of the pool tree, in path order (an overlay run becomes a small set of
#: full paths with base ""); a map from content hash to the
#: ``link_code(run, position)`` of the last file with it; and maps from
#: link code to size and to mtime (empty when no pool file has one).
LinkPool = Tuple[Tuple[Tuple[str, Sequence[str]], ...], Dict[str, int],
                 Dict[int, int], Dict[int, float]]


def _link_pool(target: DeviceStorage, prefix: str) -> LinkPool:
    link_targets = []
    codes: Dict[str, int] = {}
    sizes: Dict[int, int] = {}
    mtimes: Dict[int, float] = {}
    for mount, run, lo, hi in target.runs(prefix):
        if mount is None:
            entries = [target.get(path) for path in run]
            run_mtimes = [e.mtime for e in entries]
            run = FileSet(run, [e.size for e in entries],
                          [e.content_hash for e in entries],
                          mtimes=run_mtimes if any(run_mtimes) else None)
            mount = ""
        base = link_code(len(link_targets), 0)
        span = range(base + lo, base + hi)
        codes.update(zip(islice(run.hashes, lo, hi), span))
        sizes.update(zip(span, islice(run.sizes, lo, hi)))
        if run.mtimes is not None:
            mtimes.update(zip(span, islice(run.mtimes, lo, hi)))
        link_targets.append((mount, run.paths))
    return tuple(link_targets), codes, sizes, mtimes


def _mirror(file_set: FileSet, pool: LinkPool,
            result: SyncResult) -> FileSet:
    """``file_set`` as mirrored into an empty target: files whose content
    is in ``pool`` become hard links, taking the pool file's size and
    mtime; the rest are copies."""
    link_targets, codes, link_sizes, link_mtimes = pool
    count = len(file_set)
    links = array("q", map(codes.get, file_set.hashes, repeat(NO_LINK)))
    linked = count - links.count(NO_LINK)
    sizes = file_set.sizes
    total = sum(sizes)
    if linked == count:
        positions, hit_codes = range(count), links
        linked_bytes = total
    else:
        hits = list(map(ne, links, repeat(NO_LINK)))
        positions = list(compress(range(count), hits))
        hit_codes = list(compress(links, hits))
        linked_bytes = sum(map(sizes.__getitem__, positions))
    result.files_considered += count
    result.bytes_total += total
    result.files_linked += linked
    result.bytes_linked += linked_bytes
    result.files_copied += count - linked
    result.bytes_delta += total - linked_bytes
    mtimes = file_set.mtimes
    if not linked:
        return file_set.mirror(sizes, None, (), mtimes)
    sizes = _linked_column(sizes, positions,
                           map(link_sizes.__getitem__, hit_codes))
    if link_mtimes or mtimes is not None:
        own = [0.0] * count if mtimes is None else mtimes
        linked_mtimes = _linked_column(
            own, positions, map(link_mtimes.get, hit_codes, repeat(0.0)))
        if linked_mtimes is not own:
            mtimes = linked_mtimes
    return file_set.mirror(sizes, links, link_targets, mtimes)


def _linked_column(column: Sequence, positions: Sequence[int],
                   linked: Iterable) -> Sequence:
    """``column`` with ``linked`` (one value per position in
    ``positions``) in place; ``column`` itself when nothing changes."""
    linked = list(linked)
    if not any(map(ne, linked, map(column.__getitem__, positions))):
        return column
    return list(map(dict(zip(positions, linked)).get, range(len(column)),
                    column))
