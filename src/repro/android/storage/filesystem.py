"""Per-device virtual filesystem.

Tracks files as (path -> entry with size and content hash); pairing's
rsync-style sync compares hashes to decide what can be hard-linked and
what must travel.  Partitions mirror Android: ``/system`` (frameworks,
libs), ``/data`` (app data and the Flux pairing area), ``/sdcard``.

Bulk trees (the ~800 framework and vendor files, and their mirrors in a
guest's pairing area) are immutable, columnar :class:`FileSet` objects
mounted at a prefix.  Individually written files live in a per-path
overlay of :class:`FileEntry` objects.  A write inside a mounted prefix
first copies that set into the overlay (copy-on-write), so every read
sees one plain path -> entry mapping either way.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from itertools import islice
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


class FsError(Exception):
    pass


@dataclass(frozen=True)
class TreeSignature:
    """Digest of a subtree's relative paths + contents + sizes.

    Two trees with equal signatures hold byte-identical content at
    identical relative paths, so a sync between them is a no-op — the
    rsync engine uses this to skip re-hashing unchanged trees on every
    migration's verify pass.
    """

    digest: str
    file_count: int
    total_bytes: int


@dataclass
class FileEntry:
    path: str
    size: int
    content_hash: str
    mtime: float = 0.0
    hard_link_of: Optional[str] = None   # path this entry links to

    def same_content(self, other: "FileEntry") -> bool:
        return self.content_hash == other.content_hash


def content_hash_for(token: str) -> str:
    """Stable hash for synthetic file content identified by ``token``."""
    return hashlib.sha256(token.encode("utf-8")).hexdigest()[:16]


class _Signer:
    """Folds runs of files, in path order, into a :class:`TreeSignature`."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()
        self.count = 0
        self.total = 0

    def add(self, relatives: Iterable[str], hashes: Iterable[str],
            sizes: Iterable[int]) -> None:
        parts: List[bytes] = []
        total = 0
        for relative, content_hash, size in zip(relatives, hashes, sizes):
            parts += (relative.encode("utf-8"), b"\x00",
                      content_hash.encode("ascii"), size.to_bytes(8, "big"))
            total += size
        self._digest.update(b"".join(parts))
        self.count += len(parts) // 4
        self.total += total

    def signature(self) -> TreeSignature:
        return TreeSignature(digest=self._digest.hexdigest(),
                             file_count=self.count, total_bytes=self.total)


class ComputedColumn(Sequence[str]):
    """A read-only column whose items are computed on read by ``_item``
    instead of stored one object each."""

    __slots__ = ()

    def _item(self, i: int) -> str:
        raise NotImplementedError

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._item(j) for j in range(*i.indices(len(self)))]
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(i)
        return self._item(i)


class PackedHashes(ComputedColumn):
    """A column of :func:`content_hash_for` hashes packed as raw bytes.

    Eight bytes per file instead of a 16-character string object each;
    items read back as the same hex strings.
    """

    __slots__ = ("_raw",)

    WIDTH = 8

    def __init__(self, raw: bytes) -> None:
        self._raw = raw

    @classmethod
    def of_tokens(cls, tokens: Iterable[str]) -> "PackedHashes":
        sha256, width = hashlib.sha256, cls.WIDTH
        return cls(b"".join(sha256(t.encode("utf-8")).digest()[:width]
                            for t in tokens))

    def __len__(self) -> int:
        return len(self._raw) // self.WIDTH

    def _item(self, i: int) -> str:
        return self._raw[i * self.WIDTH:(i + 1) * self.WIDTH].hex()

    def __iter__(self) -> Iterator[str]:
        # One space between hashes, then one split: no per-item Python.
        return iter(self._raw.hex(" ", self.WIDTH).split())


#: ``FileSet.links`` value of a file that is not a hard link.
NO_LINK = -1
LINK_STRIDE = 1 << 32


class FileSet:
    """An immutable, columnar set of files, mounted at a prefix.

    ``paths`` are sorted and relative to the mount prefix; each starts
    with ``/``.  ``sizes`` and ``hashes`` run parallel to them.  Any
    sequence type serves as a column, so a set can hold compact arrays
    or computed columns.

    Hard links: ``links`` (None when no file is one) holds
    :data:`NO_LINK` or ``link_code(target, position)`` per file, naming
    ``link_targets[target] = (base, paths)``; the link's path is then
    ``base + paths[position]``, so storing it allocates no string.
    ``mtimes`` is None when every mtime is 0.0.

    Sets never change after construction, so a set derived from another
    (a pairing mirror) shares its columns by reference, and the
    signature is computed at most once per object.
    """

    __slots__ = ("paths", "sizes", "hashes", "links", "link_targets",
                 "mtimes", "_signature")

    def __init__(self, paths: Sequence[str], sizes: Sequence[int],
                 hashes: Sequence[str],
                 links: Optional[Sequence[int]] = None,
                 link_targets: Tuple[Tuple[str, Sequence[str]], ...] = (),
                 mtimes: Optional[Sequence[float]] = None,
                 signature: Optional[TreeSignature] = None) -> None:
        self.paths = paths
        self.sizes = sizes
        self.hashes = hashes
        self.links = links
        self.link_targets = link_targets
        self.mtimes = mtimes
        self._signature = signature

    def __len__(self) -> int:
        return len(self.paths)

    def mtime(self, i: int) -> float:
        return 0.0 if self.mtimes is None else self.mtimes[i]

    def link_of(self, i: int) -> Optional[str]:
        if self.links is None or self.links[i] == NO_LINK:
            return None
        target, position = divmod(self.links[i], LINK_STRIDE)
        base, paths = self.link_targets[target]
        return base + paths[position]

    def entry(self, mount: str, i: int) -> FileEntry:
        return FileEntry(path=mount + self.paths[i], size=self.sizes[i],
                         content_hash=self.hashes[i], mtime=self.mtime(i),
                         hard_link_of=self.link_of(i))

    def physical_bytes(self, lo: int, hi: int) -> int:
        """Bytes of files ``lo:hi`` that are not hard links."""
        if self.links is None:
            return sum(self.sizes[lo:hi])
        return sum(size for size, link in zip(self.sizes[lo:hi],
                                              self.links[lo:hi])
                   if link == NO_LINK)

    def mirror(self, sizes: Sequence[int], links: Optional[Sequence[int]],
               link_targets: Tuple[Tuple[str, Sequence[str]], ...],
               mtimes: Optional[Sequence[float]]) -> "FileSet":
        """A set with this one's paths and hashes, shared by reference
        (and its signature too while ``sizes`` is this set's column)."""
        return FileSet(self.paths, sizes, self.hashes, links, link_targets,
                       mtimes,
                       self._signature if sizes is self.sizes else None)

    @property
    def signature(self) -> TreeSignature:
        """The set's :class:`TreeSignature` relative to its mount."""
        if self._signature is None:
            signer = _Signer()
            signer.add(self.paths, self.hashes, self.sizes)
            self._signature = signer.signature()
        return self._signature


def link_code(target: int, position: int) -> int:
    """The ``FileSet.links`` value naming ``link_targets[target]``'s
    file at ``position``."""
    return target * LINK_STRIDE + position


#: One run of the files under a prefix, in path order: either
#: ``(mount, file_set, lo, hi)`` for mounted files ``lo:hi``, or
#: ``(None, overlay_paths, 0, len(overlay_paths))``.
Run = Tuple[Optional[str], object, int, int]


class DeviceStorage:
    PARTITIONS = ("/system", "/data", "/sdcard")

    def __init__(self, device_name: str = "device") -> None:
        self.device_name = device_name
        #: The overlay: individually written files.  No overlay path lies
        #: inside a mounted prefix.
        self._files: Dict[str, FileEntry] = {}
        #: Mounted sets, sorted by ``mount + "/"`` (the parallel
        #: ``_mount_keys``).  Mounts never nest, so each one's files are
        #: one contiguous run of the device's sorted paths.
        self._mount_keys: List[str] = []
        self._mounts: List[Tuple[str, FileSet]] = []
        #: Cached tree signatures by prefix; a write drops only the
        #: prefixes it can change.
        self._signatures: Dict[str, TreeSignature] = {}
        #: Sorted overlay paths; None after the overlay's key set changes.
        self._sorted_paths: Optional[List[str]] = None

    # -- writes ----------------------------------------------------------------

    def add_file(self, path: str, size: int, content_token: str,
                 mtime: float = 0.0) -> FileEntry:
        self._check_path(path)
        return self._put(FileEntry(path=path, size=size,
                                   content_hash=content_hash_for(
                                       content_token),
                                   mtime=mtime))

    def add_hard_link(self, path: str, target: str) -> FileEntry:
        self._check_path(path)
        target_entry = self.get(target)
        return self._put(FileEntry(path=path, size=target_entry.size,
                                   content_hash=target_entry.content_hash,
                                   mtime=target_entry.mtime,
                                   hard_link_of=target))

    def copy_entry(self, entry: FileEntry, dest_path: str) -> FileEntry:
        self._check_path(dest_path)
        return self._put(FileEntry(path=dest_path, size=entry.size,
                                   content_hash=entry.content_hash,
                                   mtime=entry.mtime))

    def remove(self, path: str) -> FileEntry:
        if path not in self._files:
            if self._locate(path) is None:
                raise FsError(f"no file {path!r}")
            self._unmount_containing(path)
        entry = self._files.pop(path)
        self._sorted_paths = None
        self._invalidate(path)
        return entry

    def remove_tree(self, prefix: str) -> int:
        removed = 0
        for mount, file_set, lo, hi in self.runs(prefix):
            if mount is None:
                for path in file_set:
                    del self._files[path]
                self._sorted_paths = None
            elif hi - lo == len(file_set):
                self._unmount(mount, copy=False)
            else:
                self._unmount(mount)
                for i in range(lo, hi):
                    del self._files[mount + file_set.paths[i]]
            removed += hi - lo
        if removed:
            self._invalidate(prefix)
        return removed

    def mount(self, prefix: str, file_set: FileSet) -> None:
        """Mount ``file_set`` at ``prefix``, replacing the tree there."""
        self._check_path(prefix + "/")
        self.remove_tree(prefix + "/")
        self._unmount_containing(prefix)
        if not len(file_set):
            return
        key = prefix + "/"
        i = bisect_left(self._mount_keys, key)
        self._mount_keys.insert(i, key)
        self._mounts.insert(i, (prefix, file_set))
        self._invalidate(prefix)

    def _put(self, entry: FileEntry) -> FileEntry:
        path = entry.path
        self._unmount_containing(path)
        if path not in self._files:
            self._sorted_paths = None
        self._files[path] = entry
        self._invalidate(path)
        return entry

    def _invalidate(self, prefix: str) -> None:
        """Drop cached signatures of trees a write under ``prefix`` can
        change: those containing it or inside it."""
        stale = [cached for cached in self._signatures
                 if prefix.startswith(cached) or cached.startswith(prefix)]
        for cached in stale:
            del self._signatures[cached]

    def _mount_index(self, path: str) -> int:
        """Index of the mount whose prefix holds ``path``, or -1."""
        keys = self._mount_keys
        i = bisect_right(keys, path) - 1
        if i >= 0 and path.startswith(keys[i]):
            return i
        return -1

    def _unmount_containing(self, path: str) -> None:
        i = self._mount_index(path)
        if i >= 0:
            self._unmount(self._mounts[i][0])

    def _unmount(self, mount: str, copy: bool = True) -> None:
        """Take a set off its mount; with ``copy``, its files move into
        the overlay first (copy-on-write), so no read changes."""
        i = bisect_left(self._mount_keys, mount + "/")
        del self._mount_keys[i]
        _, file_set = self._mounts.pop(i)
        if copy:
            for j in range(len(file_set)):
                entry = file_set.entry(mount, j)
                self._files[entry.path] = entry
            self._sorted_paths = None

    # -- reads ----------------------------------------------------------------

    def get(self, path: str) -> FileEntry:
        entry = self._files.get(path)
        if entry is not None:
            return entry
        located = self._locate(path)
        if located is None:
            raise FsError(f"no file {path!r}")
        mount, file_set, i = located
        return file_set.entry(mount, i)

    def exists(self, path: str) -> bool:
        return path in self._files or self._locate(path) is not None

    def _locate(self, path: str) -> Optional[Tuple[str, FileSet, int]]:
        """``(mount, set, position)`` of a mounted file, or None."""
        i = self._mount_index(path)
        if i < 0:
            return None
        mount, file_set = self._mounts[i]
        relative = path[len(mount):]
        paths = file_set.paths
        j = bisect_left(paths, relative)
        if j < len(paths) and paths[j] == relative:
            return mount, file_set, j
        return None

    @staticmethod
    def _prefix_range(paths: Sequence[str], prefix: str) -> Tuple[int, int]:
        """``lo, hi`` such that ``paths[lo:hi]`` start with ``prefix``."""
        lo = bisect_left(paths, prefix)
        hi = lo
        n = len(paths)
        while hi < n and paths[hi].startswith(prefix):
            hi += 1
        return lo, hi

    def _overlay_under(self, prefix: str) -> List[str]:
        """Overlay paths with ``prefix``, sorted — O(log n + matches).

        The sorted index is rebuilt lazily after the overlay gains or
        loses a path; reads between such writes share one sort.
        """
        if self._sorted_paths is None:
            self._sorted_paths = sorted(self._files)
        lo, hi = self._prefix_range(self._sorted_paths, prefix)
        return self._sorted_paths[lo:hi]

    def runs(self, prefix: str) -> List[Run]:
        """The files under ``prefix`` as runs, in path order."""
        keys = self._mount_keys
        mounted: List[Run] = []
        i = bisect_left(keys, prefix)
        if i and prefix.startswith(keys[i - 1]):
            # The prefix lies inside one mount: a slice of its set.
            mount, file_set = self._mounts[i - 1]
            lo, hi = self._prefix_range(file_set.paths, prefix[len(mount):])
            if hi > lo:
                mounted.append((mount, file_set, lo, hi))
        while i < len(keys) and keys[i].startswith(prefix):
            mount, file_set = self._mounts[i]
            mounted.append((mount, file_set, 0, len(file_set)))
            i += 1
        overlay = self._overlay_under(prefix)
        if not mounted:
            return [(None, overlay, 0, len(overlay))] if overlay else []
        # An overlay path never lies inside a mount, so each mounted run
        # slots in whole where its key sorts among the overlay paths.
        runs: List[Run] = []
        start = 0
        for run in mounted:
            cut = bisect_left(overlay, run[0] + "/", start)
            if cut > start:
                runs.append((None, overlay[start:cut], 0, cut - start))
            runs.append(run)
            start = cut
        if start < len(overlay):
            rest = overlay[start:]
            runs.append((None, rest, 0, len(rest)))
        return runs

    def mounted_sets(self, prefix: str) -> Optional[List[Tuple[str,
                                                               FileSet]]]:
        """``(mount, set)`` pairs when the tree under ``prefix`` is made
        of whole sets mounted at or below ``prefix``, else None.  (A set
        whose mount is shorter than ``prefix`` holds paths relative to
        another root, even when ``prefix`` happens to select all of it.)
        """
        pairs = []
        for mount, file_set, lo, hi in self.runs(prefix):
            if (mount is None or not mount.startswith(prefix)
                    or hi - lo != len(file_set)):
                return None
            pairs.append((mount, file_set))
        return pairs

    def files_under(self, prefix: str) -> List[FileEntry]:
        files = self._files
        out: List[FileEntry] = []
        for mount, file_set, lo, hi in self.runs(prefix):
            if mount is None:
                out.extend(files[p] for p in file_set)
            else:
                out.extend(file_set.entry(mount, i) for i in range(lo, hi))
        return out

    def tree_size(self, prefix: str) -> int:
        """Logical bytes under ``prefix`` (hard links counted at full size)."""
        files = self._files
        total = 0
        for mount, file_set, lo, hi in self.runs(prefix):
            if mount is None:
                total += sum(files[p].size for p in file_set)
            else:
                total += sum(file_set.sizes[lo:hi])
        return total

    def unique_bytes(self, prefix: str) -> int:
        """Physical bytes under ``prefix`` (hard links are free)."""
        files = self._files
        total = 0
        for mount, file_set, lo, hi in self.runs(prefix):
            if mount is None:
                total += sum(files[p].size for p in file_set
                             if files[p].hard_link_of is None)
            else:
                total += file_set.physical_bytes(lo, hi)
        return total

    def by_hash_under(self, prefix: str) -> Dict[str, FileEntry]:
        return {e.content_hash: e for e in self.files_under(prefix)}

    def tree_signature(self, prefix: str) -> TreeSignature:
        """Memoized :class:`TreeSignature` of everything under ``prefix``.

        Cached per prefix until a write lands in that tree, so the
        per-migration verify pass compares one digest per tree instead
        of re-walking and re-hashing every file.
        """
        signature = self._signatures.get(prefix)
        if signature is not None:
            return signature
        runs = self.runs(prefix)
        if (len(runs) == 1 and runs[0][0] == prefix
                and runs[0][3] - runs[0][2] == len(runs[0][1])):
            signature = runs[0][1].signature
        else:
            signature = self._sign(prefix, runs)
        self._signatures[prefix] = signature
        return signature

    def _sign(self, prefix: str, runs: List[Run]) -> TreeSignature:
        signer = _Signer()
        cut = len(prefix)
        for mount, file_set, lo, hi in runs:
            if mount is None:
                entries = [self._files[path] for path in file_set]
                signer.add((path[cut:] for path in file_set),
                           (e.content_hash for e in entries),
                           (e.size for e in entries))
                continue
            paths = islice(file_set.paths, lo, hi)
            if len(mount) >= cut:
                head = mount[cut:]
                relatives = (head + path for path in paths)
            else:
                inner = cut - len(mount)
                relatives = (path[inner:] for path in paths)
            signer.add(relatives, islice(file_set.hashes, lo, hi),
                       islice(file_set.sizes, lo, hi))
        return signer.signature()

    def cached_signature(self, prefix: str) -> Optional[TreeSignature]:
        """The signature of ``prefix`` if one is cached, else None."""
        return self._signatures.get(prefix)

    def seed_signature(self, prefix: str, signature: TreeSignature) -> None:
        """Record a signature known to hold for ``prefix`` (a sync that
        just mirrored a tree whose signature it already has)."""
        self._signatures[prefix] = signature

    def file_count(self, prefix: str = "/") -> int:
        return sum(hi - lo for _, _, lo, hi in self.runs(prefix))

    @staticmethod
    def _check_path(path: str) -> None:
        if not path.startswith("/"):
            raise FsError(f"path must be absolute: {path!r}")
