"""Process address-space model.

A process owns a set of named memory regions.  Regions carry a *kind* and
a *device-specific* flag: CRIA may only checkpoint regions that are not
device specific, so the preparation phase (backgrounding, trim-memory,
eglUnload) must have removed every device-specific region first.  Region
contents are modelled as an opaque byte payload plus a size; checkpoint
images copy the payload so restore can verify integrity.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple


class RegionKind(enum.Enum):
    CODE = "code"            # app executable / dex
    HEAP = "heap"            # Dalvik + native heap
    STACK = "stack"
    MMAP = "mmap"            # plain anonymous or file-backed mapping
    ASHMEM = "ashmem"        # Android shared memory
    PMEM = "pmem"            # physically contiguous (GPU) memory
    GL_VENDOR = "gl_vendor"  # vendor GL library state (device specific)
    GL_CONTEXT = "gl_context"  # EGL/GL context storage (device specific)
    SURFACE = "surface"      # window drawing surface buffers


DEVICE_SPECIFIC_KINDS = frozenset({
    RegionKind.PMEM,
    RegionKind.GL_VENDOR,
    RegionKind.GL_CONTEXT,
    RegionKind.SURFACE,
})


class MemoryError_(Exception):
    """Address-space errors (shadowing builtin MemoryError intentionally avoided)."""


#: The fields a region's content hash and chunk digests derive from (and
#: ``shared_with``); assigning any of them drops both caches.
_REGION_FIELDS = frozenset({"name", "kind", "size", "payload", "shared_with"})


@dataclass(init=False, slots=True)
class MemoryRegion:
    """One mapping in a process address space.

    The region owns the two values derived from its content: its
    :meth:`content_hash` and its chunk digests (:meth:`chunk_digests`).
    Each is computed on first use and kept until a field is assigned;
    :meth:`clone` carries both, so a region copied through checkpoint,
    restore and the next checkpoint is hashed once.  The class is
    slotted: checkpoint and restore clone every region of an app, and a
    clone is one object, without a ``__dict__`` of its own.
    """

    name: str
    kind: RegionKind
    size: int
    payload: bytes = b""
    shared_with: Optional[str] = None  # ashmem name when shared
    # Derived-value caches, None until first use.
    _hash: Optional[str] = field(default=None, init=False, repr=False,
                                 compare=False)
    _chunks: Optional[Tuple[int, Tuple[Tuple[str, int], ...]]] = field(
        default=None, init=False, repr=False, compare=False)

    def __init__(self, name: str, kind: RegionKind, size: int,
                 payload: bytes = b"",
                 shared_with: Optional[str] = None) -> None:
        if size < 0:
            raise MemoryError_(f"negative region size for {name!r}")
        _set = object.__setattr__
        _set(self, "name", name)
        _set(self, "kind", kind)
        _set(self, "size", size)
        _set(self, "payload", payload)
        _set(self, "shared_with", shared_with)
        _set(self, "_hash", None)
        _set(self, "_chunks", None)

    def __setattr__(self, name: str, value) -> None:
        object.__setattr__(self, name, value)
        if name in _REGION_FIELDS:
            object.__setattr__(self, "_hash", None)
            object.__setattr__(self, "_chunks", None)

    @property
    def device_specific(self) -> bool:
        return self.kind in DEVICE_SPECIFIC_KINDS

    def content_hash(self) -> str:
        cached = self._hash
        if cached is None:
            digest = hashlib.sha256()
            digest.update(self.name.encode("utf-8"))
            digest.update(self.kind.value.encode("ascii"))
            digest.update(self.size.to_bytes(8, "big"))
            digest.update(self.payload)
            cached = digest.hexdigest()
            object.__setattr__(self, "_hash", cached)
        return cached

    def chunk_digests(self, chunk_bytes: int
                      ) -> Tuple[Tuple[str, int], ...]:
        """``(digest, length)`` of each ``chunk_bytes`` slice, in order.

        A chunk's digest covers ``("region", content_hash)`` plus its
        offset and length (see ``core.migration.chunks``), so any
        change to the region changes all of them.  Kept for the last
        ``chunk_bytes`` asked for.
        """
        cached = self._chunks
        if cached is None or cached[0] != chunk_bytes:
            prefix = hashlib.sha256(
                f"region\x00{self.content_hash()}\x00".encode("utf-8"))
            digests = []
            offset, size = 0, self.size
            while offset < size:
                length = min(chunk_bytes, size - offset)
                h = prefix.copy()
                h.update(f"{offset}\x00{length}\x00".encode("utf-8"))
                digests.append((h.hexdigest(), length))
                offset += length
            cached = (chunk_bytes, tuple(digests))
            object.__setattr__(self, "_chunks", cached)
        return cached[1]

    def clone(self) -> "MemoryRegion":
        twin = object.__new__(MemoryRegion)
        _set = object.__setattr__
        for slot in self.__slots__:
            _set(twin, slot, getattr(self, slot))
        return twin


class AddressSpace:
    """The set of memory regions mapped into one process."""

    def __init__(self) -> None:
        self._regions: Dict[str, MemoryRegion] = {}

    def map(self, region: MemoryRegion) -> MemoryRegion:
        if region.name in self._regions:
            raise MemoryError_(f"region {region.name!r} already mapped")
        self._regions[region.name] = region
        return region

    def unmap(self, name: str) -> MemoryRegion:
        try:
            return self._regions.pop(name)
        except KeyError:
            raise MemoryError_(f"region {name!r} not mapped") from None

    def get(self, name: str) -> MemoryRegion:
        try:
            return self._regions[name]
        except KeyError:
            raise MemoryError_(f"region {name!r} not mapped") from None

    def has(self, name: str) -> bool:
        return name in self._regions

    def regions(self, kind: Optional[RegionKind] = None) -> List[MemoryRegion]:
        if kind is None:
            return list(self._regions.values())
        return [r for r in self._regions.values() if r.kind == kind]

    def device_specific_regions(self) -> List[MemoryRegion]:
        return [r for r in self._regions.values() if r.device_specific]

    def total_size(self, kind: Optional[RegionKind] = None) -> int:
        return sum(r.size for r in self.regions(kind))

    def __iter__(self) -> Iterator[MemoryRegion]:
        return iter(list(self._regions.values()))

    def __len__(self) -> int:
        return len(self._regions)
