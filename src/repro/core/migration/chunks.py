"""Content-addressed chunking of checkpoint images.

The paper's §4 names transfer as the dominant migration stage (>50% of
total time) and sketches transfer optimization as future work.  This
module implements the state-movement half of that sketch: the checkpoint
image is split into fixed-size, content-addressed chunks, and every
device keeps a :class:`ChunkStore` — a digest-indexed record of chunks
it has already received (or sent).  A repeat migration to the same guest
then negotiates digests first and moves only the chunks the guest has
never seen; for the common ring patterns (battery rescue round trips,
meeting pass-arounds) that is a small fraction of the image.

Chunk addressing is conservative: a chunk's digest covers the owning
region's full content hash plus the chunk's offset, so *any* change to a
region invalidates all of its chunks, and the always-changing parts of
an image (header/descriptor tables, the record log) are addressed by
checkpoint time so they are never falsely deduplicated.  The store holds
digests and sizes only — chunk payloads live in the checkpoint image
itself; this mirrors how a real implementation would index a blob cache.

Used only on the ``FluxExtensions.pipelined_transfer`` path; the default
migration keeps the paper-faithful whole-image transfer.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from repro.core.cria.image import CheckpointImage, IMAGE_COMPRESSION_RATIO
from repro.sim import units
from repro.sim.telemetry import Telemetry


#: Raw (uncompressed) bytes per chunk.  256 KB keeps the digest table
#: small (a 14 MB image is ~55 chunks) while chunking finely enough that
#: partial image changes keep most of their chunks cacheable.
CHUNK_BYTES = units.kb(256)


@dataclass(slots=True)
class Chunk:
    """One content-addressed slice of a checkpoint image."""

    digest: str
    raw_bytes: int
    label: str = ""                 # "pid:region:offset", for diagnostics

    @property
    def wire_bytes(self) -> int:
        """Compressed bytes this chunk occupies on the wire."""
        return int(self.raw_bytes * IMAGE_COMPRESSION_RATIO)


def _digest(*parts: object) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def chunk_image(image: CheckpointImage,
                chunk_bytes: int = CHUNK_BYTES) -> List[Chunk]:
    """Split ``image`` into content-addressed chunks.

    The chunk sizes sum exactly to ``image.raw_bytes()`` so the chunked
    and whole-image accounting agree.  Memory-region chunks are
    addressed by region content (cacheable across migrations while the
    region is unchanged); the header/descriptor chunk and the record-log
    chunk are addressed by checkpoint time (live state, never assumed
    cached).
    """
    if chunk_bytes <= 0:
        raise ValueError(f"bad chunk size {chunk_bytes!r}")
    chunks: List[Chunk] = []

    # Image header + binder/fd/thread descriptor tables: one chunk,
    # keyed by checkpoint time — descriptors change with live state.
    descriptor_bytes = 4096
    for proc in image.processes:
        descriptor_bytes += (
            len(proc.binder_refs) * image.BINDER_REF_BYTES
            + len(proc.fds) * image.FD_BYTES
            + len(proc.threads) * image.THREAD_BYTES)
    chunks.append(Chunk(
        digest=_digest("descriptors", image.package, image.checkpoint_time),
        raw_bytes=descriptor_bytes, label="descriptors"))

    # Memory regions (CODE pages never travel: the APK was synced at
    # pairing — same rule as ProcessImage.anonymous_memory_bytes).
    for proc in image.processes:
        for region in proc.regions:
            if region.kind.value == "code":
                continue
            # Each digest is _digest("region", content_hash, offset,
            # length); the region derives and keeps them.
            label_head = f"{proc.virtual_pid}:{region.name}:"
            offset = 0
            for digest, length in region.chunk_digests(chunk_bytes):
                chunks.append(Chunk(digest, length, label_head + str(offset)))
                offset += length

    # The pruned record log: replayed live state, keyed by checkpoint
    # time so two migrations never share it even if sizes coincide.
    log_bytes = image.record_log_bytes()
    if log_bytes:
        chunks.append(Chunk(
            digest=_digest("record-log", image.package,
                           image.checkpoint_time, log_bytes),
            raw_bytes=log_bytes, label="record-log"))
    return chunks


class ChunkStore:
    """Digest-indexed record of chunks a device has seen.

    Persists for the life of the device (across migrations), which is
    what makes ring tests and repeat migrations cheap: the second
    transfer of an unchanged heap region is a digest lookup, not a wire
    payload.  The store is a digest set plus the raw bytes it covers;
    hits and misses are counted only by the ``chunks/store_*`` metrics.
    """

    def __init__(self, telemetry: Optional[Telemetry] = None) -> None:
        self._digests: Set[str] = set()
        self.bytes_stored = 0
        self.metrics = (telemetry or Telemetry.null()).metrics

    def __len__(self) -> int:
        return len(self._digests)

    def __contains__(self, digest: str) -> bool:
        return digest in self._digests

    def add_many(self, chunks: Iterable[Chunk]) -> None:
        """Record each chunk as present.

        The ``store_bytes`` gauge is set once, after the batch, and only
        if the batch stored a new chunk: a batch runs at one instant, so
        its last value is the only sample the series keeps anyway.
        """
        stored = False
        for chunk in chunks:
            if chunk.digest in self._digests:
                continue
            self._digests.add(chunk.digest)
            self.bytes_stored += chunk.raw_bytes
            stored = True
        if stored:
            self.metrics.gauge("chunks", "store_bytes").set(self.bytes_stored)

    def split(self, chunks: Iterable[Chunk]
              ) -> Tuple[List[Chunk], List[Chunk]]:
        """Partition ``chunks`` into (cached, missing), counting both.

        This is the digest negotiation a sender performs before a
        chunked transfer: cached chunks need not travel.
        """
        cached: List[Chunk] = []
        missing: List[Chunk] = []
        for chunk in chunks:
            if chunk.digest in self._digests:
                cached.append(chunk)
            else:
                missing.append(chunk)
        if cached:
            self.metrics.counter("chunks", "store_hits").inc(len(cached))
            self.metrics.counter("chunks", "store_bytes_avoided").inc(
                sum(c.wire_bytes for c in cached))
        if missing:
            self.metrics.counter("chunks", "store_misses").inc(len(missing))
        return cached, missing

    def clear(self) -> None:
        self._digests.clear()
        self.bytes_stored = 0
