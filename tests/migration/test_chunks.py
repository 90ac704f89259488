"""Content-addressed chunking, the chunk store, and the pipelined path."""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cria import checkpoint_app, prepare_app
from repro.core.extensions import FluxExtensions
from repro.core.migration import costs
from repro.android.kernel.memory import MemoryRegion, RegionKind
from repro.core.cria.image import CheckpointImage, ProcessImage
from repro.core.migration.chunks import (
    CHUNK_BYTES,
    Chunk,
    ChunkStore,
    _digest,
    chunk_image,
)
from repro.sim.metrics import MetricsRegistry
from repro.sim.telemetry import Telemetry
from tests.conftest import DEMO_PACKAGE, launch_demo


@pytest.fixture
def image(device, demo_thread):
    prepare_app(device, DEMO_PACKAGE)
    return checkpoint_app(device, DEMO_PACKAGE)


class TestChunkImage:
    def test_sizes_sum_to_raw_bytes(self, image):
        chunks = chunk_image(image)
        assert sum(c.raw_bytes for c in chunks) == image.raw_bytes()

    def test_wire_bytes_track_compression(self, image):
        from repro.core.cria.image import IMAGE_COMPRESSION_RATIO
        for chunk in chunk_image(image):
            assert chunk.wire_bytes == int(
                chunk.raw_bytes * IMAGE_COMPRESSION_RATIO)

    def test_chunks_respect_chunk_size(self, image):
        for chunk in chunk_image(image, chunk_bytes=4096):
            if chunk.label.startswith(("descriptors", "record-log")):
                continue
            assert chunk.raw_bytes <= 4096

    def test_digests_stable_across_calls(self, image):
        a = [c.digest for c in chunk_image(image)]
        b = [c.digest for c in chunk_image(image)]
        assert a == b

    def test_region_change_invalidates_its_chunks_only(self, image):
        before = {c.label: c.digest for c in chunk_image(image)}
        heap = next(r for r in image.main_process.regions
                    if r.name == "dalvik-heap")
        heap.payload += b"mutation"
        after = {c.label: c.digest for c in chunk_image(image)}
        assert before.keys() == after.keys()
        changed = {label for label in before
                   if before[label] != after[label]}
        assert changed == {label for label in before
                           if ":dalvik-heap:" in label}

    def test_code_regions_never_chunked(self, image):
        labels = {c.label for c in chunk_image(image)}
        for proc in image.processes:
            for region in proc.regions:
                if region.kind.value == "code":
                    assert not any(f":{region.name}:" in l for l in labels)

    def test_descriptor_chunk_keyed_by_checkpoint_time(self, image):
        first = chunk_image(image)[0]
        image.checkpoint_time += 1.0
        second = chunk_image(image)[0]
        assert first.label == second.label == "descriptors"
        assert first.digest != second.digest

    def test_bad_chunk_size_rejected(self, image):
        with pytest.raises(ValueError):
            chunk_image(image, chunk_bytes=0)


def _fresh_hash(region):
    """``content_hash`` derived from the fields, without the cache."""
    digest = hashlib.sha256()
    digest.update(region.name.encode("utf-8"))
    digest.update(region.kind.value.encode("ascii"))
    digest.update(region.size.to_bytes(8, "big"))
    digest.update(region.payload)
    return digest.hexdigest()


def _fresh_region_chunks(image, chunk_bytes):
    """Each region chunk's (label, digest, length), from ``_digest``."""
    out = []
    for proc in image.processes:
        for region in proc.regions:
            if region.kind is RegionKind.CODE:
                continue
            content = _fresh_hash(region)
            for offset in range(0, region.size, chunk_bytes):
                length = min(chunk_bytes, region.size - offset)
                out.append((f"{proc.virtual_pid}:{region.name}:{offset}",
                            _digest("region", content, offset, length),
                            length))
    return out


def _region_chunks(image, chunk_bytes):
    return [(c.label, c.digest, c.raw_bytes)
            for c in chunk_image(image, chunk_bytes)
            if c.label not in ("descriptors", "record-log")]


def _image_of(regions):
    return CheckpointImage(
        package="app", source_device="d", source_kernel="k",
        android_version="4.4", api_level=19, checkpoint_time=1.0,
        processes=[ProcessImage(
            name="app:main", virtual_pid=1, uid=10001, regions=regions,
            threads=[], fds=[], binder_refs=[], owned_node_labels=[])],
        app_payload=None, record_log=[])


regions = st.lists(
    st.builds(MemoryRegion,
              name=st.text(min_size=1, max_size=8),
              kind=st.sampled_from(list(RegionKind)),
              size=st.integers(0, 40_000),
              payload=st.binary(max_size=32)),
    min_size=1, max_size=4, unique_by=lambda region: region.name)


class TestRegionDigestCache:
    """A region keeps its content hash and chunk digests; they must
    always equal a fresh derivation from its fields."""

    @settings(max_examples=60, deadline=None)
    @given(regions, st.integers(512, 20_000), st.integers(512, 20_000),
           st.binary(max_size=32))
    def test_cached_digests_equal_a_fresh_derivation(
            self, regions, chunk_bytes, other_chunk_bytes, payload):
        image = _image_of(regions)
        expected = _fresh_region_chunks(image, chunk_bytes)
        assert _region_chunks(image, chunk_bytes) == expected
        assert _region_chunks(image, chunk_bytes) == expected   # cached
        assert _region_chunks(image, other_chunk_bytes) == \
            _fresh_region_chunks(image, other_chunk_bytes)

        # A field assignment drops both caches.
        regions[0].payload = payload
        assert regions[0].content_hash() == _fresh_hash(regions[0])
        assert _region_chunks(image, chunk_bytes) == \
            _fresh_region_chunks(image, chunk_bytes)

        # A clone carries the caches, and they still hold for it.
        twins = [region.clone() for region in regions]
        for region, twin in zip(regions, twins):
            assert twin == region
            assert ([getattr(twin, slot) for slot in MemoryRegion.__slots__]
                    == [getattr(region, slot)
                        for slot in MemoryRegion.__slots__])
        twin_image = _image_of(twins)
        assert _region_chunks(twin_image, chunk_bytes) == \
            _fresh_region_chunks(twin_image, chunk_bytes)
        twins[-1].size += 1
        assert _region_chunks(twin_image, chunk_bytes) == \
            _fresh_region_chunks(twin_image, chunk_bytes)


def _store_count(metrics, name):
    """A ``chunks/store_<name>`` counter (0 until the first count)."""
    return metrics.snapshot()["counters"].get(f"chunks/store_{name}", 0)


class TestChunkStore:
    def _chunk(self, n, size=100):
        return Chunk(digest=f"d{n}", raw_bytes=size, label=f"c{n}")

    def test_split_partitions_and_counts(self):
        store = ChunkStore(telemetry=dataclasses.replace(
            Telemetry.null(), metrics=MetricsRegistry()))
        chunks = [self._chunk(i) for i in range(4)]
        store.add_many(chunks[:2])
        cached, missing = store.split(chunks)
        assert [c.digest for c in cached] == ["d0", "d1"]
        assert [c.digest for c in missing] == ["d2", "d3"]
        hits = _store_count(store.metrics, "hits")
        misses = _store_count(store.metrics, "misses")
        assert hits == 2 and misses == 2
        assert hits / (hits + misses) == 0.5

    def test_add_is_idempotent(self):
        store = ChunkStore()
        store.add_many([self._chunk(1)])
        store.add_many([self._chunk(1)])
        assert len(store) == 1
        assert store.bytes_stored == 100

    def test_time_keyed_chunks_count_bytes_but_keep_no_digest(self, image):
        chunks = chunk_image(image)
        timed = [c for c in chunks if c.time_keyed]
        assert {c.label for c in timed} <= {"descriptors", "record-log"}
        assert chunks[0] in timed
        store = ChunkStore()
        store.add_many(chunks)
        assert store.bytes_stored == sum(c.raw_bytes for c in chunks)
        assert len(store) == len(chunks) - len(timed)
        cached, missing = store.split(chunks)
        assert missing == timed and len(cached) == len(store)

    def test_clear(self):
        store = ChunkStore()
        store.add_many(self._chunk(i) for i in range(5))
        store.clear()
        assert len(store) == 0 and store.bytes_stored == 0

    def test_store_gauge_set_once_per_batch_with_a_new_chunk(self,
                                                             monkeypatch):
        telemetry = dataclasses.replace(Telemetry.null(),
                                        metrics=MetricsRegistry())
        store = ChunkStore(telemetry=telemetry)
        metrics = store.metrics
        lookups = []
        gauge = metrics.gauge
        monkeypatch.setattr(metrics, "gauge",
                            lambda *key: lookups.append(key) or gauge(*key))
        store.add_many(self._chunk(i) for i in range(4))
        store.add_many([self._chunk(2), self._chunk(3)])   # nothing new
        store.add_many([self._chunk(4)])
        # Looked up at the first set, then held.
        assert lookups == [("chunks", "store_bytes")]
        assert store.bytes_stored == 500
        assert metrics.snapshot()["gauges"] == {"chunks/store_bytes": 500}


class TestCostModel:
    def test_rate_split_conserves_cpu_work(self):
        # Pipelined mode must do the same total CPU work as the serial
        # path: serialize + compress == the calibrated checkpoint cost.
        for raw in (1, 4096, 13_500_000):
            for cpu in (0.8, 1.0, 1.4):
                split = (costs.serialize_cost(raw, cpu)
                         + costs.chunk_compress_cost(raw, cpu))
                assert split == pytest.approx(costs.checkpoint_cost(raw, cpu))

    def test_pipeline_bounds(self):
        prep = [0.3, 0.1, 0.2]
        send = [0.2, 0.4, 0.1]
        total = costs.pipeline_seconds(prep, send)
        assert total >= max(sum(prep), sum(send))
        assert total < sum(prep) + sum(send)

    def test_pipeline_degenerate_cases(self):
        assert costs.pipeline_seconds([], []) == 0.0
        assert costs.pipeline_seconds([1.0], [2.0]) == 3.0

    def test_pipeline_link_bound(self):
        # Slow link: completion is fill (first compress) + all sends.
        total = costs.pipeline_seconds([0.1] * 4, [1.0] * 4)
        assert total == pytest.approx(0.1 + 4.0)


class TestPipelinedMigration:
    EXT = FluxExtensions(pipelined_transfer=True)

    def _migrate(self, home, guest):
        return home.migration_service.migrate(guest, DEMO_PACKAGE,
                                              extensions=self.EXT)

    def test_first_migration_all_misses(self, device_pair):
        home, guest = device_pair
        launch_demo(home)
        home.pairing_service.pair(guest)
        report = self._migrate(home, guest)
        assert report.success
        assert report.transfer_chunks_total > 0
        assert report.transfer_chunks_cached == 0
        assert report.chunk_hit_rate == 0.0

    def test_repeat_migration_hits_cache(self, device_pair):
        home, guest = device_pair
        launch_demo(home)
        home.pairing_service.pair(guest)
        first = self._migrate(home, guest)
        back = self._migrate(guest, home)
        repeat = self._migrate(home, guest)
        assert repeat.chunk_hit_rate > 0
        assert repeat.transfer_chunks_cached > 0
        assert repeat.image_wire_bytes < first.image_wire_bytes
        assert repeat.transferred_bytes < first.transferred_bytes
        assert repeat.stages["transfer"] < first.stages["transfer"]
        # The return hop also benefits: home cached the chunks it sent.
        assert back.chunk_hit_rate > 0

    def test_cache_survives_ring(self, device_pair):
        """home -> guest -> home -> guest: stores persist across hops."""
        home, guest = device_pair
        launch_demo(home)
        home.pairing_service.pair(guest)
        self._migrate(home, guest)
        assert len(guest.chunk_store) > 0
        assert len(home.chunk_store) > 0
        self._migrate(guest, home)
        repeat = self._migrate(home, guest)
        assert repeat.success
        assert repeat.chunk_hit_rate > 0.5

    def test_cleared_cache_means_full_transfer(self, device_pair):
        home, guest = device_pair
        launch_demo(home)
        home.pairing_service.pair(guest)
        first = self._migrate(home, guest)
        self._migrate(guest, home)
        home.chunk_store.clear()
        guest.chunk_store.clear()
        repeat = self._migrate(home, guest)
        assert repeat.transfer_chunks_cached == 0

    def test_default_path_moves_whole_image(self, device_pair):
        home, guest = device_pair
        launch_demo(home)
        home.pairing_service.pair(guest)
        report = home.migration_service.migrate(guest, DEMO_PACKAGE)
        # No digest negotiation on the serial path: the full compressed
        # image crosses the wire and nothing is reported as chunked.
        assert report.transfer_chunks_total == 0
        assert report.chunk_hit_rate == 0.0
        assert report.image_wire_bytes == report.image_compressed_bytes
        # ...but both ends still index what crossed, so a later
        # pipelined hop can dedupe against a serial one.
        assert len(guest.chunk_store) > 0
        assert _store_count(guest.metrics, "hits") == 0
        assert _store_count(guest.metrics, "misses") == 0

    def test_pipelined_after_serial_dedupes(self, device_pair):
        home, guest = device_pair
        launch_demo(home)
        home.pairing_service.pair(guest)
        home.migration_service.migrate(guest, DEMO_PACKAGE)
        # Send it back serially too, then pipeline a repeat hop: the
        # unchanged regions were indexed by the serial transfers.
        guest.migration_service.migrate(home, DEMO_PACKAGE)
        repeat = self._migrate(home, guest)
        assert repeat.transfer_chunks_cached > 0
        assert repeat.image_wire_bytes < repeat.image_compressed_bytes
