"""Virtual filesystem, rsync engine, framework file sets, APKs."""

import pytest
from hypothesis import given, strategies as st

from repro.android.storage import (
    ApkFile,
    DeviceStorage,
    FsError,
    RsyncEngine,
    populate_system_partition,
)
from repro.android.storage.filesystem import PackedHashes
from repro.android.storage.framework_files import (
    COMMON_BYTES,
    DEVICE_BYTES,
    DEVICE_FILE_COUNT,
)
from repro.sim import units
from repro.sim.rng import RngFactory


class TestFilesystem:
    def test_add_get_remove(self):
        storage = DeviceStorage()
        storage.add_file("/data/x", 100, "x-v1")
        assert storage.get("/data/x").size == 100
        storage.remove("/data/x")
        assert not storage.exists("/data/x")

    def test_relative_path_rejected(self):
        with pytest.raises(FsError):
            DeviceStorage().add_file("data/x", 1, "t")

    def test_tree_queries(self):
        storage = DeviceStorage()
        storage.add_file("/data/app/a.apk", 10, "a")
        storage.add_file("/data/app/b.apk", 20, "b")
        storage.add_file("/system/lib.so", 5, "lib")
        assert storage.tree_size("/data/app") == 30
        assert storage.file_count("/data") == 2
        assert storage.remove_tree("/data") == 2

    def test_hard_links_free_physical_bytes(self):
        storage = DeviceStorage()
        storage.add_file("/system/lib.so", 100, "lib")
        storage.add_hard_link("/data/flux/lib.so", "/system/lib.so")
        assert storage.tree_size("/data/flux") == 100
        assert storage.unique_bytes("/data/flux") == 0

    def test_same_token_same_hash(self):
        a = DeviceStorage().add_file("/a", 1, "tok")
        b = DeviceStorage().add_file("/b", 1, "tok")
        assert a.same_content(b)


class TestRsync:
    def _source(self):
        src = DeviceStorage("src")
        src.add_file("/system/common.jar", 100, "common")
        src.add_file("/system/vendor.so", 50, "src-only")
        return src

    def test_link_dest_links_identical_content(self):
        src = self._source()
        dst = DeviceStorage("dst")
        dst.add_file("/system/own-common.jar", 100, "common")
        result = RsyncEngine().sync(src, "/system", dst, "/data/flux/system",
                                    link_dest_prefix="/system")
        assert result.files_linked == 1
        assert result.bytes_linked == 100
        assert result.files_copied == 1
        assert result.bytes_delta == 50
        assert result.bytes_after_linking == 50
        assert dst.get("/data/flux/system/common.jar").hard_link_of == \
            "/system/own-common.jar"

    def test_second_sync_is_a_noop(self):
        src = self._source()
        dst = DeviceStorage("dst")
        engine = RsyncEngine()
        engine.sync(src, "/system", dst, "/mirror")
        again = engine.sync(src, "/system", dst, "/mirror")
        assert again.files_already_synced == 2
        assert again.bytes_delta == 0

    def test_changed_file_resynced(self):
        src = self._source()
        dst = DeviceStorage("dst")
        engine = RsyncEngine()
        engine.sync(src, "/system", dst, "/mirror")
        src.remove("/system/common.jar")
        src.add_file("/system/common.jar", 120, "common-v2")
        result = engine.sync(src, "/system", dst, "/mirror")
        assert result.files_copied == 1
        assert result.bytes_delta == 120

    def test_compression_applied_to_delta_only(self):
        src = self._source()
        dst = DeviceStorage("dst")
        dst.add_file("/system/x.jar", 100, "common")
        engine = RsyncEngine(compression_ratio=0.5)
        result = engine.sync(src, "/system", dst, "/m",
                             link_dest_prefix="/system")
        assert result.bytes_compressed == 25   # half of the 50-byte delta

    def test_verify_lists_stale_paths(self):
        src = self._source()
        dst = DeviceStorage("dst")
        engine = RsyncEngine()
        assert len(engine.verify(src, "/system", dst, "/m")) == 2
        engine.sync(src, "/system", dst, "/m")
        assert engine.verify(src, "/system", dst, "/m") == []

    def test_bad_compression_ratio_rejected(self):
        with pytest.raises(ValueError):
            RsyncEngine(compression_ratio=0.0)

    @given(st.lists(st.tuples(st.integers(1, 10_000), st.booleans()),
                    min_size=1, max_size=25))
    def test_accounting_invariant(self, files):
        """bytes_total == linked + delta + already-synced bytes."""
        src = DeviceStorage("src")
        dst = DeviceStorage("dst")
        already = 0
        for i, (size, shared) in enumerate(files):
            token = f"shared-{i}" if shared else f"unique-{i}"
            src.add_file(f"/system/f{i}", size, token)
            if shared:
                dst.add_file(f"/system/g{i}", size, token)
        result = RsyncEngine().sync(src, "/system", dst, "/m",
                                    link_dest_prefix="/system")
        assert result.bytes_total == result.bytes_linked + result.bytes_delta
        assert result.files_considered == len(files)


class TestFrameworkFiles:
    def test_paper_constant_data_shape(self):
        factory = RngFactory(0)
        a = DeviceStorage("a")
        b = DeviceStorage("b")
        populate_system_partition(a, "4.4.2", "nexus4", factory)
        populate_system_partition(b, "4.4.2", "nexus7", factory)
        assert a.tree_size("/system") == COMMON_BYTES + DEVICE_BYTES
        # Cross-device sync with link-dest finds exactly the common part.
        result = RsyncEngine().sync(a, "/system", b, "/data/flux/system",
                                    link_dest_prefix="/system")
        assert result.bytes_linked == COMMON_BYTES
        assert result.bytes_delta == DEVICE_BYTES

    def test_different_android_versions_share_nothing(self):
        factory = RngFactory(0)
        a = DeviceStorage("a")
        b = DeviceStorage("b")
        populate_system_partition(a, "4.4.2", "nexus4", factory)
        populate_system_partition(b, "4.3", "nexus7", factory)
        result = RsyncEngine().sync(a, "/system", b, "/m",
                                    link_dest_prefix="/system")
        assert result.bytes_linked == 0

    def test_hash_columns_shared_per_template(self):
        """The hash column depends only on the Android version and the
        profile, so boots with one template share it; sizes still come
        from each boot's own RNG stream."""
        a, b, c = (DeviceStorage(name) for name in "abc")
        populate_system_partition(a, "4.4.2", "nexus4", RngFactory(0))
        populate_system_partition(b, "4.4.2", "nexus4", RngFactory(1))
        populate_system_partition(c, "4.4.2", "nexus7", RngFactory(0))
        sets = {name: dict(storage.mounted_sets("/system"))
                for name, storage in zip("abc", (a, b, c))}
        for prefix in ("/system/framework", "/system/vendor"):
            assert sets["a"][prefix].hashes is sets["b"][prefix].hashes
            assert list(sets["a"][prefix].sizes) != list(
                sets["b"][prefix].sizes)
        assert (sets["a"]["/system/framework"].hashes
                is sets["c"]["/system/framework"].hashes)
        assert (sets["a"]["/system/vendor"].hashes
                is not sets["c"]["/system/vendor"].hashes)
        assert list(sets["a"]["/system/vendor"].hashes) == list(
            PackedHashes.of_tokens(f"android-4.4.2/nexus4/vendor/{i}"
                                   for i in range(DEVICE_FILE_COUNT)))


class TestApk:
    def test_paths_derived_from_package(self):
        apk = ApkFile("com.x", 3, units.mb(5))
        assert apk.install_path == "/data/app/com.x.apk"
        assert apk.data_dir == "/data/data/com.x"
        assert apk.sdcard_data_dir == "/sdcard/Android/data/com.x"

    def test_bump_version(self):
        apk = ApkFile("com.x", 3, units.mb(5))
        newer = apk.bump_version()
        assert newer.version_code == 4
        assert newer.size_bytes > apk.size_bytes
        assert newer.content_token != apk.content_token
