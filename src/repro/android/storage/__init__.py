"""Storage: virtual filesystem, APKs, rsync-style sync, framework files."""

from repro.android.storage.apk import ApkFile
from repro.android.storage.filesystem import (
    DeviceStorage,
    FileEntry,
    FileSet,
    FsError,
    TreeSignature,
    content_hash_for,
)
from repro.android.storage.framework_files import (
    COMMON_BYTES,
    DEVICE_BYTES,
    populate_system_partition,
    system_partition_bytes,
)
from repro.android.storage.sync import (
    DEFAULT_COMPRESSION_RATIO,
    RsyncEngine,
    SyncResult,
)

__all__ = [
    "ApkFile", "DeviceStorage", "FileEntry", "FileSet", "FsError", "TreeSignature",
    "content_hash_for",
    "COMMON_BYTES", "DEVICE_BYTES", "populate_system_partition",
    "system_partition_bytes", "DEFAULT_COMPRESSION_RATIO", "RsyncEngine",
    "SyncResult",
]
