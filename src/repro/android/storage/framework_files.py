"""Synthetic core-framework file sets.

Pairing syncs the home device's frameworks and libraries to the guest
(paper §3.1).  We populate each device's ``/system`` with a file set of
the paper's measured shape for two KitKat devices (§4): 215 MB of
constant data of which 92 MB is content-identical across devices (and so
hard-linkable on the guest) and 123 MB is device specific (GPU vendor
libs, SoC blobs, device overlays).

File sizes are drawn from a seeded stream so the set is deterministic.
Each set is one immutable :class:`FileSet` mounted at its prefix.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Iterator, List

from repro.android.storage.filesystem import (
    ComputedColumn,
    DeviceStorage,
    FileSet,
    PackedHashes,
)
from repro.sim import units
from repro.sim.rng import RngFactory


COMMON_BYTES = units.mb(92)       # identical across same-version devices
DEVICE_BYTES = units.mb(123)      # vendor/device specific
COMMON_FILE_COUNT = 420
DEVICE_FILE_COUNT = 380

FRAMEWORK_PREFIX = "/system/framework"
VENDOR_PREFIX = "/system/vendor"


def _spread(total: int, count: int, rng) -> List[int]:
    """Split ``total`` bytes into ``count`` file sizes, deterministically.

    Each weight is ``rng.uniform(0.2, 1.8)`` computed with ``uniform``'s
    own arithmetic from one bound ``random`` method, so the sizes are
    bit-identical without a Python-level ``uniform`` call per file.
    """
    random = rng.random
    weights = [0.2 + (1.8 - 0.2) * random() for _ in range(count)]
    scale = total / sum(weights)
    sizes = [max(1024, int(w * scale)) for w in weights]
    sizes[-1] += total - sum(sizes)      # exact total
    return sizes


class _NumberedPaths(ComputedColumn):
    """``template % i`` for ``i < count``: a path column computed on
    read instead of stored.  Sorted, as the number is zero-padded."""

    __slots__ = ("_template", "_count")

    def __init__(self, template: str, count: int) -> None:
        self._template = template
        self._count = count

    def __len__(self) -> int:
        return self._count

    def _item(self, i: int) -> str:
        return self._template % i

    def __iter__(self) -> Iterator[str]:
        return map(self._template.__mod__, range(self._count))


@lru_cache(maxsize=64)
def _token_hashes(token_template: str, count: int) -> PackedHashes:
    """The hash column of ``token_template % i`` for ``i < count``.

    A pure function of the template (Android version plus hardware
    profile), so every device booted with one template shares one
    immutable column instead of hashing its tokens again.
    """
    return PackedHashes.of_tokens(token_template % i for i in range(count))


def _file_set(path_template: str, token_template: str, count: int,
              total: int, rng) -> FileSet:
    return FileSet(
        _NumberedPaths(path_template, count),
        array("q", _spread(total, count, rng)),
        _token_hashes(token_template, count))


def populate_system_partition(storage: DeviceStorage, android_version: str,
                              device_name: str,
                              rng_factory: RngFactory | None = None) -> None:
    """Mount the device's /system framework + vendor file sets."""
    factory = rng_factory or RngFactory()
    version = android_version.replace("%", "%%")
    device = device_name.replace("%", "%%")
    common_rng = factory.stream("framework", android_version)
    device_rng = factory.stream("framework", android_version, device_name)

    storage.mount(FRAMEWORK_PREFIX, _file_set(
        "/common-%04d.jar", f"android-{version}/common/%d",
        COMMON_FILE_COUNT, COMMON_BYTES, common_rng))
    storage.mount(VENDOR_PREFIX, _file_set(
        f"/{device}-%04d.so", f"android-{version}/{device}/vendor/%d",
        DEVICE_FILE_COUNT, DEVICE_BYTES, device_rng))


def system_partition_bytes(storage: DeviceStorage) -> int:
    return storage.tree_size("/system")
