"""The CRIA checkpoint image format.

An image carries everything needed to resurrect an app on another
device: per-process memory regions, thread contexts, file descriptors,
the classified Binder state, per-driver state, the pruned record log,
and the frozen app object graph (standing in for heap contents that the
region payloads size-account).  ``size accounting`` distinguishes raw
from compressed bytes: the compressed image is what crosses the wire
(paper §3.1: "the checkpoint image is compressed and sent").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.android.kernel.memory import MemoryRegion, RegionKind


#: Compression achieved on checkpoint images (heap pages compress well).
IMAGE_COMPRESSION_RATIO = 0.55


class BinderRefKind(enum.Enum):
    INTERNAL = "internal"                  # both ends inside the app
    EXTERNAL_SYSTEM = "external-system"    # a named system service
    EXTERNAL_ANONYMOUS = "external-anonymous"  # service-created sub-object
    EXTERNAL_NON_SYSTEM = "external-non-system"  # another app: unmigratable


@dataclass
class BinderRefImage:
    handle: int
    kind: BinderRefKind
    service_name: Optional[str] = None   # for EXTERNAL_SYSTEM
    label: str = ""                      # node label, for diagnostics
    strong_count: int = 1


@dataclass
class FdImage:
    fd: int
    description: Dict[str, Any]


@dataclass
class ThreadImage:
    tid: int
    name: str
    context: Dict[str, int]


@dataclass
class ProcessImage:
    name: str
    virtual_pid: int
    uid: int
    regions: List[MemoryRegion]
    threads: List[ThreadImage]
    fds: List[FdImage]
    binder_refs: List[BinderRefImage]
    owned_node_labels: List[str]
    driver_state: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def memory_bytes(self) -> int:
        return sum(r.size for r in self.regions)

    def anonymous_memory_bytes(self) -> int:
        """Bytes that must travel (file-backed CODE pages do not: the APK
        was already synced at pairing)."""
        return sum(r.size for r in self.regions
                   if r.kind is not RegionKind.CODE)


@dataclass
class CheckpointImage:
    package: str
    source_device: str
    source_kernel: str
    android_version: str
    api_level: int
    checkpoint_time: float
    processes: List[ProcessImage]
    app_payload: Any                       # the frozen ActivityThread graph
    record_log: List[Any]                  # CallRecord entries, in order
    metadata: Dict[str, Any] = field(default_factory=dict)

    BINDER_REF_BYTES = 64
    FD_BYTES = 48
    THREAD_BYTES = 1024

    def descriptor_bytes(self) -> int:
        """The image header plus every process's binder-ref, fd and
        thread descriptor tables."""
        total = 4096    # image header
        for proc in self.processes:
            total += (len(proc.binder_refs) * self.BINDER_REF_BYTES
                      + len(proc.fds) * self.FD_BYTES
                      + len(proc.threads) * self.THREAD_BYTES)
        return total

    def raw_bytes(self) -> int:
        """Uncompressed image size: descriptors, the memory that must
        travel, and the record log."""
        return (self.descriptor_bytes()
                + sum(proc.anonymous_memory_bytes()
                      for proc in self.processes)
                + self.record_log_bytes())

    def compressed_bytes(self) -> int:
        return int(self.raw_bytes() * IMAGE_COMPRESSION_RATIO)

    def record_log_bytes(self) -> int:
        return sum(r.estimated_size() for r in self.record_log)

    @property
    def main_process(self) -> ProcessImage:
        return self.processes[0]

    def external_service_names(self) -> List[str]:
        names = []
        for proc in self.processes:
            for ref in proc.binder_refs:
                if (ref.kind is BinderRefKind.EXTERNAL_SYSTEM
                        and ref.service_name):
                    names.append(ref.service_name)
        return sorted(set(names))
