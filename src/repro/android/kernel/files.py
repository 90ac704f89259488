"""File-descriptor layer: open files, pipes, unix sockets, device files.

The objects here are what live inside a process FD table.  CRIA must be
able to describe each descriptor well enough to recreate an equivalent
one on the guest (path + offset for files, reconnect for sockets), so
every descriptor type knows how to ``describe`` itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


class FdError(Exception):
    """File-descriptor table errors."""


class FileObject:
    """Base class for anything an fd can point at."""

    kind = "file-object"

    def describe(self) -> Dict[str, Any]:
        """A serializable description sufficient to recreate this object."""
        return {"kind": self.kind}


class OpenFile(FileObject):
    """A regular open file on some filesystem path."""

    kind = "file"

    def __init__(self, path: str, flags: str = "r", offset: int = 0) -> None:
        self.path = path
        self.flags = flags
        self.offset = offset

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "path": self.path, "flags": self.flags,
                "offset": self.offset}

    def __repr__(self) -> str:
        return f"OpenFile({self.path!r}, flags={self.flags!r}, offset={self.offset})"


class Pipe(FileObject):
    """One end of an in-kernel pipe."""

    kind = "pipe"
    _ids = itertools.count(1)

    def __init__(self, pipe_id: Optional[int] = None, end: str = "read") -> None:
        self.pipe_id = pipe_id if pipe_id is not None else next(self._ids)
        self.end = end
        self.buffer: List[bytes] = []

    @classmethod
    def pair(cls) -> "tuple[Pipe, Pipe]":
        pipe_id = next(cls._ids)
        read_end = cls(pipe_id, "read")
        write_end = cls(pipe_id, "write")
        write_end.buffer = read_end.buffer
        return read_end, write_end

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "pipe_id": self.pipe_id, "end": self.end}


class UnixSocket(FileObject):
    """One endpoint of a connected unix-domain socket pair.

    SensorService hands a socket like this to apps as the sensor event
    channel; on replay a fresh pair is created and ``dup2``-ed into the
    original descriptor number.
    """

    kind = "unix-socket"
    _ids = itertools.count(1)

    def __init__(self, channel_id: int, role: str, label: str = "") -> None:
        self.channel_id = channel_id
        self.role = role            # "service" or "client"
        self.label = label
        self.peer: Optional["UnixSocket"] = None
        self.inbox: List[bytes] = []
        self.closed = False

    @classmethod
    def pair(cls, label: str = "") -> "tuple[UnixSocket, UnixSocket]":
        channel_id = next(cls._ids)
        service = cls(channel_id, "service", label)
        client = cls(channel_id, "client", label)
        service.peer = client
        client.peer = service
        return service, client

    def send(self, data: bytes) -> None:
        if self.closed or self.peer is None or self.peer.closed:
            raise FdError(f"socket channel {self.channel_id} not connected")
        self.peer.inbox.append(data)

    def recv(self) -> Optional[bytes]:
        if self.inbox:
            return self.inbox.pop(0)
        return None

    def close(self) -> None:
        # A closed end never sends, so it drops its edge to the peer
        # (the peer keeps its own, to see that this end is closed).
        self.closed = True
        self.peer = None

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "channel_id": self.channel_id,
                "role": self.role, "label": self.label}


class NetworkFile(FileObject):
    """A file served by another device over the network.

    Used by the sdcard-network-mount migration extension (paper §3.4's
    suggested fix for open common SD-card files): the descriptor keeps
    working on the guest, but every access pays a network round trip to
    the host that actually stores the file.
    """

    kind = "network-file"

    def __init__(self, path: str, host: str, flags: str = "r",
                 offset: int = 0) -> None:
        self.path = path
        self.host = host
        self.flags = flags
        self.offset = offset
        self.remote_reads = 0

    def read_remote(self, nbytes: int, link, clock) -> int:
        """Fetch ``nbytes`` from the host; returns seconds charged."""
        result = link.plan(nbytes).apply_sync(clock)
        self.offset += nbytes
        self.remote_reads += 1
        return result.seconds

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "path": self.path, "host": self.host,
                "flags": self.flags, "offset": self.offset}

    def __repr__(self) -> str:
        return f"NetworkFile({self.path!r} @ {self.host})"


class DeviceFile(FileObject):
    """An open handle on a kernel driver (e.g. /dev/binder, /dev/ashmem)."""

    kind = "device"

    def __init__(self, driver_name: str, state: Optional[Dict[str, Any]] = None) -> None:
        self.driver_name = driver_name
        self.state: Dict[str, Any] = state or {}

    def describe(self) -> Dict[str, Any]:
        return {"kind": self.kind, "driver": self.driver_name,
                "state": dict(self.state)}


@dataclass
class FdEntry:
    fd: int
    obj: FileObject


class FDTable:
    """Per-process descriptor table with POSIX-like allocation semantics."""

    def __init__(self) -> None:
        self._entries: Dict[int, FileObject] = {}
        self._reserved: Dict[int, str] = {}

    def install(self, obj: FileObject, fd: Optional[int] = None) -> int:
        """Install ``obj`` at ``fd`` (or the lowest free fd) and return it."""
        if fd is None:
            fd = self._lowest_free()
        elif fd in self._entries:
            raise FdError(f"fd {fd} already in use")
        self._entries[fd] = obj
        self._reserved.pop(fd, None)
        return fd

    def reserve(self, fd: int, reason: str) -> None:
        """Reserve a descriptor number so allocation skips it.

        CRIA restore reserves the original socket descriptor numbers so
        replay proxies can later dup2 fresh sockets into them.
        """
        if fd in self._entries:
            raise FdError(f"cannot reserve in-use fd {fd}")
        self._reserved[fd] = reason

    def reserved(self) -> Dict[int, str]:
        return dict(self._reserved)

    def dup2(self, obj: FileObject, target_fd: int) -> int:
        """Install ``obj`` at ``target_fd``, closing whatever was there."""
        self._entries[target_fd] = obj
        self._reserved.pop(target_fd, None)
        return target_fd

    def close(self, fd: int) -> FileObject:
        try:
            obj = self._entries.pop(fd)
        except KeyError:
            raise FdError(f"fd {fd} not open") from None
        if isinstance(obj, UnixSocket):
            obj.close()
        return obj

    def detach(self, fd: int) -> FileObject:
        """Remove an entry *without* closing the underlying object.

        Used when an object is being moved to another descriptor number
        (the dup2-into-reserved-fd dance of sensor channel replay).
        """
        try:
            return self._entries.pop(fd)
        except KeyError:
            raise FdError(f"fd {fd} not open") from None

    def get(self, fd: int) -> FileObject:
        try:
            return self._entries[fd]
        except KeyError:
            raise FdError(f"fd {fd} not open") from None

    def entries(self) -> List[FdEntry]:
        return [FdEntry(fd, obj) for fd, obj in sorted(self._entries.items())]

    def fds(self) -> List[int]:
        return sorted(self._entries)

    def find(self, predicate) -> List[FdEntry]:
        return [e for e in self.entries() if predicate(e.obj)]

    def _lowest_free(self) -> int:
        fd = 0
        while fd in self._entries or fd in self._reserved:
            fd += 1
        return fd

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fd: int) -> bool:
        return fd in self._entries
