"""Parcel: the typed payload container for Binder transactions.

Real parcels are flat byte buffers with interleaved objects (binder
references, file descriptors).  We keep the typed structure — what
matters for Flux is that the record log can serialize call arguments and
that binder objects / fds embedded in a parcel are visible to CRIA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple


class ParcelError(Exception):
    """Malformed parcel contents."""


@dataclass(frozen=True)
class BinderToken:
    """A binder object embedded in a parcel, identified by node id."""
    node_id: int


@dataclass(frozen=True)
class FdToken:
    """A file descriptor embedded in a parcel."""
    fd: int


class Parcel:
    """An ordered sequence of typed values."""

    _SIMPLE_TYPES = (int, float, str, bool, bytes, type(None))

    def __init__(self) -> None:
        self._values: List[Tuple[str, Any]] = []
        self._cursor = 0

    # -- writing ------------------------------------------------------------

    def write(self, value: Any) -> "Parcel":
        if isinstance(value, BinderToken):
            self._values.append(("binder", value))
        elif isinstance(value, FdToken):
            self._values.append(("fd", value))
        elif isinstance(value, self._SIMPLE_TYPES):
            self._values.append(("simple", value))
        elif isinstance(value, (list, tuple)):
            self._values.append(("list", list(value)))
        elif isinstance(value, dict):
            self._values.append(("dict", dict(value)))
        else:
            # Parcelable object: stored by reference, serialized on demand.
            self._values.append(("parcelable", value))
        return self

    def write_all(self, values) -> "Parcel":
        for value in values:
            self.write(value)
        return self

    # -- reading ------------------------------------------------------------

    def read(self) -> Any:
        if self._cursor >= len(self._values):
            raise ParcelError("read past end of parcel")
        _, value = self._values[self._cursor]
        self._cursor += 1
        return value

    def values(self) -> List[Any]:
        return [v for _, v in self._values]

    def binder_tokens(self) -> List[BinderToken]:
        return [v for t, v in self._values if t == "binder"]

    def fd_tokens(self) -> List[FdToken]:
        return [v for t, v in self._values if t == "fd"]

    def size_bytes(self) -> int:
        """Rough wire size, used for transaction-buffer accounting."""
        total = 0
        for tag, value in self._values:
            if tag == "simple":
                if isinstance(value, str):
                    total += 4 + 2 * len(value)
                elif isinstance(value, bytes):
                    total += 4 + len(value)
                else:
                    total += 8
            elif tag in ("binder", "fd"):
                total += 16
            else:
                total += 64
        return total

    def describe(self) -> List[Dict[str, Any]]:
        """A serializable description, used by the record log."""
        out = []
        for tag, value in self._values:
            if tag == "binder":
                out.append({"type": "binder", "node_id": value.node_id})
            elif tag == "fd":
                out.append({"type": "fd", "fd": value.fd})
            elif tag == "parcelable":
                out.append({"type": "parcelable",
                            "class": type(value).__name__,
                            "repr": repr(value)})
            else:
                out.append({"type": tag, "value": value})
        return out

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values())

    def __len__(self) -> int:
        return len(self._values)
