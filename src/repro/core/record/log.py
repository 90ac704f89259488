"""The per-device call log for Selective Record.

Architecture follows the paper's Figure 5: the recording handler appends
into a log that drop rules prune online.  Because replay must re-issue
the *actual* argument objects (PendingIntents, listener binders, …),
each entry keeps its rich payload; the log indexes the entries by app
and by (app, interface, method) in memory.

The log is device-wide with one namespace per app package; migration
extracts exactly one app's entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple


@dataclass
class CallRecord:
    """One recorded service call."""

    seq: int
    time: float
    app: str                      # package name
    interface: str                # AIDL descriptor, e.g. 'INotificationManager'
    method: str
    args: Dict[str, Any]          # parameter name -> value (rich objects)
    result: Any = None

    def arg(self, name: str) -> Any:
        return self.args.get(name)

    # The estimated size, kept once computed (unannotated, so not a
    # dataclass field): a record's interface, method and args are
    # fixed once the log appends it.
    _size = None

    def estimated_size(self) -> int:
        """Rough serialized size in bytes, for transfer accounting."""
        size = self._size
        if size is None:
            size = 48 + len(self.interface) + len(self.method)
            for key, value in self.args.items():
                size += len(key) + self._value_size(value)
            self._size = size
        return size

    @staticmethod
    def _value_size(value: Any) -> int:
        if isinstance(value, str):
            return 4 + 2 * len(value)
        if isinstance(value, bytes):
            return 4 + len(value)
        if isinstance(value, (int, float, bool)) or value is None:
            return 8
        if isinstance(value, (list, tuple)):
            return 8 + sum(CallRecord._value_size(v) for v in value)
        if isinstance(value, dict):
            return 8 + sum(4 + CallRecord._value_size(v) for v in value.values())
        return 64  # parcelable object


class CallLog:
    """Append/prune log of recorded service calls, indexed in memory.

    Records are indexed by app and by ``(app, interface, method)``.
    Sequence numbers only grow and every index is an insertion-ordered
    ``seq -> record`` dict, so each index lists its records in seq
    order: reads need no sort, and ``entries_for_methods`` merges its
    per-method runs by seq.
    """

    def __init__(self) -> None:
        self._payloads: Dict[int, CallRecord] = {}
        self._by_app: Dict[str, Dict[int, CallRecord]] = {}
        self._by_method: Dict[Tuple[str, str, str],
                              Dict[int, CallRecord]] = {}
        self._seq = itertools.count(1)
        self.appended = 0
        self.dropped = 0

    # -- writes ----------------------------------------------------------------

    def append(self, time: float, app: str, interface: str, method: str,
               args: Dict[str, Any], result: Any = None) -> CallRecord:
        seq = next(self._seq)
        record = CallRecord(seq=seq, time=time, app=app,
                            interface=interface, method=method,
                            args=dict(args), result=result)
        self._payloads[seq] = record
        self._by_app.setdefault(app, {})[seq] = record
        self._by_method.setdefault((app, interface, method), {})[seq] = record
        self.appended += 1
        return record

    def remove(self, seqs: Iterable[int]) -> int:
        """Delete the given entries; returns how many were removed."""
        removed = 0
        for seq in seqs:
            record = self._payloads.pop(seq, None)
            if record is None:
                continue
            removed += 1
            app = record.app
            _discard(self._by_app, app, seq)
            _discard(self._by_method,
                     (app, record.interface, record.method), seq)
        self.dropped += removed
        return removed

    def remove_app(self, app: str) -> int:
        return self.remove(list(self._by_app.get(app, ())))

    # -- reads ----------------------------------------------------------------

    def entries(self, app: str, interface: Optional[str] = None,
                method: Optional[str] = None) -> List[CallRecord]:
        """Entries for ``app`` in record order, optionally filtered."""
        if interface is not None and method is not None:
            return list(self._by_method.get((app, interface, method),
                                            {}).values())
        records = self._by_app.get(app, {}).values()
        if interface is not None:
            return [r for r in records if r.interface == interface]
        if method is not None:
            return [r for r in records if r.method == method]
        return list(records)

    def entries_for_methods(self, app: str, interface: str,
                            methods: Iterable[str]) -> List[CallRecord]:
        """Entries for any of ``methods``, in record (seq) order: the
        per-method runs, each already in seq order, merged by seq (a
        method named twice counts once)."""
        index = self._by_method
        runs = [index[key] for key in [(app, interface, method)
                                       for method in methods]
                if key in index]
        if not runs:
            return []
        if len(runs) == 1:
            return list(runs[0].values())
        payloads = self._payloads
        return [payloads[seq] for seq in sorted(set(itertools.chain(*runs)))]

    def count(self, app: Optional[str] = None) -> int:
        if app is None:
            return len(self._payloads)
        return len(self._by_app.get(app, ()))

    def size_bytes(self, app: str) -> int:
        return sum(r.estimated_size() for r in self.entries(app))

    def apps(self) -> List[str]:
        return sorted(self._by_app)


def _discard(index: Dict, key, seq: int) -> None:
    """Drop ``seq`` from ``index[key]``, and the key once it is empty."""
    run = index[key]
    del run[seq]
    if not run:
        del index[key]
