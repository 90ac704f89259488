"""The per-device call log for Selective Record.

Architecture follows the paper's Figure 5: the recording handler appends
into a log whose index lives in SQLite.  Because replay must re-issue the
*actual* argument objects (PendingIntents, listener binders, …), each
entry's rich payload is kept in memory keyed by sequence number while the
SQLite side holds the queryable metadata (app, interface, method, time)
— the same split a real implementation uses between a blob store and its
index.

The log is device-wide with one namespace per app package; migration
extracts exactly one app's entries.
"""

from __future__ import annotations

import itertools
import sqlite3
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional


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
    """SQLite-indexed append/prune log of recorded service calls.

    Appends are buffered and flushed to SQLite in batches (one
    ``executemany`` instead of a round trip per recorded call) — the
    index only has to be consistent when something *reads* it, and the
    recording hot path runs on every decorated Binder transaction, so
    batching directly lowers the Figure 16 runtime overhead.
    """

    #: Buffered inserts are flushed at this size (or at any read).
    FLUSH_THRESHOLD = 128

    def __init__(self) -> None:
        self._db = sqlite3.connect(":memory:")
        self._db.execute(
            "CREATE TABLE calls ("
            " seq INTEGER PRIMARY KEY,"
            " time REAL NOT NULL,"
            " app TEXT NOT NULL,"
            " interface TEXT NOT NULL,"
            " method TEXT NOT NULL)"
        )
        self._db.execute("CREATE INDEX idx_app ON calls (app, interface, method)")
        self._payloads: Dict[int, CallRecord] = {}
        self._pending: List[tuple] = []
        self._seq = itertools.count(1)
        self.appended = 0
        self.dropped = 0
        self.flushes = 0

    # -- writes ----------------------------------------------------------------

    def append(self, time: float, app: str, interface: str, method: str,
               args: Dict[str, Any], result: Any = None) -> CallRecord:
        record = CallRecord(seq=next(self._seq), time=time, app=app,
                            interface=interface, method=method,
                            args=dict(args), result=result)
        self._pending.append((record.seq, record.time, record.app,
                              record.interface, record.method))
        self._payloads[record.seq] = record
        self.appended += 1
        if len(self._pending) >= self.FLUSH_THRESHOLD:
            self._flush()
        return record

    def _flush(self) -> None:
        """Push buffered appends into the SQLite index."""
        if not self._pending:
            return
        self._db.executemany(
            "INSERT INTO calls (seq, time, app, interface, method) "
            "VALUES (?, ?, ?, ?, ?)", self._pending)
        self._pending.clear()
        self.flushes += 1

    def remove(self, seqs: Iterable[int]) -> int:
        """Delete the given entries; returns how many were removed."""
        self._flush()
        seq_list = list(seqs)
        removed = 0
        for seq in seq_list:
            if self._payloads.pop(seq, None) is not None:
                removed += 1
        if seq_list:
            marks = ",".join("?" * len(seq_list))
            self._db.execute(f"DELETE FROM calls WHERE seq IN ({marks})", seq_list)
        self.dropped += removed
        return removed

    def remove_app(self, app: str) -> int:
        seqs = [r.seq for r in self.entries(app)]
        return self.remove(seqs)

    # -- reads ----------------------------------------------------------------

    def entries(self, app: str, interface: Optional[str] = None,
                method: Optional[str] = None) -> List[CallRecord]:
        """Entries for ``app`` in record order, optionally filtered."""
        self._flush()
        query = "SELECT seq FROM calls WHERE app = ?"
        params: List[Any] = [app]
        if interface is not None:
            query += " AND interface = ?"
            params.append(interface)
        if method is not None:
            query += " AND method = ?"
            params.append(method)
        query += " ORDER BY seq"
        rows = self._db.execute(query, params).fetchall()
        return [self._payloads[seq] for (seq,) in rows]

    def entries_for_methods(self, app: str, interface: str,
                            methods: Iterable[str]) -> List[CallRecord]:
        """Entries for any of ``methods``, in record (seq) order.

        One ``method IN (...)`` query; SQLite returns rows ordered by
        the primary key, so no Python-side sort or merge is needed.
        """
        method_list = list(dict.fromkeys(methods))   # dedup, keep order
        if not method_list:
            return []
        self._flush()
        marks = ",".join("?" * len(method_list))
        rows = self._db.execute(
            f"SELECT seq FROM calls WHERE app = ? AND interface = ?"
            f" AND method IN ({marks}) ORDER BY seq",
            [app, interface, *method_list]).fetchall()
        return [self._payloads[seq] for (seq,) in rows]

    def count(self, app: Optional[str] = None) -> int:
        self._flush()
        if app is None:
            (n,) = self._db.execute("SELECT COUNT(*) FROM calls").fetchone()
        else:
            (n,) = self._db.execute(
                "SELECT COUNT(*) FROM calls WHERE app = ?", (app,)).fetchone()
        return n

    def size_bytes(self, app: str) -> int:
        return sum(r.estimated_size() for r in self.entries(app))

    def apps(self) -> List[str]:
        self._flush()
        rows = self._db.execute("SELECT DISTINCT app FROM calls").fetchall()
        return sorted(a for (a,) in rows)

    # -- durability -------------------------------------------------------------

    def export_index(self, path: str) -> int:
        """Write a durable, inspectable SQLite copy of the log to ``path``.

        The exported database carries the full metadata plus a JSON
        description of each call's arguments (rich argument *objects*
        live in app memory and travel with the checkpoint image, not the
        index — the same split the in-memory log uses).  Returns the
        number of rows written.
        """
        import json

        from repro.core.cria.wire import _describe_value

        disk = sqlite3.connect(path)
        try:
            disk.execute("DROP TABLE IF EXISTS calls")
            disk.execute(
                "CREATE TABLE calls ("
                " seq INTEGER PRIMARY KEY,"
                " time REAL NOT NULL,"
                " app TEXT NOT NULL,"
                " interface TEXT NOT NULL,"
                " method TEXT NOT NULL,"
                " args_json TEXT NOT NULL)")
            rows = 0
            for app in self.apps():
                for record in self.entries(app):
                    disk.execute(
                        "INSERT INTO calls VALUES (?, ?, ?, ?, ?, ?)",
                        (record.seq, record.time, record.app,
                         record.interface, record.method,
                         json.dumps(_describe_value(record.args))))
                    rows += 1
            disk.commit()
            return rows
        finally:
            disk.close()

    @staticmethod
    def read_exported(path: str) -> List[Dict[str, Any]]:
        """Rows of a previously exported index, in sequence order."""
        import json

        disk = sqlite3.connect(path)
        try:
            rows = disk.execute(
                "SELECT seq, time, app, interface, method, args_json "
                "FROM calls ORDER BY seq").fetchall()
        finally:
            disk.close()
        return [{"seq": seq, "time": time, "app": app,
                 "interface": interface, "method": method,
                 "args": json.loads(args_json)}
                for seq, time, app, interface, method, args_json in rows]

    def close(self) -> None:
        self._flush()
        self._db.close()
