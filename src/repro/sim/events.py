"""Causal event log: per-device flight recorders with Binder causality.

The span tree (:mod:`repro.sim.trace`) answers "where did the time go?"
and the metrics registry (:mod:`repro.sim.metrics`) answers "how much
work happened?"; this module answers **"what happened, in what order,
caused by what?"** — the question a faulted migration's post-mortem
needs (``flux-sim explain``).

Every structured event (``binder.transact``, ``record.prune``,
``replay.proxy``, ``cria.restore_step``, ``link.chunk``,
``stage.rollback``, …) carries:

* ``seq`` — a per-device monotonic sequence number (1-based, counting
  every event ever emitted on the device, including evicted ones);
* ``t`` — the virtual-clock timestamp (never wall clock);
* ``txn`` — the innermost Binder transaction id the event happened
  inside, when any (the Binder driver pushes/pops transaction context
  around dispatch); ``binder.transact`` events additionally carry
  ``parent_txn`` for nested transactions;
* ``span`` — the open-span path on the attached tracer (e.g.
  ``migration/transfer``), linking the flat event stream back to the
  hierarchical spans;
* free-form ``attrs``, plus any *context* labels pushed by the stage
  pipeline (``stage=transfer``), so guest-side events — whose tracer
  has no open migration span — still attribute to a stage.

Determinism contract (the same one :mod:`repro.sim.metrics` honors):
emitting **never advances the clock and never draws from the RNG**, so
the default sweep is byte-identical with event logging enabled or
disabled (``FLUX_EVENTS=0``).  Transaction ids come from the Binder
driver's own per-device transaction counter, which increments whether
or not logging is on — ids are stable across both modes.

Events flow through a bounded ring buffer (a *flight recorder*): the
``FLUX_EVENTS_CAP`` environment variable bounds each recorder's memory, and
when the buffer is full the oldest events are evicted first — exactly
what a post-mortem wants, since the tail before the fault is what
explains it.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.sim.shapes import check

#: Ring capacity when ``FLUX_EVENTS_CAP`` is unset (see
#: :mod:`repro.sim.telemetry`, which reads the knobs).
DEFAULT_CAPACITY = 65536


class EventsError(Exception):
    """Flight-recorder misuse or an unreadable event log."""


_UNSET = object()


class FlightRecorder:
    """Bounded per-device causal event log.

    ``clock`` is only ever read.  ``tracer`` (optional) supplies the
    open-span path attached to each event.  A recorder built with
    ``enabled=False`` is a shared-contract null object: ``emit`` is a
    no-op, the transaction stack and context still work (they are pure
    bookkeeping, cheap and deterministic), and ``export`` is empty —
    instrumented code never needs an ``if``.

    Storage is flat (DESIGN.md, "Telemetry storage"): the ring holds
    one tuple per event, ``(time, kind, txn, span, keys, *values)``.
    ``keys`` names the attrs in order and is interned per recorder, so
    events emitted from one call site share one key tuple.  ``seq``
    is not stored: it follows from the position in the ring, and
    ``device`` from the recorder.  :meth:`export` is the one read path:
    it hands the records to an :class:`EventLog`, which builds the event
    dicts when it is read.
    """

    def __init__(self, clock=None, device: str = "",
                 capacity: int = DEFAULT_CAPACITY,
                 tracer=None, enabled: bool = True) -> None:
        if capacity < 1:
            raise EventsError(f"bad flight-recorder capacity {capacity!r}")
        self._clock = clock
        self.device = device
        self.capacity = capacity
        self._tracer = tracer
        self.enabled = enabled
        self._ring: deque = deque(maxlen=capacity)
        #: Attr-name tuples seen so far, each mapped to itself.
        self._keys: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        #: Total events ever emitted (including evicted ones); the next
        #: event gets ``seq = emitted + 1``.
        self.emitted = 0
        self._txn_stack: List[int] = []
        self._context: Dict[str, Any] = {}

    # -- causality context ---------------------------------------------------

    def push_txn(self, txn_id: int) -> None:
        """Enter a Binder transaction: subsequent events carry its id."""
        self._txn_stack.append(txn_id)

    def pop_txn(self) -> None:
        if not self._txn_stack:
            raise EventsError("transaction stack underflow")
        self._txn_stack.pop()

    @property
    def current_txn(self) -> Optional[int]:
        return self._txn_stack[-1] if self._txn_stack else None

    @property
    def parent_txn(self) -> Optional[int]:
        return self._txn_stack[-2] if len(self._txn_stack) >= 2 else None

    def set_context(self, **labels: Any) -> None:
        """Attach labels (e.g. ``stage=transfer``) to subsequent events."""
        self._context.update(labels)

    def clear_context(self, *keys: str) -> None:
        for key in keys:
            self._context.pop(key, None)

    # -- emission ------------------------------------------------------------

    def emit(self, kind: str, txn: Any = _UNSET, **attrs: Any) -> None:
        """Record one event (a no-op when disabled).

        ``txn`` defaults to the innermost open Binder transaction;
        pass an explicit id (or ``None``) to override.  Context labels
        come first in the attrs, and an explicit attr of the same name
        wins.
        """
        if not self.enabled:
            return
        self.emitted += 1
        if self._context:
            attrs = {**self._context, **attrs}
        keys = tuple(attrs)
        self._ring.append((
            self._clock.now if self._clock is not None else 0.0,
            kind,
            self.current_txn if txn is _UNSET else txn,
            # Cached on the tracer and invalidated on span open/close.
            self._tracer.open_span_path if self._tracer is not None
            else None,
            self._keys.setdefault(keys, keys),
            *attrs.values()))

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring to keep memory bounded."""
        return self.emitted - len(self._ring)

    def export(self) -> "EventLog":
        """The retained events as a one-stream :class:`EventLog`.

        The log shares the ring's records, so exporting builds nothing
        per event.
        """
        records = tuple(self._ring)
        first = self.emitted - len(records) + 1
        return EventLog(((None, ((self.device, first, records),)),))

    def clear(self) -> None:
        self._ring.clear()


class EventLog:
    """Exported events, kept as the flight recorders' own records.

    A log is a run of *sections*, each ``(label, streams)``: the events
    of one simulation.  A stream is one recorder's retained records,
    ``(device, first_seq, records)``, where ``records`` are the ring's
    ``(time, kind, txn, span, keys, *values)`` tuples in emission order.
    ``label`` is ``None`` or one ``(key, value)`` pair that every event
    of the section carries (the sweep's ``pair``, the fleet's ``site``),
    stored once per section, not once per event.

    Nothing is built per event until something reads the log.  Iteration
    yields one fresh JSON-ready dict per event, keyed ``seq``, ``t``,
    ``device``, ``kind``, ``txn``, ``span``, ``attrs`` and the label's
    key (a fixed key set, so JSONL lines are uniform): sections in
    order, and each section's streams merged by ``(t, device, seq)``.
    A recorder reads a clock that never moves backwards, so each stream
    is already in that order and the merge is a streaming one.  A log
    equals another log, or a list, holding the same event dicts in the
    same order, and pickles as its records.
    """

    __slots__ = ("_sections",)

    def __init__(self, sections: Iterable[tuple] = ()) -> None:
        self._sections = tuple(sections)

    @classmethod
    def labeled(cls, key: str, logs: Iterable[Tuple[Any, "EventLog"]]
                ) -> "EventLog":
        """The ``(value, log)`` logs concatenated in the given order,
        every event of ``log`` carrying ``key: value``."""
        return cls(((key, value), streams)
                   for value, log in logs for _, streams in log._sections)

    def _streams(self):
        return (stream for _, streams in self._sections for stream in streams)

    def __len__(self) -> int:
        return sum(len(records) for _, _, records in self._streams())

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        for label, streams in self._sections:
            ordered = (_numbered(*streams[0]) if len(streams) == 1
                       else heapq.merge(*(_numbered(*stream)
                                          for stream in streams),
                                        key=_CAUSAL_ORDER))
            for time, device, seq, record in ordered:
                event = {"seq": seq, "t": time, "device": device,
                         "kind": record[1], "txn": record[2],
                         "span": record[3],
                         "attrs": dict(zip(record[4], record[5:]))}
                if label is not None:
                    event[label[0]] = label[1]
                yield event

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EventLog, list)):
            return NotImplemented
        return list(self) == list(other)

    def __reduce__(self):
        return EventLog, (self._sections,)


#: The causal order of merged streams: ``(t, device, seq)``.
_CAUSAL_ORDER = itemgetter(0, 1, 2)


def _numbered(device: str, first: int, records: tuple):
    return ((record[0], device, seq, record)
            for seq, record in enumerate(records, first))


def merge_streams(*logs: EventLog) -> EventLog:
    """Merge exported per-device logs into one causal ordering.

    Devices in one simulation share a virtual clock, so ordering by
    ``(t, device, seq)`` yields a deterministic interleaving that
    preserves each device's own emission order (``seq`` is per-device
    monotonic).  The merge is therefore identical whether the streams
    came from a serial or a parallel sweep.  The result is one
    unlabeled section holding every stream of ``logs``.
    """
    return EventLog(((None, tuple(stream for log in logs
                                  for stream in log._streams())),))


def write_jsonl(path: str, events: Iterable[Dict[str, Any]]) -> int:
    """Write events as JSONL (one sorted-key JSON object per line)."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True))
            handle.write("\n")
            count += 1
    return count


#: The fields readers of an event log use, each checked where present.
_EVENT = {"t?": float, "seq?": int, "kind?": str, "device?": str,
          "pair?": str, "site?": str, "attrs?": {"session?": str}}


def parse_jsonl(lines: Iterable[str], source: str = "<events>"
                ) -> List[Dict[str, Any]]:
    """Parse JSONL event lines, locating malformed ones precisely.

    A corrupt artifact raises :class:`EventsError` carrying the source
    name and 1-based line number (instead of a bare
    ``json.JSONDecodeError`` with no idea *which* of 50k lines broke),
    and so does a line that is not an event object (:data:`_EVENT`).
    """
    events: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as error:
            raise EventsError(
                f"{source}:{lineno}: malformed event line "
                f"({error.msg} at column {error.colno}): "
                f"{line[:80]!r}") from error
        events.append(check(event, _EVENT, f"{source}:{lineno}",
                            EventsError))
    return events


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load an ``--events-out`` artifact back into event dicts.

    Malformed lines raise :class:`EventsError` with the file name and
    line number (see :func:`parse_jsonl`).
    """
    with open(path, "r", encoding="utf-8") as handle:
        return parse_jsonl(handle, source=path)
