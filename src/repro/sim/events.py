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
explains it.  The ring stores its events in typed columns, a block at a
time (DESIGN.md, "Telemetry storage"), so an event costs a few machine
words, not a Python object.
"""

from __future__ import annotations

import heapq
import json
from array import array
from collections import deque
from operator import itemgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.sim.shapes import check

#: Ring capacity when ``FLUX_EVENTS_CAP`` is unset (see
#: :mod:`repro.sim.telemetry`, which reads the knobs).
DEFAULT_CAPACITY = 65536

#: Events per column block (fewer when the capacity is smaller).  A
#: recorder allocates blocks as events arrive, so an idle recorder holds
#: none, and eviction frees a block once all its events are gone.
BLOCK_EVENTS = 256

#: Shape ids live in an unsigned 16-bit column.
_MAX_SHAPES = 1 << 16

#: The ``txn`` column's value for an event outside any transaction.
_NO_TXN = -(1 << 63)


class EventsError(Exception):
    """Flight-recorder misuse or an unreadable event log."""


_UNSET = object()


class _Block:
    """Up to :data:`BLOCK_EVENTS` consecutive events, one column per field.

    ``times``, ``txns`` and ``shapes`` hold one cell per event.
    ``values`` holds the events' attr values, flat: per event, first
    the context-label values if its shape carries a context, then its
    explicit attr values.  A recorder's newest block fills plain lists,
    whose appends cost a third of an array's; :meth:`packed` copies a
    block into the typed columns (``array('d')`` times, ``array('q')``
    txn ids, ``array('H')`` shape ids), which is what every full block
    and every exported block holds.  A full block never changes again.
    """

    __slots__ = ("times", "txns", "shapes", "values")

    def __init__(self) -> None:
        self.times: Any = []
        self.txns: Any = []
        self.shapes: Any = []
        self.values: List[Any] = []

    def packed(self, start: int = 0, value_start: int = 0) -> "_Block":
        """The events from ``start`` on, whose values begin at
        ``value_start``, in typed columns."""
        block = _Block()
        block.times = array("d", self.times[start:])
        block.txns = array("q", self.txns[start:])
        block.shapes = array("H", self.shapes[start:])
        block.values = self.values[value_start:]
        return block


class FlightRecorder:
    """Bounded per-device causal event log.

    ``clock`` is only ever read.  ``tracer`` (optional) supplies the
    open-span path attached to each event.  A recorder built with
    ``enabled=False`` is a shared-contract null object: ``emit`` is a
    no-op, the transaction stack and context still work (they are pure
    bookkeeping, cheap and deterministic), and ``export`` is empty —
    instrumented code never needs an ``if``.

    Storage is columnar (DESIGN.md, "Telemetry storage").  An event is
    one cell in each column of a :class:`_Block`: its time (a double),
    its transaction id (a 64-bit int) and its *shape* (a 16-bit id of
    an interned ``(kind, span, keys, context_keys)``), plus its attr
    values in the block's flat value list.  The newest block fills
    lists and is packed into the typed columns once full.  ``keys``
    names the explicit attrs in order.  Context labels change only at
    stage boundaries, so only the first event after a change carries
    them: its shape's ``context_keys`` names the labels and its values
    start with theirs; every other event's shape has
    ``context_keys=None`` and it inherits the labels of the event before
    it.  ``seq`` is not stored: it follows from the position in the
    ring, and ``device`` from the recorder.  Eviction advances an offset into the oldest block, keeps
    the labels the next retained event inherits, and drops the block
    once all its events are gone.  :meth:`export` is the one read path:
    it hands a snapshot of the columns to an :class:`EventLog`, which
    builds the event dicts when it is read.
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
        self._block_events = min(capacity, BLOCK_EVENTS)
        self._blocks: deque = deque()
        #: Events that fit before the next one needs :meth:`_make_room`:
        #: free cells in the newest block, fewer when the ring is
        #: nearly full, none while it is full.
        self._room = 0
        #: Cells of every block but the newest.
        self._sealed = 0
        #: The newest block, while ``_room`` is not 0.
        self._tail: Optional[_Block] = None
        #: Evicted events at the front of the oldest block, and the
        #: number of values they hold.
        self._head = 0
        self._value_head = 0
        #: The context labels the oldest retained event inherits.
        self._base_context: Dict[str, Any] = {}
        #: ``(kind, span, keys, context_keys)`` shapes by id; the ids of
        #: the shapes without context labels, by kind, span and keys;
        #: the ids of the others, by shape.
        self._shapes: List[Tuple[Any, ...]] = []
        self._shape_ids: Dict[str, Dict[Any, Dict[tuple, int]]] = {}
        self._carrier_ids: Dict[Tuple[Any, ...], int] = {}
        #: :attr:`emitted` when ``_room`` was last set to ``_granted``.
        self._emitted = 0
        self._granted = 0
        self._txn_stack: List[int] = []
        #: The innermost open transaction's id, or ``_NO_TXN``.
        self._txn = _NO_TXN
        self._context: Dict[str, Any] = {}
        #: The context's label names while the next event must carry
        #: them, else ``None``.
        self._context_keys: Optional[Tuple[str, ...]] = None

    # -- causality context ---------------------------------------------------

    def push_txn(self, txn_id: int) -> None:
        """Enter a Binder transaction: subsequent events carry its id."""
        self._txn_stack.append(txn_id)
        self._txn = txn_id

    def pop_txn(self) -> None:
        if not self._txn_stack:
            raise EventsError("transaction stack underflow")
        self._txn_stack.pop()
        self._txn = self._txn_stack[-1] if self._txn_stack else _NO_TXN

    @property
    def current_txn(self) -> Optional[int]:
        return self._txn_stack[-1] if self._txn_stack else None

    @property
    def parent_txn(self) -> Optional[int]:
        return self._txn_stack[-2] if len(self._txn_stack) >= 2 else None

    def set_context(self, **labels: Any) -> None:
        """Attach labels (e.g. ``stage=transfer``) to subsequent events."""
        self._context.update(labels)
        self._context_keys = tuple(self._context)

    def clear_context(self, *keys: str) -> None:
        for key in keys:
            self._context.pop(key, None)
        self._context_keys = tuple(self._context)

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
        if self._room:
            self._room -= 1
            block = self._tail
        else:
            block = self._make_room()
        block.times.append(self._clock.now if self._clock is not None
                           else 0.0)
        block.txns.append(self._txn if txn is _UNSET
                          else _NO_TXN if txn is None else txn)
        # The span path is cached on the tracer and invalidated on span
        # open/close.
        span = (self._tracer.open_span_path if self._tracer is not None
                else None)
        if self._context_keys is None:
            try:
                shape_id = self._shape_ids[kind][span][tuple(attrs)]
            except KeyError:
                shape_id = self._add_shape(kind, span, tuple(attrs), None)
        else:
            shape_id = self._carry_context(block, kind, span, tuple(attrs))
        block.shapes.append(shape_id)
        if attrs:
            block.values.extend(attrs.values())

    def _make_room(self) -> _Block:
        """The block the event being emitted goes in: evicts the oldest
        event if the ring is full and opens a block if the newest is
        full, then counts the events that fit before coming back."""
        emitted = self.emitted + 1
        if len(self) == self.capacity:
            self._evict_oldest()
        blocks = self._blocks
        if not blocks or len(blocks[-1].times) == self._block_events:
            if blocks:
                self._sealed += self._block_events
                blocks[-1] = blocks[-1].packed()
            blocks.append(_Block())
        block = self._tail = blocks[-1]
        self._room = self._granted = min(
            self._block_events - len(block.times),
            self.capacity - len(self)) - 1
        self._emitted = emitted
        return block

    def _carry_context(self, block: _Block, kind: str, span: Any,
                       keys: Tuple[str, ...]) -> int:
        """The shape id of an event that carries the context labels, whose
        values it puts in ``block`` ahead of its own."""
        context_keys = self._context_keys
        shape_id = self._carrier_ids.get((kind, span, keys, context_keys))
        if shape_id is None:
            shape_id = self._add_shape(kind, span, keys, context_keys)
        block.values.extend(self._context.values())
        self._context_keys = None
        return shape_id

    def _add_shape(self, kind: str, span: Any, keys: Tuple[str, ...],
                   context_keys: Optional[Tuple[str, ...]]) -> int:
        shape_id = len(self._shapes)
        if shape_id == _MAX_SHAPES:
            raise EventsError(f"{self.device}: more than {_MAX_SHAPES} "
                              f"distinct event shapes")
        shape = (kind, span, keys, context_keys)
        self._shapes.append(shape)
        if context_keys is None:
            self._shape_ids.setdefault(kind, {}).setdefault(
                span, {})[keys] = shape_id
        else:
            self._carrier_ids[shape] = shape_id
        return shape_id

    def _evict_oldest(self) -> None:
        first = self._blocks[0]
        _, _, keys, context_keys = self._shapes[first.shapes[self._head]]
        at = self._value_head
        if context_keys is not None:
            self._base_context = dict(zip(
                context_keys, first.values[at:at + len(context_keys)]))
            at += len(context_keys)
        self._value_head = at + len(keys)
        self._head += 1
        if self._head == len(first.times):
            self._blocks.popleft()
            if self._blocks:
                self._sealed -= self._head
            self._head = self._value_head = 0

    # -- inspection ----------------------------------------------------------

    def __len__(self) -> int:
        blocks = self._blocks
        return (self._sealed + len(blocks[-1].times) - self._head
                if blocks else 0)

    @property
    def emitted(self) -> int:
        """Total events ever emitted (including evicted ones); the next
        event gets ``seq = emitted + 1``."""
        return self._emitted + self._granted - self._room

    @property
    def evicted(self) -> int:
        """Events pushed out of the ring to keep memory bounded."""
        return self.emitted - len(self)

    def export(self) -> "EventLog":
        """The retained events as a one-stream :class:`EventLog`.

        The log holds a snapshot of the columns: full blocks are
        shared (they never change again), the oldest block's retained
        part and the newest block, still filling, are packed copies.
        Nothing is built per event.
        """
        blocks = list(self._blocks)
        if self._head:
            blocks[0] = blocks[0].packed(self._head, self._value_head)
        if blocks and type(blocks[-1].times) is list:
            blocks[-1] = blocks[-1].packed()
        stream = (self.device, self.evicted + 1, tuple(self._shapes),
                  tuple(blocks), self._base_context)
        return EventLog(((None, (stream,)),))

    def clear(self) -> None:
        self._emitted = self.emitted
        self._blocks.clear()
        self._head = self._value_head = self._sealed = 0
        self._room = self._granted = 0
        self._base_context = {}
        # The next event starts a new stream: it carries the context.
        self._context_keys = tuple(self._context)


class EventLog:
    """Exported events, kept as the flight recorders' columns.

    A log is a run of *sections*, each ``(label, streams)``: the events
    of one simulation.  A stream is one recorder's retained events,
    ``(device, first_seq, shapes, blocks, base_context)``: the
    recorder's shape table, a snapshot of its column blocks
    (:class:`_Block`), events in emission order, and the context labels
    the first event inherits.  ``label`` is ``None`` or one
    ``(key, value)`` pair that every event of the section carries (the
    sweep's ``pair``, the fleet's ``site``), stored once per section,
    not once per event.

    Nothing is built per event until something reads the log.  Iteration
    yields one fresh JSON-ready dict per event, keyed ``seq``, ``t``,
    ``device``, ``kind``, ``txn``, ``span``, ``attrs`` and the label's
    key (a fixed key set, so JSONL lines are uniform): sections in
    order, and each section's streams merged by ``(t, device, seq)``.
    A recorder reads a clock that never moves backwards, so each stream
    is already in that order and the merge is a streaming one.  A log
    equals another log, or a list, holding the same event dicts in the
    same order, and pickles as its columns.
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
        return sum(len(block.times) for _, _, _, blocks, _ in self._streams()
                   for block in blocks)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        for label, streams in self._sections:
            ordered = (_events(*streams[0]) if len(streams) == 1
                       else heapq.merge(*(_events(*stream)
                                          for stream in streams),
                                        key=_CAUSAL_ORDER))
            if label is None:
                yield from ordered
                continue
            key, value = label
            for event in ordered:
                event[key] = value
                yield event

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (EventLog, list)):
            return NotImplemented
        return list(self) == list(other)

    def __reduce__(self):
        return EventLog, (self._sections,)


#: The causal order of merged streams: ``(t, device, seq)``.
_CAUSAL_ORDER = itemgetter("t", "device", "seq")


def _events(device: str, seq: int, shapes: tuple, blocks: tuple,
            context: Dict[str, Any]) -> Iterator[Dict[str, Any]]:
    """One stream's event dicts, in emission order."""
    for block in blocks:
        values = block.values
        at = 0
        for time, txn, shape in zip(block.times, block.txns, block.shapes):
            kind, span, keys, context_keys = shapes[shape]
            if context_keys is not None:
                end = at + len(context_keys)
                context = dict(zip(context_keys, values[at:end]))
                at = end
            attrs = dict(context)
            if keys:
                attrs.update(zip(keys, values[at:at + len(keys)]))
                at += len(keys)
            yield {"seq": seq, "t": time, "device": device, "kind": kind,
                   "txn": None if txn == _NO_TXN else txn, "span": span,
                   "attrs": attrs}
            seq += 1


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


def evicted_per_device(events: Iterable[Dict[str, Any]],
                       pair: Any = None, site: Any = None
                       ) -> Dict[str, int]:
    """Events the flight recorders evicted before the log was written,
    per device of the section labelled ``pair``/``site``.

    ``seq`` counts every event a device ever emitted, so a device whose
    first event in the section has ``seq = k > 1`` lost ``k - 1``.
    Devices that lost none are omitted.
    """
    evicted: Dict[str, int] = {}
    seen = set()
    for event in events:
        device = event.get("device")
        if (device in seen or event.get("pair") != pair
                or event.get("site") != site):
            continue
        seen.add(device)
        seq = event.get("seq")
        if isinstance(seq, int) and seq > 1:
            evicted[device] = seq - 1
    return dict(sorted(evicted.items()))
