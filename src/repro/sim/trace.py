"""Hierarchical spans on the virtual clock.

Long-running operations open :class:`Span` records via
``tracer.span("migration")``: spans nest (a stage span inside the
migration span, chunk spans inside the transfer stage), measure start and
end on the virtual clock, and export as Chrome-trace JSON
(``chrome://tracing`` / Perfetto "traceEvents" format) for offline
inspection.  Spans never advance the clock or touch the RNG, so enabling
them cannot perturb simulation results.

A root span is kept only while something will read it.  The migration
pipeline derives its report's stage times and critical path from its
root and then :meth:`Tracer.release` drops it, unless the caller opened
an :meth:`Tracer.exporting` scope to write the trace afterwards; so a
long run keeps no span tree per migration (DESIGN.md, "What grows with
run length").
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.sim.timeline import chrome_counter_events


@dataclass(slots=True)
class Span:
    """A named interval on the virtual clock, possibly nested.

    ``end is None`` while the span is open.  Children are appended in
    the order they close their parents opened them, preserving the
    execution order of sibling stages.
    """

    name: str
    category: str
    start: float
    end: Optional[float] = None
    detail: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} still open")
        return self.end - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def self_seconds(self) -> float:
        """Time spent in this span itself, excluding closed children.

        Analytic child intervals may overlap (pipelined chunk windows),
        so the subtraction is clamped at zero rather than allowed to go
        negative.
        """
        child_time = sum(c.duration for c in self.children if c.closed)
        return max(0.0, self.duration - child_time)

    def annotate(self, **detail: Any) -> None:
        self.detail.update(detail)

    def child(self, name: str, category: Optional[str] = None) -> Optional["Span"]:
        """First direct child with ``name`` (and category, if given)."""
        for span in self.children:
            if span.name == name and (category is None
                                      or span.category == category):
                return span
        return None

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def critical_path(span: Span) -> List[Span]:
    """The dominant-descendant chain starting at ``span``.

    At each level the closed child with the largest duration is
    followed (first such child on ties, which is deterministic because
    children keep execution order).  For a migration span this names
    the dominant stage, then the dominant sub-operation inside it —
    the chain an optimization would have to shorten to move the
    end-to-end number.
    """
    path = [span]
    node = span
    while True:
        closed_children = [c for c in node.children if c.closed]
        if not closed_children:
            return path
        node = max(closed_children, key=lambda c: c.duration)
        path.append(node)


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`."""

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.end_span(self.span)
        return None


class Tracer:
    """A span tree keyed to a virtual clock."""

    def __init__(self, clock) -> None:
        self._clock = clock
        self._roots: List[Span] = []
        self._open_spans: List[Span] = []
        # Cached "a/b/c" join of the open spans' names; rebuilt on span
        # open/close instead of per event (the flight recorder stamps
        # every emitted event with this path, making the join a sweep
        # hot path when recomputed per emit).
        self._open_span_path: Optional[str] = None
        #: Open :meth:`exporting` scopes; while any is open,
        #: :meth:`release` keeps roots.
        self._exporting = 0

    def clear(self) -> None:
        self._roots.clear()
        self._open_spans.clear()
        self._open_span_path = None

    # -- hierarchical spans ----------------------------------------------------

    def span(self, name: str, category: str = "span",
             **detail: Any) -> _SpanHandle:
        """Open a span nested under the innermost still-open span.

        Use as a context manager::

            with tracer.span("migration", package=pkg) as root:
                with tracer.span("transfer", category="stage"):
                    ...

        The span closes (records its end time) when the ``with`` block
        exits — also on exception, so a faulted stage still has a
        measured duration.
        """
        span = Span(name=name, category=category, start=self._clock.now,
                    detail=detail)
        if self._open_spans:
            self._open_spans[-1].children.append(span)
        else:
            self._roots.append(span)
        self._open_spans.append(span)
        self._open_span_path = None
        return _SpanHandle(self, span)

    @property
    def open_span_path(self) -> Optional[str]:
        """``"migration/transfer"``-style path of the open spans, cached."""
        if self._open_span_path is None and self._open_spans:
            self._open_span_path = "/".join(
                s.name for s in self._open_spans)
        return self._open_span_path

    def add_span(self, name: str, start: float, end: float,
                 category: str = "span", **detail: Any) -> Span:
        """Attach an already-measured interval under the open span.

        Used for sub-operations whose schedule was computed analytically
        (e.g. individual chunks of a pipelined burst charged to the
        clock as one block): the interval is recorded without touching
        the clock.
        """
        if end < start:
            raise ValueError(f"span {name!r} ends before it starts")
        span = Span(name=name, category=category, start=start, end=end,
                    detail=detail)
        if self._open_spans:
            self._open_spans[-1].children.append(span)
        else:
            self._roots.append(span)
        return span

    def end_span(self, span: Span) -> None:
        if span.end is None:
            span.end = self._clock.now
        while self._open_spans and self._open_spans[-1] is not span:
            dangling = self._open_spans.pop()
            if dangling.end is None:
                dangling.end = self._clock.now
        if self._open_spans:
            self._open_spans.pop()
        self._open_span_path = None

    @contextlib.contextmanager
    def exporting(self) -> Iterator["Tracer"]:
        """Keep every root span closed inside this scope for export.

        ``flux-sim migrate`` runs its migration in one, so the bundle's
        ``trace.json`` still holds the migration's span tree; outside any scope the pipeline releases each root once its
        report has what it needs.
        """
        self._exporting += 1
        try:
            yield self
        finally:
            self._exporting -= 1

    def release(self, root: Span) -> None:
        """Drop ``root`` from the roots unless an export scope is open.

        A span that is not a root (it was opened under another open
        span) belongs to its parent and stays.
        """
        if self._exporting:
            return
        roots = self._roots
        for index in range(len(roots) - 1, -1, -1):
            if roots[index] is root:
                del roots[index]
                return

    def root_spans(self, category: Optional[str] = None) -> List[Span]:
        """Top-level spans, in open order."""
        if category is None:
            return list(self._roots)
        return [s for s in self._roots if s.category == category]

    # -- Chrome-trace export -----------------------------------------------------

    def chrome_trace(self, timeline=None, events=None) -> Dict[str, Any]:
        """The span tree as a Chrome-trace ("traceEvents") dict.

        Complete ("ph": "X") events with microsecond timestamps; the
        viewer reconstructs nesting from the containment of intervals.
        A span still open at export time is closed *at the current
        virtual time* and marked with a ``"flux.incomplete": true``
        arg, so the viewer shows a real interval instead of a
        malformed/invisible event and the reader can tell it never
        finished.

        ``timeline`` (a timeline export, such as the merged one
        :func:`repro.sim.telemetry.export` returns) additionally
        appends its series as counter ("C"-phase) tracks through
        :func:`repro.sim.timeline.chrome_counter_events`.  ``events`` (a
        :class:`repro.sim.events.FlightRecorder`, or a list of exported
        event dicts) interleaves the causal event log as instant
        ("i"-phase, thread-scoped) markers, so the viewer shows each
        ``binder.transact`` / ``link.chunk`` / ``stage.rollback`` tick
        at its position inside the spans.
        """
        trace_events: List[Dict[str, Any]] = []
        for root in self._roots:
            for span in root.walk():
                event: Dict[str, Any] = {
                    "name": span.name,
                    "cat": span.category,
                    "pid": 1,
                    "tid": 1,
                    "ts": round(span.start * 1e6, 3),
                    "ph": "X",
                }
                args = {k: v for k, v in span.detail.items()}
                if span.closed:
                    event["dur"] = round(span.duration * 1e6, 3)
                else:
                    if self._clock.now < span.start:
                        raise ValueError(
                            f"span {span.name!r} starts in the future; "
                            "cannot export an open span before its start")
                    event["dur"] = round(
                        (self._clock.now - span.start) * 1e6, 3)
                    args["flux.incomplete"] = True
                if args:
                    event["args"] = args
                trace_events.append(event)
        if timeline is not None:
            trace_events.extend(chrome_counter_events(timeline))
        if events is not None:
            trace_events.extend(chrome_instant_events(events))
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def chrome_instant_events(events) -> List[Dict[str, Any]]:
    """A causal event stream as Chrome-trace instant ("i") events.

    ``events`` is an iterable of event dicts (an
    :class:`~repro.sim.events.EventLog`, or a bundle's
    ``events.jsonl`` read back).  Each becomes a thread-scoped (``"s": "t"``) instant whose
    args carry the per-device sequence number, the Binder transaction id
    (when inside one) and the event's attributes — the same fields the
    bundle's ``events.jsonl`` records, so a tick in the viewer resolves
    back to a line of that member.
    """
    instants: List[Dict[str, Any]] = []
    for event in events:
        args: Dict[str, Any] = {"seq": event["seq"],
                                "device": event["device"]}
        if event.get("txn") is not None:
            args["txn"] = event["txn"]
        if event.get("span"):
            args["span"] = event["span"]
        args.update(event.get("attrs", {}))
        instants.append({
            "name": event["kind"],
            "cat": "event",
            "ph": "i",
            "s": "t",
            "pid": 1,
            "tid": 1,
            "ts": round(event["t"] * 1e6, 3),
            "args": args,
        })
    return instants
