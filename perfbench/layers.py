"""Layer spans for the traced benchmark run.

The traced run wraps the public entry point of each layer, from this
file, at the place its caller looks the name up:

* functions that ``core/migration/stages.py`` imports by name
  (``prepare_app``, ``checkpoint_app``, ``restore_app``, ``replay_log``)
  are patched on that module;
* functions the stage bodies import at call time (``serialize_image``,
  ``verify_against_image``, ``chunk_image``) are patched on the module
  that defines them;
* methods are patched on their class.

Every wrapped call records one span: name, parent span, op id, start and
end (``time.perf_counter``).  Spans live in flat arrays while the window
runs and are written out when it ends.  A span's self time is its
duration minus the durations of its direct children; children are
strictly nested in their parent (the program is single-threaded and no
wrapped entry point is a generator), so self times are non-negative and
add up to no more than the top-level spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from typing import Dict, List, Sequence, Tuple

#: (module, attribute path, span name).  An attribute path with a dot
#: names a method on a class in that module.  Several entry points may
#: share one span name (the metrics plane has three lookup methods).
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    # core.cria, as the stage pipeline calls it
    ("repro.core.migration.stages", "prepare_app", "cria.prepare_app"),
    ("repro.core.migration.stages", "checkpoint_app", "cria.checkpoint_app"),
    ("repro.core.cria.wire", "serialize_image", "cria.serialize_image"),
    ("repro.core.cria.wire", "verify_against_image",
     "cria.verify_against_image"),
    ("repro.core.migration.stages", "restore_app", "cria.restore_app"),
    # core.record / core.replay
    ("repro.core.record.recorder", "Recorder.on_call", "record.on_call"),
    ("repro.core.migration.stages", "replay_log", "replay.replay_log"),
    # android.binder
    ("repro.android.binder.driver", "BinderDriver.transact",
     "binder.transact"),
    # core.migration
    ("repro.core.migration.migration", "MigrationService.migrate",
     "migration.migrate"),
    ("repro.core.migration.chunks", "chunk_image", "chunks.chunk_image"),
    ("repro.core.migration.chunks", "ChunkStore.add_many",
     "chunks.add_many"),
    ("repro.core.migration.pairing", "PairingService.verify_app",
     "pairing.verify_app"),
    ("repro.core.migration.pairing", "PairingService.pair", "pairing.pair"),
    # sim.scheduler: the inline driver as MigrationService.migrate
    # looks it up, and the discrete-event driver
    ("repro.core.migration.migration", "drive_sync", "scheduler.drive_sync"),
    ("repro.sim.scheduler", "Scheduler.run", "scheduler.run"),
    # the four telemetry planes
    ("repro.sim.metrics", "MetricsRegistry.counter", "metrics.lookup"),
    ("repro.sim.metrics", "MetricsRegistry.gauge", "metrics.lookup"),
    ("repro.sim.metrics", "MetricsRegistry.histogram", "metrics.lookup"),
    ("repro.sim.events", "FlightRecorder.emit", "events.emit"),
    ("repro.sim.trace", "Tracer.span", "trace.span"),
    ("repro.sim.trace", "Tracer.end_span", "trace.span"),
    ("repro.sim.trace", "Tracer.add_span", "trace.span"),
    ("repro.sim.timeline", "Timeline.sample", "timeline.sample"),
    # android.device, android.storage, android.net
    ("repro.android.device", "Device.__init__", "device.boot"),
    ("repro.android.storage.sync", "RsyncEngine.sync", "storage.sync"),
    ("repro.android.net.link", "Medium.submit", "medium.submit"),
    # placement, scenario and fleet, as run_fleet / run_site look them up
    ("repro.experiments.fleet", "place_site", "placement.place_site"),
    ("repro.core.migration.placement", "PlacementEngine.choose",
     "placement.choose"),
    ("repro.experiments.fleet", "run_scenario", "scenario.run_scenario"),
    ("repro.experiments.fleet", "merge_site_outcomes",
     "fleet.merge_site_outcomes"),
)

#: Per-op metrics the traced run reports: (span name, "calls"|"self_ms").
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("cria.prepare_app", "self_ms"),
    ("cria.checkpoint_app", "self_ms"),
    ("cria.serialize_image", "self_ms"),
    ("cria.verify_against_image", "self_ms"),
    ("cria.restore_app", "self_ms"),
    ("record.on_call", "calls"),
    ("record.on_call", "self_ms"),
    ("replay.replay_log", "self_ms"),
    ("binder.transact", "calls"),
    ("binder.transact", "self_ms"),
    ("migration.migrate", "self_ms"),
    ("chunks.chunk_image", "self_ms"),
    ("chunks.add_many", "self_ms"),
    ("pairing.verify_app", "self_ms"),
    ("scheduler.drive_sync", "self_ms"),
    ("scheduler.run", "self_ms"),
    ("metrics.lookup", "calls"),
    ("metrics.lookup", "self_ms"),
    ("events.emit", "calls"),
    ("events.emit", "self_ms"),
    ("trace.span", "self_ms"),
    ("timeline.sample", "calls"),
    ("timeline.sample", "self_ms"),
    ("device.boot", "self_ms"),
    ("pairing.pair", "self_ms"),
    ("storage.sync", "calls"),
    ("storage.sync", "self_ms"),
    ("placement.place_site", "self_ms"),
    ("placement.choose", "calls"),
    ("scenario.run_scenario", "self_ms"),
    ("fleet.merge_site_outcomes", "self_ms"),
    ("medium.submit", "calls"),
)


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for an entry in the table."""
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class SpanRecorder:
    """In-memory spans of one traced window, in flat arrays.

    ``op`` is the id stamped on every span opened from now on; the
    workload sets it before each op so spans of one op share it.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.parent = array("l")
        self.name = array("l")
        self.op_of = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.op = -1
        self._patches: List[Tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        """``fn`` recording one span named ``name`` per call."""
        name_id = self._name_id(name)
        stack = self._stack
        parent, names, op_of = self.parent, self.name, self.op_of
        start, end = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(name_id)
            op_of.append(self.op)
            end.append(0.0)
            stack.append(span_id)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[span_id] = clock()
                stack.pop()

        return spanned

    def __enter__(self) -> "SpanRecorder":
        for module_name, path, name in LAYER_ENTRY_POINTS:
            owner, attr = _resolve(module_name, path)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- after the window ---------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> List[float]:
        """Per-span self seconds: duration minus direct children."""
        durations = [e - s for s, e in zip(self.start, self.end)]
        own = list(durations)
        for span_id, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= durations[span_id]
        return own

    def layer_totals(self) -> Dict[str, Tuple[int, float]]:
        """Span name -> (calls, total self seconds) over the window."""
        calls = [0] * len(self.names)
        seconds = [0.0] * len(self.names)
        for name_id, own in zip(self.name, self.self_times()):
            calls[name_id] += 1
            seconds[name_id] += own
        return {name: (calls[i], seconds[i])
                for i, name in enumerate(self.names)}

    def top_level_seconds(self) -> Dict[int, float]:
        """Op id -> summed duration of that op's top-level spans."""
        totals: Dict[int, float] = {}
        for span_id, parent in enumerate(self.parent):
            if parent < 0:
                op = self.op_of[span_id]
                totals[op] = (totals.get(op, 0.0) + self.end[span_id]
                              - self.start[span_id])
        return totals

    def write(self, path: str) -> None:
        """Write every span as gzipped TSV (times in ns from the first)."""
        origin = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for span_id in range(len(self)):
                out.write(
                    f"{span_id}\t{self.parent[span_id]}\t"
                    f"{self.op_of[span_id]}\t"
                    f"{self.names[self.name[span_id]]}\t"
                    f"{round((self.start[span_id] - origin) * 1e9)}\t"
                    f"{round((self.end[span_id] - origin) * 1e9)}\n")


def layer_metrics(totals: Dict[str, Tuple[int, float]], ops: int,
                  scale: float) -> Dict[str, float]:
    """The per-op ``<layer>.calls`` / ``<layer>.self_ms`` values; self
    times are multiplied by the host-speed ``scale``."""
    out: Dict[str, float] = {}
    for name, kind in LAYER_METRICS:
        calls, seconds = totals.get(name, (0, 0.0))
        out[f"{name}.{kind}"] = (calls / ops if kind == "calls"
                                 else seconds * scale * 1e3 / ops)
    return out


def check_nesting(recorder: SpanRecorder,
                  op_walls: Sequence[float]) -> List[str]:
    """Problems with the spans, as messages (empty when consistent).

    Each op's top-level spans must add up to no more than the op's wall
    time, and no span may have negative self time.
    """
    problems = []
    for op, seconds in sorted(recorder.top_level_seconds().items()):
        if op < 0 or op >= len(op_walls):
            problems.append(f"top-level span outside any op (op id {op})")
        elif seconds > op_walls[op] + 1e-9:
            problems.append(f"op {op}: top-level spans {seconds:.6f}s "
                            f"exceed its wall time {op_walls[op]:.6f}s")
    negative = sum(1 for own in recorder.self_times() if own < 0)
    if negative:
        problems.append(f"{negative} spans with negative self time")
    return problems
