"""The recording handler invoked by generated AIDL proxies.

One :class:`Recorder` exists per device; the generated proxy code calls
``on_call`` after every transaction on a ``@record``-decorated method
(Figure 5).  The recorder resolves the method's decoration from the
interface registry, prunes stale entries via the rule engine, and appends
the call — charging a small, measurable CPU cost so the Figure 16
overhead experiment measures something real.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.android.aidl.registry import InterfaceRegistry
from repro.core.record.log import CallLog, CallRecord
from repro.core.record.rules import apply_drop_rules
from repro.sim.telemetry import Telemetry


class RecorderError(Exception):
    """Recording-layer failures."""


class Recorder:
    """Device-wide recording handler bound to a call log."""

    # Cost per recorded call, in CPU-seconds on the reference device.
    # Recording is asynchronous in Flux (paper §3.2): only the enqueue
    # cost lands on the app's thread; pruning happens off-path.
    RECORD_CPU_COST = 2e-5

    def __init__(self, registry: InterfaceRegistry, log: CallLog, clock,
                 cpu_factor: float = 1.0,
                 telemetry: Optional[Telemetry] = None) -> None:
        self._registry = registry
        self._log = log
        self._clock = clock
        self._cpu_factor = cpu_factor
        # Bound once: on_call runs on every recorded transaction.
        telemetry = telemetry or Telemetry.null()
        self.metrics = telemetry.metrics
        self.events = telemetry.events
        self.enabled = True
        #: When False, drop rules are skipped and every decorated call is
        #: kept — the strawman "record everything" design the paper argues
        #: against (§3.2); used by the selective-record ablation bench.
        self.prune = True
        self.calls_seen = 0
        self.calls_recorded = 0
        self.calls_suppressed = 0

    def bind_app(self, package: str) -> "AppRecorder":
        """The per-app facade handed to an app's framework libraries."""
        return AppRecorder(self, package)

    @property
    def log(self) -> CallLog:
        return self._log

    def on_call(self, app: str, descriptor: str, method: str,
                args: Dict[str, Any], result: Any) -> Optional[CallRecord]:
        if not self.enabled:
            return None
        self.calls_seen += 1
        self.metrics.counter("record", "calls_seen", app=app).inc()
        meta = self._registry.meta(descriptor).method(method)
        if not meta.recorded or meta.decoration is None:
            raise RecorderError(
                f"{descriptor}.{method} reached the recorder without a "
                "@record decoration; generated proxy out of sync")
        if self.RECORD_CPU_COST:
            self._clock.advance(self.RECORD_CPU_COST / self._cpu_factor)
        if self.prune:
            outcome = apply_drop_rules(self._log, app, descriptor, method,
                                       args, meta.decoration)
            if outcome.removed_count:
                # Stale entries dropped, attributed to the rule (the
                # decorated method) that pruned them.
                self.metrics.counter(
                    "record", "calls_pruned", app=app,
                    rule=f"{descriptor}.{method}",
                ).inc(outcome.removed_count)
                self.events.emit("record.prune", app=app,
                                 rule=f"{descriptor}.{method}",
                                 removed=outcome.removed_count)
            if outcome.suppress_current:
                self.calls_suppressed += 1
                self.metrics.counter("record", "calls_suppressed",
                                     app=app).inc()
                self.events.emit("record.suppress", app=app,
                                 interface=descriptor, method=method)
                return None
        record = self._log.append(time=self._clock.now, app=app,
                                  interface=descriptor, method=method,
                                  args=args, result=result)
        self.calls_recorded += 1
        self.metrics.counter("record", "calls_recorded", app=app).inc()
        self.metrics.counter("record", "log_bytes",
                             app=app).inc(record.estimated_size())
        self.events.emit("record.append", app=app, interface=descriptor,
                         method=method)
        return record

    def extract_app_log(self, app: str):
        """The app's surviving entries, in order (for the checkpoint image)."""
        return self._log.entries(app)

    def forget_app(self, app: str) -> int:
        """Drop an app's entries (after it migrated away or uninstalled)."""
        return self._log.remove_app(app)


class AppRecorder:
    """Per-app recorder facade; this is what proxies hold."""

    def __init__(self, recorder: Recorder, package: str) -> None:
        self._recorder = recorder
        self.package = package

    def on_call(self, descriptor: str, method: str, args: Dict[str, Any],
                result: Any) -> Optional[CallRecord]:
        return self._recorder.on_call(self.package, descriptor, method,
                                      args, result)
