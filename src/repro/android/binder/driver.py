"""The Binder kernel driver.

Object model (paper §2): the *service* side of a connection is a **node**
owned by the process that created it; clients hold process-specific
integer **handles** that the driver maps to nodes.  A process cannot talk
to a node without having been handed a reference by the node's owner or
another reference holder — in practice, by the ServiceManager.

CRIA hooks: :meth:`state_of` captures the complete per-process binder
state (handles with their classification, owned nodes, buffer sizes) and
:meth:`inject_ref` re-creates a reference *under a caller-chosen handle
id* on restore so the app keeps seeing the ids it saw on the home device.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.android.kernel.process import Process
from repro.android.binder.parcel import Parcel
from repro.sim.metrics import TIME_BUCKETS_S, HeldSeries
from repro.sim.telemetry import Telemetry


class BinderError(Exception):
    """Binder protocol violations."""


class DeadObjectError(BinderError):
    """Transaction sent to a dead node (owner exited)."""


class BinderNode:
    """The service end of a binder connection."""

    _ids = itertools.count(1)

    def __init__(self, owner: Process, service: Any, label: str,
                 system_service: bool = False) -> None:
        self.node_id = next(self._ids)
        self.owner = owner
        self.service = service          # object whose methods serve transactions
        self.label = label
        self.system_service = system_service
        self.alive = True
        self.death_recipients: List[Callable[["BinderNode"], None]] = []

    def notify_death(self) -> None:
        recipients, self.death_recipients = self.death_recipients, []
        for recipient in recipients:
            recipient(self)

    def __repr__(self) -> str:
        return (f"BinderNode(id={self.node_id}, label={self.label!r}, "
                f"owner={self.owner.pid}, system={self.system_service})")


@dataclass
class BinderRef:
    """A process's reference to a node, via a local handle number."""
    handle: int
    node: BinderNode
    strong_count: int = 1


@dataclass
class ProcessBinderState:
    """Per-process driver state."""
    refs: Dict[int, BinderRef] = field(default_factory=dict)  # handle -> ref
    owned_nodes: List[BinderNode] = field(default_factory=list)
    next_handle: int = 1     # handle 0 is reserved for the ServiceManager
    buffer_bytes: int = 0    # outstanding transaction buffer usage
    transactions: int = 0


class BinderDriver:
    """One instance per kernel; attaches itself as ``kernel.binder``."""

    SERVICE_MANAGER_HANDLE = 0

    def __init__(self, kernel, transaction_cost: float = 0.0,
                 telemetry: Optional[Telemetry] = None) -> None:
        self.kernel = kernel
        self.transaction_cost = transaction_cost
        self._states: Dict[int, ProcessBinderState] = {}
        self._context_manager: Optional[BinderNode] = None
        #: Monotonic per-device transaction counter; doubles as the
        #: causal transaction id (``txn``) in the event log.  It
        #: increments whether or not event logging is enabled, so ids
        #: are stable across both modes.
        self.total_transactions = 0
        #: The device's planes (null ones standalone), bound once so
        #: :meth:`transact` adds no attribute hop per call.
        telemetry = telemetry or Telemetry.null()
        self.events = telemetry.events
        metrics = telemetry.metrics
        #: The transaction count, parcel bytes and dispatch latency
        #: series by (interface, caller package), looked up at the
        #: pair's first transaction.
        self._series = HeldSeries(lambda key: (
            metrics.counter("binder", "transactions",
                            interface=key[0], app=key[1]),
            metrics.counter("binder", "parcel_bytes", app=key[1]),
            metrics.histogram("binder", "transact_seconds",
                              bounds=TIME_BUCKETS_S, interface=key[0])))
        kernel.binder = self

    # -- state bookkeeping ---------------------------------------------------

    def state(self, process: Process) -> ProcessBinderState:
        return self._states.setdefault(process.pid, ProcessBinderState())

    # -- node / reference management ------------------------------------------

    def create_node(self, owner: Process, service: Any, label: str,
                    system_service: bool = False) -> BinderNode:
        node = BinderNode(owner, service, label, system_service)
        self.state(owner).owned_nodes.append(node)
        return node

    def set_context_manager(self, node: BinderNode) -> None:
        """Register the ServiceManager node, reachable at handle 0."""
        if self._context_manager is not None and self._context_manager.alive:
            raise BinderError("context manager already set")
        self._context_manager = node

    def acquire_ref(self, process: Process, node: BinderNode) -> int:
        """Give ``process`` a reference to ``node``; returns the handle.

        An existing reference is reused with its strong count bumped,
        matching the driver's real reference-consolidation behaviour.
        """
        if not node.alive:
            raise DeadObjectError(f"node {node.node_id} is dead")
        state = self.state(process)
        for ref in state.refs.values():
            if ref.node is node:
                ref.strong_count += 1
                return ref.handle
        handle = state.next_handle
        state.next_handle += 1
        state.refs[handle] = BinderRef(handle=handle, node=node)
        return handle

    def inject_ref(self, process: Process, handle: int, node: BinderNode) -> None:
        """Force a reference at a specific handle id (CRIA restore path)."""
        if not node.alive:
            raise DeadObjectError(f"node {node.node_id} is dead")
        state = self.state(process)
        if handle in state.refs:
            raise BinderError(
                f"pid {process.pid} already holds handle {handle}")
        if handle == self.SERVICE_MANAGER_HANDLE:
            raise BinderError("handle 0 is reserved for the context manager")
        state.refs[handle] = BinderRef(handle=handle, node=node)
        state.next_handle = max(state.next_handle, handle + 1)

    def release_ref(self, process: Process, handle: int) -> None:
        state = self.state(process)
        ref = state.refs.get(handle)
        if ref is None:
            raise BinderError(f"pid {process.pid} holds no handle {handle}")
        ref.strong_count -= 1
        if ref.strong_count <= 0:
            del state.refs[handle]

    def link_to_death(self, process: Process, handle: int,
                      recipient: Callable[[BinderNode], None]) -> None:
        """Register ``recipient`` to run when the target node dies.

        Mirrors IBinder.linkToDeath: system services use it to learn
        that an app process has exited and clean its state.
        """
        node = self.resolve(process, handle)
        if not node.alive:
            raise DeadObjectError(f"node {node.node_id} already dead")
        node.death_recipients.append(recipient)

    def unlink_to_death(self, process: Process, handle: int,
                        recipient) -> bool:
        node = self.resolve(process, handle)
        if recipient in node.death_recipients:
            node.death_recipients.remove(recipient)
            return True
        return False

    def resolve(self, process: Process, handle: int) -> BinderNode:
        if handle == self.SERVICE_MANAGER_HANDLE:
            if self._context_manager is None:
                raise BinderError("no context manager registered")
            return self._context_manager
        ref = self.state(process).refs.get(handle)
        if ref is None:
            raise BinderError(f"pid {process.pid} holds no handle {handle}")
        return ref.node

    # -- transactions ----------------------------------------------------------

    def transact(self, caller: Process, handle: int, method: str,
                 parcel: Optional[Parcel] = None) -> Any:
        """Synchronous transaction: dispatch ``method`` on the target node.

        The node's service object must expose ``method`` as a callable or
        implement ``on_transact(method, parcel, caller)``.
        """
        node = self.resolve(caller, handle)
        if not node.alive or not node.owner.alive:
            raise DeadObjectError(
                f"transaction to dead node {node.node_id} ({node.label})")
        parcel = parcel or Parcel()
        state = self.state(caller)
        state.transactions += 1
        state.buffer_bytes = max(state.buffer_bytes, parcel.size_bytes())
        self.total_transactions += 1
        txn_id = self.total_transactions
        events = self.events
        interface = node.label
        transactions, parcel_bytes, seconds = \
            self._series[interface, caller.package]
        transactions.inc()
        parcel_bytes.inc(parcel.size_bytes())
        dispatch_start = self.kernel.clock.now
        if self.transaction_cost:
            self.kernel.clock.advance(self.transaction_cost)
        # Enter the transaction's causal context: nested transactions
        # and everything the dispatch touches (the recorder, services)
        # emit events tagged with this txn id.
        parent_txn = events.current_txn
        events.push_txn(txn_id)
        events.emit("binder.transact", txn=txn_id, parent_txn=parent_txn,
                    interface=interface, method=method, caller=caller.pid,
                    app=caller.package)
        try:
            dispatcher = getattr(node.service, "on_transact", None)
            if dispatcher is not None:
                return dispatcher(method, parcel, caller)
            func = getattr(node.service, method, None)
            if func is None or not callable(func):
                raise BinderError(
                    f"node {node.label!r} has no transaction method "
                    f"{method!r}")
            return func(*parcel.values())
        finally:
            events.pop_txn()
            # Dispatch latency on the virtual clock: the fixed driver
            # cost plus whatever the service handler charged (e.g. the
            # recorder's enqueue cost on decorated methods).
            seconds.observe(self.kernel.clock.now - dispatch_start)

    def release_node(self, node: BinderNode) -> None:
        """Kill one node while its owner lives on.

        A service dropping an object it handed out (a per-app
        connection living in ``system_server``) calls this: the owner
        stops holding the node, death recipients run, and the node
        drops its service.  Refs to it stay and see a dead node.
        """
        state = self._states.get(node.owner.pid)
        if state is not None and node in state.owned_nodes:
            state.owned_nodes.remove(node)
        if node.alive:
            node.alive = False
            node.notify_death()
        node.service = None

    # -- process teardown --------------------------------------------------------

    def release_process(self, process: Process) -> None:
        """Drop all refs and kill owned nodes when a process exits."""
        state = self._states.pop(process.pid, None)
        if state is None:
            return
        for node in state.owned_nodes:
            if node.alive:
                node.alive = False
                node.notify_death()
            # A dead node serves nothing; dropping its service (often
            # the exited app's ActivityThread, which holds the node)
            # frees both by reference counting.
            node.service = None
        if (self._context_manager is not None
                and self._context_manager.owner.pid == process.pid):
            self._context_manager = None

    def close(self) -> None:
        """World teardown: cut every live node's edges back into the
        world (its service and death recipients) and the driver's edge
        to its kernel.  Refs, nodes and counters stay readable."""
        for state in self._states.values():
            for node in state.owned_nodes:
                node.service = None
                node.death_recipients = []
        self.kernel = None

    # -- CRIA checkpoint support ----------------------------------------------

    def state_of(self, process: Process) -> Dict[str, Any]:
        """Complete serializable binder state for one process."""
        state = self.state(process)
        refs = []
        for handle, ref in sorted(state.refs.items()):
            refs.append({
                "handle": handle,
                "node_id": ref.node.node_id,
                "label": ref.node.label,
                "strong_count": ref.strong_count,
                "owner_pid": ref.node.owner.pid,
                "owner_package": ref.node.owner.package,
                "system_service": ref.node.system_service,
            })
        nodes = [{
            "node_id": n.node_id,
            "label": n.label,
            "system_service": n.system_service,
        } for n in state.owned_nodes if n.alive]
        return {
            "refs": refs,
            "owned_nodes": nodes,
            "buffer_bytes": state.buffer_bytes,
            "transactions": state.transactions,
        }
