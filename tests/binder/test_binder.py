"""Binder driver: nodes, handles, transactions, CRIA state capture."""

from dataclasses import replace

import pytest

from repro.android.binder import (
    Binder,
    BinderDriver,
    BinderError,
    CallerAwareBinder,
    DeadObjectError,
    IBinder,
    Parcel,
    ServiceManager,
)
from repro.android.kernel import Kernel
from repro.sim import SimClock
from repro.sim.telemetry import Telemetry


@pytest.fixture
def kernel():
    return Kernel(SimClock())


@pytest.fixture
def driver(kernel):
    return BinderDriver(kernel)


@pytest.fixture
def system(kernel):
    return kernel.create_process("system_server", uid=1000, package="android")


@pytest.fixture
def app(kernel):
    return kernel.create_process("com.app", uid=10001, package="com.app")


class Echo(CallerAwareBinder):
    def ping(self, caller, value):
        return ("pong", caller.pid, value)


class TestReferences:
    def test_acquire_gives_sequential_handles(self, driver, system, app):
        node_a = driver.create_node(system, Echo(), "a")
        node_b = driver.create_node(system, Echo(), "b")
        assert driver.acquire_ref(app, node_a) == 1
        assert driver.acquire_ref(app, node_b) == 2

    def test_reacquire_reuses_handle_and_bumps_count(self, driver, system, app):
        node = driver.create_node(system, Echo(), "svc")
        handle = driver.acquire_ref(app, node)
        assert driver.acquire_ref(app, node) == handle
        ref = driver.state(app).refs[handle]
        assert ref.strong_count == 2
        driver.release_ref(app, handle)
        assert handle in driver.state(app).refs
        driver.release_ref(app, handle)
        assert handle not in driver.state(app).refs

    def test_handles_are_process_local(self, driver, system, kernel):
        app1 = kernel.create_process("a", package="a")
        app2 = kernel.create_process("b", package="b")
        node1 = driver.create_node(system, Echo(), "one")
        node2 = driver.create_node(system, Echo(), "two")
        driver.acquire_ref(app1, node1)
        assert driver.acquire_ref(app2, node2) == 1   # same handle number
        assert driver.resolve(app1, 1) is node1
        assert driver.resolve(app2, 1) is node2

    def test_inject_ref_pins_handle(self, driver, system, app):
        node = driver.create_node(system, Echo(), "svc")
        driver.inject_ref(app, 17, node)
        assert driver.resolve(app, 17) is node
        # Subsequent acquisitions never collide with injected handles.
        other = driver.create_node(system, Echo(), "other")
        assert driver.acquire_ref(app, other) == 18

    def test_inject_on_held_handle_rejected(self, driver, system, app):
        node = driver.create_node(system, Echo(), "svc")
        driver.inject_ref(app, 3, node)
        with pytest.raises(BinderError):
            driver.inject_ref(app, 3, node)

    def test_inject_at_handle_zero_rejected(self, driver, system, app):
        node = driver.create_node(system, Echo(), "svc")
        with pytest.raises(BinderError):
            driver.inject_ref(app, 0, node)

    def test_release_unknown_handle_rejected(self, driver, app):
        with pytest.raises(BinderError):
            driver.release_ref(app, 42)


class TestTransactions:
    def test_transact_dispatches_with_caller(self, driver, system, app):
        node = driver.create_node(system, Echo(), "echo")
        handle = driver.acquire_ref(app, node)
        result = driver.transact(app, handle, "ping",
                                 Parcel().write(42))
        assert result == ("pong", app.pid, 42)

    def test_dead_node_raises(self, driver, system, app, kernel):
        node = driver.create_node(system, Echo(), "echo")
        handle = driver.acquire_ref(app, node)
        kernel.kill_process(system.pid)
        with pytest.raises(DeadObjectError):
            driver.transact(app, handle, "ping", Parcel().write(1))

    def test_unknown_handle_raises(self, driver, app):
        with pytest.raises(BinderError):
            driver.transact(app, 9, "ping")

    def test_transaction_cost_charges_clock(self, kernel, system, app):
        driver = BinderDriver.__new__(BinderDriver)  # fresh, custom cost
        kernel.binder = None
        driver.__init__(kernel, transaction_cost=0.001)
        node = driver.create_node(system, Echo(), "echo")
        handle = driver.acquire_ref(app, node)
        before = kernel.clock.now
        driver.transact(app, handle, "ping", Parcel().write(1))
        assert kernel.clock.now == pytest.approx(before + 0.001)

    def test_transaction_counting(self, driver, system, app):
        node = driver.create_node(system, Echo(), "echo")
        handle = driver.acquire_ref(app, node)
        for _ in range(3):
            driver.transact(app, handle, "ping", Parcel().write(1))
        assert driver.state(app).transactions == 3
        assert driver.total_transactions == 3


class TestStateCapture:
    def test_state_of_classifies_refs(self, driver, system, app):
        node = driver.create_node(system, Echo(), "svc", system_service=True)
        handle = driver.acquire_ref(app, node)
        state = driver.state_of(app)
        (ref,) = state["refs"]
        assert ref["handle"] == handle
        assert ref["system_service"] is True
        assert ref["owner_package"] == "android"
        assert ref["label"] == "svc"

    def test_owned_nodes_listed(self, driver, app):
        driver.create_node(app, Echo(), "internal")
        state = driver.state_of(app)
        assert state["owned_nodes"][0]["label"] == "internal"

    def test_release_process_kills_owned_nodes(self, driver, system, app,
                                               kernel):
        node = driver.create_node(app, Echo(), "internal")
        handle = driver.acquire_ref(system, node)
        driver.release_process(app)
        assert not node.alive
        with pytest.raises(DeadObjectError):
            driver.transact(system, handle, "ping", Parcel().write(1))


class TestServiceManager:
    def test_lookup_returns_working_ibinder(self, driver, system, app):
        sm = ServiceManager(driver, system)
        sm.add_binder_service("echo", Echo(), system)
        remote = sm.get_service(app, "echo")
        assert isinstance(remote, IBinder)
        assert remote.transact("ping", 7) == ("pong", app.pid, 7)
        assert remote.alive

    def test_handle_zero_reaches_service_manager(self, driver, system, app):
        sm = ServiceManager(driver, system)
        sm.add_binder_service("echo", Echo(), system)
        assert driver.transact(app, 0, "checkService",
                               Parcel().write("echo")) is True
        assert driver.transact(app, 0, "listServices") == ["echo"]

    def test_unknown_service_rejected(self, driver, system, app):
        sm = ServiceManager(driver, system)
        with pytest.raises(BinderError):
            sm.get_service(app, "nothing")

    def test_duplicate_name_rejected(self, driver, system):
        sm = ServiceManager(driver, system)
        sm.add_binder_service("echo", Echo(), system)
        with pytest.raises(BinderError):
            sm.add_binder_service("echo", Echo(), system)

    def test_name_of_node(self, driver, system):
        sm = ServiceManager(driver, system)
        node = sm.add_binder_service("echo", Echo(), system)
        assert sm.name_of_node(node.node_id) == "echo"
        assert sm.name_of_node(10_000) is None


class TestParcel:
    def test_round_trip_order(self):
        parcel = Parcel().write(1).write("two").write(b"three")
        assert parcel.read() == 1
        assert parcel.read() == "two"
        assert parcel.read() == b"three"

    def test_read_past_end(self):
        from repro.android.binder.parcel import ParcelError
        with pytest.raises(ParcelError):
            Parcel().read()

    def test_tokens_are_findable(self):
        from repro.android.binder.parcel import BinderToken, FdToken
        parcel = Parcel().write(BinderToken(3)).write(FdToken(9)).write(1)
        assert parcel.binder_tokens() == [BinderToken(3)]
        assert parcel.fd_tokens() == [FdToken(9)]

    def test_size_accounts_for_strings(self):
        small = Parcel().write("a").size_bytes()
        large = Parcel().write("a" * 100).size_bytes()
        assert large > small

    def test_describe_is_serializable(self):
        import json
        parcel = Parcel().write(1).write("x").write([1, 2])
        json.dumps(parcel.describe())


class TestTransactionEvents:
    """Causal event-log integration: every transact gets a stable id."""

    @pytest.fixture
    def recorder(self, kernel):
        from repro.sim.events import FlightRecorder
        return FlightRecorder(clock=kernel.clock, device="d")

    @pytest.fixture
    def logged_driver(self, kernel, recorder):
        return BinderDriver(kernel, telemetry=replace(Telemetry.null(),
                                                      events=recorder))

    def test_txn_ids_are_monotonic_and_logged(self, logged_driver, recorder,
                                              system, app):
        node = logged_driver.create_node(system, Echo(), "echo")
        handle = logged_driver.acquire_ref(app, node)
        for _ in range(3):
            logged_driver.transact(app, handle, "ping", Parcel().write(1))
        events = [e for e in recorder.export()
                  if e["kind"] == "binder.transact"]
        assert [e["txn"] for e in events] == [1, 2, 3]
        assert logged_driver.total_transactions == 3
        assert all(e["attrs"]["interface"] == "echo" for e in events)
        assert all(e["attrs"]["parent_txn"] is None for e in events)

    def test_nested_transactions_carry_parent_txn(self, logged_driver,
                                                  recorder, system, app):
        driver = logged_driver
        echo = driver.create_node(system, Echo(), "echo")
        inner_handle = driver.acquire_ref(system, echo)

        class Relay(CallerAwareBinder):
            def forward(self, caller, value):
                return driver.transact(system, inner_handle, "ping",
                                       Parcel().write(value))

        relay = driver.create_node(system, Relay(), "relay")
        outer_handle = driver.acquire_ref(app, relay)
        driver.transact(app, outer_handle, "forward", Parcel().write(7))

        outer, inner = [e for e in recorder.export()
                        if e["kind"] == "binder.transact"]
        assert (outer["txn"], outer["attrs"]["parent_txn"]) == (1, None)
        assert (inner["txn"], inner["attrs"]["parent_txn"]) == (2, 1)

    def test_txn_counter_advances_with_logging_off(self, kernel, system,
                                                   app):
        from repro.sim.events import FlightRecorder
        recorder = FlightRecorder(clock=kernel.clock, device="d",
                                  enabled=False)
        driver = BinderDriver(kernel, telemetry=replace(Telemetry.null(),
                                                        events=recorder))
        node = driver.create_node(system, Echo(), "echo")
        handle = driver.acquire_ref(app, node)
        driver.transact(app, handle, "ping", Parcel().write(1))
        driver.transact(app, handle, "ping", Parcel().write(2))
        # Ids stay stable whether or not events are collected.
        assert driver.total_transactions == 2
        assert recorder.export() == []
