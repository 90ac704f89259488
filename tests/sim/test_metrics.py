"""The metrics registry: typing, keys, merging."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.metrics import (
    RATE_BUCKETS_MBPS,
    TIME_BUCKETS_S,
    MetricsError,
    MetricsRegistry,
    empty_snapshot,
    merge_snapshots,
    rollup_counters,
    snapshot_by_label,
    subsystems_in,
)
from repro.sim.timeline import series_key, split_series_key

#: Text free of the key grammar's own characters (``{}=,/``).
_WORDS = st.text(st.characters(exclude_characters="{}=,/",
                               exclude_categories=("Cs",)), max_size=8)
#: Label names that cannot collide with the registry's own parameters.
_LABEL_NAMES = st.from_regex(r"l_[a-z0-9_]{0,6}", fullmatch=True)


class TestKeys:
    def test_canonical_key_sorts_labels(self):
        registry = MetricsRegistry()
        counter = registry.counter("binder", "transactions",
                                   interface="alarm", app="com.x")
        assert counter.key == \
            "binder/transactions{app=com.x,interface=alarm}"

    def test_split_key_roundtrip(self):
        key = series_key("record/calls_pruned",
                         {"app": "com.x", "rule": "IFoo.bar"})
        assert split_series_key(key) == (
            "record/calls_pruned", {"app": "com.x", "rule": "IFoo.bar"})
        assert split_series_key("link/bytes_total") == (
            "link/bytes_total", {})

    @settings(max_examples=200, deadline=None)
    @given(name=_WORDS, labels=st.dictionaries(_WORDS, _WORDS, max_size=4))
    def test_series_key_round_trips(self, name, labels):
        assert split_series_key(series_key(name, labels)) == (name, labels)

    @settings(max_examples=100, deadline=None)
    @given(subsystem=_WORDS, name=_WORDS,
           labels=st.dictionaries(_LABEL_NAMES,
                                  st.one_of(_WORDS, st.integers()),
                                  max_size=4),
           kind=st.sampled_from(["counter", "gauge", "histogram"]))
    def test_every_metric_key_is_a_series_key(self, subsystem, name, labels,
                                              kind):
        metric = getattr(MetricsRegistry(), kind)(subsystem, name, **labels)
        assert metric.key == series_key(f"{subsystem}/{name}", labels)
        assert split_series_key(metric.key) == (
            f"{subsystem}/{name}", {k: str(v) for k, v in labels.items()})

    def test_same_labels_same_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("s", "n", x="1", y="2")
        b = registry.counter("s", "n", y="2", x="1")
        assert a is b


#: Label dicts with str and int values; ``str`` of a value is what a
#: series key holds, so ``1`` and ``"1"`` name the same series.
_LABELS = st.dictionaries(_LABEL_NAMES, st.one_of(_WORDS, st.integers()),
                          max_size=4)
_KINDS = {"counter": "counters", "gauge": "gauges",
          "histogram": "histograms"}


def _as_key_labels(labels):
    return {name: str(value) for name, value in labels.items()}


class TestSeriesIdentity:
    """One metric object per series key, for the registry's life."""

    @settings(max_examples=200, deadline=None)
    @given(subsystem=_WORDS, name=_WORDS, labels=_LABELS, other=_LABELS,
           kind=st.sampled_from(sorted(_KINDS)), data=st.data())
    def test_a_series_is_one_object(self, subsystem, name, labels, other,
                                    kind, data):
        registry = MetricsRegistry()
        lookup = getattr(registry, kind)
        held = lookup(subsystem, name, **labels)
        assert held.key == series_key(f"{subsystem}/{name}", labels)
        assert list(registry.snapshot()[_KINDS[kind]]) == [held.key]

        other_metric = lookup(subsystem, name, **other)
        if _as_key_labels(other) == _as_key_labels(labels):
            assert other_metric is held
        else:
            assert other_metric is not held
            assert other_metric.key != held.key

        # A later lookup, in any keyword order, is the held object.
        shuffled = data.draw(st.permutations(sorted(labels.items())))
        assert lookup(subsystem, name, **dict(shuffled)) is held

        for wrong in sorted(set(_KINDS) - {kind}):
            with pytest.raises(MetricsError):
                getattr(registry, wrong)(subsystem, name, **labels)
        if kind == "histogram":
            with pytest.raises(MetricsError):
                registry.histogram(subsystem, name, bounds=RATE_BUCKETS_MBPS,
                                   **labels)
        assert lookup(subsystem, name, **labels) is held


class TestTypes:
    def test_counter_monotonic(self):
        registry = MetricsRegistry()
        counter = registry.counter("s", "n")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(MetricsError):
            counter.inc(-1)

    def test_gauge_set_and_add(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("s", "level")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("s", "lat", bounds=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0, 0.2):
            hist.observe(value)
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.min == 0.2 and hist.max == 50.0
        assert hist.mean == pytest.approx(55.7 / 4)

    def test_histogram_bounds_must_increase(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricsError):
            registry.histogram("s", "bad", bounds=(2.0, 1.0))

    def test_histogram_bounds_conflict(self):
        registry = MetricsRegistry()
        registry.histogram("s", "lat", bounds=TIME_BUCKETS_S)
        with pytest.raises(MetricsError):
            registry.histogram("s", "lat", bounds=RATE_BUCKETS_MBPS)

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("s", "n")
        with pytest.raises(MetricsError):
            registry.gauge("s", "n")

    def test_empty_registry_is_falsy_but_real(self):
        # __len__ == 0 makes a fresh registry falsy; wiring code must
        # therefore test `is not None`, never truthiness.
        registry = MetricsRegistry()
        assert len(registry) == 0 and not registry
        assert registry.enabled


class TestNullRegistry:
    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        registry.counter("s", "n").inc(5)
        registry.gauge("s", "g").set(3)
        registry.histogram("s", "h").observe(1.0)
        assert len(registry) == 0
        assert registry.snapshot() == empty_snapshot()


class TestSnapshots:
    def _registry(self, base):
        registry = MetricsRegistry()
        registry.counter("s", "n", app="a").inc(base)
        registry.gauge("s", "g").set(base * 10)
        registry.histogram("s", "h", bounds=(1.0, 2.0)).observe(base)
        return registry

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z", "last").inc()
        registry.counter("a", "first").inc()
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a/first", "z/last"]

    def test_merge_adds_counters_and_histograms_keeps_max_gauge(self):
        merged = merge_snapshots([self._registry(1).snapshot(),
                                  self._registry(3).snapshot()])
        assert merged["counters"]["s/n{app=a}"] == 4
        assert merged["gauges"]["s/g"] == 30
        hist = merged["histograms"]["s/h"]
        assert hist["count"] == 2
        assert hist["counts"] == [1, 0, 1]
        assert hist["min"] == 1 and hist["max"] == 3

    def test_merge_is_order_insensitive_for_counters(self):
        snaps = [self._registry(n).snapshot() for n in (1, 2, 3)]
        forward = merge_snapshots(snaps)
        backward = merge_snapshots(list(reversed(snaps)))
        assert forward == backward

    def test_merge_rejects_bound_mismatch(self):
        a = MetricsRegistry()
        a.histogram("s", "h", bounds=(1.0,)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("s", "h", bounds=(2.0,)).observe(0.5)
        with pytest.raises(MetricsError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_rollup_sums_label_variants(self):
        registry = MetricsRegistry()
        registry.counter("binder", "transactions", interface="a").inc(2)
        registry.counter("binder", "transactions", interface="b").inc(3)
        assert rollup_counters(registry.snapshot()) == \
            {"binder/transactions": 5}

    def test_snapshot_by_label_partitions_and_strips(self):
        registry = MetricsRegistry()
        registry.counter("record", "calls", app="x").inc(1)
        registry.counter("record", "calls", app="y").inc(2)
        registry.counter("link", "bytes_total").inc(9)   # no app label
        grouped = snapshot_by_label(registry.snapshot(), "app")
        assert sorted(grouped) == ["x", "y"]
        assert grouped["x"]["counters"] == {"record/calls": 1}
        assert grouped["y"]["counters"] == {"record/calls": 2}

    def test_subsystems_in(self):
        registry = MetricsRegistry()
        registry.counter("cria", "pages").inc()
        registry.gauge("chunks", "store_bytes").set(1)
        assert subsystems_in(registry.snapshot()) == ["chunks", "cria"]


class TestFoldInstanceLabel:
    """Node labels carry no per-instance id, so the binder driver uses
    a node's label as is, in the metrics registry and the event log."""

    def test_binder_driver_uses_the_fold(self):
        """The driver's metric keys and event attributes agree."""
        from repro.android.binder import BinderDriver, Parcel
        from repro.android.kernel import Kernel
        from repro.sim import SimClock
        from repro.sim.events import FlightRecorder
        from repro.sim.telemetry import Telemetry

        kernel = Kernel(SimClock())
        recorder = FlightRecorder(clock=kernel.clock, device="d")
        registry = MetricsRegistry()
        driver = BinderDriver(kernel, telemetry=Telemetry(
            registry, recorder, Telemetry.null().timeline))
        system = kernel.create_process("system", uid=1000, package="android")
        app = kernel.create_process("com.app", uid=10001, package="com.app")

        class Conn:
            def poke(self):
                return None

        node = driver.create_node(system, Conn(), "sensor-connection")
        handle = driver.acquire_ref(app, node)
        driver.transact(app, handle, "poke", Parcel())
        [series] = [key for key in registry.snapshot()["counters"]
                    if key.startswith("binder/transactions")]
        assert "interface=sensor-connection" in series
        [event] = [event for event in recorder.export()
                   if event["kind"] == "binder.transact"]
        assert event["attrs"]["interface"] == "sensor-connection"
