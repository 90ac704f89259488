"""The metrics registry: typing, keys, merging, timeline export."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import SimClock
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


class TestTimeline:
    def test_samples_coalesce_per_timestamp(self):
        clock = SimClock()
        registry = MetricsRegistry(clock=clock)
        counter = registry.counter("s", "n")
        counter.inc()
        counter.inc()            # same virtual instant: last value wins
        clock.advance(1.0)
        counter.inc()
        [event_a, event_b] = registry.chrome_counter_events()
        assert event_a["ph"] == "C" and event_a["cat"] == "metric"
        assert event_a["args"]["value"] == 2
        assert event_b["ts"] == pytest.approx(1_000_000)
        assert event_b["args"]["value"] == 3

    def test_no_clock_no_samples(self):
        registry = MetricsRegistry()
        registry.counter("s", "n").inc()
        assert registry.chrome_counter_events() == []


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
    """Shared by the metrics registry and the causal event log."""

    def test_folds_numeric_instance_suffix(self):
        from repro.sim.metrics import fold_instance_label
        assert fold_instance_label("sensor-connection:7") == \
            "sensor-connection"
        assert fold_instance_label("listener:123") == "listener"

    def test_leaves_other_labels_alone(self):
        from repro.sim.metrics import fold_instance_label
        assert fold_instance_label("alarm") == "alarm"
        assert fold_instance_label("svc:name") == "svc:name"
        assert fold_instance_label("a:1:b") == "a:1:b"
        assert fold_instance_label("") == ""

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

        node = driver.create_node(system, Conn(), "sensor-connection:9")
        handle = driver.acquire_ref(app, node)
        driver.transact(app, handle, "poke", Parcel())
        [series] = [key for key in registry.snapshot()["counters"]
                    if key.startswith("binder/transactions")]
        assert "interface=sensor-connection" in series
        assert ":9" not in series
        [event] = [event for event in recorder.export()
                   if event["kind"] == "binder.transact"]
        assert event["attrs"]["interface"] == "sensor-connection"
