"""Event-log determinism: logging never perturbs the simulation, the
flight-recorder ring bounds memory, and parallel sweeps produce the same
per-pair event streams as serial ones."""

import pytest

from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
from repro.apps import app_by_title
from repro.experiments.harness import run_pair, run_sweep
from repro.sim.telemetry import EVENTS_CAP_ENV, EVENTS_ENV


APPS = [app_by_title("ZEDGE"), app_by_title("eBay")]


class TestByteIdentity:
    def test_disabling_events_changes_nothing(self, monkeypatch):
        """Emitting only reads the clock: the same seed must produce
        bit-identical migrations with logging on and off."""
        monkeypatch.setenv(EVENTS_ENV, "1")
        with_events = run_pair(NEXUS_4, NEXUS_7_2013, APPS, seed=7)
        monkeypatch.setenv(EVENTS_ENV, "0")
        without = run_pair(NEXUS_4, NEXUS_7_2013, APPS, seed=7)

        assert with_events.reports.keys() == without.reports.keys()
        for package, report in with_events.reports.items():
            other = without.reports[package]
            assert report.stages == other.stages, package
            assert report.total_seconds == other.total_seconds, package
            assert report.transferred_bytes == other.transferred_bytes
            assert report.critical_path == other.critical_path
        # Metrics are independent of the event plane.
        assert with_events.metrics == without.metrics
        # The disabled run really collected nothing...
        assert without.events == []
        # ...and the enabled run really collected the instrumented layers.
        kinds = {e["kind"] for e in with_events.events}
        assert {"binder.transact", "migration.start", "stage.end",
                "link.transfer", "cria.restore_step", "replay.invoke",
                "migration.done"} <= kinds

    def test_events_env_defaults_on(self, monkeypatch):
        monkeypatch.delenv(EVENTS_ENV, raising=False)
        outcome = run_pair(NEXUS_4, NEXUS_7_2013, APPS, seed=7)
        assert outcome.events

    def test_txn_ids_stable_across_modes(self, monkeypatch):
        """Transaction ids come from the driver's always-on counter, so
        an id seen with logging on means the same transaction as the
        same id in any other run of the same seed."""
        monkeypatch.setenv(EVENTS_ENV, "1")
        first = run_pair(NEXUS_4, NEXUS_7_2013, APPS, seed=7)
        second = run_pair(NEXUS_4, NEXUS_7_2013, APPS, seed=7)
        txns = [(e["device"], e["txn"]) for e in first.events
                if e["kind"] == "binder.transact"]
        assert txns == [(e["device"], e["txn"]) for e in second.events
                        if e["kind"] == "binder.transact"]
        # Ids are per-device monotonic (one Binder driver per device).
        for device in ("home", "guest"):
            ids = [txn for dev, txn in txns if dev == device]
            assert ids == sorted(ids)
            assert len(set(ids)) == len(ids)


class TestFlightRecorderBound:
    CAP = 8

    def test_tiny_cap_bounds_memory_and_evicts_oldest(self, monkeypatch):
        uncapped = run_pair(NEXUS_4, NEXUS_7_2013, APPS, seed=7)
        monkeypatch.setenv(EVENTS_CAP_ENV, str(self.CAP))
        capped = run_pair(NEXUS_4, NEXUS_7_2013, APPS, seed=7)

        by_device = {}
        for event in capped.events:
            by_device.setdefault(event["device"], []).append(event)
        uncapped_by_device = {}
        for event in uncapped.events:
            uncapped_by_device.setdefault(event["device"], []).append(event)

        assert set(by_device) == {"home", "guest"}
        for device, events in by_device.items():
            assert len(events) <= self.CAP
            seqs = [e["seq"] for e in events]
            # Contiguous tail: the retained window is the newest events.
            assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))
            full = uncapped_by_device[device]
            assert len(full) > self.CAP, "scenario too small to evict"
            # Oldest evicted first: what remains is the uncapped tail.
            assert events == full[-len(events):]

        # Eviction is a pure memory bound: simulation and metrics agree.
        assert capped.metrics == uncapped.metrics
        for package, report in capped.reports.items():
            assert report.stages == uncapped.reports[package].stages


class TestParallelAggregation:
    def test_parallel_events_identical_to_serial(self):
        serial = run_sweep(workers=1)
        parallel = run_sweep(workers=4)
        assert serial.pair_events.keys() == parallel.pair_events.keys()
        for label, stream in serial.pair_events.items():
            assert stream == parallel.pair_events[label], label
        assert serial.merged_events() == parallel.merged_events()

    def test_merged_events_are_pair_labeled_in_pair_order(self, sweep):
        merged = sweep.merged_events()
        assert merged
        labels = [e["pair"] for e in merged]
        # Streams concatenate in pair order: labels appear in runs.
        seen = []
        for label in labels:
            if not seen or seen[-1] != label:
                seen.append(label)
        assert seen == sweep.pair_labels

    def test_pair_stream_preserves_per_device_order(self, sweep):
        for label in sweep.pair_labels:
            stream = sweep.pair_events[label]
            times = [e["t"] for e in stream]
            assert times == sorted(times), label
            for device in ("home", "guest"):
                seqs = [e["seq"] for e in stream if e["device"] == device]
                assert seqs == sorted(seqs), (label, device)

    def test_every_migration_has_lifecycle_events(self, sweep):
        for label in sweep.pair_labels:
            stream = sweep.pair_events[label]
            starts = [e for e in stream if e["kind"] == "migration.start"]
            dones = [e for e in stream if e["kind"] == "migration.done"]
            migrated = [pkg for (pair, pkg) in sweep.reports
                        if pair == label]
            assert len(dones) == len(migrated), label
            assert len(starts) >= len(dones), label
