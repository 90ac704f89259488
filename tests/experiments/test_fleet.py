"""Fleet layer: determinism, sharding, SLOs, conservation properties."""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.android.hardware.profiles import PAPER_DEVICE_PAIRS
from repro.apps.catalog import MIGRATABLE_APPS
from repro.core.migration.postmortem import build_blame
from repro.experiments import placement_ablation
from repro.experiments.fleet import (
    FleetError,
    FleetSpec,
    build_sites,
    fleet_metrics_document,
    fleet_slo,
    merge_site_outcomes,
    place_site,
    run_fleet,
    run_site,
    site_demands,
)
from repro.experiments.scenario import (
    ScenarioError,
    ScenarioSpec,
    SessionSpec,
    run_scenario,
)
from repro.sim.metrics import rollup_counters

PINNED = FleetSpec(devices=12, arrivals=40, seed=7, policy="cost-model")


def _document_json(spec, result):
    return json.dumps(fleet_metrics_document(spec, result),
                      sort_keys=True)


class TestPopulation:
    def test_sites_partition_the_population(self):
        sites = build_sites(PINNED)
        assert [s.name for s in sites] == ["site0", "site1", "site2"]
        names = [name for site in sites for name, _ in site.devices]
        assert names == [f"dev{i:02d}" for i in range(12)]
        assert sum(site.arrivals for site in sites) == 40

    def test_trailing_singleton_folds_into_previous_site(self):
        sites = build_sites(FleetSpec(devices=9, arrivals=9, site_size=4))
        assert [len(site.devices) for site in sites] == [4, 5]

    def test_arrivals_beyond_catalog_capacity_error(self):
        with pytest.raises(FleetError, match="catalog"):
            build_sites(FleetSpec(devices=4, arrivals=30))

    def test_spec_validation(self):
        with pytest.raises(FleetError):
            FleetSpec(devices=1)
        with pytest.raises(FleetError):
            FleetSpec(policy="random")
        with pytest.raises(FleetError):
            FleetSpec(admission="drop")

    def test_demands_are_deterministic_and_home_feasible(self):
        site = build_sites(PINNED)[1]
        demands = site_demands(PINNED, site)
        assert demands == site_demands(PINNED, site)
        assert len({d.package for d in demands}) == len(demands)
        arrivals = [d.arrival for d in demands]
        assert arrivals == sorted(arrivals)


class TestPlacementCompile:
    def test_placed_sessions_carry_their_decision(self):
        site = build_sites(PINNED)[0]
        sessions, rows = place_site(PINNED, site,
                                    site_demands(PINNED, site))
        assert sessions
        for session in sessions:
            attrs = dict(session.placement)
            assert attrs["policy"] == "cost-model"
            assert attrs["guest"] == session.guest

    def test_shed_admission_drops_demands_at_depth(self):
        spec = FleetSpec(devices=12, arrivals=40, seed=7,
                         admission="shed", shed_depth=1)
        queued = run_fleet(PINNED)
        shed = run_fleet(spec)
        assert shed.slo["shed"] > 0
        assert shed.slo["shed_rate"] > 0.0
        assert shed.slo["migrated"] < queued.slo["migrated"]


class TestDeterminism:
    def test_rerun_is_byte_identical(self):
        first = run_fleet(PINNED)
        again = run_fleet(PINNED)
        assert _document_json(PINNED, first) == _document_json(PINNED,
                                                               again)

    def test_shard_groups_merge_byte_identically(self):
        unsharded = _document_json(PINNED, run_fleet(PINNED))
        for shards in (2, 3):
            sharded = _document_json(
                PINNED, run_fleet(PINNED, shard_count=shards))
            assert sharded == unsharded

    def test_process_executor_is_byte_identical(self):
        serial = _document_json(PINNED, run_fleet(PINNED, workers=1))
        process = _document_json(PINNED, run_fleet(PINNED, workers=2))
        assert serial == process

    def test_spawned_process_is_byte_identical(self):
        serial = _document_json(PINNED, run_fleet(PINNED))
        spawned = _document_json(
            PINNED, run_fleet(PINNED, workers=2, start_method="spawn"))
        assert serial == spawned

    def test_partial_shards_cover_the_fleet_exactly(self):
        full = run_fleet(PINNED)
        parts = [run_fleet(PINNED, shard=(k, 2)) for k in range(2)]
        assert sorted(s for part in parts for s in part.sites) == sorted(
            full.sites)
        part_rows = [row["session"] for part in parts
                     for row in part.rows]
        assert sorted(part_rows, key=str) == sorted(
            (row["session"] for row in full.rows), key=str)


class TestReport:
    def test_slo_percentiles_nearest_rank(self):
        rows = [{"status": "migrated",
                 "wait_profile": {"wall_s": float(w)}}
                for w in range(1, 101)]
        slo = fleet_slo(rows)
        assert slo["p50_s"] == 50.0
        assert slo["p95_s"] == 95.0
        assert slo["p99_s"] == 99.0

    def test_slo_counts_refusals_and_sheds(self):
        rows = [{"status": "migrated", "wait_profile": {"wall_s": 1.0}},
                {"status": "refused", "wait_profile": None},
                {"status": "rejected", "wait_profile": None},
                {"status": "shed", "wait_profile": None}]
        slo = fleet_slo(rows)
        assert slo["refusal_rate"] == 0.5
        assert slo["shed_rate"] == 0.25

    def test_document_shape(self):
        result = run_fleet(PINNED)
        document = fleet_metrics_document(PINNED, result)
        assert document["schema"] == 1
        fleet = document["fleet"]
        assert fleet["policy"] == "cost-model"
        assert fleet["sites"] == ["site0", "site1", "site2"]
        assert len(fleet["sessions"]) == fleet["slo"]["demands"]
        assert set(fleet["device_utilization"]) == {
            f"dev{i:02d}" for i in range(12)}
        assert set(fleet["medium_utilization"]) == {"site0", "site1",
                                                    "site2"}
        assert document["rollup"]["link/bytes_total"] > 0

    def test_medium_utilization_does_not_need_the_timeline(
            self, monkeypatch):
        """The medium keeps its own busy-time ledger, so turning the
        timeline plane off changes no utilization figure."""
        with_plane = run_fleet(PINNED).medium_utilization
        monkeypatch.setenv("FLUX_TIMELINE", "0")
        without = run_fleet(PINNED)
        assert not without.timeline
        assert without.medium_utilization == with_plane
        assert all(0 < value < 1 for value in with_plane.values())

    def test_events_are_site_tagged_and_timeline_site_folded(self):
        result = run_fleet(PINNED)
        assert result.events
        assert {e["site"] for e in result.events} == set(result.sites)
        assert result.timeline
        for key in result.timeline:
            assert "site=" in key

    def test_blame_names_the_placement_decision(self):
        result = run_fleet(PINNED)
        migrated = next(row for row in result.rows
                        if row["status"] == "migrated")
        blame = build_blame(result.events, migrated["session"])
        placement = blame["placement"]
        assert placement["policy"] == "cost-model"
        assert placement["guest"] == migrated["guest"]


class TestFleetConservation:
    def test_merged_wire_bytes_equal_site_sums(self):
        sites = build_sites(PINNED)
        outcomes = [run_site(PINNED, site) for site in sites]
        merged = merge_site_outcomes(PINNED, sites, outcomes)
        per_site = sum(rollup_counters(o.metrics)["link/bytes_total"]
                       for o in outcomes)
        assert rollup_counters(merged.metrics)["link/bytes_total"] == \
            pytest.approx(per_site)

    def test_wait_profiles_sum_to_wall(self):
        result = run_fleet(PINNED)
        checked = 0
        for row in result.rows:
            profile = row.get("wait_profile")
            if not profile:
                continue
            checked += 1
            decomposed = (profile["admission_queue_s"]
                          + profile["resource_wait_s"]
                          + profile["link_dilation_s"]
                          + profile["active_s"])
            assert decomposed == pytest.approx(profile["wall_s"],
                                               abs=1e-4)
        assert checked > 0


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       devices=st.integers(min_value=4, max_value=6),
       arrivals=st.integers(min_value=4, max_value=8),
       policy=st.sampled_from(("capability", "least-loaded",
                               "cost-model")))
def test_fleet_invariants_hold_for_any_seed(seed, devices, arrivals,
                                            policy):
    """For any seeded fleet: shard-merge is byte-identical to the
    unsharded run, wire bytes are conserved across the merge, and
    every session's wait profile sums to its wall time."""
    spec = FleetSpec(devices=devices, arrivals=arrivals, seed=seed,
                     policy=policy)
    sites = build_sites(spec)
    outcomes = [run_site(spec, site) for site in sites]
    merged = merge_site_outcomes(spec, sites, outcomes)

    sharded = run_fleet(spec, shard_count=2)
    assert _document_json(spec, sharded) == _document_json(spec, merged)

    per_site = sum(rollup_counters(o.metrics).get("link/bytes_total", 0)
                   for o in outcomes)
    assert rollup_counters(merged.metrics).get(
        "link/bytes_total", 0) == pytest.approx(per_site)

    for row in merged.rows:
        profile = row.get("wait_profile")
        if not profile:
            continue
        decomposed = (profile["admission_queue_s"]
                      + profile["resource_wait_s"]
                      + profile["link_dilation_s"] + profile["active_s"])
        assert decomposed == pytest.approx(profile["wall_s"], abs=1e-4)


class TestScenarioSatellites:
    def test_zero_makespan_utilization_is_zero_per_device(self):
        # A scenario with no sessions never accrues a makespan; the
        # utilization map must still name every device, at 0.0.
        home_p, guest_p = PAPER_DEVICE_PAIRS[0]
        spec = ScenarioSpec(devices=(("home", home_p), ("guest", guest_p)),
                            sessions=())
        result = run_scenario(spec)
        assert result.makespan == 0.0
        assert result.device_utilization == {"home": 0.0, "guest": 0.0}

    def test_duplicate_home_package_sessions_rejected(self):
        home_p, guest_p = PAPER_DEVICE_PAIRS[0]
        package = MIGRATABLE_APPS[0].package
        with pytest.raises(ScenarioError,
                           match=r"duplicate \(home, package\)"):
            ScenarioSpec(
                devices=(("home", home_p), ("guest", guest_p)),
                sessions=(SessionSpec("home", "guest", package),
                          SessionSpec("home", "guest", package,
                                      start=5.0)))

    def test_distinct_routes_for_same_package_still_allowed(self):
        home_p, guest_p = PAPER_DEVICE_PAIRS[0]
        package = MIGRATABLE_APPS[0].package
        spec = ScenarioSpec(
            devices=(("a", home_p), ("b", guest_p), ("c", guest_p)),
            sessions=(SessionSpec("a", "b", package),
                      SessionSpec("c", "b", MIGRATABLE_APPS[1].package)))
        assert len(spec.sessions) == 2


class TestAblation:
    def test_cost_model_beats_least_loaded_on_p95(self):
        result = placement_ablation.run()
        cost = result.row_for("cost-model")
        loaded = result.row_for("least-loaded")
        assert cost.p95_s < loaded.p95_s
        # Identical demand: the feasibility gate is policy-independent.
        assert cost.refused == loaded.refused

    def test_render_names_the_headline_delta(self):
        text = placement_ablation.render()
        assert "cost-model vs least-loaded p95" in text
