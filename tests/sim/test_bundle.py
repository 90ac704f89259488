"""Run bundles: self-describing artifacts with manifests and digests."""

import json

import pytest

from repro.sim.bundle import (
    BUNDLE_SCHEMA,
    BundleError,
    RunBundle,
    collect_fingerprint,
    fingerprint_differences,
    write_bundle,
)

EVENTS = [
    {"t": 0.0, "device": "home", "seq": 1, "kind": "migration.start",
     "attrs": {"package": "com.example"}},
    {"t": 1.5, "device": "guest", "seq": 1, "kind": "migration.done",
     "attrs": {"total_seconds": 1.5}},
]

METRICS = {
    "schema": 1,
    "migration": {
        "package": "com.example",
        "success": True,
        "faulted_stage": None,
        "stages": {"transfer": 1.0, "restore": 0.5},
        "critical_path": [
            {"name": "transfer", "seconds": 1.0, "self_seconds": 0.9},
        ],
        "total_seconds": 1.5,
    },
    "metrics": {"counters": {"link/bytes_total": 100}, "gauges": {},
                "histograms": {}},
}

TIMELINE = {"link/share{link=a->b}": [[0.0, 1.0], [1.5, 0.0]]}


def _write(path, **overrides):
    kwargs = dict(
        kind="migrate",
        fingerprint=collect_fingerprint(
            "migrate", workload=["com.example"], pairs=["a->b"], seed=0),
        metrics=METRICS,
        events=EVENTS,
        timeline=TIMELINE,
        trace={"traceEvents": []},
    )
    kwargs.update(overrides)
    return write_bundle(str(path), **kwargs)


class TestWriteAndLoad:
    def test_directory_round_trip(self, tmp_path):
        path = _write(tmp_path / "run")
        bundle = RunBundle.load(path)
        assert bundle.kind == "migrate"
        assert bundle.fingerprint["workload"] == ["com.example"]
        assert bundle.metrics_document() == METRICS
        assert bundle.events() == EVENTS
        assert bundle.timeline_series() == TIMELINE
        assert bundle.members() == ["events.jsonl", "manifest.json",
                                    "metrics.json", "timeline.json",
                                    "trace.json"]

    def test_tarball_round_trip(self, tmp_path):
        path = _write(tmp_path / "run.tar.gz")
        bundle = RunBundle.load(path)
        assert bundle.metrics_document() == METRICS
        assert bundle.events() == EVENTS

    def test_manifest_records_digests(self, tmp_path):
        path = _write(tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json")
                              .read_text())
        assert manifest["schema"] == BUNDLE_SCHEMA
        files = manifest["files"]
        assert set(files) == {"metrics.json", "events.jsonl",
                              "timeline.json", "trace.json"}
        for meta in files.values():
            assert meta["bytes"] > 0
            assert len(meta["sha256"]) == 64
        assert path  # returned path is the one written

    def test_optional_planes_may_be_absent(self, tmp_path):
        path = _write(tmp_path / "bare", events=None, timeline=None,
                      trace=None)
        bundle = RunBundle.load(path)
        assert bundle.events() == []
        assert bundle.timeline_series() == {}
        assert bundle.metrics_document() == METRICS


class TestDeterminism:
    def test_identical_writes_are_byte_identical(self, tmp_path):
        _write(tmp_path / "one")
        _write(tmp_path / "two")
        for name in ("manifest.json", "metrics.json", "events.jsonl",
                     "timeline.json"):
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "two" / name).read_bytes())

    def test_identical_tarballs_are_byte_identical(self, tmp_path):
        a = _write(tmp_path / "one.tar.gz")
        b = _write(tmp_path / "two.tar.gz")
        assert (tmp_path / "one.tar.gz").read_bytes() \
            == (tmp_path / "two.tar.gz").read_bytes()
        assert a != b  # distinct paths, same bytes


class TestVerification:
    def test_digest_mismatch_names_the_member(self, tmp_path):
        path = _write(tmp_path / "run")
        (tmp_path / "run" / "metrics.json").write_text("{\"rotted\": 1}\n")
        with pytest.raises(BundleError, match="metrics.json.*mismatch"):
            RunBundle.load(path)

    def test_missing_listed_member_is_an_error(self, tmp_path):
        path = _write(tmp_path / "run")
        (tmp_path / "run" / "events.jsonl").unlink()
        with pytest.raises(BundleError, match="events.jsonl.*missing"):
            RunBundle.load(path)

    def test_unknown_schema_rejected(self, tmp_path):
        path = _write(tmp_path / "run")
        manifest_path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="unsupported bundle schema"):
            RunBundle.load(path)

    def test_not_a_bundle(self, tmp_path):
        with pytest.raises(BundleError, match="no such bundle"):
            RunBundle.load(str(tmp_path / "nowhere"))
        (tmp_path / "plain").mkdir()
        with pytest.raises(BundleError, match="not a run bundle"):
            RunBundle.load(str(tmp_path / "plain"))


class TestHostileManifests:
    @pytest.mark.parametrize("layout", ["run", "run.tar.gz"])
    @pytest.mark.parametrize("manifest", [[1, 2], "x", 3, None])
    def test_non_object_manifest_is_a_bundle_error(self, tmp_path, layout,
                                                   manifest):
        import io
        import tarfile
        path = tmp_path / layout
        data = json.dumps(manifest).encode()
        if layout.endswith(".tar.gz"):
            with tarfile.open(path, mode="w:gz") as tar:
                info = tarfile.TarInfo("manifest.json")
                info.size = len(data)
                tar.addfile(info, io.BytesIO(data))
        else:
            path.mkdir()
            (path / "manifest.json").write_bytes(data)
        with pytest.raises(BundleError, match="corrupt manifest.json: "
                                              "expected dict, got"):
            RunBundle.load(str(path))

    @pytest.mark.parametrize("field, value", [
        ("files", [1]), ("fingerprint", "x")])
    def test_non_object_manifest_fields(self, tmp_path, field, value):
        path = _write(tmp_path / "run")
        manifest_path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[field] = value
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match=f"corrupt manifest.json: "
                                              f"{field}: expected dict"):
            RunBundle.load(path)

    def test_non_object_file_entry_is_a_digest_mismatch(self, tmp_path):
        path = _write(tmp_path / "run")
        manifest_path = tmp_path / "run" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["metrics.json"] = 7
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(BundleError, match="metrics.json.*mismatch"):
            RunBundle.load(path)

    def test_non_object_metrics_document(self, tmp_path):
        bundle = RunBundle.load(_write(tmp_path / "run", metrics=[1]))
        with pytest.raises(BundleError, match="metrics.json: expected "
                                              "dict, got list"):
            bundle.migration_rows()

    def test_hostile_rows_name_the_member(self, tmp_path):
        bundle = RunBundle.load(_write(
            tmp_path / "run", metrics={"migrations": [3]}))
        with pytest.raises(BundleError, match=r"run/metrics.json: "
                                              r"migrations\[0\]"):
            bundle.migration_rows()
        with pytest.raises(BundleError):
            bundle.wait_profiles()


class TestFingerprint:
    def test_unknown_kind_rejected(self):
        with pytest.raises(BundleError, match="unknown bundle kind"):
            collect_fingerprint("bogus")
        with pytest.raises(BundleError, match="unknown bundle kind"):
            write_bundle("x", kind="bogus", fingerprint={})

    def test_workload_is_sorted(self):
        fingerprint = collect_fingerprint("sweep", workload=["b", "a"])
        assert fingerprint["workload"] == ["a", "b"]

    def test_flux_env_is_captured(self, monkeypatch):
        monkeypatch.setenv("FLUX_TEST_KNOB", "7")
        monkeypatch.setenv("NOT_FLUX", "1")
        fingerprint = collect_fingerprint("migrate")
        assert fingerprint["env"]["FLUX_TEST_KNOB"] == "7"
        assert "NOT_FLUX" not in fingerprint["env"]

    def test_differences_are_reported_per_field(self):
        a = collect_fingerprint("migrate", seed=0)
        b = collect_fingerprint("migrate", seed=1)
        assert fingerprint_differences(a, a) == {}
        assert fingerprint_differences(a, b) == {"seed": (0, 1)}


class TestNormalization:
    def test_migrate_rows(self, tmp_path):
        bundle = RunBundle.load(_write(tmp_path / "run"))
        (row,) = bundle.migration_rows()
        assert row["key"] == "com.example"
        assert row["outcome"] == "migrated"
        assert row["stages"] == {"transfer": 1.0, "restore": 0.5}
        assert row["self_seconds"] == {"transfer": 0.9}
        assert row["total_seconds"] == 1.5

    def test_faulted_migrate_row(self, tmp_path):
        metrics = {"schema": 1, "migration": {
            "package": "com.example", "success": False,
            "faulted_stage": "transfer", "stages": {"transfer": 0.4},
            "total_seconds": 0.4}}
        bundle = RunBundle.load(_write(tmp_path / "run", metrics=metrics,
                                       events=None, timeline=None,
                                       trace=None))
        (row,) = bundle.migration_rows()
        assert row["outcome"] == "faulted"
        assert row["faulted_stage"] == "transfer"

    def test_sweep_rows_and_totals(self, tmp_path):
        metrics = {
            "schema": 1,
            "totals": {"counters": {"link/transfers": 2}, "gauges": {},
                       "histograms": {}},
            "migrations": [
                {"pair": "a to b", "package": "com.one",
                 "stages": {"transfer": 1.0}, "total_seconds": 1.0,
                 "critical_path": []},
            ],
        }
        bundle = RunBundle.load(_write(tmp_path / "run", kind="sweep",
                                       metrics=metrics, events=None,
                                       timeline=None, trace=None))
        (row,) = bundle.migration_rows()
        assert row["key"] == "a to b/com.one"
        assert bundle.snapshot()["counters"] == {"link/transfers": 2}

    def test_scenario_rows_and_wait_profiles(self, tmp_path):
        metrics = {
            "schema": 1,
            "scenario": {"sessions": [
                {"home": "h", "guest": "g", "package": "com.one",
                 "status": "migrated", "session": "h/com.one@0",
                 "stages": {"transfer": 2.0}, "total_seconds": 2.0,
                 "wait_profile": {"admission_queue_s": 0.0,
                                  "active_s": 2.0, "wall_s": 2.0}},
            ]},
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        }
        bundle = RunBundle.load(_write(tmp_path / "run", kind="scenario",
                                       metrics=metrics, events=None,
                                       timeline=None, trace=None))
        (row,) = bundle.migration_rows()
        assert row["key"] == "h->g:com.one"
        assert row["session"] == "h/com.one@0"
        profiles = bundle.wait_profiles()
        assert profiles["h/com.one@0"]["active_s"] == 2.0
