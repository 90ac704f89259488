"""The flux-sim command-line front end."""

import json

import pytest

from repro.cli import main


class TestListing:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Nexus 7 (2013)" in out and "Adreno 320" in out

    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "Candy Crush Saga" in out and "com.whatsapp" in out


class TestMigrate:
    def test_successful_migration(self, capsys):
        assert main(["migrate", "--app", "WhatsApp"]) == 0
        out = capsys.readouterr().out
        assert "migrated WhatsApp" in out
        assert "transfer" in out and "TOTAL" in out

    def test_substring_match(self, capsys):
        assert main(["migrate", "--app", "zedge"]) == 0
        assert "migrated ZEDGE" in capsys.readouterr().out

    def test_refusal_exits_nonzero(self, capsys):
        assert main(["migrate", "--app", "Facebook"]) == 1
        out = capsys.readouterr().out
        assert "REFUSED" in out and "multi-process" in out

    def test_extensions_lift_refusal(self, capsys):
        assert main(["migrate", "--app", "Facebook",
                     "--extensions", "multi_process"]) == 0
        assert "migrated Facebook" in capsys.readouterr().out

    def test_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["migrate", "--app", "Angry Birds"])

    def test_unknown_extension(self):
        with pytest.raises(SystemExit):
            main(["migrate", "--app", "WhatsApp",
                  "--extensions", "teleportation"])

    def test_gps_device_pair_flags(self, capsys):
        assert main(["migrate", "--app", "GroupOn", "--home", "nexus4",
                     "--guest", "nexus7"]) == 0
        out = capsys.readouterr().out
        assert "adapted" in out   # GPS -> network fallback noted


class TestWorkersFlag:
    @pytest.mark.parametrize("command", ["sweep", "fleet"])
    def test_malformed_workers_fails_at_parse_time(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--workers", "abc"])
        assert exit_info.value.code == 2
        assert "argument --workers" in capsys.readouterr().err


class TestPair:
    def test_pairing_numbers(self, capsys):
        assert main(["pair", "--home", "nexus7",
                     "--guest", "nexus7_2013"]) == 0
        out = capsys.readouterr().out
        assert "215.0 MB" in out
        assert "123.0 MB" in out
        assert "56.0 MB" in out or "55.9 MB" in out


class TestExperiments:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "fig17"]) == 0
        assert "CDF(1 MB)" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiments", "fig99"]) == 2


class TestTimelineAndInterface:
    def test_timeline_rendering(self, capsys):
        assert main(["migrate", "--app", "Netflix", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "user-perceived" in out and "|" in out

    def test_interface_subcommand(self, capsys):
        assert main(["interface", "alarm"]) == 0
        out = capsys.readouterr().out
        assert "@replayproxy flux.recordreplay.Proxies.alarmMgrSet" in out

    def test_interface_unknown_service(self):
        import pytest
        with pytest.raises(SystemExit):
            main(["interface", "teleporter"])


class TestTimelineModule:
    def test_sweep_strip(self):
        from repro.core.migration.timeline import render_sweep_strip
        from repro.experiments.harness import run_pair
        from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
        from repro.apps import app_by_title
        reports = run_pair(NEXUS_4, NEXUS_7_2013,
                           [app_by_title("ZEDGE"), app_by_title("eBay")],
                           seed=3).reports
        strip = render_sweep_strip(list(reports.values()))
        assert "legend" in strip
        assert strip.count("|") >= 4

    def test_empty_inputs(self):
        from repro.core.migration.timeline import render_sweep_strip
        assert "no reports" in render_sweep_strip([])


class TestFaultInjectionFlags:
    def test_link_drop_rolls_back(self, capsys):
        assert main(["migrate", "--app", "WhatsApp",
                     "--drop-link-after-bytes", "1000000"]) == 1
        out = capsys.readouterr().out
        assert "FAULTED in transfer stage" in out
        assert "link-down" in out
        assert "still running" in out and "guest processes: 0" in out

    def test_restore_fault_rolls_back(self, capsys):
        assert main(["migrate", "--app", "WhatsApp",
                     "--fail-restore-after", "3"]) == 1
        out = capsys.readouterr().out
        assert "FAULTED in restore stage" in out
        assert "restore-failed" in out and "guest processes: 0" in out


class TestTraceExport:
    def test_trace_out_nests_five_stages(self, capsys, tmp_path):
        import json

        from repro.core.migration.migration import STAGES

        bundle = tmp_path / "run"
        assert main(["migrate", "--app", "WhatsApp",
                     "--bundle-out", str(bundle)]) == 0
        out = capsys.readouterr().out
        assert f"wrote run bundle to {bundle}" in out
        doc = json.loads((bundle / "trace.json").read_text())
        events = doc["traceEvents"]
        [migration] = [e for e in events if e["cat"] == "migration"]
        stages = [e for e in events if e["cat"] == "stage"]
        assert [e["name"] for e in stages] == list(STAGES)
        # Stage intervals nest inside the migration span.
        span_end = migration["ts"] + migration["dur"]
        for stage in stages:
            assert stage["ts"] >= migration["ts"]
            assert stage["ts"] + stage["dur"] <= span_end + 1e-3

    def test_trace_durations_match_report_stages(self):
        import json

        from repro.android.device import Device
        from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
        from repro.apps import app_by_title
        from repro.sim import SimClock
        from repro.sim.rng import RngFactory

        clock = SimClock()
        factory = RngFactory(0)
        home = Device(NEXUS_4, clock, factory, name="home")
        guest = Device(NEXUS_7_2013, clock, factory, name="guest")
        spec = app_by_title("WhatsApp")
        spec.install_and_launch(home)
        home.pairing_service.pair(guest)
        with home.tracer.exporting():
            report = home.migration_service.migrate(guest, spec.package)
        doc = json.loads(json.dumps(home.tracer.chrome_trace()))
        durations = {e["name"]: e["dur"] for e in doc["traceEvents"]
                     if e["cat"] == "stage"}
        for stage, seconds in report.stages.items():
            assert durations[stage] == pytest.approx(seconds * 1e6,
                                                     abs=1e-2)

    def test_trace_written_on_fault_too(self, capsys, tmp_path):
        import json

        bundle = tmp_path / "faulted"
        assert main(["migrate", "--app", "WhatsApp",
                     "--drop-link-after-bytes", "1000000",
                     "--bundle-out", str(bundle)]) == 1
        doc = json.loads((bundle / "trace.json").read_text())
        [migration] = [e for e in doc["traceEvents"]
                       if e["cat"] == "migration"]
        assert migration["args"]["faulted_stage"] == "transfer"
        names = [e["name"] for e in doc["traceEvents"]
                 if e["cat"] == "stage"]
        assert names == ["preparation", "checkpoint", "transfer"]

    def test_trace_schema_validates_per_phase(self, tmp_path):
        """Round-trip through json.load and check the required keys of
        every phase the export emits: complete spans ("X"), counters
        ("C") and the event log's instants ("i")."""
        import json

        bundle = tmp_path / "run"
        assert main(["migrate", "--app", "WhatsApp",
                     "--bundle-out", str(bundle)]) == 0
        with open(bundle / "trace.json", "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"X", "C", "i"}
        for event in events:
            for key in ("name", "cat", "ph", "ts", "pid", "tid"):
                assert key in event, (event["ph"], key)
            assert isinstance(event["ts"], (int, float))
            if event["ph"] == "X":
                assert "dur" in event and event["dur"] >= 0
            elif event["ph"] == "C":
                assert "args" in event
                assert all(isinstance(v, (int, float))
                           for v in event["args"].values())
            elif event["ph"] == "i":
                assert event["s"] == "t"   # thread-scoped instant
                assert event["cat"] == "event"
                assert "seq" in event["args"]
                assert "device" in event["args"]

    @pytest.mark.parametrize("fault", [[], ["--drop-link-after-bytes",
                                            "1000000"]],
                             ids=["plain", "link-fault"])
    def test_trace_counters_are_the_timeline_series(self, fault, tmp_path):
        """Every counter ("C") event of ``trace.json`` is a sample of a
        ``timeline.json`` series: its name is the series key, its ``ts``
        and value that series' ``(t * 1e6, value)``."""
        import json

        bundle = tmp_path / "run"
        main(["migrate", "--app", "WhatsApp", *fault,
              "--bundle-out", str(bundle)])
        events = json.loads((bundle / "trace.json").read_text())[
            "traceEvents"]
        series = json.loads((bundle / "timeline.json").read_text())[
            "series"]
        counters = {}
        for event in events:
            if event["ph"] == "C":
                assert event["name"] in series, event["name"]
                counters.setdefault(event["name"], []).append(
                    (event["ts"], event["args"]["value"]))
        assert counters
        assert counters == {
            key: [(round(t * 1e6, 3), value) for t, value in samples]
            for key, samples in series.items()}

    def test_trace_instants_interleave_with_spans(self, tmp_path):
        import json

        bundle = tmp_path / "run"
        assert main(["migrate", "--app", "WhatsApp",
                     "--bundle-out", str(bundle)]) == 0
        doc = json.loads((bundle / "trace.json").read_text())
        events = doc["traceEvents"]
        [migration] = [e for e in events if e["cat"] == "migration"]
        instants = [e for e in events if e["ph"] == "i"]
        span_end = migration["ts"] + migration["dur"]
        inside = [i for i in instants
                  if migration["ts"] <= i["ts"] <= span_end + 1e-3]
        assert inside, "no event instants inside the migration span"
        kinds = {i["name"] for i in inside}
        assert "stage.start" in kinds and "migration.done" in kinds


class TestEventsExport:
    def test_migrate_events_out(self, capsys, tmp_path):
        from repro.sim.bundle import RunBundle

        path = tmp_path / "run"
        assert main(["migrate", "--app", "WhatsApp",
                     "--bundle-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote run bundle to {path}" in out
        events = RunBundle.load(str(path)).events()
        assert events
        kinds = [e["kind"] for e in events]
        assert "migration.start" in kinds and "migration.done" in kinds
        assert {e["device"] for e in events} == {"home", "guest"}
        # The merged stream is causally ordered.
        keys = [(e["t"], e["device"], e["seq"]) for e in events]
        assert keys == sorted(keys)

    def test_migrate_events_out_on_fault(self, capsys, tmp_path):
        from repro.sim.bundle import RunBundle

        path = tmp_path / "run"
        assert main(["migrate", "--app", "WhatsApp",
                     "--drop-link-after-bytes", "1000000",
                     "--bundle-out", str(path)]) == 1
        kinds = [e["kind"] for e in RunBundle.load(str(path)).events()]
        assert "link.fault" in kinds
        assert "stage.fault" in kinds
        assert "migration.rolled_back" in kinds

    def test_sweep_events_out(self, capsys, tmp_path):
        from repro.sim.bundle import RunBundle

        path = tmp_path / "sweep"
        assert main(["sweep", "--bundle-out", str(path)]) == 0
        events = RunBundle.load(str(path)).events()
        assert events
        assert all("pair" in e for e in events)
        assert len({e["pair"] for e in events}) == 4


class TestProfileOut:
    def test_sweep_profile_stays_out_of_the_bundle(self, capsys, tmp_path):
        from repro.sim.bundle import RunBundle

        profile, bundle = tmp_path / "profile.txt", tmp_path / "run"
        assert main(["sweep", "--profile-out", str(profile),
                     "--bundle-out", str(bundle)]) == 0
        assert profile.read_text()
        loaded = RunBundle.load(str(bundle))
        assert "profile.txt" not in loaded.members()
        assert "profile.txt" not in loaded.manifest["files"]


class TestScenario:
    def test_default_demo_queues_two_concurrent_migrations(self, capsys):
        assert main(["scenario"]) == 0
        out = capsys.readouterr().out
        assert "2 devices, 2 sessions" in out
        assert out.count("MIGRATED") == 2

    def test_explicit_routes_and_stagger(self, capsys):
        assert main(["scenario",
                     "--device", "h1=nexus4", "--device", "g1=nexus7_2013",
                     "--device", "h2=nexus4", "--device", "g2=nexus7_2013",
                     "--migrate", "h1:g1:bubble",
                     "--migrate", "h2:g2:bubble@0.5"]) == 0
        out = capsys.readouterr().out
        assert "h1->g1" in out and "h2->g2" in out
        assert out.count("MIGRATED") == 2

    def test_refuse_admission_exits_nonzero(self, capsys):
        assert main(["scenario", "--admission", "refuse"]) == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out and "already hosting" in out

    def test_telemetry_exports_and_session_explain(self, capsys, tmp_path):
        from repro.sim.bundle import RunBundle

        bundle = tmp_path / "scenario"
        assert main(["scenario", "--bundle-out", str(bundle)]) == 0
        capsys.readouterr()
        loaded = RunBundle.load(str(bundle))
        document = loaded.metrics_document()
        assert document["scenario"]["admission"] == "queue"
        assert len(document["scenario"]["sessions"]) == 2
        assert all(row["status"] == "migrated"
                   for row in document["scenario"]["sessions"])
        labels = [row["session"]
                  for row in document["scenario"]["sessions"]]
        stream = loaded.events()
        assert {e["attrs"].get("session") for e in stream
                if e["kind"] == "migration.start"} == set(labels)
        # explain segments the interleaved log by session label.
        for label in labels:
            assert main(["explain", str(bundle),
                         "--session", label]) == 0
            explained = capsys.readouterr().out
            assert f"session={label}" in explained
            assert "SUCCEEDED" in explained

    def test_bad_specs_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "--device", "nexus4"])  # no NAME=
        with pytest.raises(SystemExit):
            main(["scenario", "--migrate", "home:guest"])  # no app
        with pytest.raises(SystemExit):
            main(["scenario", "--migrate", "home:guest:bubble@soon"])

    def test_scenario_and_fleet_print_one_session_table(self, capsys):
        def header(out):
            lines = out.splitlines()
            dashes = next(i for i, line in enumerate(lines)
                          if line.startswith("----"))
            return [cell.strip() for cell in lines[dashes - 1].split("  ")
                    if cell.strip()]

        assert main(["scenario"]) == 0
        scenario = header(capsys.readouterr().out)
        assert main(["fleet", "--devices", "4", "--arrivals", "3"]) == 0
        assert header(capsys.readouterr().out) == ["site"] + scenario
        assert scenario == ["route", "package", "status", "session",
                            "wall (s)", "why"]

    def test_fleet_why_is_the_migrations_own_refusal(self, capsys):
        assert main(["fleet"]) == 0
        out = capsys.readouterr().out
        line = next(line for line in out.splitlines()
                    if "dev03->dev01" in line
                    and "com.kiloo.subwaysurf" in line)
        assert "REFUSED" in line
        assert line.rstrip().endswith("preserved-egl-context")
        assert "predicted" not in line
        migrated = next(line for line in out.splitlines()
                        if "dev02->dev03" in line
                        and "com.twitter.android" in line)
        assert "MIGRATED" in migrated and "predicted 12.492s" in migrated

    def test_fleet_why_keeps_placement_refusals_and_sheds(self, capsys):
        assert main(["fleet", "--devices", "12", "--arrivals", "40",
                     "--seed", "7", "--admission", "shed"]) == 0
        lines = capsys.readouterr().out.splitlines()
        shed = [line for line in lines if " SHED " in line]
        assert shed and all("shed: projected queue depth" in line
                            for line in shed)
        [unplaced] = [line for line in lines if "->-" in line]
        assert "REFUSED" in unplaced and "no vibrator" in unplaced


class TestHostileInputs:
    """Malformed artifacts end in a message naming them, not a traceback."""

    EVENTS = [
        {"t": 0.0, "device": "home", "seq": 1, "kind": "migration.start",
         "attrs": {"package": "com.example"}},
        {"t": 1.0, "device": "home", "seq": 2, "kind": "migration.done",
         "attrs": {"package": "com.example"}},
    ]

    def _bundle(self, path, kind="migrate", metrics=None, events=None):
        from repro.sim.bundle import collect_fingerprint, write_bundle
        return write_bundle(str(path), kind=kind,
                            fingerprint=collect_fingerprint(kind),
                            metrics=metrics or {"migrations": [3]},
                            events=self.EVENTS if events is None else events)

    def test_explain_non_object_event_line(self, tmp_path):
        path = self._bundle(tmp_path / "run",
                            events=[{"seq": 1, "kind": "x"}, 3])
        with pytest.raises(SystemExit, match=f"{path}/events.jsonl:2: "
                                             f"expected dict, got int"):
            main(["explain", path])

    def test_explain_bundle_with_hostile_rows(self, tmp_path):
        bundle = self._bundle(tmp_path / "run")
        with pytest.raises(SystemExit, match=r"metrics.json: "
                                             r"migrations\[0\]: expected "
                                             r"dict, got int"):
            main(["explain", bundle])

    def test_explain_non_object_metrics_file(self, tmp_path):
        path = self._bundle(tmp_path / "run", metrics=[1])
        with pytest.raises(SystemExit, match=f"{path}/metrics.json: "
                                             f"expected dict, got list"):
            main(["explain", path])

    def test_diff_with_hostile_rows(self, tmp_path):
        a = self._bundle(tmp_path / "a")
        b = self._bundle(tmp_path / "b")
        with pytest.raises(SystemExit, match=r"migrations\[0\]"):
            main(["diff", a, b])

    def test_bench_check_bundle_with_hostile_rows(self, tmp_path, capsys):
        bundle = self._bundle(tmp_path / "run", kind="sweep",
                              metrics={"migrations": [{"stages": [1]}]})
        baseline = tmp_path / "BENCH_sweep.json"
        baseline.write_text("{}\n")
        assert main(["bench-check", "--bundle", bundle,
                     "--baseline", str(baseline)]) == 2
        assert "migrations[0].stages: expected dict" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("field", ["pair", "site", "attrs.session"])
    @pytest.mark.parametrize("command", [[], ["--why", "home/x@1"]],
                             ids=["explain", "why"])
    def test_explain_event_with_a_list_label(self, tmp_path, field,
                                            command):
        event = {"seq": 1, "t": 0.0, "device": "h",
                 "kind": "migration.start", "attrs": {"package": "p"}}
        if field == "attrs.session":
            event["attrs"]["session"] = [1]
        else:
            event[field] = [1]
        path = self._bundle(tmp_path / "run", events=[event])
        with pytest.raises(SystemExit, match=f"{path}/events.jsonl:1: "
                                             f"{field}: expected str, "
                                             f"got list"):
            main(["explain", path] + command)

    @pytest.mark.parametrize("bundled", [True, False],
                             ids=["bundle", "full"])
    def test_bench_check_non_object_baseline(self, tmp_path, capsys,
                                             monkeypatch, bundled):
        from repro.experiments import bench

        def measure_sweep(**_):
            raise AssertionError("measured before reading the baseline")

        monkeypatch.setattr(bench, "measure_sweep", measure_sweep)
        baseline = tmp_path / "BENCH_sweep.json"
        baseline.write_text("[1]\n")
        bundle = (["--bundle", self._bundle(tmp_path / "run", kind="sweep",
                                            metrics={"migrations": []})]
                  if bundled else [])
        assert main(["bench-check", "--baseline", str(baseline)]
                    + bundle) == 2
        assert f"{baseline}: expected dict, got list" in \
            capsys.readouterr().out

    def test_diff_with_non_object_counters(self, tmp_path):
        metrics = {"totals": {"counters": [1]}, "migrations": []}
        a = self._bundle(tmp_path / "a", kind="sweep", metrics=metrics)
        b = self._bundle(tmp_path / "b", kind="sweep", metrics=metrics)
        with pytest.raises(SystemExit, match=r"a/metrics.json: "
                                             r"totals.counters: expected "
                                             r"dict, got list"):
            main(["diff", a, b])

    @pytest.mark.parametrize("command", [[], ["--why", "home/x@1"]],
                             ids=["explain", "why"])
    def test_explain_event_with_non_object_attrs(self, tmp_path, command):
        path = self._bundle(tmp_path / "run", events=[
            {"seq": 1, "kind": "x"}, {"seq": 2, "kind": "x", "attrs": []}])
        with pytest.raises(SystemExit, match=f"{path}/events.jsonl:2: "
                                             f"attrs: expected dict, "
                                             f"got list"):
            main(["explain", path] + command)

    def test_diff_event_with_non_object_attrs(self, tmp_path):
        from repro.sim.bundle import collect_fingerprint, write_bundle
        bundles = [write_bundle(
            str(tmp_path / name), kind="migrate",
            fingerprint=collect_fingerprint("migrate"),
            events=self.EVENTS + [{"seq": 3, "attrs": []}])
            for name in ("a", "b")]
        with pytest.raises(SystemExit, match=r"a/events.jsonl:3: attrs: "
                                             r"expected dict, got list"):
            main(["diff"] + bundles)
