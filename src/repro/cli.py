"""flux-sim: command-line front end for the Flux reproduction.

Subcommands::

    flux-sim devices                       list device profiles
    flux-sim apps                          list the Table 3 catalog
    flux-sim pair --home P --guest P       pairing cost between two devices
    flux-sim migrate --home P --guest P --app TITLE [--extensions ...]
    flux-sim sweep                         the paper's 4-pair x 16-app sweep
    flux-sim experiments [NAME ...]        regenerate tables/figures
    flux-sim bench-check [--update]        gate sweep metrics vs BENCH_sweep.json
    flux-sim explain EVENTS_JSONL|BUNDLE   post-mortem a migration's event log
    flux-sim scenario                      concurrent migrations on one clock
    flux-sim fleet                         seeded demand + placement at scale
    flux-sim diff A B                      compare two run bundles

``migrate`` and ``sweep`` take ``--metrics-out PATH`` to dump the
per-subsystem metrics registry as JSON and ``--events-out PATH`` to dump
the causal event log as JSONL (see ``flux-sim explain``); ``migrate
--trace-out`` includes the registry's counter tracks and the event log's
instants in the Chrome trace.  ``scenario`` adds ``--timeline-out``
(the edge-sampled time-series plane) and ``--trace-out`` (one track per
session plus counter tracks); ``explain --why LABEL`` ranks where a
session's wall time went, from the event log alone.

``fleet`` scales the scenario layer to a seeded device population:
demands from a seeded arrival process are routed by a placement policy
(``--policy capability|least-loaded|cost-model``), executed per site,
and reported as fleet SLOs (p50/p95/p99, refusal/shed rate, per-device
and per-medium utilization); ``--shard K/N`` runs a deterministic
slice.  ``migrate``, ``sweep``, ``scenario`` and ``fleet`` all take
``--bundle-out PATH``
to capture *every* plane the run produced — plus a config/env
fingerprint and a digest manifest — as one self-describing run bundle
(a directory, or ``.tar.gz``).  ``flux-sim explain BUNDLE`` post-mortems
straight from a bundle, ``flux-sim bench-check --bundle PATH`` gates
one without re-running the sweep, and ``flux-sim diff A B`` compares
two bundles plane by plane, ranking regression suspects (exit 0
identical, 1 within tolerance, 2 regressed).

Installed as a console script (``pip install -e .``), or run with
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.android.device import Device
from repro.android.hardware.profiles import ALL_PROFILES, profile_by_name
from repro.apps import TOP_APPS, app_by_title
from repro.core.cria.errors import MigrationError
from repro.core.extensions import FluxExtensions
from repro.experiments.harness import format_table, parse_workers
from repro.sim import SimClock, units
from repro.sim.rng import RngFactory


def _parse_extensions(spec: Optional[str]) -> FluxExtensions:
    if not spec:
        return FluxExtensions.none()
    if spec == "all":
        return FluxExtensions.all()
    flags = {}
    valid = set(FluxExtensions.__dataclass_fields__)
    for name in spec.split(","):
        name = name.strip()
        if name not in valid:
            raise SystemExit(
                f"unknown extension {name!r}; choose from {sorted(valid)} "
                "or 'all'")
        flags[name] = True
    return FluxExtensions(**flags)


def _boot_pair(home_name: str, guest_name: str, seed: int):
    clock = SimClock()
    factory = RngFactory(seed)
    home = Device(profile_by_name(home_name), clock, factory, name="home")
    guest = Device(profile_by_name(guest_name), clock, factory, name="guest")
    return home, guest


# -- subcommands -----------------------------------------------------------


def cmd_devices(args) -> int:
    rows = [(p.name, p.model, str(p.screen), p.gpu_name, p.kernel_version,
             f"{p.wifi_effective_mbps:.0f} Mbit/s")
            for p in ALL_PROFILES]
    print(format_table(("id", "model", "screen", "GPU", "kernel", "wifi"),
                       rows, title="Device profiles"))
    return 0


def cmd_apps(args) -> int:
    rows = [(a.title, a.package, f"{a.apk_mb:.1f} MB", a.workload_desc)
            for a in TOP_APPS]
    print(format_table(("title", "package", "APK", "workload"), rows,
                       title="Table 3 app catalog"))
    return 0


def cmd_pair(args) -> int:
    home, guest = _boot_pair(args.home, args.guest, args.seed)
    for spec in TOP_APPS:
        spec.install(home)
    report = home.pairing_service.pair(guest)
    print(f"paired {home.profile.model} -> {guest.profile.model} "
          f"in {report.seconds:.1f}s (simulated)")
    print(f"  constant data:   "
          f"{units.format_size(report.constant_bytes_total)}")
    print(f"  after hardlinks: "
          f"{units.format_size(report.constant_bytes_after_linking)}")
    print(f"  over the wire:   "
          f"{units.format_size(report.constant_bytes_compressed)}")
    print(f"  apps paired:     {len(report.apps)}"
          + (f" ({len(report.incompatible)} incompatible)"
             if report.incompatible else ""))
    return 0


def _merged_events(home, guest):
    """Both devices' flight recorders as one causal JSONL-ready stream."""
    from repro.sim.events import merge_streams
    return merge_streams(home.events.export(), guest.events.export())


def _write_outputs(args, kind: str, fingerprint: dict, *, metrics=None,
                   events=None, timeline=None, timeline_meta=None,
                   trace=None, profile=None) -> None:
    """Write the planes a command built to the ``--*-out`` paths given.

    Each plane goes to its own flag's path (``--metrics-out``,
    ``--events-out``, ``--timeline-out``, ``--trace-out``) when the
    command has that flag and it was given, and every plane goes into
    the ``--bundle-out`` run bundle, whose fingerprint is
    ``collect_fingerprint(kind, **fingerprint)``.
    """
    import json

    from repro.sim.events import write_jsonl
    from repro.sim.timeline import write_timeline
    path = getattr(args, "metrics_out", None)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(metrics, handle, indent=1)
        print(f"wrote metrics to {path}")
    path = getattr(args, "events_out", None)
    if path:
        count = write_jsonl(path, events)
        print(f"wrote {count} events to {path} (flux-sim explain {path})")
    path = getattr(args, "timeline_out", None)
    if path:
        count = write_timeline(path, timeline, meta=timeline_meta)
        print(f"wrote {count} timeline series to {path}")
    path = getattr(args, "trace_out", None)
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(trace, handle, indent=1)
        print(f"wrote Chrome trace to {path}")
    if args.bundle_out:
        from repro.sim.bundle import collect_fingerprint, write_bundle
        write_bundle(args.bundle_out, kind=kind,
                     fingerprint=collect_fingerprint(kind, **fingerprint),
                     metrics=metrics, events=events, timeline=timeline,
                     trace=trace, profile=profile)
        print(f"wrote run bundle to {args.bundle_out} "
              f"(flux-sim diff {args.bundle_out} OTHER)")


def _write_migrate_outputs(args, home, guest, report) -> None:
    """The migrate artifacts, shared by the success and the
    fault/refusal exits — a failed run's bundle is the one a
    post-mortem needs most."""
    from repro.sim.timeline import merge_timelines
    merged_events = _merged_events(home, guest)
    _write_outputs(
        args, "migrate",
        dict(workload=[report.package],
             pairs=[f"{args.home}->{args.guest}"],
             seed=args.seed,
             extra={
                 "extensions": args.extensions or "",
                 "drop_link_after_bytes": args.drop_link_after_bytes,
                 "fail_restore_after": args.fail_restore_after,
             }),
        metrics=_migrate_metrics_document(home, guest, report),
        events=merged_events,
        timeline=merge_timelines(home.timeline.export(),
                                 guest.timeline.export()),
        trace=home.tracer.chrome_trace(metrics=home.metrics,
                                       events=merged_events))


def cmd_migrate(args) -> int:
    try:
        spec = app_by_title(args.app)
    except KeyError:
        matching = [a.title for a in TOP_APPS
                    if args.app.lower() in a.title.lower()]
        if len(matching) != 1:
            raise SystemExit(f"unknown app {args.app!r}; "
                             f"try one of {[a.title for a in TOP_APPS]}")
        spec = app_by_title(matching[0])
    extensions = _parse_extensions(args.extensions)
    home, guest = _boot_pair(args.home, args.guest, args.seed)
    spec.install_and_launch(home)
    home.pairing_service.pair(guest)

    # Deterministic fault injection (see DESIGN.md / README): a link
    # that drops at a byte offset, and/or a restore that fails after N
    # steps.  Both exercise the stage pipeline's rollback path.
    link = None
    restore_fault = None
    if args.drop_link_after_bytes is not None:
        from repro.android.net.link import LinkFaultPlan, link_between
        link = link_between(home.profile, guest.profile, home.rng_factory)
        link.inject_fault(
            LinkFaultPlan(drop_after_bytes=args.drop_link_after_bytes))
    if args.fail_restore_after is not None:
        from repro.core.cria.restore import RestoreFaultPlan
        restore_fault = RestoreFaultPlan(
            fail_after_steps=args.fail_restore_after)

    try:
        report = home.migration_service.migrate(
            guest, spec.package, link=link, extensions=extensions,
            restore_fault=restore_fault)
    except MigrationError as error:
        failed = home.migration_service.history[-1]
        if failed.faulted_stage:
            print(f"FAULTED in {failed.faulted_stage} stage: {error}")
            print(f"rolled back: {spec.title} still running on "
                  f"{home.profile.model} "
                  f"(guest processes: "
                  f"{len(guest.kernel.processes_of_package(spec.package))})")
        else:
            print(f"REFUSED: {error}")
        if error.reason.value in ("multi-process", "preserved-egl-context"):
            print("hint: retry with --extensions all")
        _write_migrate_outputs(args, home, guest, failed)
        return 1
    print(f"migrated {spec.title}: {home.profile.model} -> "
          f"{guest.profile.model}")
    rows = [(stage, f"{seconds:.3f}",
             f"{report.stage_fraction(stage) * 100:.1f}%")
            for stage, seconds in report.stages.items()]
    rows.append(("TOTAL", f"{report.total_seconds:.3f}", "100%"))
    print(format_table(("stage", "seconds", "share"), rows))
    print(f"transferred {units.format_size(report.transferred_bytes)} "
          f"({report.record_log_entries} log entries replayed: "
          f"{report.replay.replayed} direct, {report.replay.proxied} via "
          f"proxy, {report.replay.skipped} skipped)")
    for note in report.replay.adaptations:
        print(f"  adapted: {note}")
    if report.transfer_chunks_total:
        cached = report.transfer_chunks_cached
        total = report.transfer_chunks_total
        print(f"chunk cache: {cached}/{total} chunks served from the "
              f"guest's store ({report.chunk_hit_rate:.0%} hit rate, "
              f"{units.format_size(report.chunk_bytes_cached)} not resent)")
    if report.dominant_stage:
        chain = " > ".join(
            f"{entry['name']} {float(entry['seconds']):.3f}s"
            for entry in report.critical_path)
        print(f"critical path: {chain}")
    if args.timeline:
        from repro.core.migration.timeline import render_timeline
        print()
        print(render_timeline(report))
    _write_migrate_outputs(args, home, guest, report)
    return 0


def _migrate_metrics_document(home, guest, report) -> dict:
    """One migration's merged metrics + critical path, JSON-ready."""
    from repro.sim.metrics import merge_snapshots, rollup_counters
    merged = merge_snapshots([home.metrics.snapshot(),
                              guest.metrics.snapshot()])
    return {
        "schema": 1,
        "migration": {
            "package": report.package,
            "success": report.success,
            "refusal": report.refusal.value if report.refusal else None,
            "faulted_stage": report.faulted_stage,
            "stages": {s: round(v, 6) for s, v in report.stages.items()},
            "dominant_stage": report.dominant_stage,
            "critical_path": report.critical_path,
            "transferred_bytes": report.transferred_bytes,
            "chunk_hit_rate": round(report.chunk_hit_rate, 4),
            "wait_profile": ({k: round(v, 6) for k, v in
                              sorted(report.wait_profile.items())}
                             if report.wait_profile else None),
        },
        "metrics": merged,
        "rollup": rollup_counters(merged),
    }


def cmd_interface(args) -> int:
    from repro.android.aidl.parser import parse
    from repro.android.aidl.printer import print_interface
    from repro.android.services.aidl_sources import AIDL_SOURCES, spec_for
    try:
        spec = spec_for(args.service)
    except KeyError:
        raise SystemExit(f"unknown service {args.service!r}; choose from "
                         f"{sorted(AIDL_SOURCES)}")
    document = parse(AIDL_SOURCES[spec.key])
    for iface in document.interfaces:
        print(print_interface(iface))
        print()
    return 0


def cmd_sweep(args) -> int:
    from repro.android.hardware.profiles import PAPER_DEVICE_PAIRS
    from repro.apps.catalog import MIGRATABLE_APPS
    from repro.experiments import fig12, fig13, fig14, fig15
    from repro.experiments.harness import (
        pair_label,
        resolve_workers,
        run_sweep,
        sweep_metrics_document,
        sweep_timeline_series,
        sweep_workers,
    )
    workers = resolve_workers(sweep_workers(args.workers),
                              len(PAPER_DEVICE_PAIRS))
    # The figure modules call run_sweep() with the same cache key, so
    # they render this (possibly parallel) sweep.  Results are
    # bit-identical to the serial run either way.
    sweep = run_sweep(workers=workers)
    print(fig12.render())
    print()
    print(fig13.render())
    print()
    print(fig14.render())
    print()
    print(fig15.render())
    profile_report = None
    if args.profile_out:
        from repro.experiments.profiling import top_offenders, write_profile
        profile_report = write_profile(args.profile_out)
        offenders = top_offenders(profile_report)
        print(f"\nwrote per-pair cProfile report to {args.profile_out}")
        if offenders:
            print("top offenders: " + ", ".join(offenders))
    _write_outputs(
        args, "sweep",
        dict(workload=[a.package for a in MIGRATABLE_APPS],
             pairs=[pair_label(h, g) for h, g in PAPER_DEVICE_PAIRS],
             seed=0,
             executor="process" if workers > 1 else "serial",
             workers=workers),
        metrics=sweep_metrics_document(sweep),
        events=sweep.merged_events(),
        timeline=sweep_timeline_series(sweep),
        profile=profile_report)
    return 0


def cmd_bench_check(args) -> int:
    from repro.experiments import bench
    tolerance = (bench.SIM_TOLERANCE if args.tolerance is None
                 else args.tolerance)
    code, text = bench.run_check(baseline_path=args.baseline,
                                 update=args.update,
                                 tolerance=tolerance,
                                 bundle=args.bundle)
    print(text)
    return code


def cmd_explain(args) -> int:
    import json

    from repro.core.migration.postmortem import (
        PostmortemError,
        build_blame,
        build_postmortem,
        critical_path_from_metrics,
        postmortem_from_bundle,
        render_blame,
        render_postmortem,
    )
    from repro.sim.bundle import BundleError, RunBundle, is_bundle_path
    from repro.sim.events import EventsError, read_jsonl
    bundle = None
    if is_bundle_path(args.events):
        # A run bundle: the events (and, unless --metrics overrides,
        # the critical path) come from the bundle alone.
        try:
            bundle = RunBundle.load(args.events)
            events = bundle.events()
        except (BundleError, EventsError) as error:
            raise SystemExit(str(error))
    else:
        try:
            events = read_jsonl(args.events)
        except OSError as error:
            raise SystemExit(f"cannot read {args.events!r}: {error}")
        except EventsError as error:
            raise SystemExit(str(error))
    if args.why:
        # Blame mode: rank where the session's wall time went, resolved
        # from the event log alone (no live scheduler state needed).
        try:
            blame = build_blame(events, args.why)
        except PostmortemError as error:
            raise SystemExit(f"{args.events}: {error}")
        print(render_blame(blame))
        return 0
    critical_path = None
    if args.metrics:
        try:
            with open(args.metrics, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as error:
            raise SystemExit(f"cannot read {args.metrics!r}: {error}")
        critical_path = critical_path_from_metrics(document, args.package)
    try:
        if bundle is not None and critical_path is None:
            postmortem = postmortem_from_bundle(bundle,
                                                package=args.package,
                                                last=args.last,
                                                session=args.session)
        else:
            postmortem = build_postmortem(events, package=args.package,
                                          last=args.last,
                                          critical_path=critical_path,
                                          session=args.session)
    except PostmortemError as error:
        raise SystemExit(f"{args.events}: {error}")
    print(render_postmortem(postmortem))
    return 0


def cmd_diff(args) -> int:
    import json

    from repro.sim.bundle import BundleError, RunBundle
    from repro.sim.diffing import (
        DEFAULT_CONTEXT,
        DEFAULT_TOLERANCE,
        DiffError,
        diff_bundles,
        exit_code,
        render_diff,
    )
    tolerance = (DEFAULT_TOLERANCE if args.tolerance is None
                 else args.tolerance)
    context = DEFAULT_CONTEXT if args.context is None else args.context
    try:
        bundle_a = RunBundle.load(args.a)
        bundle_b = RunBundle.load(args.b)
        document = diff_bundles(bundle_a, bundle_b,
                                tolerance=tolerance,
                                context=context)
    except (BundleError, DiffError) as error:
        raise SystemExit(str(error))
    print(render_diff(document, limit=args.limit))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
        print(f"wrote diff document to {args.json_out}")
    return exit_code(document)


def _resolve_package(name: str) -> str:
    """An app as the CLI spells it: exact package, else title substring."""
    from repro.apps.catalog import app_by_package
    try:
        return app_by_package(name).package
    except KeyError:
        pass
    matching = [a for a in TOP_APPS if name.lower() in a.title.lower()]
    if len(matching) != 1:
        raise SystemExit(f"unknown app {name!r}; use a package or a "
                         f"unique title substring from flux-sim apps")
    return matching[0].package


def _parse_session_arg(raw: str):
    """``HOME:GUEST:APP[@START]`` -> (home, guest, package, start)."""
    parts = raw.split(":", 2)
    if len(parts) != 3:
        raise SystemExit(f"bad --migrate {raw!r}; "
                         "expected HOME:GUEST:APP[@START]")
    home, guest, app = parts
    start = 0.0
    if "@" in app:
        app, _, offset = app.rpartition("@")
        try:
            start = float(offset)
        except ValueError:
            raise SystemExit(f"bad start offset {offset!r} in "
                             f"--migrate {raw!r}")
    return home, guest, _resolve_package(app), start


def cmd_scenario(args) -> int:
    from repro.experiments.scenario import (
        ScenarioError,
        ScenarioSpec,
        SessionSpec,
        run_scenario,
    )

    if args.device:
        devices = []
        for raw in args.device:
            name, sep, profile = raw.partition("=")
            if not sep:
                raise SystemExit(f"bad --device {raw!r}; "
                                 "expected NAME=PROFILE")
            devices.append((name, profile_by_name(profile)))
    else:
        devices = [("home", profile_by_name("nexus4")),
                   ("guest", profile_by_name("nexus7_2013"))]
    if args.migrate:
        sessions = [SessionSpec(h, g, pkg, start=start)
                    for h, g, pkg, start in
                    (_parse_session_arg(raw) for raw in args.migrate)]
    else:
        # The default demo: two concurrent migrations on one device
        # pair — the second queues behind the first (admission control).
        from repro.apps.catalog import MIGRATABLE_APPS
        h, g = devices[0][0], devices[1][0] if len(devices) > 1 else None
        if g is None:
            raise SystemExit("the default demo needs two devices")
        sessions = [SessionSpec(h, g, app.package)
                    for app in MIGRATABLE_APPS[:2]]
    try:
        spec = ScenarioSpec(devices=tuple(devices),
                            sessions=tuple(sessions),
                            seed=args.seed, admission=args.admission)
        result = run_scenario(spec)
    except ScenarioError as error:
        raise SystemExit(str(error))

    print(f"scenario: {len(devices)} devices, {len(sessions)} sessions, "
          f"admission={args.admission}, seed={args.seed}")
    rows = []
    for outcome in result.sessions:
        report = outcome.report
        rows.append((
            f"{outcome.spec.home}->{outcome.spec.guest}",
            outcome.spec.package,
            outcome.status.upper(),
            outcome.session or "-",
            f"{outcome.queued_seconds:.3f}",
            f"{report.total_seconds:.3f}" if report is not None else "-",
            (units.format_size(report.transferred_bytes)
             if report is not None and report.success else "-"),
        ))
    print(format_table(("route", "package", "status", "session",
                        "queued (s)", "total (s)", "transferred"), rows))
    failures = [o for o in result.sessions if o.status != "migrated"]
    for outcome in failures:
        detail = outcome.refusal_detail or (
            outcome.refusal.value if outcome.refusal else "")
        print(f"  {outcome.spec.package}: {outcome.status} ({detail})")
    from repro.experiments.scenario import (
        scenario_metrics_document,
        scenario_trace_document,
    )
    _write_outputs(
        args, "scenario",
        dict(workload=[s.package for s in sessions],
             pairs=[f"{s.home}->{s.guest}" for s in
                    sorted(sessions, key=lambda s: s.canonical_key)],
             seed=args.seed,
             extra={
                 "admission": args.admission,
                 "devices": [f"{name}={profile.name}"
                             for name, profile in devices],
                 "sessions": sorted(
                     f"{s.home}:{s.guest}:{s.package}@{s.start:g}"
                     for s in sessions),
             }),
        metrics=scenario_metrics_document(spec, result),
        events=result.events,
        timeline=result.timeline,
        timeline_meta={"devices": [n for n, _ in spec.devices],
                       "seed": spec.seed},
        trace=scenario_trace_document(result))
    return 0 if not failures else 1


def _parse_shard(raw: Optional[str]):
    """``K/N`` -> partial shard (k, n); plain ``N`` -> run all N groups."""
    if raw is None:
        return None, None
    if "/" in raw:
        k_raw, _, n_raw = raw.partition("/")
        try:
            k, n = int(k_raw), int(n_raw)
        except ValueError:
            raise SystemExit(f"bad --shard {raw!r}; expected K/N or N")
        if n < 1 or not 0 <= k < n:
            raise SystemExit(f"bad --shard {raw!r}: need 0 <= K < N")
        return (k, n), None
    try:
        n = int(raw)
    except ValueError:
        raise SystemExit(f"bad --shard {raw!r}; expected K/N or N")
    if n < 1:
        raise SystemExit(f"bad --shard {raw!r}: need N >= 1")
    return None, n


def cmd_fleet(args) -> int:
    from repro.experiments.fleet import (
        FleetError,
        FleetSpec,
        fleet_metrics_document,
        render_fleet,
        run_fleet,
    )
    shard, shard_count = _parse_shard(args.shard)
    try:
        spec = FleetSpec(devices=args.devices, arrivals=args.arrivals,
                         seed=args.seed, policy=args.policy,
                         site_size=args.site_size,
                         admission=args.admission,
                         shed_depth=args.shed_depth)
        result = run_fleet(spec, shard=shard, shard_count=shard_count,
                           workers=args.workers)
    except FleetError as error:
        raise SystemExit(str(error))

    print(render_fleet(result))
    shard_label = (f"{shard[0]}/{shard[1]}" if shard is not None else None)
    # Workers/shard-count are deliberately absent from the fingerprint:
    # a full fleet run's bundle must be byte-identical however it was
    # parallelized.  A *partial* run (--shard K/N) covers different
    # sites, so it does record its shard.
    extra = {
        "policy": spec.policy,
        "devices": spec.devices,
        "arrivals": spec.arrivals,
        "site_size": spec.site_size,
        "admission": spec.admission,
    }
    if shard_label is not None:
        extra["shard"] = shard_label
    _write_outputs(
        args, "fleet",
        dict(workload=sorted({row["package"] for row in result.rows}),
             pairs=result.sites,
             seed=spec.seed,
             extra=extra),
        metrics=fleet_metrics_document(spec, result, shard=shard_label),
        events=result.events,
        timeline=result.timeline,
        timeline_meta={"sites": result.sites, "seed": spec.seed})
    return 0


def cmd_experiments(args) -> int:
    from repro.experiments.__main__ import main as experiments_main
    return experiments_main(args.names)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flux-sim",
        description="Flux (EuroSys 2015) reproduction: app migration "
                    "across simulated Android devices.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("devices", help="list device profiles") \
        .set_defaults(func=cmd_devices)
    sub.add_parser("apps", help="list the Table 3 app catalog") \
        .set_defaults(func=cmd_apps)

    pair = sub.add_parser("pair", help="pairing cost between two devices")
    pair.add_argument("--home", default="nexus7")
    pair.add_argument("--guest", default="nexus7_2013")
    pair.add_argument("--seed", type=int, default=0)
    pair.set_defaults(func=cmd_pair)

    migrate = sub.add_parser("migrate", help="migrate one app")
    migrate.add_argument("--home", default="nexus4")
    migrate.add_argument("--guest", default="nexus7_2013")
    migrate.add_argument("--app", required=True,
                         help="app title from the catalog (substring ok)")
    migrate.add_argument("--extensions", default="",
                         help="comma-separated FluxExtensions flags, "
                              "or 'all'")
    migrate.add_argument("--seed", type=int, default=0)
    migrate.add_argument("--timeline", action="store_true",
                         help="render an ASCII stage timeline")
    migrate.add_argument("--trace-out", metavar="PATH", default=None,
                         help="write the migration's hierarchical span "
                              "tree as Chrome-trace JSON "
                              "(chrome://tracing / Perfetto)")
    migrate.add_argument("--drop-link-after-bytes", type=int, default=None,
                         metavar="N",
                         help="fault injection: drop the link once N "
                              "cumulative payload bytes crossed it")
    migrate.add_argument("--fail-restore-after", type=int, default=None,
                         metavar="N",
                         help="fault injection: fail the guest-side "
                              "restore after N completed steps")
    migrate.add_argument("--metrics-out", metavar="PATH", default=None,
                         help="write the merged home+guest metrics "
                              "registry (counters, gauges, histograms, "
                              "critical path) as JSON")
    migrate.add_argument("--events-out", metavar="PATH", default=None,
                         help="write the merged home+guest causal event "
                              "log as JSONL (input to flux-sim explain)")
    migrate.add_argument("--bundle-out", metavar="PATH", default=None,
                         help="write a self-describing run bundle (all "
                              "telemetry planes + config fingerprint) as "
                              "a directory, or .tar.gz if PATH ends in "
                              ".tar.gz/.tgz (input to flux-sim diff)")
    migrate.set_defaults(func=cmd_migrate)

    interface = sub.add_parser(
        "interface", help="show a service's decorated AIDL interface")
    interface.add_argument("service",
                           help="service key, e.g. notification, alarm")
    interface.set_defaults(func=cmd_interface)

    sweep = sub.add_parser("sweep", help="the paper's full migration sweep")
    sweep.add_argument("--workers", default=None, metavar="N",
                       type=parse_workers,
                       help="run device pairs on N processes, or 'auto' "
                            "for one per core (results identical to "
                            "serial; default FLUX_SWEEP_WORKERS, else "
                            "serial)")
    sweep.add_argument("--profile-out", metavar="PATH", default=None,
                       help="run each pair serially under cProfile and "
                            "write a deterministic-ordered per-pair "
                            "report (the serial hot-path measuring "
                            "plane)")
    sweep.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write per-pair, per-app and total metrics "
                            "snapshots for the sweep as JSON")
    sweep.add_argument("--events-out", metavar="PATH", default=None,
                       help="write every pair's causal event stream, "
                            "pair-labeled, as JSONL")
    sweep.add_argument("--bundle-out", metavar="PATH", default=None,
                       help="write a self-describing run bundle (all "
                            "telemetry planes + config fingerprint) as a "
                            "directory, or .tar.gz if PATH ends in "
                            ".tar.gz/.tgz (input to flux-sim diff)")
    sweep.set_defaults(func=cmd_sweep)

    bench_check = sub.add_parser(
        "bench-check",
        help="regenerate the sweep and gate its deterministic metrics "
             "against BENCH_sweep.json")
    bench_check.add_argument("--baseline", metavar="PATH", default=None,
                             help="baseline file (default: repo root "
                                  "BENCH_sweep.json)")
    bench_check.add_argument("--update", action="store_true",
                             help="rewrite the baseline from this run "
                                  "instead of gating")
    bench_check.add_argument("--tolerance", type=float, default=None,
                             help="relative drift band for simulated "
                                  "quantities (default 0.02)")
    bench_check.add_argument("--bundle", metavar="PATH", default=None,
                             help="gate a previously captured sweep "
                                  "bundle (from sweep --bundle-out) "
                                  "instead of regenerating the sweep")
    bench_check.set_defaults(func=cmd_bench_check)

    explain = sub.add_parser(
        "explain",
        help="post-mortem a migration from its --events-out JSONL: "
             "outcome, causal chain, flight-recorder tail")
    explain.add_argument("events", metavar="EVENTS_JSONL",
                         help="event log written by migrate/sweep "
                              "--events-out")
    explain.add_argument("--package", default=None,
                         help="explain this app's migration (default: "
                              "the most recent failure, else the last "
                              "migration in the log)")
    explain.add_argument("--metrics", metavar="PATH", default=None,
                         help="a --metrics-out JSON document; annotates "
                              "the post-mortem with the critical path")
    explain.add_argument("--last", type=int, default=10, metavar="N",
                         help="flight-recorder tail length: events shown "
                              "before the fault (default 10)")
    explain.add_argument("--session", default=None, metavar="LABEL",
                         help="explain this migration session of an "
                              "interleaved scenario log (label as "
                              "printed by flux-sim scenario, e.g. "
                              "home/net.zedge.android@0)")
    explain.add_argument("--why", default=None, metavar="LABEL",
                         help="rank where this session's wall time went "
                              "(admission queue, link dilation, own "
                              "work), reconstructed from the event log "
                              "alone")
    explain.set_defaults(func=cmd_explain)

    scenario = sub.add_parser(
        "scenario",
        help="run a multi-device world with staggered concurrent "
             "migrations on the discrete-event scheduler")
    scenario.add_argument("--device", action="append", metavar="NAME=PROFILE",
                          help="add a named device (repeatable); default: "
                               "home=nexus4 guest=nexus7_2013")
    scenario.add_argument("--migrate", action="append",
                          metavar="HOME:GUEST:APP[@START]",
                          help="queue a migration session (repeatable); "
                               "APP is a package or unique title "
                               "substring, START a virtual-seconds "
                               "offset; default: two concurrent "
                               "migrations on the default pair")
    scenario.add_argument("--admission", default="queue",
                          choices=("queue", "refuse"),
                          help="what a session does when an endpoint is "
                               "already hosting a migration (default: "
                               "queue FIFO)")
    scenario.add_argument("--seed", type=int, default=0)
    scenario.add_argument("--metrics-out", metavar="PATH", default=None,
                          help="write the merged all-device metrics "
                               "registry plus per-session outcomes as "
                               "JSON")
    scenario.add_argument("--events-out", metavar="PATH", default=None,
                          help="write the causally-merged all-device "
                               "event log as JSONL (input to flux-sim "
                               "explain, which segments it by session)")
    scenario.add_argument("--timeline-out", metavar="PATH", default=None,
                          help="write the edge-sampled time-series plane "
                               "(link shares, queue depths, sessions in "
                               "flight) as JSON")
    scenario.add_argument("--trace-out", metavar="PATH", default=None,
                          help="write a Chrome trace with one track per "
                               "session plus timeline counter tracks")
    scenario.add_argument("--bundle-out", metavar="PATH", default=None,
                          help="write a self-describing run bundle (all "
                               "telemetry planes + config fingerprint) "
                               "as a directory, or .tar.gz if PATH ends "
                               "in .tar.gz/.tgz (input to flux-sim diff)")
    scenario.set_defaults(func=cmd_scenario)

    fleet = sub.add_parser(
        "fleet",
        help="seeded fleet: generate demand over a device population, "
             "place each migration with a pluggable policy, run every "
             "site on the scheduler, report fleet SLOs")
    fleet.add_argument("--devices", type=int, default=12, metavar="N",
                       help="population size; profiles cycle through the "
                            "fleet variants (default 12)")
    fleet.add_argument("--arrivals", type=int, default=40, metavar="M",
                       help="total migration demands across the fleet "
                            "(default 40)")
    fleet.add_argument("--seed", type=int, default=0,
                       help="root seed for arrivals, app mixes and "
                            "per-site scenario worlds (default 0)")
    fleet.add_argument("--policy", default="cost-model",
                       choices=("capability", "least-loaded",
                                "cost-model"),
                       help="placement engine routing each demand to a "
                            "guest surface (default cost-model)")
    fleet.add_argument("--site-size", type=int, default=4, metavar="D",
                       help="devices per site; each site is a sealed "
                            "world with its own shared WiFi medium "
                            "(default 4)")
    fleet.add_argument("--admission", default="queue",
                       choices=("queue", "refuse", "shed"),
                       help="busy-endpoint policy: queue FIFO, refuse, "
                            "or shed at placement time once the "
                            "projected queue hits --shed-depth")
    fleet.add_argument("--shed-depth", type=int, default=4, metavar="Q",
                       help="projected queue depth that sheds a demand "
                            "under --admission shed (default 4)")
    fleet.add_argument("--workers", default=None, metavar="N",
                       type=parse_workers,
                       help="run sites on N processes, or 'auto' for one "
                            "per core (results identical to serial; "
                            "default serial)")
    fleet.add_argument("--shard", default=None, metavar="K/N",
                       help="K/N runs only sites with index %% N == K "
                            "(a partial fleet for distributed runs); a "
                            "plain N runs all N shard groups and merges "
                            "— byte-identical to the unsharded run")
    fleet.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="write merged fleet metrics, SLO summary "
                            "and per-demand rows (placement decisions, "
                            "wait profiles) as JSON")
    fleet.add_argument("--events-out", metavar="PATH", default=None,
                       help="write every site's causal event stream, "
                            "site-labeled, as JSONL (input to flux-sim "
                            "explain --why)")
    fleet.add_argument("--timeline-out", metavar="PATH", default=None,
                       help="write the edge-sampled time-series plane "
                            "of every site, site-labeled, as JSON")
    fleet.add_argument("--bundle-out", metavar="PATH", default=None,
                       help="write a self-describing run bundle (all "
                            "telemetry planes + config fingerprint) as "
                            "a directory, or .tar.gz if PATH ends in "
                            ".tar.gz/.tgz (input to flux-sim diff)")
    fleet.set_defaults(func=cmd_fleet)

    diff = sub.add_parser(
        "diff",
        help="compare two run bundles: per-counter/histogram deltas with "
             "tolerance bands, per-migration critical-path diffs, wait "
             "profile deltas, first event divergence, ranked suspects")
    diff.add_argument("a", metavar="BUNDLE_A",
                      help="baseline bundle (directory or .tar.gz from "
                           "--bundle-out)")
    diff.add_argument("b", metavar="BUNDLE_B",
                      help="candidate bundle to compare against the "
                           "baseline")
    diff.add_argument("--tolerance", type=float, default=None,
                      help="relative drift band before a delta counts "
                           "as a regression (default 0.02)")
    diff.add_argument("--context", type=int, default=None, metavar="N",
                      help="events of flight-recorder context around "
                           "the first divergence (default 5)")
    diff.add_argument("--limit", type=int, default=10, metavar="N",
                      help="suspects shown in the ranked table "
                           "(default 10)")
    diff.add_argument("--json-out", metavar="PATH", default=None,
                      help="also write the full machine-readable diff "
                           "document as JSON")
    diff.set_defaults(func=cmd_diff)

    experiments = sub.add_parser("experiments",
                                 help="regenerate tables/figures")
    experiments.add_argument("names", nargs="*")
    experiments.set_defaults(func=cmd_experiments)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
