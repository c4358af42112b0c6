"""Command-line interface: ``hftnetview`` (or ``python -m repro``).

Subcommands mirror the tool's workflow:

* ``funnel``    — replay the §2.2 scraping funnel (57 → 29 → 9);
* ``table1``    — connected networks ranked by CME–NY4 latency;
* ``table2``    — top-3 networks per corridor path;
* ``table3``    — per-path APA for NLN vs WH;
* ``timeline``  — Fig 1/2 series for the featured networks;
* ``export``    — write a network's YAML / GeoJSON / SVG snapshot;
* ``leo``       — the Fig 5 MW vs LEO vs fiber sweep;
* ``compare``   — hybrid MW/fiber/LEO table across registered corridors;
* ``entities``  — resolve co-owned licensees (§6 future work);
* ``weather``   — effective latency profiles under a storm ensemble;
* ``stability`` — ranking flips under per-tower overhead uncertainty;
* ``design``    — design a corridor network under a site budget (§6);
* ``diff``      — what changed on the corridor between two dates;
* ``search``    — geographic license search (the §2.1 portal query);
* ``serve``     — run the corridor analytics HTTP service (repro.serve);
* ``loadgen``   — replay a seeded load profile against the service;
* ``cache``     — inspect or maintain the on-disk cache store (repro.store);
* ``lint``      — run the project's static-analysis rules (repro.lint).

Analysis commands default to the calibrated ``paper2020`` scenario;
``--scenario NAME[:k=v,...]`` selects any registered scenario
(``europe2020``, ``tokyo-singapore``, parameterized ``synthetic:...`` —
see :mod:`repro.scenarios`).
``table1``/``table3``/``timeline``/``search`` accept
``--format json``, emitting the exact canonical payload the serve
endpoints return (parity is pinned in ``tests/test_serve_parity.py``).
"""

from __future__ import annotations

import argparse
import datetime as dt
import os
import sys
from pathlib import Path

from repro.analysis.figures import (
    fig1_latency_evolution,
    fig2_active_licenses,
    fig5_leo_comparison,
)
from repro.analysis.funnel import run_scraping_funnel
from repro.analysis.report import format_latency_ms, format_table
from repro.analysis.tables import (
    table1_connected_networks,
    table2_top_networks,
    table3_apa,
)
from repro.core.yamlio import network_to_yaml
from repro.synth.scenario import Scenario
from repro.viz.geojson import network_to_geojson
from repro.viz.svgmap import render_network_svg


def _parse_date(text: str) -> dt.date:
    return dt.date.fromisoformat(text)


def _scenario(args: argparse.Namespace) -> Scenario:
    """Resolve the subcommand's ``--scenario`` reference.

    Every subcommand routes through this one resolver; the registry
    caches by canonical reference, so repeated calls (the command body,
    ``--cache-stats``, in-process test invocations) share one scenario
    and one warm default engine.
    """
    from repro.scenarios import resolve_scenario

    return resolve_scenario(getattr(args, "scenario", None) or "paper2020")


def _cmd_funnel(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    source, target = scenario.primary_path
    result = run_scraping_funnel(
        scenario.database,
        scenario.corridor,
        args.date or scenario.snapshot_date,
        engine=scenario.engine(),
    )
    candidates, shortlisted, connected = result.counts
    print(f"candidate licensees: {candidates}")
    print(f"shortlisted (>= 11 filings): {shortlisted}")
    print(f"connected {source}-{target}: {connected}")
    print(f"portal pages scraped: {result.pages_scraped}")
    for name in result.connected_licensees:
        print(f"  - {name}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    if args.format == "json":
        from repro.serve.payloads import rankings_payload, render_payload

        payload = rankings_payload(
            scenario, scenario.engine(), args.date or scenario.snapshot_date
        )
        print(render_payload(payload))
        return 0
    rankings = table1_connected_networks(scenario, args.date)
    rows = [
        (r.licensee, format_latency_ms(r.latency_ms), r.apa_percent, r.tower_count)
        for r in rankings
    ]
    source, target = scenario.primary_path
    print(
        format_table(
            ("Licensee", "Latency (ms)", "APA (%)", "#Towers"),
            rows,
            title=f"Connected networks, {source}-{target}",
        )
    )
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    rows = []
    for path_ranking in table2_top_networks(scenario, args.date):
        for rank, entry in enumerate(path_ranking.top, start=1):
            rows.append(
                (
                    f"{path_ranking.source}-{path_ranking.target}",
                    f"{path_ranking.geodesic_km:.0f}",
                    rank,
                    entry.licensee,
                    format_latency_ms(entry.latency_ms),
                )
            )
    print(
        format_table(
            ("Path", "Geodesic (km)", "Rank", "Licensee", "Latency (ms)"), rows
        )
    )
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    if args.format == "json":
        from repro.serve.payloads import apa_payload, render_payload

        payload = apa_payload(
            scenario, scenario.engine(), args.date or scenario.snapshot_date
        )
        print(render_payload(payload))
        return 0
    apa_rows = table3_apa(scenario, on_date=args.date)
    names = list(apa_rows[0].values)
    rows = [
        (f"{row.path[0]}-{row.path[1]}", *(f"{row.values[n]}%" for n in names))
        for row in apa_rows
    ]
    print(format_table(("Path", *names), rows, title="Alternate path availability"))
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.core.timeline import dense_date_grid

    scenario = _scenario(args)
    if args.format == "json":
        from repro.serve.payloads import render_payload, timeline_payload

        payload = timeline_payload(scenario, scenario.engine(), args.step)
        print(render_payload(payload))
        return 0
    dates = dense_date_grid(args.step) if args.step != "paper" else None
    latencies = fig1_latency_evolution(scenario, dates=dates)
    counts = fig2_active_licenses(scenario, dates=dates)
    dates = next(iter(counts.values())).dates
    header = ("Licensee", *(d.isoformat() for d in dates))
    latency_rows = [
        (name, *(format_latency_ms(p.latency_ms, 4) for p in points))
        for name, points in latencies.items()
    ]
    count_rows = [
        (name, *(str(c) for c in series.counts)) for name, series in counts.items()
    ]
    source, target = scenario.primary_path
    print(
        format_table(
            header, latency_rows, title=f"Fig 1: latency (ms), {source}-{target}"
        )
    )
    print()
    print(format_table(header, count_rows, title="Fig 2: active licenses"))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    date = args.date or scenario.snapshot_date
    if args.licensee not in scenario.database.licensee_names():
        print(f"unknown licensee: {args.licensee!r}", file=sys.stderr)
        return 2
    network = scenario.engine().snapshot(args.licensee, date)
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.licensee.lower().replace(' ', '_')}_{date.isoformat()}"
    network_to_yaml(network, out / f"{stem}.yaml")
    network_to_geojson(network, out / f"{stem}.geojson")
    render_network_svg(network, out / f"{stem}.svg", highlight_route=scenario.primary_path)
    print(f"wrote {stem}.yaml / .geojson / .svg to {out}")
    return 0


def _cmd_leo(args: argparse.Namespace) -> int:
    points = fig5_leo_comparison()
    rows = [
        (
            f"{p.distance_km:.0f}",
            f"{p.microwave_ms:.3f}",
            f"{p.leo_550_ms:.3f}",
            f"{p.leo_300_ms:.3f}",
            f"{p.fiber_ms:.3f}",
        )
        for p in points
        if p.distance_km % 1000 == 0 or args.full
    ]
    print(
        format_table(
            ("km", "MW (ms)", "LEO 550 (ms)", "LEO 300 (ms)", "fiber (ms)"),
            rows,
            title="Fig 5: terrestrial MW vs LEO vs fiber (one-way)",
        )
    )
    return 0


def _cmd_entities(args: argparse.Namespace) -> int:
    from repro.analysis.entities import resolve_entities

    scenario = _scenario(args)
    source, target = scenario.primary_path
    resolved = resolve_entities(
        scenario.database,
        scenario.corridor,
        args.date or scenario.snapshot_date,
        engine=scenario.engine(),
    )
    if not resolved:
        print("no co-owned licensee groups found")
        return 0
    rows = [
        (
            entity.domain,
            " + ".join(entity.licensees),
            format_latency_ms(entity.analysis.joint_latency_ms),
        )
        for entity in resolved
    ]
    print(
        format_table(
            ("Shared domain", "Licensees", f"Joint {source}-{target} (ms)"),
            rows,
            title="Resolved entities (shared domain + complementary links)",
        )
    )
    return 0


def _cmd_weather(args: argparse.Namespace) -> int:
    from repro.metrics.effective_latency import weather_latency_profile

    scenario = _scenario(args)
    date = args.date or scenario.snapshot_date
    engine = scenario.engine()
    source, target = scenario.primary_path
    corridor = (
        scenario.corridor.site(source).point,
        scenario.corridor.site(target).point,
    )
    rows = []
    for name in scenario.spotlight_names:
        network = engine.snapshot(name, date)
        profile = weather_latency_profile(
            network, source, target, corridor, n_storms=args.storms
        )
        rows.append(
            (
                name,
                format_latency_ms(profile.fair_weather_ms),
                format_latency_ms(profile.median_ms),
                format_latency_ms(profile.p90_ms),
                f"{profile.outage_fraction:.0%}",
            )
        )
    print(
        format_table(
            ("Network", "fair (ms)", "storm p50", "storm p90", "outage"),
            rows,
            title=f"Effective latency over {args.storms} seeded storms",
        )
    )
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    from repro.analysis.stability import ranking_stability

    scenario = _scenario(args)
    report = ranking_stability(scenario, max_overhead_us=args.max_overhead)
    print(f"order at 0 overhead:   {' > '.join(report.order_at_zero[:4])} ...")
    print(
        f"order at {args.max_overhead:g} us/tower: "
        f"{' > '.join(report.order_at_max[:4])} ..."
    )
    if report.stable:
        print("no ranking flips in range")
        return 0
    print(
        format_table(
            ("Faster at 0", "Overtaken by", "crossover (us/tower)"),
            [
                (flip.faster_at_zero, flip.slower_at_zero, f"{flip.crossover_us:.2f}")
                for flip in report.flips
            ],
            title="Ranking flips",
        )
    )
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.design.evaluate import (
        NetworkDesign,
        corridor_endpoints,
        evaluate_design,
        latency_lower_bound_ms,
    )
    from repro.design.redundancy import augment_with_bypasses
    from repro.design.sites import CandidateSite, generate_site_pool
    from repro.design.trunk import DesignError, design_trunk
    from repro.geodesy.path import offset_point

    scenario = _scenario(args)
    west_site = scenario.corridor.west
    east_site = scenario.corridor.east[0]
    west_pt, east_pt = west_site.point, east_site.point
    pool = generate_site_pool(west_pt, east_pt, n_sites=400, seed=args.seed)
    west_gw = CandidateSite(
        "gw-west", offset_point(west_pt, east_pt, 0.0008, 0.0), 3.0, 0.0
    )
    east_gw = CandidateSite(
        "gw-east", offset_point(west_pt, east_pt, 0.9992, 0.0), 3.0, 0.0
    )
    try:
        trunk = design_trunk(pool, west_gw, east_gw, budget=args.trunk_budget)
    except DesignError as error:
        print(f"design infeasible: {error}", file=sys.stderr)
        return 2
    bypasses = tuple(
        augment_with_bypasses(trunk, pool, budget=args.bypass_budget)
    )
    west, east = corridor_endpoints(west_pt, east_pt)
    report = evaluate_design(
        NetworkDesign(trunk=trunk, bypasses=bypasses, west=west, east=east)
    )
    bound = latency_lower_bound_ms(west_pt, east_pt)
    print(
        format_table(
            ("Metric", "Value"),
            [
                ("latency", f"{report.latency_ms:.5f} ms (c-bound {bound:.5f})"),
                ("APA", f"{report.apa:.0%}"),
                ("storm survival", f"{report.storm_survival:.0%}"),
                ("towers on path", report.tower_count),
                ("bypass towers", len(bypasses)),
                ("total annual cost", f"{report.total_cost:.1f}"),
            ],
            title=f"Designed {west_site.name}-{east_site.name} network",
        )
    )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.analysis.monitor import diff_corridor

    scenario = _scenario(args)
    diff = diff_corridor(
        scenario.database,
        scenario.corridor,
        args.start,
        args.end,
        licensees=list(scenario.featured_names),
        engine=scenario.engine(),
    )
    print(
        f"{diff.start} -> {diff.end}: {diff.grants} grants, "
        f"{diff.cancellations} cancellations, {diff.terminations} terminations"
    )
    if diff.new_licensees:
        print("new licensees: " + ", ".join(diff.new_licensees))
    if diff.newly_connected:
        print("newly connected: " + ", ".join(diff.newly_connected))
    if diff.newly_disconnected:
        print("newly disconnected: " + ", ".join(diff.newly_disconnected))
    movers = diff.movers
    if movers:
        print(
            format_table(
                ("Network", "before (ms)", "after (ms)", "delta (us)"),
                [
                    (
                        change.licensee,
                        format_latency_ms(change.before_ms),
                        format_latency_ms(change.after_ms),
                        f"{change.delta_us:+.2f}",
                    )
                    for change in movers
                ],
                title="Latency movers",
            )
        )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from repro.serve.payloads import render_payload, search_payload

    scenario = _scenario(args)
    payload = search_payload(
        scenario, args.lat, args.lon, args.radius_m, args.active_on
    )
    if args.format == "json":
        print(render_payload(payload))
        return 0
    rows = [
        (
            row["license_id"],
            row["callsign"],
            row["licensee"],
            row["radio_service"],
            row["station_class"],
        )
        for row in payload["results"]
    ]
    print(
        format_table(
            ("License", "Callsign", "Licensee", "Service", "Class"),
            rows,
            title=f"Licenses within {payload['radius_m']:.0f} m of "
            f"({payload['center']['latitude']:.4f}, "
            f"{payload['center']['longitude']:.4f})",
        )
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    """``cache {stat,gc,clear}`` — inspect / bound / empty the store."""
    import time

    from repro.store import CacheStore

    store = CacheStore(args.cache_dir)
    if args.action == "stat":
        entries = store.stat()
        rows = [
            (
                entry.fingerprint[:16],
                f"{entry.size_bytes:,}",
                dt.datetime.fromtimestamp(
                    entry.mtime_s, tz=dt.timezone.utc
                ).strftime("%Y-%m-%d %H:%M:%S"),
            )
            for entry in entries
        ]
        print(
            format_table(
                ("Fingerprint", "Bytes", "Modified (UTC)"),
                rows,
                title=f"Cache store at {store.cache_dir} "
                f"({len(entries)} entries, "
                f"{sum(e.size_bytes for e in entries):,} bytes)",
            )
        )
        return 0
    if args.action == "gc":
        if args.max_bytes is None and args.max_age_days is None:
            print(
                "cache gc: pass --max-bytes and/or --max-age-days",
                file=sys.stderr,
            )
            return 2
        max_age_s = None
        now_s = None
        if args.max_age_days is not None:
            max_age_s = args.max_age_days * 86400.0
            # Entry ages are mtimes, so the bound is inherently relative
            # to the machine clock; no analysis output ever sees this
            # value.  The store itself takes `now_s` as a parameter and
            # stays clock-free.
            now_s = time.time()  # lint: disable=wall-clock (gc age bounds compare file mtimes against the machine clock by design; never reaches analysis output)
        removed = store.gc(max_bytes=args.max_bytes, max_age_s=max_age_s, now_s=now_s)
        freed = sum(entry.size_bytes for entry in removed)
        print(f"removed {len(removed)} entries ({freed:,} bytes)")
        return 0
    count = store.clear()
    print(f"cleared {count} entries from {store.cache_dir}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import compare_corridors
    from repro.serve.payloads import render_payload

    refs = tuple(args.scenarios) if args.scenarios else None
    rows = compare_corridors(refs)
    if args.format == "json":
        payload = {
            "endpoint": "compare",
            "corridors": [row.as_dict() for row in rows],
        }
        print(render_payload(payload))
        return 0
    print(
        format_table(
            (
                "Scenario",
                "Path",
                "km",
                "c-bound",
                "Best MW network",
                "MW (ms)",
                "fiber (ms)",
                "LEO 550",
                "LEO 300",
            ),
            [
                (
                    row.scenario,
                    f"{row.source}-{row.target}",
                    f"{row.geodesic_km:.0f}",
                    f"{row.cbound_ms:.3f}",
                    row.best_licensee or "(none connected)",
                    format_latency_ms(row.microwave_ms)
                    if row.microwave_ms is not None
                    else "-",
                    f"{row.fiber_ms:.3f}",
                    f"{row.leo_550_ms:.3f}",
                    f"{row.leo_300_ms:.3f}",
                )
                for row in rows
            ],
            title="Hybrid MW / fiber / LEO latency per corridor (one-way)",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import CorridorQueryService, run_server

    service = CorridorQueryService(scenario=_scenario(args), warm=not args.cold)

    def announce(url: str) -> None:
        mode = "cold-per-request baseline" if args.cold else "shared warm engine"
        print(f"serving corridor analytics on {url} ({mode})", flush=True)

    run_server(service, host=args.host, port=args.port, announce=announce)
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve import (
        CorridorQueryService,
        CorridorServer,
        LoadProfile,
        run_load,
    )

    profile = LoadProfile(
        requests=args.requests, clients=args.clients, seed=args.seed
    )
    if args.url:
        report = run_load(args.url, profile)
    else:
        # No URL: boot an in-process server, load it, tear it down.
        service = CorridorQueryService(
            scenario=_scenario(args), warm=not args.cold
        )
        with CorridorServer(service) as server:
            report = run_load(server.url, profile)
    print(report.describe())
    return 1 if report.errors else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        lint_paths,
        load_config,
        registered_rules,
        render_json,
        render_text,
        write_baseline,
    )
    from repro.lint.config import find_project_root

    if args.list_rules:
        for name, rule_cls in sorted(registered_rules().items()):
            print(f"{name:18s} {rule_cls.description}")
        return 0
    config = load_config(root=find_project_root())
    if args.paths and args.paths[0] == "graph":
        return _cmd_lint_graph(args, config)
    cache = None
    if not args.no_cache:
        from repro.lint.flow.cache import FlowCache

        cache = FlowCache(config.root / config.flow_cache_path())
    try:
        result = lint_paths(
            args.paths or None,
            config=config,
            use_baseline=not args.no_baseline,
            cache=cache,
        )
    except FileNotFoundError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.update_baseline:
        baseline_path = config.root / (args.baseline or config.baseline_path)
        write_baseline(
            baseline_path, result.findings + result.baselined
        )
        print(
            f"wrote {len(result.findings) + len(result.baselined)} "
            f"finding(s) to {baseline_path}"
        )
        return 0
    if args.baseline:
        from repro.lint import load_baseline

        baseline = load_baseline(config.root / args.baseline)
        fresh, old = baseline.split(result.findings + result.baselined)
        result.findings, result.baselined = fresh, old
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


def _cmd_lint_graph(args: argparse.Namespace, config) -> int:
    """``hftnetview lint graph``: render the whole-program flow graph."""
    from repro.lint.flow.cache import FlowCache
    from repro.lint.flow.program import build_program_analysis
    from repro.lint.flow.report import (
        render_graph_json,
        render_graph_text,
        render_why,
    )

    cache = (
        None
        if args.no_cache
        else FlowCache(config.root / config.flow_cache_path())
    )
    analysis = build_program_analysis(config, cache=cache)
    if cache is not None:
        cache.save()
    if args.why:
        print(render_why(analysis, args.why))
        return 0
    if args.format == "json":
        print(render_graph_json(analysis, include_effects=args.effects))
    else:
        print(render_graph_text(analysis))
    if args.check_cycles and analysis.graph.import_cycles():
        print("import cycles detected", file=sys.stderr)
        return 1
    return 0


def _obs_parent_parser() -> argparse.ArgumentParser:
    """The observability, execution and persistence flags shared by
    every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument(
        "--trace", metavar="FILE", default=None,
        help="write a JSON-lines span trace of the command to FILE",
    )
    group.add_argument(
        "--metrics", action="store_true",
        help="after the command, print a metrics summary (cache hit "
        "counts, span timings) to stderr",
    )
    execution = parent.add_argument_group("execution")
    execution.add_argument(
        "--scenario", default="paper2020", metavar="NAME[:k=v,...]",
        help="corridor scenario to run against: a registered name "
        "('paper2020', 'europe2020', 'tokyo-singapore') or the "
        "parameterized generator ('synthetic:seed=7,networks=12,...'); "
        "default paper2020",
    )
    execution.add_argument(
        "--no-incremental", action="store_true",
        help="disable incremental snapshot evolution (full active-set "
        "scan per date, the pre-index behaviour; output is byte-"
        "identical either way)",
    )
    execution.add_argument(
        "--kernel", choices=("columnar", "object"), default=None,
        metavar="{columnar,object}",
        help="cold-reconstruction kernel: 'columnar' (flat array-backed "
        "license store, the default) or 'object' (per-object stitching); "
        "output is byte-identical either way",
    )
    persistence = parent.add_argument_group("persistence")
    persistence.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="persist engine caches to a content-addressed on-disk store "
        "under DIR (auto-load on start, checkpoint on exit); also "
        "honoured via $REPRO_CACHE_DIR, defaulting to ~/.cache/repro",
    )
    persistence.add_argument(
        "--no-store", action="store_true",
        help="disable the on-disk store even if $REPRO_CACHE_DIR is set",
    )
    return parent


# lint: disable=transitive-determinism (the `cache gc` subcommand's age
# bound compares entry mtimes against the machine clock by design; that
# single pragma'd time.time() read in _cmd_cache is store maintenance and
# never shapes analysis output — every analysis subcommand stays clock-free)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hftnetview",
        description="Reconstruct and analyse HFT microwave networks "
        "(IMC 2020 reproduction).",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="after the command, print the shared engine's snapshot/route/"
        "geodesic cache statistics to stderr",
    )
    obs_parent = _obs_parent_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_text in (
        ("funnel", _cmd_funnel, "replay the §2.2 scraping funnel"),
        ("table1", _cmd_table1, "connected networks by latency (Table 1)"),
        ("table2", _cmd_table2, "top-3 networks per path (Table 2)"),
        ("table3", _cmd_table3, "per-path APA, NLN vs WH (Table 3)"),
        ("timeline", _cmd_timeline, "Fig 1/2 longitudinal series"),
    ):
        cmd = sub.add_parser(name, help=help_text, parents=[obs_parent])
        cmd.add_argument("--date", type=_parse_date, default=None,
                         help="snapshot date (YYYY-MM-DD; default 2020-04-01)")
        if name == "timeline":
            cmd.add_argument(
                "--step", choices=("paper", "monthly", "weekly"),
                default="paper",
                help="date-grid density: the paper's yearly snapshots "
                "(default) or a dense monthly/weekly grid walked as "
                "successive deltas",
            )
        if name in ("table1", "table3", "timeline"):
            cmd.add_argument(
                "--format", choices=("text", "json"), default="text",
                help="output format: the text table, or the canonical "
                "JSON payload byte-identical to the serve endpoint's "
                "response",
            )
        cmd.set_defaults(func=func)

    export = sub.add_parser(
        "export", help="export a network snapshot", parents=[obs_parent]
    )
    export.add_argument("licensee", help='e.g. "New Line Networks"')
    export.add_argument("--date", type=_parse_date, default=None)
    export.add_argument("--output-dir", default="out")
    export.set_defaults(func=_cmd_export)

    leo = sub.add_parser(
        "leo", help="Fig 5 latency comparison sweep", parents=[obs_parent]
    )
    leo.add_argument("--full", action="store_true", help="print every distance")
    leo.set_defaults(func=_cmd_leo)

    compare = sub.add_parser(
        "compare",
        help="hybrid MW/fiber/LEO latency per registered corridor",
        parents=[obs_parent],
    )
    compare.add_argument(
        "scenarios", nargs="*",
        help="scenario references to compare (default: every concrete "
        "registered scenario)",
    )
    compare.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json uses the canonical payload encoding)",
    )
    compare.set_defaults(func=_cmd_compare)

    entities = sub.add_parser(
        "entities", help="resolve co-owned licensees", parents=[obs_parent]
    )
    entities.add_argument("--date", type=_parse_date, default=None)
    entities.set_defaults(func=_cmd_entities)

    weather = sub.add_parser(
        "weather", help="effective latency under storms", parents=[obs_parent]
    )
    weather.add_argument("--date", type=_parse_date, default=None)
    weather.add_argument("--storms", type=int, default=25)
    weather.set_defaults(func=_cmd_weather)

    stability = sub.add_parser(
        "stability", help="ranking flips under per-tower overhead",
        parents=[obs_parent],
    )
    stability.add_argument("--max-overhead", type=float, default=3.0,
                           help="per-tower overhead range, microseconds")
    stability.set_defaults(func=_cmd_stability)

    design = sub.add_parser(
        "design", help="design a corridor network (§6)", parents=[obs_parent]
    )
    design.add_argument("--trunk-budget", type=float, default=45.0)
    design.add_argument("--bypass-budget", type=float, default=18.0)
    design.add_argument("--seed", type=int, default=3)
    design.set_defaults(func=_cmd_design)

    diff = sub.add_parser(
        "diff", help="corridor changes between two dates", parents=[obs_parent]
    )
    diff.add_argument("start", type=_parse_date, help="YYYY-MM-DD")
    diff.add_argument("end", type=_parse_date, help="YYYY-MM-DD")
    diff.set_defaults(func=_cmd_diff)

    search = sub.add_parser(
        "search", help="geographic license search (§2.1 portal query)",
        parents=[obs_parent],
    )
    search.add_argument("--lat", type=float, default=None,
                        help="center latitude (default: CME)")
    search.add_argument("--lon", type=float, default=None,
                        help="center longitude (default: CME)")
    search.add_argument("--radius-m", type=float, default=None,
                        help="search radius in meters (default: the "
                        "portal's CME radius)")
    search.add_argument("--active-on", type=_parse_date, default=None,
                        help="restrict to licenses active on this date")
    search.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json matches the /search endpoint)",
    )
    search.set_defaults(func=_cmd_search)

    serve = sub.add_parser(
        "serve", help="run the corridor analytics HTTP service",
        parents=[obs_parent],
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8181,
                       help="listening port (0 picks an ephemeral port)")
    serve.add_argument(
        "--cold", action="store_true",
        help="build a fresh engine per request (the benchmark baseline) "
        "instead of sharing one warm engine",
    )
    serve.set_defaults(func=_cmd_serve)

    loadgen = sub.add_parser(
        "loadgen", help="replay a seeded load profile against the service",
        parents=[obs_parent],
    )
    loadgen.add_argument("--url", default=None,
                         help="server to load (default: boot an "
                         "in-process server for the run)")
    loadgen.add_argument("--requests", type=int, default=200)
    loadgen.add_argument("--clients", type=int, default=4)
    loadgen.add_argument("--seed", type=int, default=7,
                         help="request-mix seed (same seed, same sequence)")
    loadgen.add_argument(
        "--cold", action="store_true",
        help="(in-process server only) serve the cold-per-request "
        "baseline instead of the shared warm engine",
    )
    loadgen.set_defaults(func=_cmd_loadgen)

    cache = sub.add_parser(
        "cache", help="inspect or maintain the on-disk cache store",
        parents=[obs_parent],
    )
    cache.add_argument(
        "action", choices=("stat", "gc", "clear"),
        help="stat: list entries; gc: remove entries beyond size/age "
        "bounds; clear: remove everything (quarantine included)",
    )
    cache.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="(gc) keep only the newest entries totalling at most N bytes",
    )
    cache.add_argument(
        "--max-age-days", type=float, default=None, metavar="D",
        help="(gc) remove entries not modified in the last D days",
    )
    cache.set_defaults(func=_cmd_cache)

    lint = sub.add_parser(
        "lint", help="run the project's static-analysis rules",
        parents=[obs_parent],
    )
    lint.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: [tool.repro.lint] "
        "default_paths, i.e. src/repro), or 'graph' to render the "
        "whole-program flow graph",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file overriding the configured one",
    )
    lint.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the committed baseline (show every finding)",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to grandfather the current findings",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="also print baselined findings in the text report",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    lint.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk findings cache (.lint-cache.json); "
        "warm reruns with the cache skip unchanged files",
    )
    lint.add_argument(
        "--effects", action="store_true",
        help="(graph) include per-function direct and transitive effect "
        "summaries in the JSON output",
    )
    lint.add_argument(
        "--check-cycles", action="store_true",
        help="(graph) exit non-zero if the module import graph contains "
        "a cycle",
    )
    lint.add_argument(
        "--why", default=None, metavar="MODULE.FN",
        help="(graph) explain one function: definition site, direct and "
        "transitive effects with call chains, CLI reachability",
    )
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "no_incremental", False):
        # Flip the module default before any engine is constructed: the
        # scenario's shared engine is built lazily on first use, so every
        # consumer inherits full-scan mode.
        from repro.core import engine as engine_mod

        engine_mod.INCREMENTAL_DEFAULT = False
    if getattr(args, "kernel", None):
        # Same pre-construction window as --no-incremental: engines pin
        # their kernel at build time.
        from repro.core import engine as engine_mod

        engine_mod.KERNEL_DEFAULT = args.kernel
    store = None
    if args.command != "cache" and not getattr(args, "no_store", False):
        cache_dir = getattr(args, "cache_dir", None)
        if cache_dir is not None or os.environ.get("REPRO_CACHE_DIR"):
            # Same pre-construction window again: every engine built
            # during the command (the scenario's shared default, serve's
            # warm engine, even ad-hoc ones) attaches to the store and
            # auto-loads its entry; the finally block below checkpoints
            # them all back.
            from repro.core import engine as engine_mod
            from repro.store import CacheStore

            store = CacheStore(cache_dir)
            engine_mod.STORE_DEFAULT = store
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    trace_sink = None
    if trace_path or want_metrics:
        from repro import obs

        sinks = []
        if trace_path:
            trace_sink = obs.JsonLinesSink(Path(trace_path))
            sinks.append(trace_sink)
        obs.enable(sinks=tuple(sinks))
    from repro.scenarios import ScenarioParamError, UnknownScenarioError

    try:
        status = args.func(args)
    except (UnknownScenarioError, ScenarioParamError) as error:
        print(f"scenario error: {error}", file=sys.stderr)
        status = 2
    finally:
        if store is not None:
            # Persist whatever the command learned, then restore the
            # module default so in-process callers (tests invoking
            # main() repeatedly) stay hermetic.
            store.checkpoint_all()
            from repro.core import engine as engine_mod

            engine_mod.STORE_DEFAULT = None
        if trace_path or want_metrics:
            registry = obs.disable()
            if trace_sink is not None:
                trace_sink.close()
                print(f"wrote span trace to {trace_path}", file=sys.stderr)
            if want_metrics and registry is not None:
                print(obs.render_metrics(registry), file=sys.stderr)
    if args.cache_stats:
        # Through the shared resolver: the registry cache hands back the
        # same scenario (and thus the same warm engine) the command body
        # used, so the stats describe the work just done — and compose
        # with --scenario and --cache-dir instead of always describing
        # a throwaway paper2020 engine.
        try:
            print(_scenario(args).engine().stats.describe(), file=sys.stderr)
        except (UnknownScenarioError, ScenarioParamError):
            pass  # the command body already reported the bad reference
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
