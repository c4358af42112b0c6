"""Traced twin of ``hftnetview``: ``python traced.py OUT.json -- ARGS...``.

Runs ``repro.cli.main(ARGS)`` in this fresh process with spans recorded
around calls into each layer's public functions, from outside the
program (nothing is added to ``repro`` itself):

1. times the import of ``repro.cli`` and of the modules the command
   would import on its own (``repro.scenarios``; ``repro.store`` with
   ``--cache-dir``; ``repro.serve`` for ``serve``);
2. wraps the functions in :data:`WRAPPED`, rebinding every ``repro.*``
   module attribute that refers to one, so ``from x import y`` callers
   are caught too;
3. runs ``main(ARGS)`` as the root span ``cli.main`` (``serve`` runs
   until SIGINT);
4. keeps spans in memory and, at exit, writes per-name call counts,
   total and self seconds, the engines' and stores' counters and the
   serve handler's per-call durations to OUT.json.

Geodesy is called millions of times during calibration and stays inside
its callers' spans; its memo hit ratio comes from the engines' stats.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

from plan import Span, self_times

#: (span name, module, attribute path) of every wrapped callable.
WRAPPED = (
    ("scenarios.resolve", "repro.scenarios.registry", "resolve_scenario"),
    ("synth.build", "repro.synth.scenario", "build_scenario"),
    ("synth.calibrate", "repro.synth.generator", "NetworkBuilder.calibrate_trunk"),
    ("synth.calibrate", "repro.synth.generator", "NetworkBuilder.calibrate_branch"),
    ("uls.scrape.detail", "repro.uls.scraper", "UlsScraper.license_detail"),
    ("uls.scrape.search", "repro.uls.scraper", "UlsScraper.geographic_search"),
    ("uls.scrape.search", "repro.uls.scraper", "UlsScraper.licenses_of"),
    ("uls.portal", "repro.uls.portal", "UlsPortal.geographic_search_page"),
    ("uls.portal", "repro.uls.portal", "UlsPortal.name_search_page"),
    ("uls.portal", "repro.uls.portal", "UlsPortal.license_detail_page"),
    ("uls.columnar", "repro.uls.database", "UlsDatabase.columnar_store"),
    ("uls.index", "repro.uls.database", "UlsDatabase.temporal_index"),
    ("core.snapshot", "repro.core.engine", "CorridorEngine.snapshot"),
    ("core.snapshot", "repro.core.engine", "CorridorEngine.snapshot_from_licenses"),
    ("core.route", "repro.core.engine", "CorridorEngine.route"),
    ("core.timeline", "repro.core.engine", "CorridorEngine.timeline"),
    ("metrics.rankings", "repro.metrics.rankings", "rank_connected_networks"),
    ("metrics.apa", "repro.metrics.apa", "apa_percent"),
    ("analysis.table1", "repro.analysis.tables", "table1_connected_networks"),
    ("analysis.timeline", "repro.analysis.figures", "fig1_latency_evolution"),
    ("analysis.timeline", "repro.analysis.figures", "fig2_active_licenses"),
    ("analysis.funnel", "repro.analysis.funnel", "run_scraping_funnel"),
    ("store.load", "repro.store.cachestore", "CacheStore.attach"),
    ("store.load", "repro.store.cachestore", "CacheStore.load_into"),
    ("store.save", "repro.store.cachestore", "CacheStore.save_from"),
    ("store.save", "repro.store.cachestore", "CacheStore.checkpoint_all"),
    ("serve.handle", "repro.serve.service", "CorridorQueryService.handle_http"),
    ("serve.compute", "repro.serve.facade", "EngineFacade.coalesced"),
    ("serve.render", "repro.serve.payloads", "render_payload"),
)


class Recorder:
    """Spans kept in memory: one record list, one open-span stack per thread."""

    def __init__(self) -> None:
        self.records: list[list] = []
        self.scenario_names: list[str] = []
        self.handle_ms: list[float] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.records)
                self.records.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                record = self.records[index]
                record[1], record[2] = start, end
                if name == "serve.handle":
                    self.handle_ms.append((end - start) * 1e3)
                elif name == "synth.build":
                    self.scenario_names.append(str(kwargs.get("name", "paper2020")))

        return traced

    def spans(self) -> list[Span]:
        """Every record as a span; call once every wrapped call returned."""
        with self._lock:
            return [Span(*record) for record in self.records]


def _install(recorder: Recorder) -> None:
    """Wrap every available entry of :data:`WRAPPED` in place."""
    replaced: dict[int, object] = {}
    for name, module_name, attr in WRAPPED:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner_name, _, leaf = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, leaf)
        wrapped = recorder.wrap(name, original)
        setattr(owner, leaf, wrapped)
        if not owner_name:
            replaced[id(original)] = wrapped
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, attr, replaced[id(value)])


def _counters(engines: list, stores: list) -> dict:
    """Engine cache counters (summed over engines) and store state."""
    totals = dict.fromkeys(
        ("snapshot_hits", "snapshot_lookups", "route_hits", "route_lookups",
         "geodesic_hits", "geodesic_lookups", "incremental", "full"), 0
    )
    for engine in engines:
        stats = engine.stats
        for prefix, counter in (
            ("snapshot", stats.snapshot), ("route", stats.route),
            ("geodesic", stats.geodesic),
        ):
            totals[prefix + "_hits"] += counter.hits
            totals[prefix + "_lookups"] += counter.hits + counter.misses
        totals["incremental"] += stats.snapshot_incremental
        totals["full"] += stats.snapshot_full
    store_hits = store_lookups = store_bytes = 0
    for store in stores:
        counts = store.counters()
        store_hits += counts["hits"]
        store_lookups += counts["hits"] + counts["misses"]
        store_bytes += sum(entry.size_bytes for entry in store.stat())
    totals.update(
        store_hits=store_hits, store_lookups=store_lookups, store_bytes=store_bytes
    )
    return totals


def _track_instances(cls) -> list:
    """Record every instance ``cls`` constructs from now on."""
    instances: list = []
    init = cls.__init__

    @functools.wraps(init)
    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        instances.append(self)

    cls.__init__ = tracking
    return instances


def main(argv: list[str]) -> int:
    out_path, separator, *args = argv
    if separator != "--":
        raise SystemExit("usage: traced.py OUT.json -- ARGS...")
    start = time.perf_counter()
    import repro.cli
    import repro.scenarios  # noqa: F401  (every command resolves a scenario)

    if "--cache-dir" in args:
        import repro.store  # noqa: F401
    if args and args[0] == "serve":
        import repro.serve  # noqa: F401
    import_s = time.perf_counter() - start

    recorder = Recorder()
    _install(recorder)
    engines = _track_instances(importlib.import_module("repro.core.engine").CorridorEngine)
    stores = (
        _track_instances(sys.modules["repro.store.cachestore"].CacheStore)
        if "repro.store.cachestore" in sys.modules else []
    )
    root = recorder.wrap("cli.main", repro.cli.main)
    main_start = time.perf_counter()
    status = root(args)
    main_s = time.perf_counter() - main_start
    sys.stdout.flush()

    spans = recorder.spans()
    result = {
        "status": status,
        "import_s": import_s,
        "main_s": main_s,
        "layers": {name: list(v) for name, v in self_times(spans).items()},
        "scenario_builds": recorder.scenario_names,
        "handle_ms": recorder.handle_ms,
        "counters": _counters(engines, stores),
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
