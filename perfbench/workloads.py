"""The workloads.

* ``cli-cold`` / ``cli-warm``: whole passes of fresh CLI processes
  (``table1``, ``timeline --step monthly``, ``funnel`` once each, seeded
  order), with no store, or with a private store filled during set-up.
* ``serve-read``: one ``serve --port 0`` process under the open-loop
  read mix.

Each returns an :class:`Outcome`; ``run.py`` turns it into the result
line.  Outputs are checked after the timed window, never in it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import loadgen
import plan
from procs import (
    BenchError,
    Finished,
    Server,
    compile_bytecode,
    program_env,
    run_command,
)

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
TRACED = HERE / "traced.py"
REFERENCE = HERE / "reference.py"

#: Set-up repeats bytecode compilation this many times and reports the
#: median, so one slow compile does not move ``setup_s``.
COMPILE_REPEATS = 5

#: Serve: the fixed open-loop reference rate, held for the whole window
#: (500 requests in the default 20 s).  On a two-CPU host a read takes
#: about 10 ms on average when sent alone, so the server is about a
#: quarter busy.  At 40/s a spell of host slowdown turned queueing on and
#: p50 ranged from 19 to 61 ms over seven runs; at 60/s it reached 100 ms.
REFERENCE_RATE = 25.0

#: Serve: the tail percentile the traced run reports, the highest whole
#: percentile that leaves ten samples beyond it in 20 s at the rate above.
TAIL_PERCENT = 98


@dataclass
class Context:
    root: Path
    private: Path
    seed: int
    seconds: float
    trace: bool

    def __post_init__(self) -> None:
        self.env = program_env(self.root, self.private)
        self.log = self.private / "program-stderr.log"


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)


def _median_compile(ctx: Context) -> float:
    return statistics.median(compile_bytecode(ctx.root) for _ in range(COMPILE_REPEATS))


def _layer_seconds(layers: dict, *names: str) -> float:
    return sum(layers.get(name, (0, 0.0, 0.0))[2] for name in names)


def _layer_calls(layers: dict, name: str) -> int:
    return layers.get(name, (0, 0.0, 0.0))[0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _expected(label: str) -> bytes:
    return (EXPECTED / f"{label}.txt").read_bytes()


def cli_workload(ctx: Context, warm: bool) -> Outcome:
    setup = _median_compile(ctx)
    store = ctx.private / "store"
    extra = ["--cache-dir", str(store)] if warm else []
    failures: list[str] = []
    attempted = 0

    def check(label: str, finished) -> None:
        nonlocal attempted
        attempted += 1
        if finished.returncode != 0 or finished.stdout != _expected(label):
            failures.append(f"{label}: rc={finished.returncode}")

    if warm:
        start = time.perf_counter()
        for label, argv in plan.CLI_COMMANDS.items():
            check(label, run_command(
                [sys.executable, "-m", "repro", *argv, *extra], ctx.env, ctx.root, ctx.log
            ))
        setup += time.perf_counter() - start

    plain: list[tuple[str, Finished]] = []
    traced: list[tuple[str, Finished, dict]] = []

    def run_one(label: str) -> Finished:
        argv = plan.CLI_COMMANDS[label]
        finished = run_command(
            [sys.executable, "-m", "repro", *argv, *extra], ctx.env, ctx.root, ctx.log
        )
        plain.append((label, finished))
        if ctx.trace:
            out = ctx.private / "trace.json"
            twin = run_command(
                [sys.executable, str(TRACED), str(out), "--", *argv, *extra],
                ctx.env, ctx.root, ctx.log,
            )
            report = json.loads(out.read_text()) if twin.returncode == 0 else {}
            traced.append((label, twin, report))
        return finished

    passes = plan.run_passes(ctx.seed, ctx.seconds, run_one, time.perf_counter)
    pass_walls = [sum(f.wall_s for _, f in one) for one in passes]

    for label, finished in plain:
        check(label, finished)
    for label, twin, _ in traced:
        check(label, twin)
    if not warm and any((ctx.private / "home").iterdir()):
        raise BenchError("a program process wrote under its private HOME")

    pass_cpus = [sum(f.cpu_s for _, f in one) for one in passes]
    rss = max(finished.maxrss_mb for _, finished in plain)
    outcome = Outcome(attempted, len(failures))
    outcome.lines += [f"check failed: {text}" for text in failures]
    outcome.lines.append(
        f"{len(passes)} passes, {len(plain)} commands; pass wall / CPU seconds "
        + ", ".join(f"{w:.3f}/{c:.3f}" for w, c in zip(pass_walls, pass_cpus))
    )
    if not ctx.trace:
        outcome.metrics = {
            "pass_cpu_s": (statistics.median(pass_cpus), "s"),
            "success_rate": (_ratio(attempted - len(failures), attempted), "ratio"),
            "peak_rss_mb": (rss, "MB"),
            "setup_s": (setup, "s"),
        }
        return outcome
    outcome.metrics = _cli_layers(plain, traced, outcome.lines)
    outcome.metrics["wall.pass_s"] = (statistics.median(pass_walls), "s")
    return outcome


def _cli_layers(plain, traced, lines: list[str]) -> dict:
    """Per-layer metrics for the CLI: seconds and calls per pass (summed
    over a pass's three traced processes, averaged over traced passes),
    cache ratios pooled over every traced process."""
    per_label: dict[str, list[float]] = {}
    for label, finished in plain:
        per_label.setdefault(label, []).append(finished.wall_s)
    passes = max(1, len(traced) // len(plan.CLI_COMMANDS))
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, int] = {}
    distinct_builds = builds = 0
    lines.append("traced accounting, seconds (import + layer self times + untraced = wall):")
    for label, twin, report in traced:
        if not report:
            continue
        layers = report["layers"]
        row = {
            "import.s": report["import_s"],
            "untraced.s": twin.wall_s - report["import_s"] - report["main_s"],
        }
        for metric, names in LAYER_SECONDS.items():
            row[metric] = _layer_seconds(layers, *names)
        for metric, value in row.items():
            totals[metric] = totals.get(metric, 0.0) + value
        for metric, name in LAYER_CALLS.items():
            calls[metric] = calls.get(metric, 0) + _layer_calls(layers, name)
        for key, value in report["counters"].items():
            counters[key] = counters.get(key, 0) + value
        # One store is shared by every process of the run: its size at
        # the end is the latest process's reading, not a sum.
        counters["store_bytes"] = report["counters"]["store_bytes"]
        distinct_builds += len(set(report["scenario_builds"]))
        builds += len(report["scenario_builds"])
        lines.append(
            f"  {label:16s} wall {twin.wall_s:.3f} = "
            + " + ".join(f"{k} {v:.3f}" for k, v in row.items() if v)
            + f"  (sum {sum(row.values()):.3f})"
        )
    plain_pass = sum(statistics.median(v) for v in per_label.values())
    traced_pass = sum(twin.wall_s for _, twin, _ in traced) / passes
    metrics = {name: (value / passes, "s") for name, value in totals.items()}
    metrics.update({name: (calls.get(name, 0) / passes, "count") for name in LAYER_CALLS})
    for label in plan.CLI_COMMANDS:
        metrics[f"cmd.{label}.s"] = (statistics.median(per_label[label]), "s")
    metrics.update(_cache_ratios(counters, distinct_builds, builds))
    metrics.update(_serve_zero())
    metrics["trace.overhead_pct"] = (_ratio(traced_pass - plain_pass, plain_pass) * 100, "%")
    return metrics


#: Per-layer seconds: metric -> span names whose self times it sums.
LAYER_SECONDS = {
    "cli.self_s": ("cli.main",),
    "scenarios.resolve.s": ("scenarios.resolve",),
    "synth.build.s": ("synth.build",),
    "synth.calibrate.s": ("synth.calibrate",),
    "uls.scrape.s": ("uls.scrape.detail", "uls.scrape.search"),
    "uls.portal.s": ("uls.portal",),
    "uls.columnar.s": ("uls.columnar",),
    "uls.index.s": ("uls.index",),
    "core.snapshot.s": ("core.snapshot",),
    "core.route.s": ("core.route",),
    "core.timeline.s": ("core.timeline",),
    "metrics.rankings.s": ("metrics.rankings",),
    "metrics.apa.s": ("metrics.apa",),
    "analysis.table1.self_s": ("analysis.table1",),
    "analysis.timeline.self_s": ("analysis.timeline",),
    "analysis.funnel.self_s": ("analysis.funnel",),
    "store.load.s": ("store.load",),
    "store.save.s": ("store.save",),
}

#: Per-layer call counts: metric -> span name.
LAYER_CALLS = {
    "scenarios.resolve.calls": "scenarios.resolve",
    "synth.build.calls": "synth.build",
    "synth.calibrate.calls": "synth.calibrate",
    "uls.scrape.pages": "uls.scrape.detail",
    "core.snapshot.calls": "core.snapshot",
}


def _cache_ratios(counters: dict, distinct_builds: int, builds: int) -> dict:
    c = counters
    return {
        "core.snapshot.hit_ratio": (_ratio(c.get("snapshot_hits", 0), c.get("snapshot_lookups", 0)), "ratio"),
        "core.snapshot.incremental_share": (
            _ratio(c.get("incremental", 0), c.get("incremental", 0) + c.get("full", 0)), "ratio"),
        "core.route.hit_ratio": (_ratio(c.get("route_hits", 0), c.get("route_lookups", 0)), "ratio"),
        "geodesy.memo.hit_ratio": (_ratio(c.get("geodesic_hits", 0), c.get("geodesic_lookups", 0)), "ratio"),
        "store.hit_ratio": (_ratio(c.get("store_hits", 0), c.get("store_lookups", 0)), "ratio"),
        "store.bytes": (float(c.get("store_bytes", 0)), "bytes"),
        "synth.build.useful_ratio": (_ratio(distinct_builds, builds), "ratio"),
    }


def _serve_zero() -> dict:
    """The serve-only per-layer metrics, which read zero on the CLI."""
    return {
        "gen.late_p98_ms": (0.0, "ms"),
        "serve.handle.p50_ms": (0.0, "ms"),
        "serve.handle.p98_ms": (0.0, "ms"),
        "serve.client.p50_ms": (0.0, "ms"),
        "serve.client.p98_ms": (0.0, "ms"),
        "serve.compute.ms": (0.0, "ms"),
        "serve.render.ms": (0.0, "ms"),
        "serve.http.ms": (0.0, "ms"),
        "serve.body_cache.hit_ratio": (0.0, "ratio"),
        "serve.coalesce.followers": (0.0, "count"),
        "serve.scenarios.hosted": (0.0, "count"),
    }


# ----------------------------------------------------------------------
# Serve
# ----------------------------------------------------------------------


def _boot(ctx: Context, traced: bool) -> tuple[Server, float, int]:
    """Start a server and send it :func:`plan.warmup_urls` one at a time
    (which builds every concrete scenario); returns (server, seconds,
    failed warm-up requests)."""
    start = time.perf_counter()
    args = ("serve", "--port", "0")
    argv = (
        [sys.executable, str(TRACED), str(ctx.private / "serve-trace.json"), "--", *args]
        if traced else [sys.executable, "-m", "repro", *args]
    )
    server = Server(argv, ctx.env, ctx.root, ctx.log)
    failed = 0
    try:
        url = server.wait_ready()
        for target in plan.warmup_urls():
            status, _ = loadgen.fetch(url, target)
            failed += status != 200
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start, failed


class _Reference:
    """The reference process: started in set-up (its scenario builds
    overlap the server's), fed the served URLs after the window."""

    def __init__(self, ctx: Context) -> None:
        self._errors = open(ctx.log, "ab")
        self._proc = subprocess.Popen(
            [sys.executable, str(REFERENCE)], cwd=ctx.root, env=ctx.env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._errors,
        )

    def mismatches(self, samples: list) -> int:
        """Samples whose status or body differs from the reference."""
        urls = sorted({s.request.url for s in samples})
        try:
            out, _ = self._proc.communicate(json.dumps(urls).encode(), timeout=150)
        finally:
            self.close()
        if self._proc.returncode != 0:
            raise BenchError("reference computation failed")
        reference = json.loads(out)
        return sum(
            s.status != 200 or reference[s.request.url] != [200, s.sha256] for s in samples
        )

    def close(self) -> None:
        if self._proc.returncode is None:
            self._proc.kill()
            self._proc.wait()
        self._errors.close()


def serve_workload(ctx: Context) -> Outcome:
    reference = _Reference(ctx)
    try:
        setup = _median_compile(ctx)
        requests = plan.request_plan(ctx.seed, round(REFERENCE_RATE * ctx.seconds))
        if ctx.trace:
            return _serve_traced(ctx, reference, requests)
        server, boot_s, failed = _boot(ctx, traced=False)
        setup += boot_s
        try:
            before = server.cpu_seconds()
            samples = loadgen.open_loop(server.url, requests, REFERENCE_RATE)
            cpu = server.cpu_seconds() - before
        finally:
            rss = server.stop()
        failed += reference.mismatches(samples)
    finally:
        reference.close()

    attempted = len(samples) + len(plan.warmup_urls())
    outcome = Outcome(attempted, failed)
    outcome.lines.append(
        f"{len(samples)} requests at {REFERENCE_RATE:g}/s; server CPU {cpu:.2f} s, "
        f"p50 {plan.nearest_rank([s.latency_ms for s in samples], 50):.2f} ms, "
        f"read-pass latency {_pass_seconds(samples):.4f} s"
    )
    outcome.metrics = {
        # Server CPU per read pass: the window's CPU spread over its requests.
        "pass_cpu_s": (cpu / len(samples) * len(plan.READ_KINDS), "s"),
        "success_rate": (_ratio(attempted - failed, attempted), "ratio"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup, "s"),
    }
    return outcome


def _pass_seconds(samples: list) -> float:
    """Median over complete read passes of the pass's summed latency."""
    passes: dict[int, list[float]] = {}
    for sample in samples:
        passes.setdefault(sample.request.pass_no, []).append(sample.latency_ms / 1e3)
    whole = [sum(v) for v in passes.values() if len(v) == len(plan.READ_KINDS)]
    return statistics.median(whole)


def _serve_traced(ctx: Context, reference: _Reference, requests: list) -> Outcome:
    """The reference phase on a plain server, then on the traced twin."""
    server, _, failed = _boot(ctx, traced=False)
    try:
        plain = loadgen.open_loop(server.url, requests, REFERENCE_RATE)
    finally:
        server.stop()
    server, _, warm_failed = _boot(ctx, traced=True)
    failed += warm_failed
    try:
        traced = loadgen.open_loop(server.url, requests, REFERENCE_RATE)
        stats = json.loads(loadgen.fetch(server.url, "/stats")[1])
    finally:
        server.stop()
    report = json.loads((ctx.private / "serve-trace.json").read_text())
    failed += reference.mismatches(plain + traced)
    attempted = len(plain) + len(traced) + 2 * len(plan.warmup_urls())

    layers = report["layers"]
    metrics: dict[str, tuple[float, str]] = {
        "import.s": (report["import_s"], "s"),
        "untraced.s": (0.0, "s"),
    }
    for metric, names in LAYER_SECONDS.items():
        metrics[metric] = (_layer_seconds(layers, *names), "s")
    # The serve command's main thread only waits for SIGINT: its self
    # time is idle, not CLI work.
    metrics["cli.self_s"] = (0.0, "s")
    for metric, name in LAYER_CALLS.items():
        metrics[metric] = (float(_layer_calls(layers, name)), "count")
    for label in plan.CLI_COMMANDS:
        metrics[f"cmd.{label}.s"] = (0.0, "s")
    builds = report["scenario_builds"]
    metrics.update(_cache_ratios(report["counters"], len(set(builds)), len(builds)))

    handle = report["handle_ms"]
    if not plan.tail_supported(len(plain), TAIL_PERCENT):
        raise BenchError(f"{len(plain)} requests are too few for p{TAIL_PERCENT}")
    scenarios = stats["scenarios"]
    hits = sum(v["body_cache"]["hits"] for v in scenarios.values())
    lookups = hits + sum(v["body_cache"]["misses"] for v in scenarios.values())
    hosted = {v["scenario"]: v for v in scenarios.values()}
    plain_p50 = plan.nearest_rank([s.latency_ms for s in plain], 50)
    metrics["wall.pass_s"] = (_pass_seconds(plain), "s")
    metrics["serve.client.p50_ms"] = (plain_p50, "ms")
    traced_p50 = plan.nearest_rank([s.latency_ms for s in traced], 50)

    def per_call_ms(name: str) -> float:
        calls, total, _ = layers.get(name, (0, 0.0, 0.0))
        return _ratio(total, calls) * 1e3

    metrics.update({
        "serve.handle.p50_ms": (plan.nearest_rank(handle, 50), "ms"),
        "serve.handle.p98_ms": (plan.nearest_rank(handle, TAIL_PERCENT), "ms"),
        "serve.client.p98_ms": (
            plan.nearest_rank([s.latency_ms for s in plain], TAIL_PERCENT), "ms"),
        "serve.compute.ms": (per_call_ms("serve.compute"), "ms"),
        "serve.render.ms": (per_call_ms("serve.render"), "ms"),
        "serve.http.ms": (
            statistics.median([s.service_ms for s in traced]) - plan.nearest_rank(handle, 50), "ms"),
        "serve.body_cache.hit_ratio": (_ratio(hits, lookups), "ratio"),
        "serve.coalesce.followers": (
            float(sum(v["facade"]["coalesce_follower"] for v in hosted.values())), "count"),
        "serve.scenarios.hosted": (float(len(hosted)), "count"),
        "gen.late_p98_ms": (
            plan.nearest_rank([s.late_ms for s in plain], TAIL_PERCENT), "ms"),
        "trace.overhead_pct": (_ratio(traced_p50 - plain_p50, plain_p50) * 100, "%"),
    })
    outcome = Outcome(attempted, failed, metrics)
    outcome.lines.append(
        f"plain p50 {plain_p50:.2f} ms, traced p50 {traced_p50:.2f} ms; "
        f"{len(hosted)} scenarios hosted"
    )
    return outcome
