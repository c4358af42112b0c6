"""Incremental lint: warm content-hash cache vs cold full-tree analysis.

The workload is the default ``hftnetview lint`` invocation over the whole
repository — every per-file rule plus the four whole-program flow rules
(shared-state, transitive-determinism, layering, dead-code).  Cold runs
start from an absent cache file, so every file is parsed, summarised and
walked, the program graph is rebuilt, and effects are re-propagated; warm
runs replay per-file findings from the content-hash cache and short-cut
the program stage on the whole-tree fingerprint.

Pinned: warm and cold runs report identical findings/suppression counts
(asserted before any timing), and the warm run is at least ``MIN_SPEEDUP``
faster than the cold one.  Results land in ``benchmarks/output/lint.txt``
and the consolidated ``out/bench/BENCH_PR7.json`` (git-ignored; the
tracked root copy is history).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.lint import lint_paths, load_config
from repro.lint.flow.cache import FlowCache

from conftest import emit

#: The warm (cached) lint must beat the cold lint by this much (the PR's
#: acceptance bar).
MIN_SPEEDUP = 3.0

#: Runs per mode; the best (minimum) wall time of each is compared, the
#: noise-robust estimator for a fixed workload.
TRIALS = 3

REPO_ROOT = Path(__file__).parent.parent

BENCH_JSON = REPO_ROOT / "out" / "bench" / "BENCH_PR7.json"


def _lint_once(config, cache_path: Path):
    cache = FlowCache(cache_path)
    result = lint_paths(config=config, cache=cache)
    cache.save()
    return result


def _best_of(trials, run):
    best = float("inf")
    result = None
    for _ in range(trials):
        start = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_bench_lint_incremental(benchmark, tmp_path, output_dir):
    config = load_config(root=REPO_ROOT)
    cache_path = tmp_path / "lint-cache.json"

    def cold():
        cache_path.unlink(missing_ok=True)
        return _lint_once(config, cache_path)

    def warm():
        return _lint_once(config, cache_path)

    # Equivalence contract FIRST: the cached run must report exactly what
    # the cold run reports before any speed claim means anything.
    cold_result = cold()
    warm_result = warm()
    assert warm_result.findings == cold_result.findings
    assert warm_result.suppressed == cold_result.suppressed
    assert warm_result.files == cold_result.files

    cold_result, cold_s = _best_of(TRIALS, cold)
    warm_result, warm_s = _best_of(TRIALS, warm)
    speedup = cold_s / warm_s
    cache_bytes = cache_path.stat().st_size

    # pytest-benchmark pins the steady state of the warm (cached) lint.
    benchmark(warm)

    record = {
        "bench": "full-tree lint, warm content-hash cache vs cold",
        "files": len(cold_result.files),
        "findings": len(cold_result.findings),
        "suppressed": cold_result.suppressed,
        "trials": TRIALS,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(speedup, 2),
        "cache_bytes": cache_bytes,
    }
    BENCH_JSON.parent.mkdir(parents=True, exist_ok=True)
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    lines = [
        f"full-tree lint · {len(cold_result.files)} files · all per-file + "
        f"program rules · best of {TRIALS}",
        "",
        f"{'mode':22s} {'wall':>10s} {'speedup':>9s}",
        f"{'cold (no cache)':22s} {cold_s * 1e3:8.1f}ms {'1.00x':>9s}",
        f"{'warm (cached)':22s} {warm_s * 1e3:8.1f}ms {speedup:8.2f}x",
        "",
        f"cache file: {cache_bytes / 1024:.0f} KiB "
        f"(per-file findings + pragmas + flow summaries, keyed by content "
        f"hash and rule-config fingerprint)",
        "",
        "cold parses every file, extracts per-function effect summaries,",
        "builds the whole-program call graph and propagates effects to",
        "fixpoint; warm replays per-file findings from the cache and skips",
        "the program stage entirely when the tree fingerprint matches.",
        "findings are identical in both modes (asserted above; the",
        "warm-vs-cold diff is also gated in scripts/check.sh).",
    ]
    emit(output_dir, "lint.txt", "\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"warm lint only {speedup:.2f}x faster than cold "
        f"({cold_s * 1e3:.1f} ms -> {warm_s * 1e3:.1f} ms)"
    )
