"""Cold start with a persistent store vs a truly cold start (the PR 9 bar).

The workload is a "process boot": construct a :class:`CorridorEngine`
over the paper scenario and answer the full snapshot/route sweep a
driver like ``table1`` performs — every connected network's snapshot and
best CME→NY4 route on the paper grid.  Truly cold pays the whole
reconstruction; cold-with-store pays one ``pickle.loads`` of the entry a
previous run published (engine construction is inside the timed region,
because that is where the store loads).

Scenario calibration (building the synthetic ULS database) is *outside*
both timed regions — it dominates CLI wall time and the store neither
can nor should accelerate it; the store's job is the engine work.

Pinned: the store-warmed boot answers the sweep byte-identically to the
cold rebuild (asserted before any timing), and is at least
``MIN_SPEEDUP`` faster.  Results land in ``benchmarks/output/store.txt``
and the consolidated ``out/bench/BENCH_PR9.json`` (git-ignored; the
tracked root copy is history).
"""

from __future__ import annotations

import datetime as dt
import json
import time
from pathlib import Path

from repro.core.engine import CorridorEngine
from repro.store import CacheStore

from conftest import emit

#: A store-warmed boot must beat the truly cold boot by this much (the
#: PR's acceptance bar).
MIN_SPEEDUP = 3.0

#: Boots per mode; best (minimum) wall time wins, the noise-robust
#: estimator for a fixed workload.
TRIALS = 3

#: The quarterly evolution grid the timeline driver sweeps (denser than
#: the annual paper endpoints, so snapshot work dominates the fixed
#: engine-construction overhead both modes share).
DATES = tuple(
    dt.date(year, month, 1)
    for year in range(2016, 2021)
    for month in (1, 4, 7, 10)
    if (year, month) <= (2020, 4)
)

BENCH_JSON = Path(__file__).parent.parent / "out" / "bench" / "BENCH_PR9.json"


def _boot_and_sweep(scenario, store):
    """One process boot: fresh engine (store-attached or not) + sweep."""
    engine = CorridorEngine(scenario.database, scenario.corridor, store=store)
    results = []
    for name in scenario.connected_names:
        for date in DATES:
            results.append(repr(engine.snapshot(name, date)))
        results.append(
            repr(engine.route(name, scenario.snapshot_date, "CME", "NY4"))
        )
    return engine, results


def _best_of(trials, scenario, store):
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        _boot_and_sweep(scenario, store)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_store_warm_boot_vs_cold(
    benchmark, scenario, output_dir, tmp_path
):
    store = CacheStore(tmp_path)

    # Publish the entry the warmed boots will load, exactly as a prior
    # `--cache-dir` run would have.
    seed_engine, cold_results = _boot_and_sweep(scenario, store)
    seed_engine.checkpoint()
    entry = store.stat()[0]

    # Equivalence contract FIRST: a store-warmed boot answers the whole
    # sweep byte-identically to the cold rebuild, without a single
    # snapshot rebuild (misses stay zero).
    warmed_engine, warmed_results = _boot_and_sweep(scenario, store)
    assert warmed_results == cold_results
    assert warmed_engine.stats.snapshot.misses == 0

    cold_s = _best_of(TRIALS, scenario, False)
    warm_s = _best_of(TRIALS, scenario, store)
    speedup = cold_s / warm_s

    # pytest-benchmark pins the steady state of the store-warmed boot.
    benchmark(_boot_and_sweep, scenario, store)

    record = {
        "bench": "engine boot + driver sweep, store-warmed vs truly cold",
        "networks": len(scenario.connected_names),
        "dates": len(DATES),
        "trials": TRIALS,
        "entry_bytes": entry.size_bytes,
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "speedup": round(speedup, 2),
    }
    BENCH_JSON.parent.mkdir(parents=True, exist_ok=True)
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    lines = [
        f"engine boot + sweep · {len(scenario.connected_names)} networks × "
        f"{len(DATES)} dates · best of {TRIALS}",
        "",
        f"{'boot mode':22s} {'wall':>10s} {'speedup':>9s}",
        f"{'truly cold':22s} {cold_s * 1e3:8.1f}ms {'1.00x':>9s}",
        f"{'cold with store':22s} {warm_s * 1e3:8.1f}ms {speedup:8.2f}x",
        "",
        f"store entry: {entry.size_bytes / 1024:.0f} KiB "
        f"({entry.fingerprint[:16]}…)",
        "",
        "the truly cold boot re-stitches every network snapshot from the",
        "ULS database; the store-warmed boot unpickles one content-",
        "addressed entry published by the previous run and answers the",
        "same sweep byte-identically (asserted above, diff-gated across",
        "CLI modes in scripts/check.sh).",
    ]
    emit(output_dir, "store.txt", "\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"store-warmed boot only {speedup:.2f}x faster than truly cold "
        f"({cold_s * 1e3:.1f} ms -> {warm_s * 1e3:.1f} ms)"
    )
