"""Dense timeline replay: incremental snapshot evolution vs full rescans.

The workload is the dense monthly 2013–2020 Fig-1 grid (88 dates) for the
five featured licensees — the corridor-monitoring loop a production
pipeline replays constantly.  Both engines are warmed once (every network
stitched, every route cached), so the measured difference is pure
resolution cost: the incremental engine answers each point with a cursor
diff (a bisect over the licensee's temporal index) while the full engine
re-scans every filing of the licensee to recompute the active-set
fingerprint, exactly as the pre-index pipeline did.

Pinned: the two engines produce element-wise identical timelines, and the
incremental replay is at least ``MIN_SPEEDUP`` faster warm.  Results land
in ``benchmarks/output/timeline_incremental.txt`` and the consolidated
``out/bench/BENCH_PR5.json`` (git-ignored; the tracked root copy is
history).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.engine import CorridorEngine
from repro.core.timeline import dense_date_grid

from conftest import emit

#: Warm incremental replays must beat warm full-rescan replays by this much.
MIN_SPEEDUP = 3.0

REPLAYS = 5

BENCH_JSON = Path(__file__).parent.parent / "out" / "bench" / "BENCH_PR5.json"


def _replay(engine, names, dates):
    return tuple(
        tuple(point.latency_ms for point in engine.timeline(name, dates))
        for name in names
    )


def _time_replays(engine, names, dates):
    start = time.perf_counter()
    for _ in range(REPLAYS):
        result = _replay(engine, names, dates)
    return result, time.perf_counter() - start


def test_bench_timeline_incremental(benchmark, scenario, output_dir):
    names = scenario.featured_names
    dates = dense_date_grid("monthly")

    incremental = CorridorEngine(
        scenario.database, scenario.corridor, incremental=True
    )
    full = CorridorEngine(
        scenario.database, scenario.corridor, incremental=False
    )
    # Cold pass: stitch every network, fill both engines' caches.
    _replay(incremental, names, dates)
    _replay(full, names, dates)

    incremental_result, incremental_s = _time_replays(incremental, names, dates)
    full_result, full_s = _time_replays(full, names, dates)

    # Equivalence contract: evolution changes wall time, never a value.
    assert incremental_result == full_result

    # pytest-benchmark pins the steady state of the incremental replay.
    benchmark(_replay, incremental, names, dates)

    speedup = full_s / incremental_s
    stats = incremental.stats
    points = len(names) * len(dates)

    record = {
        "bench": "warm dense timeline, incremental vs full rescan",
        "replays": REPLAYS,
        "licensees": len(names),
        "dates": len(dates),
        "grid": "monthly 2013-01..2020-04",
        "full_s": round(full_s, 4),
        "incremental_s": round(incremental_s, 4),
        "speedup": round(speedup, 2),
        "incremental_share": round(stats.incremental_share, 4),
        "index_events": stats.index_events,
    }
    BENCH_JSON.parent.mkdir(parents=True, exist_ok=True)
    BENCH_JSON.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    lines = [
        f"warm dense timeline · {REPLAYS} replays · "
        f"{len(names)} licensees x {len(dates)} monthly dates "
        f"({points} points/replay)",
        "",
        f"{'mode':22s} {'wall':>10s} {'speedup':>9s}",
        f"{'full rescan':22s} {full_s * 1e3:8.1f}ms {'1.00x':>9s}",
        f"{'incremental cursors':22s} {incremental_s * 1e3:8.1f}ms "
        f"{speedup:8.2f}x",
        "",
        f"incremental resolutions: {stats.snapshot_incremental} "
        f"({stats.incremental_share:.1%} of {stats.snapshot_incremental + stats.snapshot_full}) · "
        f"temporal-index events: {stats.index_events}",
        "",
        "full mode recomputes the active-set fingerprint by scanning every",
        "filing of the licensee at every point; incremental mode evolves a",
        "per-licensee cursor through the temporal index, so an eventless",
        "month costs one bisect and reuses the cached network outright.",
    ]
    emit(output_dir, "timeline_incremental.txt", "\n".join(lines))

    assert stats.incremental_share > 0.80
    assert speedup >= MIN_SPEEDUP, (
        f"incremental replay only {speedup:.2f}x faster than full rescan "
        f"({full_s * 1e3:.1f} ms -> {incremental_s * 1e3:.1f} ms)"
    )
