"""Incremental snapshot evolution: cursor-based resolution must be
indistinguishable from full fingerprint rescans.

The tentpole claims of this layer:

* an incrementally-evolved timeline is element-wise identical to a
  per-date full rebuild (``incremental=False``);
* on dense date grids the vast majority (>80%) of snapshot resolutions
  are served incrementally;
* empty deltas reuse the cached network object outright;
* the CLI's ``--no-incremental`` escape hatch is byte-identical,
  enforced here through real subprocesses.
"""

from __future__ import annotations

import datetime as dt
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.engine import CorridorEngine
from repro.core.timeline import dense_date_grid
from repro.uls.database import UlsDatabase
from tests.conftest import make_license

_LICENSEES = (
    "New Line Networks",
    "Webline Holdings",
    "Jefferson Microwave",
    "Pierce Broadband",
)

MONTHLY = dense_date_grid("monthly")


def _engines(scenario):
    return (
        CorridorEngine(scenario.database, scenario.corridor, incremental=True),
        CorridorEngine(scenario.database, scenario.corridor, incremental=False),
    )


class TestEquivalence:
    def test_timeline_identical_to_full_rebuild(self, scenario):
        incremental, full = _engines(scenario)
        for name in _LICENSEES:
            a = incremental.timeline(name, MONTHLY)
            b = full.timeline(name, MONTHLY)
            assert len(a) == len(b) == len(MONTHLY)
            for pa, pb in zip(a, b):
                assert pa == pb

    def test_fingerprints_agree_with_scan(self, scenario):
        incremental, full = _engines(scenario)
        for name in _LICENSEES:
            for date in MONTHLY[::7]:
                assert incremental.active_fingerprint(
                    name, date
                ) == full.active_fingerprint(name, date)

    def test_snapshot_key_pure_and_mode_invariant(self, scenario):
        incremental, full = _engines(scenario)
        date = dt.date(2018, 6, 1)
        key_i = incremental.snapshot_key("New Line Networks", date)
        key_f = full.snapshot_key("New Line Networks", date)
        assert key_i == key_f
        # snapshot_key is an inspection helper: it must not move the
        # resolution counters or create cursors.
        assert incremental.stats.snapshot_incremental == 0
        assert incremental.stats.snapshot_full == 0


class TestIncrementalShare:
    def test_dense_grid_mostly_incremental(self, scenario):
        engine, _ = _engines(scenario)
        for name in _LICENSEES:
            engine.timeline(name, MONTHLY)
        stats = engine.stats
        total = stats.snapshot_incremental + stats.snapshot_full
        assert total == len(_LICENSEES) * len(MONTHLY)
        # Only the first touch of each licensee resolves fully.
        assert stats.snapshot_full == len(_LICENSEES)
        assert stats.incremental_share > 0.80

    def test_obs_counters_mirror_stats(self, scenario):
        from repro import obs

        engine, _ = _engines(scenario)
        with obs.capture() as captured:
            engine.timeline("New Line Networks", MONTHLY)
        counters = captured.counters()
        assert counters["engine.snapshot.incremental"] == len(MONTHLY) - 1
        assert counters["engine.snapshot.full"] == 1

    def test_full_mode_counts_only_full(self, scenario):
        _, full = _engines(scenario)
        full.timeline("New Line Networks", MONTHLY[:12])
        assert full.stats.snapshot_incremental == 0
        assert full.stats.snapshot_full == 12
        assert full.stats.incremental_share == 0.0


class TestEmptyDeltaReuse:
    def test_unchanged_window_reuses_network_object(self, scenario):
        engine, _ = _engines(scenario)
        name = "New Line Networks"
        # Two dates inside the same constant-active-set interval must hit
        # the same snapshot key and return the identical cached object.
        index = scenario.database.temporal_index(name)
        d1 = dt.date(2018, 3, 5)
        d2 = dt.date(2018, 3, 25)
        assert index.diff(d1, d2).is_empty  # guard: interval really is quiet
        n1 = engine.snapshot(name, d1)
        n2 = engine.snapshot(name, d2)
        # One stitch served both dates: the second call resolved
        # incrementally (empty delta, key reused) and hit the snapshot
        # cache instead of reconstructing.
        assert n2.as_of == d2
        assert n1.towers == n2.towers
        assert list(n1.links) == list(n2.links)
        stats = engine.stats
        assert stats.snapshot.hits == 1
        assert stats.snapshot.misses == 1
        assert stats.snapshot_incremental == 1
        assert stats.snapshot_full == 1

    def test_describe_reports_split_and_events(self, scenario):
        engine, _ = _engines(scenario)
        engine.timeline("New Line Networks", MONTHLY[:6])
        text = engine.stats.describe()
        assert "snapshot resolutions:" in text
        assert "incremental=5" in text
        assert "full=1" in text
        assert "incremental-share=" in text
        assert "temporal index: events=" in text
        assert engine.stats.index_events == scenario.database.temporal_index().event_count


class TestStaleness:
    def test_database_mutation_invalidates_cursors(self):
        db = UlsDatabase(
            [make_license("L1", licensee="Solo", grant=dt.date(2015, 1, 1))]
        )
        from repro.core.corridor import chicago_nj_corridor

        engine = CorridorEngine(db, chicago_nj_corridor(), incremental=True)
        d = dt.date(2016, 1, 1)
        fp1 = engine.active_fingerprint("Solo", d)
        engine.snapshot("Solo", d)
        db.add(make_license("L2", licensee="Solo", grant=dt.date(2015, 6, 1)))
        fp2 = engine.active_fingerprint("Solo", d)
        assert fp1 == {"L1"}
        assert fp2 == {"L1", "L2"}
        # The stale cursor must not be consulted: the post-mutation
        # resolution is a full one under the new generation.
        full_before = engine.stats.snapshot_full
        engine.snapshot("Solo", d)
        assert engine.stats.snapshot_full == full_before + 1
        network = engine.snapshot("Solo", d)
        assert network.tower_count > 0


class TestCursorTransplant:
    def test_export_and_seed_carry_cursors(self, scenario):
        engine, _ = _engines(scenario)
        engine.timeline("New Line Networks", MONTHLY[:10])
        export = engine.export_cache_state()
        assert export.cursors
        (licensee, date, key, generation) = export.cursors[0]
        assert licensee == "New Line Networks"
        assert date == MONTHLY[9]
        assert generation == scenario.database.generation

        sibling = CorridorEngine(
            scenario.database, scenario.corridor, incremental=True
        )
        sibling.seed_cache_state(export)
        # The seeded cursor serves the next resolution incrementally.
        sibling.snapshot("New Line Networks", MONTHLY[10])
        assert sibling.stats.snapshot_full == 0
        assert sibling.stats.snapshot_incremental == 1

    def test_geodesic_only_export_has_no_cursors(self, scenario):
        engine, _ = _engines(scenario)
        engine.timeline("New Line Networks", MONTHLY[:4])
        export = engine.export_cache_state(geodesic_only=True)
        assert export.cursors == ()


class TestWithParams:
    def test_with_params_preserves_mode(self, scenario):
        engine = CorridorEngine(
            scenario.database, scenario.corridor, incremental=False
        )
        derived = engine.with_params(stitch_tolerance_m=5.0)
        assert derived.incremental is False
        derived2 = _engines(scenario)[0].with_params(stitch_tolerance_m=5.0)
        assert derived2.incremental is True


class TestCliByteIdentity:
    """--no-incremental must be invisible in stdout."""

    @staticmethod
    def _run(*extra: str) -> bytes:
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "timeline", *extra],
            capture_output=True,
            env=env,
            cwd=root,
            check=True,
        )
        return result.stdout

    def test_timeline_byte_identical(self):
        base = ("--step", "monthly")
        assert self._run(*base) == self._run(*base, "--no-incremental")
