"""Persistent cache store (repro.store): warm starts, cold-identical output.

The store's load-bearing properties, in rough order of importance:

1. **Byte identity** — a store-warmed engine answers every query exactly
   as a cold rebuild would (the store changes speed, never bytes).
2. **Fail cold, never crash** — corrupt, truncated, or stale entries
   degrade to a cold start (with quarantine/counters), no exception.
3. **Invalidation** — any database mutation (generation bump) changes
   the content digest, so stale entries can never warm a changed world.
4. **Atomic publication** — concurrent writers of the same fingerprint
   never produce a torn read.

Plus the integration seams: engine attach/checkpoint, the CLI's
``--cache-dir`` / ``cache {stat,gc,clear}``, and serve's store-warmed
boot and rendered-body cache.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import engine as engine_mod
from repro.core.engine import CorridorEngine, EngineCacheExport
from repro.serve.service import CorridorQueryService
from repro.store import (
    STORE_SCHEMA_VERSION,
    CacheStore,
    store_fingerprint,
)
from repro.store import layout
from repro.uls.database import UlsDatabase

from tests.conftest import make_license

DATES = (dt.date(2016, 1, 1), dt.date(2019, 1, 1), dt.date(2020, 4, 1))


def _engine(scenario, store=False) -> CorridorEngine:
    """A private engine (never the scenario's shared default)."""
    return CorridorEngine(scenario.database, scenario.corridor, store=store)


@pytest.fixture(scope="module")
def populated_store(tmp_path_factory, scenario):
    """A store holding one checkpoint of real snapshot/route work."""
    store = CacheStore(tmp_path_factory.mktemp("store"))
    engine = _engine(scenario, store=store)
    for name in scenario.connected_names:
        for date in DATES:
            engine.snapshot(name, date)
        engine.route(name, scenario.snapshot_date, "CME", "NY4")
    # Also the full /rankings workload, so a restarted server's first
    # request finds everything it needs on disk.
    service = CorridorQueryService(scenario=scenario, engine=engine)
    assert service.handle_url("/rankings")[0] == 200
    engine.checkpoint()
    return store


# ----------------------------------------------------------------------
# Fingerprints and invalidation
# ----------------------------------------------------------------------


class TestFingerprint:
    def test_identical_content_shares_digest_and_fingerprint(self, scenario):
        copy = UlsDatabase(list(scenario.database))
        assert copy.content_digest() == scenario.database.content_digest()

    def test_generation_bump_changes_digest(self, scenario):
        copy = UlsDatabase(list(scenario.database))
        before = copy.content_digest()
        copy.add(make_license(license_id="ZZ9001", licensee="Digest Test LLC"))
        assert copy.content_digest() != before

    def test_params_kernel_and_versions_separate_keys(self):
        base = store_fingerprint("digest", (100.0, "slack"), "columnar")
        assert store_fingerprint("digest", (120.0, "slack"), "columnar") != base
        assert store_fingerprint("digest", (100.0, "slack"), "object") != base
        assert store_fingerprint("other", (100.0, "slack"), "columnar") != base

    def test_engine_fingerprint_tracks_params(self, scenario, tmp_path):
        store = CacheStore(tmp_path)
        engine = _engine(scenario)
        sibling = engine.with_params(stitch_tolerance_m=120.0)
        assert store.fingerprint_for(engine) != store.fingerprint_for(sibling)

    def test_mutated_database_misses_old_entry(self, scenario, tmp_path):
        store = CacheStore(tmp_path)
        copy = UlsDatabase(list(scenario.database))
        warm = CorridorEngine(copy, scenario.corridor, store=store)
        warm.snapshot(scenario.connected_names[0], DATES[-1])
        warm.checkpoint()
        copy.add(make_license(license_id="ZZ9002", licensee="Digest Test LLC"))
        fresh = CorridorEngine(copy, scenario.corridor, store=False)
        assert store.load_into(fresh) is False
        # Attach on the empty store was miss #1; the post-mutation lookup
        # is miss #2 — and never a hit against the pre-mutation entry.
        counters = store.counters()
        assert counters["misses"] == 2
        assert counters["hits"] == 0


# ----------------------------------------------------------------------
# Round-trip byte identity
# ----------------------------------------------------------------------


class TestRoundTrip:
    def test_attach_loads_and_serves_hits(self, scenario, populated_store):
        engine = _engine(scenario, store=populated_store)
        engine.snapshot(scenario.connected_names[0], DATES[-1])
        assert engine.stats.snapshot.hits == 1
        assert engine.stats.snapshot.misses == 0

    @given(
        licensee_index=st.integers(min_value=0, max_value=8),
        date=st.sampled_from(DATES),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_store_warmed_output_equals_cold_rebuild(
        self, scenario, populated_store, licensee_index, date
    ):
        name = scenario.connected_names[
            licensee_index % len(scenario.connected_names)
        ]
        cold = _engine(scenario)
        warmed = _engine(scenario, store=populated_store)
        assert repr(warmed.snapshot(name, date)) == repr(cold.snapshot(name, date))
        assert repr(
            warmed.route(name, date, "CME", "NY4")
        ) == repr(cold.route(name, date, "CME", "NY4"))
        # The warmed engine answered without rebuilding anything the
        # store already held (full-date queries on connected names).
        if date in DATES:
            assert warmed.stats.snapshot.misses == 0

    def test_loaded_export_round_trips(self, scenario, populated_store):
        warm = _engine(scenario, store=populated_store)
        fingerprint = populated_store.fingerprint_for(warm)
        loaded = populated_store.load_export(fingerprint)
        assert isinstance(loaded, EngineCacheExport)
        re_exported = warm.export_cache_state()
        assert dict(loaded.snapshots).keys() == dict(re_exported.snapshots).keys()
        assert dict(loaded.routes).keys() == dict(re_exported.routes).keys()
        assert loaded.cursors == re_exported.cursors


# ----------------------------------------------------------------------
# Corrupt / truncated / stale entries fall back cold
# ----------------------------------------------------------------------


class TestFallbacks:
    def _entry(self, store, scenario):
        engine = _engine(scenario, store=store)
        engine.snapshot(scenario.connected_names[0], DATES[-1])
        path = engine.checkpoint()
        return engine, path

    def test_corrupt_entry_quarantined_and_cold(self, scenario, tmp_path):
        store = CacheStore(tmp_path)
        _, path = self._entry(store, scenario)
        path.write_bytes(b"not a pickle at all")
        fresh = CorridorEngine(scenario.database, scenario.corridor, store=store)
        assert fresh.stats.snapshot.size == 0
        counters = store.counters()
        assert counters["corrupt"] == 1
        assert not path.exists()
        quarantined = list(layout.quarantine_dir(store.cache_dir).iterdir())
        assert len(quarantined) == 1
        # Cold but correct.
        network = fresh.snapshot(scenario.connected_names[0], DATES[-1])
        assert repr(network) == repr(
            _engine(scenario).snapshot(scenario.connected_names[0], DATES[-1])
        )

    def test_truncated_entry_quarantined(self, scenario, tmp_path):
        store = CacheStore(tmp_path)
        _, path = self._entry(store, scenario)
        path.write_bytes(path.read_bytes()[:64])
        assert store.load_export(path.stem) is None
        assert store.counters()["corrupt"] == 1
        assert not path.exists()

    def test_stale_schema_is_miss_not_quarantine(self, tmp_path):
        store = CacheStore(tmp_path)
        payload = pickle.dumps(
            {"schema": STORE_SCHEMA_VERSION - 1, "fingerprint": "f" * 64}
        )
        layout.write_entry(store.cache_dir, "f" * 64, payload)
        assert store.load_export("f" * 64) is None
        counters = store.counters()
        assert counters["stale"] == 1
        assert counters["corrupt"] == 0
        # Left in place for gc to age out, not quarantined.
        assert layout.entry_path(store.cache_dir, "f" * 64).exists()

    def test_foreign_fingerprint_is_stale(self, tmp_path):
        store = CacheStore(tmp_path)
        payload = pickle.dumps(
            {
                "schema": STORE_SCHEMA_VERSION,
                "fingerprint": "b" * 64,
                "export": None,
            }
        )
        layout.write_entry(store.cache_dir, "a" * 64, payload)
        assert store.load_export("a" * 64) is None
        assert store.counters()["stale"] == 1

    def test_wrong_payload_type_is_stale(self, tmp_path):
        store = CacheStore(tmp_path)
        layout.write_entry(store.cache_dir, "c" * 64, pickle.dumps([1, 2, 3]))
        assert store.load_export("c" * 64) is None
        assert store.counters()["stale"] == 1

    def test_missing_entry_is_plain_miss(self, tmp_path):
        store = CacheStore(tmp_path)
        assert store.load_export("d" * 64) is None
        counters = store.counters()
        assert counters["misses"] == 1
        assert counters["corrupt"] == 0
        assert counters["stale"] == 0


# ----------------------------------------------------------------------
# Concurrent writers never corrupt the store
# ----------------------------------------------------------------------

_WRITER_SCRIPT = """
import pickle, sys
from repro.store import layout
from repro.store.fingerprint import STORE_SCHEMA_VERSION

cache_dir, fingerprint, marker = sys.argv[1], sys.argv[2], sys.argv[3]
payload = pickle.dumps(
    {
        "schema": STORE_SCHEMA_VERSION,
        "fingerprint": fingerprint,
        "export": marker * 2000,
    }
)
for _ in range(200):
    layout.write_entry(cache_dir, fingerprint, payload)
"""


class TestConcurrentWriters:
    def test_two_processes_publishing_same_key_never_tear(self, tmp_path):
        fingerprint = "e" * 64
        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        writers = [
            subprocess.Popen(
                [sys.executable, "-c", _WRITER_SCRIPT, str(tmp_path), fingerprint, marker],
                env=env,
                cwd=os.getcwd(),
            )
            for marker in ("A", "B")
        ]
        seen = set()
        try:
            while any(writer.poll() is None for writer in writers):
                data = layout.read_entry(tmp_path, fingerprint)
                if data is None:
                    continue
                # Every observed read is one writer's complete payload —
                # never a torn mix, never a partial pickle.
                payload = pickle.loads(data)
                assert payload["schema"] == STORE_SCHEMA_VERSION
                assert payload["fingerprint"] == fingerprint
                assert payload["export"] in ("A" * 2000, "B" * 2000)
                seen.add(payload["export"][0])
        finally:
            for writer in writers:
                writer.wait(timeout=60)
        assert all(writer.returncode == 0 for writer in writers)
        assert seen  # the reader actually observed published entries
        # No stray temp files left behind.
        assert not [
            p
            for p in layout.entry_dir(tmp_path).iterdir()
            if p.name.startswith(".tmp-")
        ]


# ----------------------------------------------------------------------
# GC bounds
# ----------------------------------------------------------------------


class TestGc:
    def _seed_entries(self, store):
        base = 1_700_000_000.0
        for index, fingerprint in enumerate(("1" * 64, "2" * 64, "3" * 64)):
            path = layout.write_entry(
                store.cache_dir, fingerprint, b"x" * (100 * (index + 1))
            )
            os.utime(path, (base + index * 100, base + index * 100))
        return base

    def test_stat_lists_entries_sorted(self, tmp_path):
        store = CacheStore(tmp_path)
        self._seed_entries(store)
        entries = store.stat()
        assert [e.fingerprint for e in entries] == ["1" * 64, "2" * 64, "3" * 64]
        assert [e.size_bytes for e in entries] == [100, 200, 300]

    def test_gc_age_bound_removes_old_entries(self, tmp_path):
        store = CacheStore(tmp_path)
        base = self._seed_entries(store)
        removed = store.gc(max_age_s=150.0, now_s=base + 250.0)
        assert [e.fingerprint for e in removed] == ["1" * 64]
        assert [e.fingerprint for e in store.stat()] == ["2" * 64, "3" * 64]

    def test_gc_size_bound_keeps_newest(self, tmp_path):
        store = CacheStore(tmp_path)
        self._seed_entries(store)
        # Newest (300 B) fits a 350 B budget; the rest must go.
        removed = store.gc(max_bytes=350)
        assert sorted(e.fingerprint for e in removed) == ["1" * 64, "2" * 64]
        assert [e.fingerprint for e in store.stat()] == ["3" * 64]

    def test_gc_age_requires_now(self, tmp_path):
        store = CacheStore(tmp_path)
        with pytest.raises(ValueError):
            store.gc(max_age_s=10.0)

    def test_clear_removes_everything(self, tmp_path):
        store = CacheStore(tmp_path)
        self._seed_entries(store)
        layout.write_entry(store.cache_dir, "9" * 64, b"not a pickle")
        assert store.load_export("9" * 64) is None  # quarantines it
        assert store.clear() == 3
        assert store.stat() == ()
        assert not list(layout.quarantine_dir(store.cache_dir).glob("*"))


# ----------------------------------------------------------------------
# Engine wiring
# ----------------------------------------------------------------------


class TestEngineWiring:
    def test_store_false_opts_out_of_module_default(self, scenario, tmp_path):
        store = CacheStore(tmp_path)
        engine_mod.STORE_DEFAULT = store
        try:
            defaulted = _engine(scenario, store=None)
            opted_out = _engine(scenario, store=False)
        finally:
            engine_mod.STORE_DEFAULT = None
        assert defaulted.store is store
        assert opted_out.store is None
        assert store.engines() == (defaulted,)

    def test_checkpoint_without_store_is_noop(self, scenario):
        assert _engine(scenario).checkpoint() is None

    def test_with_params_sibling_never_inherits_store(self, scenario, tmp_path):
        engine = _engine(scenario, store=CacheStore(tmp_path))
        assert engine.with_params(stitch_tolerance_m=120.0).store is None

    def test_checkpoint_after_attach_preserves_prior_entries(
        self, scenario, tmp_path
    ):
        store = CacheStore(tmp_path)
        first = _engine(scenario, store=store)
        first.snapshot(scenario.connected_names[0], DATES[0])
        first.checkpoint()
        # A second process/engine doing different work must not wipe the
        # first's entries: it auto-loaded them, so its checkpoint is a
        # superset.
        second = _engine(scenario, store=store)
        second.snapshot(scenario.connected_names[1], DATES[1])
        second.checkpoint()
        third = _engine(scenario, store=CacheStore(tmp_path))
        third.snapshot(scenario.connected_names[0], DATES[0])
        third.snapshot(scenario.connected_names[1], DATES[1])
        assert third.stats.snapshot.misses == 0


# ----------------------------------------------------------------------
# CLI: --cache-dir and `cache {stat,gc,clear}`
# ----------------------------------------------------------------------


class TestCacheCli:
    @staticmethod
    def _reset_default_engine():
        # The paper scenario (and its shared default engine) is
        # lru-cached per process; the store only attaches at engine
        # construction.  Clearing mimics the fresh process each real CLI
        # invocation gets (scripts/check.sh's store gate runs
        # subprocesses; these tests run main() in-process).
        from repro.synth.scenario import paper2020_scenario

        paper2020_scenario.cache_clear()

    @pytest.fixture(autouse=True)
    def _fresh_scenario(self):
        self._reset_default_engine()
        yield
        self._reset_default_engine()

    def test_cache_dir_populates_store_and_output_is_identical(
        self, capsys, tmp_path
    ):
        assert main(["table1"]) == 0
        plain = capsys.readouterr().out
        self._reset_default_engine()
        assert main(["table1", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == plain
        assert len(CacheStore(tmp_path).stat()) == 1
        assert engine_mod.STORE_DEFAULT is None  # restored after the run
        self._reset_default_engine()
        assert main(["table1", "--cache-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == plain

    def test_no_store_disables_env_store(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table1", "--no-store"]) == 0
        capsys.readouterr()
        assert CacheStore(tmp_path).stat() == ()

    def test_cache_stat_gc_clear(self, capsys, tmp_path):
        store_dir = str(tmp_path)
        assert main(["cache", "stat", "--cache-dir", store_dir]) == 0
        assert "0 entries" in capsys.readouterr().out
        assert main(["table1", "--cache-dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stat", "--cache-dir", store_dir]) == 0
        assert "1 entries" in capsys.readouterr().out
        assert main(["cache", "gc", "--cache-dir", store_dir]) == 2
        assert "pass --max-bytes" in capsys.readouterr().err
        assert (
            main(["cache", "gc", "--cache-dir", store_dir, "--max-bytes", "0"])
            == 0
        )
        assert "removed 1 entries" in capsys.readouterr().out
        self._reset_default_engine()
        assert main(["table1", "--cache-dir", store_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", store_dir]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        assert CacheStore(store_dir).stat() == ()

    def test_cache_respects_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["cache", "stat"]) == 0
        assert str(tmp_path) in capsys.readouterr().out


# ----------------------------------------------------------------------
# Serve: store-warmed boot, checkpoint on shutdown, body cache
# ----------------------------------------------------------------------


class TestServeStore:
    def test_restart_serves_first_rankings_from_store(
        self, scenario, populated_store
    ):
        # "Restart": a brand-new engine over the same database, warmed
        # purely from disk.
        engine = _engine(scenario, store=populated_store)
        service = CorridorQueryService(scenario=scenario, engine=engine)
        status, payload = service.handle_url("/rankings")
        assert status == 200
        assert payload["rankings"]
        assert engine.stats.snapshot.misses == 0
        status, stats = service.handle_url("/stats")
        assert status == 200
        assert stats["store"]["hits"] >= 1
        assert stats["store"]["loads"] >= 1

    def test_server_close_checkpoints_store(self, scenario, tmp_path):
        from repro.serve import CorridorServer

        store = CacheStore(tmp_path)
        engine = _engine(scenario, store=store)
        service = CorridorQueryService(scenario=scenario, engine=engine)
        with CorridorServer(service) as server:
            import urllib.request

            with urllib.request.urlopen(server.url + "/healthz") as response:
                assert response.status == 200
        saves = store.counters()["saves"]
        assert saves >= 1
        assert len(store.stat()) == 1


class TestBodyCache:
    def _service(self, scenario):
        copy = UlsDatabase(list(scenario.database))
        engine = CorridorEngine(copy, scenario.corridor, store=False)
        replaced = dataclasses.replace(scenario, database=copy)
        return CorridorQueryService(scenario=replaced, engine=engine), copy

    def test_repeat_request_served_from_body_cache(self, scenario):
        service, _ = self._service(scenario)
        status1, body1 = service.handle_http("/rankings")
        status2, body2 = service.handle_http("/rankings")
        assert (status1, status2) == (200, 200)
        assert body1 == body2
        described = service.bodies.describe()
        assert described["hits"] == 1
        assert described["misses"] == 1
        assert described["entries"] == 1
        # Body hits still count as requests.
        assert service.facade.describe()["facade"]["requests"] == 2

    def test_distinct_params_are_distinct_entries(self, scenario):
        service, _ = self._service(scenario)
        service.handle_http("/rankings")
        service.handle_http("/rankings?date=2019-01-01")
        assert service.bodies.describe()["entries"] == 2

    def test_generation_bump_invalidates_bodies(self, scenario):
        service, database = self._service(scenario)
        service.handle_http("/rankings")
        database.add(
            make_license(license_id="ZZ9003", licensee="Body Cache LLC")
        )
        status, _ = service.handle_http("/rankings")
        assert status == 200
        described = service.bodies.describe()
        assert described["invalidations"] == 1
        assert described["hits"] == 0
        assert described["generation"] == database.generation

    def test_errors_and_live_endpoints_never_cached(self, scenario):
        service, _ = self._service(scenario)
        status, _ = service.handle_http("/rankings?date=nope")
        assert status == 400
        service.handle_http("/rankings?date=nope")
        service.handle_http("/healthz")
        service.handle_http("/stats")
        described = service.bodies.describe()
        assert described["entries"] == 0
        assert described["hits"] == 0

    def test_stats_exposes_body_cache_section(self, serve_service):
        status, payload = serve_service.handle_url("/stats")
        assert status == 200
        assert set(payload["body_cache"]) == {
            "entries",
            "hits",
            "misses",
            "invalidations",
            "generation",
        }

    def test_cold_service_bypasses_body_cache(self, scenario):
        service = CorridorQueryService(scenario=scenario, warm=False)
        status, _ = service.handle_http("/healthz")
        assert status == 200
        assert service._body_key("/rankings") is None
