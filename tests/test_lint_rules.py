"""Per-rule fixture snippets: each rule catches its known violations and
stays quiet on the idioms the codebase actually uses."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint import LintConfig, instantiate, lint_file


def findings_for(
    tmp_path: Path,
    source: str,
    *,
    name: str = "mod.py",
    rules: tuple[str, ...] | None = None,
    rule_options: dict | None = None,
) -> list:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    config = LintConfig(
        root=tmp_path,
        enabled=rules,
        rule_options=rule_options or {},
    )
    return lint_file(path, instantiate(rules), config)


def rule_names(findings) -> list[str]:
    return [finding.rule for finding in findings]


class TestHashSeed:
    def test_hash_seed_in_random_flagged(self, tmp_path):
        source = """
            import random
            rng = random.Random(hash(name) % 10_000)
        """
        assert rule_names(findings_for(tmp_path, source, rules=("hash-seed",))) == [
            "hash-seed"
        ]

    def test_hash_seed_keyword_argument_flagged(self, tmp_path):
        source = """
            import random
            rng = random.Random(x=hash(name))
        """
        assert rule_names(findings_for(tmp_path, source, rules=("hash-seed",))) == [
            "hash-seed"
        ]

    def test_hash_in_seed_call_flagged(self, tmp_path):
        source = """
            rng.seed(hash(key))
        """
        assert rule_names(findings_for(tmp_path, source, rules=("hash-seed",))) == [
            "hash-seed"
        ]

    def test_stable_digest_seed_ok(self, tmp_path):
        source = """
            import random
            import zlib
            rng = random.Random(zlib.crc32(name.encode()) % 10_000)
        """
        assert findings_for(tmp_path, source, rules=("hash-seed",)) == []

    def test_hash_outside_seeding_ok(self, tmp_path):
        source = """
            key = hash((a, b))
        """
        assert findings_for(tmp_path, source, rules=("hash-seed",)) == []


class TestUnseededRng:
    def test_module_level_random_flagged(self, tmp_path):
        source = """
            import random
            x = random.random()
            y = random.randint(1, 6)
            random.shuffle(items)
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("unseeded-rng",))
        ) == ["unseeded-rng"] * 3

    def test_unseeded_random_instance_flagged(self, tmp_path):
        source = """
            import random
            rng = random.Random()
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("unseeded-rng",))
        ) == ["unseeded-rng"]

    def test_seeded_instance_ok(self, tmp_path):
        source = """
            import random
            rng = random.Random(42)
            x = rng.random()
            rng.shuffle(items)
        """
        assert findings_for(tmp_path, source, rules=("unseeded-rng",)) == []


class TestWallClock:
    def test_now_and_today_flagged(self, tmp_path):
        source = """
            import datetime as dt
            a = dt.datetime.now()
            b = dt.date.today()
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("wall-clock",))
        ) == ["wall-clock"] * 2

    def test_time_time_flagged(self, tmp_path):
        source = """
            import time
            t = time.time()
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("wall-clock",))
        ) == ["wall-clock"]

    def test_explicit_dates_ok(self, tmp_path):
        source = """
            import datetime as dt
            snapshot = dt.date(2020, 4, 1)
            parsed = dt.date.fromisoformat("2020-04-01")
        """
        assert findings_for(tmp_path, source, rules=("wall-clock",)) == []

    def test_process_timers_flagged_outside_obs_paths(self, tmp_path):
        source = """
            import time
            a = time.perf_counter()
            b = time.perf_counter_ns()
            c = time.monotonic_ns()
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("wall-clock",))
        ) == ["wall-clock"] * 3

    def test_process_timers_exempt_inside_obs_allowed_paths(self, tmp_path):
        source = """
            import time
            started = time.perf_counter_ns()
        """
        assert (
            findings_for(
                tmp_path,
                source,
                name="src/repro/obs/spans.py",
                rules=("wall-clock",),
                rule_options={
                    "obs-discipline": {"allowed": ["src/repro/obs/"]}
                },
            )
            == []
        )

    def test_absolute_clock_not_exempt_inside_obs_paths(self, tmp_path):
        source = """
            import time
            t = time.time()
        """
        assert rule_names(
            findings_for(
                tmp_path,
                source,
                name="src/repro/obs/spans.py",
                rules=("wall-clock",),
                rule_options={
                    "obs-discipline": {"allowed": ["src/repro/obs/"]}
                },
            )
        ) == ["wall-clock"]


class TestCacheDiscipline:
    OPTIONS = {"cache-discipline": {"allowed": ["allowed/engine.py"]}}

    def test_kernel_construction_flagged_outside_allowed(self, tmp_path):
        source = """
            from repro.core.reconstruction import NetworkReconstructor
            kernel = NetworkReconstructor(corridor)
        """
        findings = findings_for(
            tmp_path, source,
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        )
        assert rule_names(findings) == ["cache-discipline"]
        assert "CorridorEngine" in findings[0].message

    def test_reconstruct_all_call_flagged(self, tmp_path):
        source = """
            from repro.core import reconstruct_all
            networks = reconstruct_all(database, corridor, date)
        """
        assert rule_names(
            findings_for(
                tmp_path, source,
                rules=("cache-discipline",), rule_options=self.OPTIONS,
            )
        ) == ["cache-discipline"]

    def test_allowed_file_is_exempt(self, tmp_path):
        source = """
            kernel = NetworkReconstructor(corridor)
        """
        assert findings_for(
            tmp_path, source, name="allowed/engine.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        ) == []

    def test_annotation_reference_ok(self, tmp_path):
        source = """
            from __future__ import annotations
            from repro.core.reconstruction import NetworkReconstructor

            def f(reconstructor: NetworkReconstructor | None = None) -> None:
                pass
        """
        assert findings_for(
            tmp_path, source,
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        ) == []


class TestActiveOnDiscipline:
    """active_on(...) is confined to the uls layer and the engine."""

    OPTIONS = {
        "cache-discipline": {
            "allowed": ["allowed/engine.py"],
            "active_on_allowed": ["src/repro/uls/", "src/repro/core/engine.py"],
        }
    }

    def test_active_on_flagged_outside_allowed(self, tmp_path):
        source = """
            def count(db, date):
                return len(db.active_on(date))
        """
        findings = findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        )
        assert rule_names(findings) == ["cache-discipline"]
        assert "temporal_index" in findings[0].message

    def test_active_on_allowed_under_uls(self, tmp_path):
        source = """
            def count(db, date):
                return len(db.active_on(date))
        """
        assert findings_for(
            tmp_path, source, name="src/repro/uls/database.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        ) == []

    def test_active_on_allowed_in_engine(self, tmp_path):
        source = """
            def fingerprint(db, date):
                return frozenset(l.license_id for l in db.active_on(date))
        """
        assert findings_for(
            tmp_path, source, name="src/repro/core/engine.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        ) == []

    def test_attribute_reference_without_call_ok(self, tmp_path):
        source = """
            def probe(db):
                return db.active_on  # bound method, not a scan
        """
        assert findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        ) == []

    def test_temporal_index_lookup_ok(self, tmp_path):
        source = """
            def count(db, date):
                return db.temporal_index().active_count_at(date)
        """
        assert findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        ) == []

    def test_default_prefixes_apply_without_options(self, tmp_path):
        source = """
            def count(db, date):
                return len(db.active_on(date))
        """
        findings = findings_for(
            tmp_path, source, name="src/repro/metrics/thing.py",
            rules=("cache-discipline",),
        )
        assert rule_names(findings) == ["cache-discipline"]


class TestColumnarStoreDiscipline:
    """ColumnarLicenseStore(...) is confined to the uls layer and engine."""

    OPTIONS = {
        "cache-discipline": {
            "allowed": ["allowed/engine.py"],
            "columnar_allowed": ["src/repro/uls/", "src/repro/core/engine.py"],
        }
    }

    def test_store_construction_flagged_outside_allowed(self, tmp_path):
        source = """
            from repro.uls import ColumnarLicenseStore

            def fast_path(db):
                return ColumnarLicenseStore({"X": db.licenses_for("X")})
        """
        findings = findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        )
        assert rule_names(findings) == ["cache-discipline"]
        assert "columnar_store()" in findings[0].message

    def test_store_construction_allowed_under_uls(self, tmp_path):
        source = """
            def build(groups, generation):
                return ColumnarLicenseStore(groups, generation=generation)
        """
        assert findings_for(
            tmp_path, source, name="src/repro/uls/database.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        ) == []

    def test_store_construction_allowed_in_engine(self, tmp_path):
        source = """
            def ephemeral(licensee, license_list):
                return ColumnarLicenseStore({licensee: license_list})
        """
        assert findings_for(
            tmp_path, source, name="src/repro/core/engine.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        ) == []

    def test_cached_accessor_ok_anywhere(self, tmp_path):
        source = """
            def fast_path(db):
                return db.columnar_store()
        """
        assert findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        ) == []


class TestPersistentStoreDiscipline:
    """Raw store-layout access is confined to src/repro/store/."""

    OPTIONS = {
        "cache-discipline": {
            "allowed": ["allowed/engine.py"],
            "store_allowed": ["src/repro/store/"],
        }
    }

    def test_write_entry_flagged_outside_store_package(self, tmp_path):
        source = """
            from repro.store.layout import write_entry

            def publish(cache_dir, fingerprint, payload):
                return write_entry(cache_dir, fingerprint, payload)
        """
        findings = findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        )
        assert rule_names(findings) == ["cache-discipline"]
        assert "CacheStore" in findings[0].message

    def test_read_and_quarantine_flagged_outside_store_package(self, tmp_path):
        source = """
            def peek(cache_dir, fingerprint):
                data = read_entry(cache_dir, fingerprint)
                if data is None:
                    quarantine_entry(cache_dir, fingerprint)
                return data
        """
        assert rule_names(
            findings_for(
                tmp_path, source, name="src/repro/serve/service.py",
                rules=("cache-discipline",), rule_options=self.OPTIONS,
            )
        ) == ["cache-discipline"] * 2

    def test_layout_calls_allowed_under_store_package(self, tmp_path):
        source = """
            def load(cache_dir, fingerprint):
                data = read_entry(cache_dir, fingerprint)
                if data is None:
                    quarantine_entry(cache_dir, fingerprint)
                return data
        """
        assert findings_for(
            tmp_path, source, name="src/repro/store/cachestore.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        ) == []

    def test_cachestore_api_ok_anywhere(self, tmp_path):
        source = """
            from repro.store import CacheStore

            def warm(engine, cache_dir):
                store = CacheStore(cache_dir)
                store.load_into(engine)
                return store.save_from(engine)
        """
        assert findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        ) == []

    def test_attribute_reference_without_call_ok(self, tmp_path):
        source = """
            from repro.store import layout

            def probe():
                return layout.write_entry  # reference, not a write
        """
        assert findings_for(
            tmp_path, source, name="src/repro/analysis/driver.py",
            rules=("cache-discipline",), rule_options=self.OPTIONS,
        ) == []

    def test_default_prefixes_apply_without_options(self, tmp_path):
        source = """
            def publish(cache_dir, fingerprint, payload):
                return write_entry(cache_dir, fingerprint, payload)
        """
        assert rule_names(
            findings_for(
                tmp_path, source, name="src/repro/metrics/thing.py",
                rules=("cache-discipline",),
            )
        ) == ["cache-discipline"]

    def test_default_prefixes_apply_without_options(self, tmp_path):
        source = """
            store = ColumnarLicenseStore(groups)
        """
        findings = findings_for(
            tmp_path, source, name="src/repro/metrics/thing.py",
            rules=("cache-discipline",),
        )
        assert rule_names(findings) == ["cache-discipline"]


class TestFloatEq:
    OPTIONS = {"float-eq": {"paths": ["numeric/"]}}

    def test_float_literal_equality_flagged_in_scope(self, tmp_path):
        source = """
            if distance == 0.0:
                pass
            if 1.5 != ratio:
                pass
        """
        assert rule_names(
            findings_for(
                tmp_path, source, name="numeric/kernel.py",
                rules=("float-eq",), rule_options=self.OPTIONS,
            )
        ) == ["float-eq"] * 2

    def test_negative_literal_flagged(self, tmp_path):
        source = """
            if offset == -1.0:
                pass
        """
        assert rule_names(
            findings_for(
                tmp_path, source, name="numeric/kernel.py",
                rules=("float-eq",), rule_options=self.OPTIONS,
            )
        ) == ["float-eq"]

    def test_out_of_scope_file_ignored(self, tmp_path):
        source = """
            if distance == 0.0:
                pass
        """
        assert findings_for(
            tmp_path, source, name="other/driver.py",
            rules=("float-eq",), rule_options=self.OPTIONS,
        ) == []

    def test_ordering_comparisons_and_int_literals_ok(self, tmp_path):
        source = """
            if distance < 0.0 or count == 0 or distance >= 1.5:
                pass
        """
        assert findings_for(
            tmp_path, source, name="numeric/kernel.py",
            rules=("float-eq",), rule_options=self.OPTIONS,
        ) == []


class TestHygiene:
    def test_mutable_defaults_flagged(self, tmp_path):
        source = """
            def f(items=[], table={}, tags=set()):
                pass
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("mutable-default",))
        ) == ["mutable-default"] * 3

    def test_none_default_ok(self, tmp_path):
        source = """
            def f(items=None, name="x", count=0, point=(1, 2)):
                pass
        """
        assert findings_for(tmp_path, source, rules=("mutable-default",)) == []

    def test_constructor_defaults_flagged(self, tmp_path):
        source = """
            def f(items=list(), table=dict(), tags=set()):
                pass
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("mutable-default",))
        ) == ["mutable-default"] * 3

    def test_dotted_constructor_defaults_flagged(self, tmp_path):
        source = """
            import collections

            def f(
                table=collections.defaultdict(list),
                queue=collections.deque(),
                counts=collections.Counter(),
            ):
                pass
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("mutable-default",))
        ) == ["mutable-default"] * 3

    def test_immutable_constructor_defaults_ok(self, tmp_path):
        source = """
            import decimal

            def f(zero=decimal.Decimal(0), empty=tuple(), label=str()):
                pass
        """
        assert findings_for(tmp_path, source, rules=("mutable-default",)) == []

    def test_bare_and_broad_except_flagged(self, tmp_path):
        source = """
            try:
                work()
            except:
                pass
            try:
                work()
            except Exception:
                pass
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("broad-except",))
        ) == ["broad-except"] * 2

    def test_specific_except_ok(self, tmp_path):
        source = """
            try:
                work()
            except (ValueError, KeyError) as error:
                raise RuntimeError("context") from error
        """
        assert findings_for(tmp_path, source, rules=("broad-except",)) == []


class TestUnitSuffix:
    def test_additive_mix_flagged(self, tmp_path):
        source = """
            total = trunk_km + tail_m
        """
        findings = findings_for(tmp_path, source, rules=("unit-suffix",))
        assert rule_names(findings) == ["unit-suffix"]
        assert "'_km'" in findings[0].message and "'_m'" in findings[0].message

    def test_comparison_mix_flagged(self, tmp_path):
        source = """
            if overhead_us > budget_ms:
                pass
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("unit-suffix",))
        ) == ["unit-suffix"]

    def test_augmented_assignment_mix_flagged(self, tmp_path):
        source = """
            length_m += extension_km
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("unit-suffix",))
        ) == ["unit-suffix"]

    def test_same_unit_and_cross_dimension_ok(self, tmp_path):
        source = """
            total_m = trunk_m + tail_m
            rate = distance_km + 5.0
            weird = latency_ms + distance_km  # different dimensions: allowed
        """
        assert findings_for(tmp_path, source, rules=("unit-suffix",)) == []

    def test_conversion_via_division_ok(self, tmp_path):
        source = """
            geodesic_km = corridor.geodesic_m(a, b) / 1000.0
            total_km = geodesic_km + bypass_km
        """
        assert findings_for(tmp_path, source, rules=("unit-suffix",)) == []

    def test_call_results_carry_units(self, tmp_path):
        source = """
            stretch = corridor.geodesic_m(a, b) - route.length_km
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("unit-suffix",))
        ) == ["unit-suffix"]

    def test_ms_not_mistaken_for_s(self, tmp_path):
        source = """
            total_ms = latency_ms + overhead_ms
        """
        assert findings_for(tmp_path, source, rules=("unit-suffix",)) == []


class TestObsDiscipline:
    def test_monotonic_timing_flagged(self, tmp_path):
        source = """
            import time
            start = time.monotonic()
            elapsed = time.monotonic() - start
        """
        findings = findings_for(tmp_path, source, rules=("obs-discipline",))
        assert rule_names(findings) == ["obs-discipline", "obs-discipline"]
        assert "obs.span" in findings[0].message

    def test_perf_counter_ns_flagged(self, tmp_path):
        source = """
            import time
            t0 = time.perf_counter_ns()
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("obs-discipline",))
        ) == ["obs-discipline"]

    def test_obs_package_is_exempt(self, tmp_path):
        source = """
            import time
            t0 = time.perf_counter_ns()
        """
        assert findings_for(
            tmp_path, source, name="src/repro/obs/spans.py",
            rules=("obs-discipline",),
        ) == []

    def test_benchmarks_are_exempt(self, tmp_path):
        source = """
            import time
            t0 = time.monotonic()
        """
        assert findings_for(
            tmp_path, source, name="benchmarks/test_bench_obs.py",
            rules=("obs-discipline",),
        ) == []

    def test_allowed_paths_overridable(self, tmp_path):
        source = """
            import time
            t0 = time.perf_counter()
        """
        assert findings_for(
            tmp_path, source, name="tools/profiler.py",
            rules=("obs-discipline",),
            rule_options={"obs-discipline": {"allowed": ["tools/"]}},
        ) == []

    def test_span_timing_ok(self, tmp_path):
        source = """
            from repro import obs

            with obs.span("engine.snapshot", licensee=name):
                network = build()
        """
        assert findings_for(tmp_path, source, rules=("obs-discipline",)) == []

    def test_pragma_suppresses(self, tmp_path):
        source = """
            import time
            t0 = time.monotonic()  # lint: disable=obs-discipline
        """
        assert findings_for(tmp_path, source, rules=("obs-discipline",)) == []


class TestParallelDiscipline:
    def test_process_pool_executor_flagged(self, tmp_path):
        source = """
            from concurrent.futures import ProcessPoolExecutor
            pool = ProcessPoolExecutor(max_workers=4)
        """
        findings = findings_for(
            tmp_path, source, rules=("parallel-discipline",)
        )
        assert rule_names(findings) == ["parallel-discipline"]
        assert "src/repro/serve/loadgen.py" in findings[0].message

    def test_dotted_pool_constructors_flagged(self, tmp_path):
        source = """
            import concurrent.futures
            import multiprocessing

            a = concurrent.futures.ProcessPoolExecutor()
            b = concurrent.futures.ThreadPoolExecutor()
            c = multiprocessing.Pool(4)
            d = multiprocessing.Process(target=work)
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("parallel-discipline",))
        ) == ["parallel-discipline"] * 4

    def test_os_fork_flagged(self, tmp_path):
        source = """
            import os
            pid = os.fork()
        """
        assert rule_names(
            findings_for(tmp_path, source, rules=("parallel-discipline",))
        ) == ["parallel-discipline"]

    def test_bare_pool_name_not_flagged(self, tmp_path):
        source = """
            pool = Pool(candidates)
            worker = Process(step)
        """
        assert findings_for(
            tmp_path, source, rules=("parallel-discipline",)
        ) == []

    def test_loadgen_is_exempt(self, tmp_path):
        source = """
            from concurrent.futures import ThreadPoolExecutor
            fleet = ThreadPoolExecutor(max_workers=4)
        """
        assert findings_for(
            tmp_path, source, name="src/repro/serve/loadgen.py",
            rules=("parallel-discipline",),
        ) == []

    def test_allowed_paths_configurable(self, tmp_path):
        source = """
            import multiprocessing
            pool = multiprocessing.Pool()
        """
        assert findings_for(
            tmp_path, source, name="tools/runner.py",
            rules=("parallel-discipline",),
            rule_options={"parallel-discipline": {"allowed": ["tools/"]}},
        ) == []

    def test_methods_of_an_existing_pool_ok(self, tmp_path):
        source = """
            results = list(fleet.map(work, items))
            fleet.shutdown()
        """
        assert findings_for(
            tmp_path, source, rules=("parallel-discipline",)
        ) == []

    def test_pragma_suppresses_parallel(self, tmp_path):
        source = """
            import multiprocessing
            pool = multiprocessing.Pool()  # lint: disable=parallel-discipline
        """
        assert findings_for(
            tmp_path, source, rules=("parallel-discipline",)
        ) == []
