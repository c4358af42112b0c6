"""CorridorEngine: cached results must be indistinguishable from the
cache-free kernel, and cache keys must separate parameterisations.

The load-bearing property: for ANY (licensee, date) — including dates
that alias earlier queries through the active-license fingerprint — the
engine's snapshot and route equal a fresh ``NetworkReconstructor``'s
output exactly.  One engine instance is shared across all hypothesis
examples precisely so the cache is hot and the property exercises reuse.
"""

from __future__ import annotations

import datetime as dt

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.corridor import chicago_nj_corridor, london_frankfurt_corridor
from repro.core.engine import CacheStats, CorridorEngine
from repro.core.latency import LatencyModel
from repro.core.reconstruction import NetworkReconstructor, reconstruct_all
from repro.core.timeline import latency_timeline
from repro.geodesy import GeoPoint, geodesic_inverse
from repro.geodesy.memo import GeodesicMemo, active_memo, use_memo
from repro.uls.database import UlsDatabase

from tests.conftest import make_license

_LICENSEES = (
    "New Line Networks",
    "Webline Holdings",
    "Jefferson Microwave",
    "Pierce Broadband",
    "National Tower Company",
    "Midwest Relay Partners",
)

_ENGINES: dict[int, CorridorEngine] = {}


def _shared_engine(scenario) -> CorridorEngine:
    """One engine per scenario, shared across hypothesis examples."""
    key = id(scenario)
    if key not in _ENGINES:
        _ENGINES[key] = CorridorEngine(scenario.database, scenario.corridor)
    return _ENGINES[key]


# ----------------------------------------------------------------------
# Property: cached == cache-free
# ----------------------------------------------------------------------


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    licensee=st.sampled_from(_LICENSEES),
    on_date=st.dates(dt.date(2012, 1, 1), dt.date(2020, 12, 31)),
)
def test_snapshot_equals_fresh_reconstruction(scenario, licensee, on_date):
    engine = _shared_engine(scenario)
    cached = engine.snapshot(licensee, on_date)
    fresh = NetworkReconstructor(scenario.corridor).reconstruct_licensee(
        scenario.database, licensee, on_date
    )
    assert cached.licensee == fresh.licensee
    assert cached.as_of == on_date == fresh.as_of
    assert cached.towers == fresh.towers
    assert list(cached.links) == list(fresh.links)
    assert list(cached.fiber_tails) == list(fresh.fiber_tails)

    cached_route = engine.route(licensee, on_date, "CME", "NY4")
    fresh_route = fresh.lowest_latency_route("CME", "NY4")
    if fresh_route is None:
        assert cached_route is None
    else:
        assert cached_route is not None
        assert cached_route.latency_ms == fresh_route.latency_ms
        assert cached_route.tower_count == fresh_route.tower_count


_PARAM_VALUES = st.fixed_dictionaries(
    {
        "stitch_tolerance_m": st.sampled_from([10.0, 30.0, 100.0]),
        "max_fiber_tail_m": st.sampled_from([10_000.0, 50_000.0]),
        "fiber_mode": st.sampled_from(["nearest", "all"]),
        "overhead_us": st.sampled_from([0.0, 1.4]),
    }
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(params_a=_PARAM_VALUES, params_b=_PARAM_VALUES)
def test_cache_keys_separate_parameterisations(scenario, params_a, params_b):
    """Snapshot keys are equal iff every reconstruction param is equal."""

    def build(params):
        return CorridorEngine(
            scenario.database,
            scenario.corridor,
            stitch_tolerance_m=params["stitch_tolerance_m"],
            max_fiber_tail_m=params["max_fiber_tail_m"],
            fiber_mode=params["fiber_mode"],
            latency_model=LatencyModel(
                per_tower_overhead_s=params["overhead_us"] * 1e-6
            ),
        )

    key_a = build(params_a).snapshot_key("New Line Networks", dt.date(2020, 4, 1))
    key_b = build(params_b).snapshot_key("New Line Networks", dt.date(2020, 4, 1))
    assert (key_a == key_b) == (params_a == params_b)


# ----------------------------------------------------------------------
# Cache behaviour
# ----------------------------------------------------------------------


def test_snapshot_cache_hits_by_active_fingerprint(scenario):
    engine = CorridorEngine(scenario.database, scenario.corridor)
    first = engine.snapshot("New Line Networks", dt.date(2020, 4, 1))
    assert engine.stats.snapshot.misses == 1
    # A nearby date with the identical active set shares the snapshot...
    assert engine.active_fingerprint(
        "New Line Networks", dt.date(2020, 4, 1)
    ) == engine.active_fingerprint("New Line Networks", dt.date(2020, 4, 2))
    second = engine.snapshot("New Line Networks", dt.date(2020, 4, 2))
    assert engine.stats.snapshot.hits == 1
    assert engine.stats.snapshot.misses == 1
    # ...but still reports the date it was asked for.
    assert first.as_of == dt.date(2020, 4, 1)
    assert second.as_of == dt.date(2020, 4, 2)
    assert second.towers == first.towers

    # A date with a different active set misses.
    engine.snapshot("New Line Networks", dt.date(2016, 1, 1))
    assert engine.stats.snapshot.misses == 2


def test_external_license_sets_never_alias_database_snapshots(scenario):
    """snapshot_from_licenses only shares slots for verbatim rows.

    A scraped record set (coordinates perturbed by the portal's DMS
    round-trip) must not overwrite the database-derived snapshot under
    the ids-only fingerprint — that would leak its floats into every
    later snapshot()/rankings result (the serve-tier parity bug).
    """
    import dataclasses

    engine = CorridorEngine(scenario.database, scenario.corridor)
    date = dt.date(2020, 4, 1)
    records = scenario.database.licenses_for("New Line Networks")

    # Verbatim database rows share the ids-only slot with snapshot().
    via_records = engine.snapshot_from_licenses(records, date)
    assert engine.stats.snapshot.misses == 1
    baseline = engine.snapshot("New Line Networks", date)
    assert engine.stats.snapshot.hits == 1
    assert baseline.towers == via_records.towers

    # Nudge one tower by 1e-9 deg — the scale of the scraper's DMS
    # precision loss.  Same license ids, different content.
    def perturb(lic):
        number, location = min(lic.locations.items())
        moved = dataclasses.replace(
            location,
            point=GeoPoint(
                location.point.latitude + 1e-9, location.point.longitude
            ),
        )
        return dataclasses.replace(
            lic, locations={**lic.locations, number: moved}
        )

    target = next(lic for lic in records if lic.is_active(date))
    perturbed = [
        perturb(lic) if lic is target else lic for lic in records
    ]
    via_perturbed = engine.snapshot_from_licenses(perturbed, date)
    assert engine.stats.snapshot.misses == 2  # content-digested key: cold
    assert via_perturbed.towers != baseline.towers

    # The database-derived snapshot survives untouched, and the
    # perturbed set reuses its own digested slot on a second call.
    assert engine.snapshot("New Line Networks", date).towers == baseline.towers
    engine.snapshot_from_licenses(perturbed, date)
    assert engine.stats.snapshot.misses == 2


def test_route_cache_and_none_routes(scenario):
    engine = CorridorEngine(scenario.database, scenario.corridor)
    date = dt.date(2020, 4, 1)
    route = engine.route("New Line Networks", date, "CME", "NY4")
    again = engine.route("New Line Networks", date, "CME", "NY4")
    assert route is again
    assert engine.stats.route.hits == 1

    # "No route" is cached too (Pierce Broadband predates 2019).
    assert engine.route("Pierce Broadband", dt.date(2015, 1, 1), "CME", "NY4") is None
    misses = engine.stats.route.misses
    assert engine.route("Pierce Broadband", dt.date(2015, 1, 1), "CME", "NY4") is None
    assert engine.stats.route.misses == misses


def test_snapshot_cache_eviction(scenario):
    engine = CorridorEngine(
        scenario.database, scenario.corridor, snapshot_cache_size=1
    )
    engine.snapshot("New Line Networks", dt.date(2020, 4, 1))
    engine.snapshot("Webline Holdings", dt.date(2020, 4, 1))  # evicts NLN
    assert engine.stats.snapshot.evictions == 1
    assert engine.stats.snapshot.size == 1
    engine.snapshot("New Line Networks", dt.date(2020, 4, 1))  # miss again
    assert engine.stats.snapshot.misses == 3


def test_clear_caches_preserves_counters(scenario):
    engine = CorridorEngine(scenario.database, scenario.corridor)
    engine.route("New Line Networks", dt.date(2020, 4, 1), "CME", "NY4")
    engine.clear_caches()
    stats = engine.stats
    assert isinstance(stats, CacheStats)
    assert stats.snapshot.size == stats.route.size == stats.geodesic.size == 0
    assert stats.snapshot.misses == 1  # lifetime counters survive


def test_with_params_builds_distinct_engine(scenario):
    engine = CorridorEngine(scenario.database, scenario.corridor)
    sibling = engine.with_params(fiber_mode="all")
    assert sibling.params_key != engine.params_key
    assert sibling.database is engine.database
    with pytest.raises(TypeError):
        engine.with_params(not_a_param=1)


def test_timeline_matches_routes(scenario):
    engine = CorridorEngine(scenario.database, scenario.corridor)
    dates = [dt.date(2015, 1, 1), dt.date(2020, 4, 1)]
    points = engine.timeline("Pierce Broadband", dates)
    assert [p.date for p in points] == dates
    assert points[0].latency_ms is None and points[0].tower_count is None
    assert points[1].latency_ms == engine.route(
        "Pierce Broadband", dates[1], "CME", "NY4"
    ).latency_ms


# ----------------------------------------------------------------------
# Constructor validation + consumer plumbing (the satellite fixes)
# ----------------------------------------------------------------------


def test_engine_rejects_conflicting_construction(scenario):
    kernel = NetworkReconstructor(scenario.corridor, fiber_mode="all")
    with pytest.raises(ValueError):
        CorridorEngine(scenario.database, reconstructor=kernel, fiber_mode="all")
    with pytest.raises(ValueError):
        CorridorEngine(
            scenario.database, london_frankfurt_corridor(), reconstructor=kernel
        )
    with pytest.raises(ValueError):
        CorridorEngine(scenario.database)
    # Wrapping a kernel adopts its corridor and parameters.
    engine = CorridorEngine(scenario.database, reconstructor=kernel)
    assert engine.corridor == scenario.corridor
    assert engine.params_key[2] == "all"


def test_reconstruct_all_honours_reconstructor():
    database = UlsDatabase()
    database.extend([make_license()])
    corridor = chicago_nj_corridor()
    model = LatencyModel(per_tower_overhead_s=2e-6)
    custom = NetworkReconstructor(corridor, latency_model=model)

    networks = reconstruct_all(
        database, corridor, dt.date(2020, 4, 1), reconstructor=custom
    )
    assert networks["Test Networks LLC"].latency_model == model

    with pytest.raises(ValueError):
        reconstruct_all(
            database,
            corridor,
            dt.date(2020, 4, 1),
            latency_model=model,
            reconstructor=custom,
        )
    with pytest.raises(ValueError):
        reconstruct_all(
            database,
            london_frankfurt_corridor(),
            dt.date(2020, 4, 1),
            reconstructor=custom,
        )


def test_latency_timeline_validates_corridor(scenario):
    dates = [dt.date(2020, 4, 1)]
    mismatched = NetworkReconstructor(london_frankfurt_corridor())
    with pytest.raises(ValueError):
        latency_timeline(
            scenario.database,
            scenario.corridor,
            "New Line Networks",
            dates,
            reconstructor=mismatched,
        )
    engine = CorridorEngine(scenario.database, london_frankfurt_corridor())
    with pytest.raises(ValueError):
        latency_timeline(
            scenario.database,
            scenario.corridor,
            "New Line Networks",
            dates,
            engine=engine,
        )
    good = CorridorEngine(scenario.database, scenario.corridor)
    with pytest.raises(ValueError):
        latency_timeline(
            scenario.database,
            scenario.corridor,
            "New Line Networks",
            dates,
            engine=good,
            reconstructor=NetworkReconstructor(scenario.corridor),
        )
    points = latency_timeline(
        scenario.database, scenario.corridor, "New Line Networks", dates, engine=good
    )
    assert points[0].latency_ms == pytest.approx(3.96171, abs=5e-5)


# ----------------------------------------------------------------------
# Geodesic memo
# ----------------------------------------------------------------------


def test_geodesic_memo_is_opt_in_and_exact():
    a = GeoPoint(41.8, -87.6)
    b = GeoPoint(40.7, -74.0)
    bare = geodesic_inverse(a, b)

    memo = GeodesicMemo(maxsize=16)
    assert active_memo() is None
    with use_memo(memo):
        assert active_memo() is memo
        first = geodesic_inverse(a, b)
        second = geodesic_inverse(a, b)
    assert active_memo() is None
    assert first == second == bare  # bit-identical, not approximately equal
    assert memo.hits == 1 and memo.misses == 1


def test_geodesic_memo_nesting_restores_previous():
    outer, inner = GeodesicMemo(), GeodesicMemo()
    with use_memo(outer):
        with use_memo(inner):
            assert active_memo() is inner
        assert active_memo() is outer
    assert active_memo() is None


def test_geodesic_memo_eviction_bound():
    memo = GeodesicMemo(maxsize=4)
    origin = GeoPoint(41.8, -87.6)
    with use_memo(memo):
        for i in range(10):
            geodesic_inverse(origin, GeoPoint(40.0 + i * 0.01, -74.0))
    assert len(memo) == 4
    assert memo.evictions == 6


def test_export_seed_roundtrip_serves_hits(scenario):
    warm = CorridorEngine(scenario.database, scenario.corridor)
    warm.snapshot("Webline Holdings", dt.date(2019, 1, 1))
    cold = CorridorEngine(scenario.database, scenario.corridor)
    cold.seed_cache_state(warm.export_cache_state())
    # Seeding is an install, not a lookup: no counters moved.
    assert cold.stats.snapshot.lookups == 0
    assert cold.stats.geodesic.lookups == 0
    # The seeded snapshot is served from cache.
    network = cold.snapshot("Webline Holdings", dt.date(2019, 1, 1))
    assert cold.stats.snapshot.hits == 1
    assert cold.stats.snapshot.misses == 0
    assert network is warm.snapshot("Webline Holdings", dt.date(2019, 1, 1))


def test_seed_rejects_mismatched_params(scenario):
    warm = CorridorEngine(scenario.database, scenario.corridor)
    warm.snapshot("Webline Holdings", dt.date(2019, 1, 1))
    sibling = warm.with_params(stitch_tolerance_m=120.0)
    with pytest.raises(ValueError):
        sibling.seed_cache_state(warm.export_cache_state())


def test_geodesic_only_seed_crosses_parameterisations(scenario):
    warm = CorridorEngine(scenario.database, scenario.corridor)
    warm.snapshot("Webline Holdings", dt.date(2019, 1, 1))
    sibling = warm.with_params(stitch_tolerance_m=120.0)
    sibling.seed_cache_state(
        warm.export_cache_state(geodesic_only=True), geodesic_only=True
    )
    assert sibling._geodesic_memo.entries() == warm._geodesic_memo.entries()
    assert len(sibling._snapshots) == 0
