"""Parameterized synthetic scenarios for stress-scale testing.

``synthetic_scenario`` mints a corridor scenario from a handful of
integers: geography (west/east anchors), licensee count, trunk length,
build-out era count, decoy density and a seed.  Every derived quantity —
network names, seeds, latency targets, era dates — is a pure function of
the parameters, so the same reference always yields byte-identical
databases, engines and analysis output (the registry relies on this for
its resolution cache, and the round-trip property tests rely on it for
serial-vs-store equivalence at 10–50x the calibrated scenario's size).

Latency targets are synthesised just above each corridor's c-bound
(0.5%–2.5% stretch, the regime of the paper's Table 1) so the
:class:`~repro.synth.generator.NetworkBuilder` bisection always
converges; the corridor must be at least 200 km long for the gateway
fiber tails to stay small against that margin.
"""

from __future__ import annotations

import datetime as dt
import random
from functools import lru_cache

from repro.constants import SPEED_OF_LIGHT
from repro.core.corridor import CorridorSpec, DataCenterSite
from repro.geodesy import GeoPoint, geodesic_destination, geodesic_distance
from repro.synth.scenario import SNAPSHOT_DATE, Scenario, build_scenario, simple_license
from repro.synth.specs import EraSpec, FrequencyProfile, NetworkSpec

#: Parameter converters for ``synthetic:k=v,...`` references.
SYNTHETIC_PARAMS = {
    "seed": int,
    "networks": int,
    "links": int,
    "eras": int,
    "decoys": int,
    "west_lat": float,
    "west_lon": float,
    "east_lat": float,
    "east_lon": float,
}

#: Default corridor: Dallas (Infomart) to Atlanta (56 Marietta), ~1,160 km.
DEFAULT_WEST = (32.7767, -96.7970)
DEFAULT_EAST = (33.7490, -84.3880)

#: Corridors shorter than this leave no calibration margin between the
#: straight-chain floor (plus gateway fiber tails) and the c-bound targets.
MIN_CORRIDOR_M = 200_000.0

_BAND_CYCLE = (
    FrequencyProfile(trunk_bands=(("11GHz", 1.0),)),
    FrequencyProfile(trunk_bands=(("6GHz", 0.9), ("11GHz", 0.1))),
    FrequencyProfile(trunk_bands=(("11GHz", 0.6), ("18GHz", 0.4))),
    FrequencyProfile(trunk_bands=(("18GHz", 1.0),)),
)


def _network_spec(
    index: int,
    seed: int,
    links: int,
    eras: int,
    c_bound_ms: float,
) -> NetworkSpec:
    rng = random.Random(seed * 100_003 + index * 131)
    trunk_links = max(12, links + (index % 5) - 2)
    stretch = 1.005 + 0.003 * index + rng.uniform(0.0, 0.002)
    target_ms = c_bound_ms * stretch
    era_specs = tuple(
        EraSpec(
            start=dt.date(2012 + era, 3, 1) + dt.timedelta(days=index % 28),
            latency_target_ms=target_ms * (1.0 + 0.004 * (eras - era)),
            n_links=trunk_links,
            seed_salt=era + 1,
        )
        for era in range(eras)
    )
    if index % 2 == 0:
        bypass = tuple(range(1, trunk_links - 1, 2))
    else:
        bypass = tuple(range(0, trunk_links, 3))
    return NetworkSpec(
        name=f"Synthetic Net {index + 1:02d}",
        callsign_prefix=f"SY{index % 100:02d}",
        seed=10_000 + seed * 101 + index,
        trunk_links=trunk_links,
        ny4_target_ms=target_ms,
        frequency_profile=_BAND_CYCLE[index % len(_BAND_CYCLE)],
        trunk_bypass_covered=bypass,
        eras=era_specs,
        final_era_start=dt.date(2019, 1, 15),
        gateway_west_km=0.4,
        gateway_east_km=0.3,
        spacing_profile="mixed" if index % 3 == 2 else "uniform",
    )


def _decoy_licenses(corridor: CorridorSpec, seed: int, decoys: int) -> list:
    """Small near-anchor licensees (≤10 filings) to feed the funnel's
    shortlist filter, mirroring the paper scenario's decoy population."""
    west = corridor.west.point
    licenses = []
    for index in range(decoys):
        rng = random.Random(seed * 7919 + 900 + index)
        n_filings = rng.randint(1, 10)
        hub = geodesic_destination(
            west, rng.uniform(0.0, 360.0), rng.uniform(500.0, 8000.0)
        )
        for filing in range(n_filings):
            remote = geodesic_destination(
                hub, rng.uniform(0.0, 360.0), rng.uniform(2000.0, 20000.0)
            )
            grant = dt.date(rng.randint(2008, 2019), rng.randint(1, 12), 15)
            licenses.append(
                simple_license(
                    license_id=f"SD{index:03d}{filing:02d}",
                    callsign=f"SYD{index:03d}{filing:02d}",
                    name=f"Synthetic Decoy {index:03d}",
                    a=hub,
                    b=remote,
                    grant=grant,
                    cancellation=None,
                    frequencies=(6063.8,) if filing % 2 else (10995.0,),
                )
            )
    return licenses


@lru_cache(maxsize=16)
def synthetic_scenario(
    seed: int = 0,
    networks: int = 3,
    links: int = 18,
    eras: int = 1,
    decoys: int = 0,
    west_lat: float = DEFAULT_WEST[0],
    west_lon: float = DEFAULT_WEST[1],
    east_lat: float = DEFAULT_EAST[0],
    east_lon: float = DEFAULT_EAST[1],
) -> Scenario:
    """Mint a deterministic scenario from generator parameters.

    ``links`` is the nominal trunk hop count (per-network counts vary by
    ±2); it must be at least 12 so every connected network clears the
    funnel's ≥11-filing shortlist.  ``eras`` adds that many historic
    build-out eras (each faster than the last) before the final era;
    ``decoys`` adds small near-anchor licensees the funnel must filter
    out.  All derived values depend only on the arguments — equal calls
    return the same (cached) scenario.
    """
    if networks < 1 or networks > 64:
        raise ValueError("networks must be in 1..64")
    if links < 12 or links > 400:
        raise ValueError("links must be in 12..400")
    if eras < 1 or eras > 6:
        raise ValueError("eras must be in 1..6")
    if decoys < 0 or decoys > 200:
        raise ValueError("decoys must be in 0..200")
    corridor = CorridorSpec(
        west=DataCenterSite("WDC", GeoPoint(west_lat, west_lon)),
        east=(DataCenterSite("EDC", GeoPoint(east_lat, east_lon)),),
    )
    distance_m = geodesic_distance(corridor.west.point, corridor.east[0].point)
    if distance_m < MIN_CORRIDOR_M:
        raise ValueError(
            f"synthetic corridor must span at least {MIN_CORRIDOR_M / 1000:.0f} km "
            f"(got {distance_m / 1000:.1f} km)"
        )
    c_bound_ms = distance_m / SPEED_OF_LIGHT * 1e3
    specs = tuple(
        _network_spec(index, seed, links, eras, c_bound_ms)
        for index in range(networks)
    )
    scenario = build_scenario(
        specs=specs,
        include_funnel_extras=False,
        corridor=corridor,
        name=f"synthetic-s{seed}-n{networks}-l{links}",
    )
    if decoys:
        scenario.database.extend(_decoy_licenses(corridor, seed, decoys))
    return scenario
