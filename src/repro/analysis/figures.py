"""Drivers for Figures 1–5."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.core.timeline import (
    LicenseCountSeries,
    TimelinePoint,
    license_count_timeline,
    yearly_snapshot_dates,
)
from repro.leo.latency import ComparisonPoint, sweep_distances
from repro.metrics.frequencies import (
    alternate_path_frequencies_ghz,
    shortest_path_frequencies_ghz,
)
from repro.metrics.link_lengths import near_optimal_link_lengths_km
from repro.synth.scenario import Scenario
from repro.viz.geojson import network_to_geojson
from repro.viz.svgmap import render_network_svg


def fig1_latency_evolution(
    scenario: Scenario,
    licensees: tuple[str, ...] | None = None,
    dates: list[dt.date] | None = None,
    source: str | None = None,
    target: str | None = None,
) -> dict[str, list[TimelinePoint]]:
    """Fig 1: primary-path latency trajectories of the featured networks."""
    licensees = licensees or scenario.featured_names
    source, target = scenario.corridor.resolve_path(source, target)
    dates = list(dates or yearly_snapshot_dates())
    with obs.span(
        "analysis.fig1", licensees=len(licensees), points=len(dates)
    ):
        engine = scenario.engine()
        return {
            name: engine.timeline(name, dates, source=source, target=target)
            for name in licensees
        }


def fig2_active_licenses(
    scenario: Scenario,
    licensees: tuple[str, ...] | None = None,
    dates: list[dt.date] | None = None,
) -> dict[str, LicenseCountSeries]:
    """Fig 2: active-license counts for the same networks.

    Counts come from each licensee's temporal index (one bisect per
    point).
    """
    licensees = licensees or scenario.featured_names
    dates = list(dates or yearly_snapshot_dates())
    with obs.span(
        "analysis.fig2", licensees=len(licensees), points=len(dates)
    ):
        return {
            name: license_count_timeline(scenario.database, name, dates)
            for name in licensees
        }


@dataclass(frozen=True)
class MapArtifacts:
    """Rendered Fig-3 outputs for one snapshot."""

    licensee: str
    as_of: dt.date
    svg_path: Path | None
    geojson_path: Path | None
    tower_count: int
    link_count: int


def fig3_network_maps(
    scenario: Scenario,
    licensee: str = "New Line Networks",
    dates: tuple[dt.date, ...] = (dt.date(2016, 1, 1), dt.date(2020, 4, 1)),
    output_dir: str | Path | None = None,
) -> list[MapArtifacts]:
    """Fig 3: a network's map at two dates (SVG + GeoJSON when a
    directory is given)."""
    engine = scenario.engine()
    artifacts = []
    for date in dates:
        network = engine.snapshot(licensee, date)
        svg_path = geojson_path = None
        if output_dir is not None:
            directory = Path(output_dir)
            directory.mkdir(parents=True, exist_ok=True)
            stem = f"{licensee.lower().replace(' ', '_')}_{date.isoformat()}"
            svg_path = directory / f"{stem}.svg"
            geojson_path = directory / f"{stem}.geojson"
            render_network_svg(network, path=svg_path)
            network_to_geojson(network, path=geojson_path)
        artifacts.append(
            MapArtifacts(
                licensee=licensee,
                as_of=date,
                svg_path=svg_path,
                geojson_path=geojson_path,
                tower_count=network.tower_count,
                link_count=network.link_count,
            )
        )
    return artifacts


def fig4a_link_length_cdfs(
    scenario: Scenario,
    licensees: tuple[str, ...] = ("Webline Holdings", "New Line Networks"),
    on_date: dt.date | None = None,
    source: str | None = None,
    target: str | None = None,
) -> dict[str, list[float]]:
    """Fig 4a: link lengths (km) on near-optimal primary-path routes."""
    date = on_date or scenario.snapshot_date
    source, target = scenario.corridor.resolve_path(source, target)
    engine = scenario.engine()
    samples = {}
    for name in licensees:
        network = engine.snapshot(name, date)
        samples[name] = near_optimal_link_lengths_km(network, source, target)
    return samples


def fig4b_frequency_cdfs(
    scenario: Scenario,
    on_date: dt.date | None = None,
    source: str | None = None,
    target: str | None = None,
) -> dict[str, list[float]]:
    """Fig 4b: frequencies (GHz) on shortest paths (WH, NLN) and on NLN's
    alternate paths."""
    date = on_date or scenario.snapshot_date
    source, target = scenario.corridor.resolve_path(source, target)
    engine = scenario.engine()
    wh = engine.snapshot("Webline Holdings", date)
    nln = engine.snapshot("New Line Networks", date)
    return {
        "WH": shortest_path_frequencies_ghz(wh, source, target),
        "NLN-alternate": alternate_path_frequencies_ghz(nln, source, target),
        "NLN": shortest_path_frequencies_ghz(nln, source, target),
    }


def fig5_leo_comparison(
    distances_km: list[float] | None = None,
) -> list[ComparisonPoint]:
    """Fig 5: terrestrial MW vs LEO (550/300 km shells) vs fiber.

    The default sweep covers 250–8,000 km: the span over which terrestrial
    microwave paths exist at all (beyond that, endpoints are separated by
    oceans and the comparison is LEO vs fiber only).
    """
    if distances_km is None:
        distances_km = [250.0 * i for i in range(1, 33)]  # 250 .. 8,000 km
    return sweep_distances(distances_km)
