"""Hybrid MW / fiber / LEO comparison across registered corridors.

Fig 5 compares the three transports over abstract ground distance; this
workload grounds the same comparison in the registry's concrete
corridors: for each scenario it measures the *best reconstructed
microwave network* on the primary path (the real, calibrated latency —
not just a stretch model) and sets it against the corridor's geodesic
c-bound, the fiber route model, and the 550/300 km LEO shell lower
bounds from :mod:`repro.leo.latency`.

The interesting output is the regime change with corridor length: on the
~1,200 km paper corridor terrestrial microwave beats everything and LEO
cannot even beat fiber; on a ~5,300 km Tokyo–Singapore corridor the LEO
bound slips under the fiber route and closes in on microwave — the
paper's §6 "bird's eye" argument, per corridor instead of per distance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.constants import SPEED_OF_LIGHT
from repro.leo.latency import fiber_latency_s, leo_lower_bound_s
from repro.metrics.rankings import rank_connected_networks
from repro.scenarios import resolve_scenario, scenario_names


@dataclass(frozen=True)
class CorridorComparison:
    """One corridor's hybrid latency row (all one-way, milliseconds)."""

    scenario: str
    source: str
    target: str
    geodesic_km: float
    cbound_ms: float
    best_licensee: str | None
    microwave_ms: float | None
    fiber_ms: float
    leo_550_ms: float
    leo_300_ms: float

    @property
    def microwave_beats_leo(self) -> bool | None:
        """Does the measured network beat the optimistic LEO bound?"""
        if self.microwave_ms is None:
            return None
        return self.microwave_ms < min(self.leo_550_ms, self.leo_300_ms)

    @property
    def leo_beats_fiber(self) -> bool:
        return min(self.leo_550_ms, self.leo_300_ms) < self.fiber_ms

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "source": self.source,
            "target": self.target,
            "geodesic_km": self.geodesic_km,
            "cbound_ms": self.cbound_ms,
            "best_licensee": self.best_licensee,
            "microwave_ms": self.microwave_ms,
            "fiber_ms": self.fiber_ms,
            "leo_550_ms": self.leo_550_ms,
            "leo_300_ms": self.leo_300_ms,
            "microwave_beats_leo": self.microwave_beats_leo,
            "leo_beats_fiber": self.leo_beats_fiber,
        }


def compare_corridor(ref: str) -> CorridorComparison:
    """The hybrid comparison row for one scenario reference."""
    scenario = resolve_scenario(ref)
    source, target = scenario.primary_path
    distance_m = scenario.corridor.geodesic_m(source, target)
    rankings = rank_connected_networks(
        scenario.database,
        scenario.corridor,
        scenario.snapshot_date,
        source=source,
        target=target,
        engine=scenario.engine(),
    )
    best = rankings[0] if rankings else None
    return CorridorComparison(
        scenario=scenario.name,
        source=source,
        target=target,
        geodesic_km=distance_m / 1000.0,
        cbound_ms=distance_m / SPEED_OF_LIGHT * 1e3,
        best_licensee=best.licensee if best else None,
        microwave_ms=best.latency_ms if best else None,
        fiber_ms=fiber_latency_s(distance_m) * 1e3,
        leo_550_ms=leo_lower_bound_s(distance_m, 550_000.0) * 1e3,
        leo_300_ms=leo_lower_bound_s(distance_m, 300_000.0) * 1e3,
    )


def compare_corridors(
    refs: tuple[str, ...] | None = None,
) -> list[CorridorComparison]:
    """Hybrid rows for every requested corridor, shortest first.

    ``refs`` defaults to every *concrete* registered scenario (the
    parameterized ``synthetic`` generator needs explicit parameters, so
    it only appears when referenced).  Each scenario resolves through the
    registry cache, so repeated comparisons reuse warm engines.
    """
    if refs is None:
        refs = scenario_names(concrete_only=True)
    with obs.span("analysis.compare", corridors=len(refs)):
        rows = [compare_corridor(ref) for ref in refs]
    rows.sort(key=lambda row: (row.geodesic_km, row.scenario))
    return rows
