"""Drivers for Tables 1–3."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

from repro import obs
from repro.metrics.apa import apa_percent
from repro.metrics.rankings import (
    NetworkRanking,
    PathTopRanking,
    rank_connected_networks,
    top_networks_per_path,
)
from repro.synth.scenario import Scenario


def table1_connected_networks(
    scenario: Scenario,
    on_date: dt.date | None = None,
    source: str | None = None,
    target: str | None = None,
) -> list[NetworkRanking]:
    """Table 1: connected networks by increasing primary-path latency."""
    date = on_date or scenario.snapshot_date
    with obs.span("analysis.table1", date=date.isoformat()):
        return rank_connected_networks(
            scenario.database,
            scenario.corridor,
            date,
            source=source,
            target=target,
            engine=scenario.engine(),
        )


def table2_top_networks(
    scenario: Scenario,
    on_date: dt.date | None = None,
    top_n: int = 3,
) -> list[PathTopRanking]:
    """Table 2: the fastest ``top_n`` networks per corridor path."""
    date = on_date or scenario.snapshot_date
    with obs.span("analysis.table2", date=date.isoformat()):
        return top_networks_per_path(
            scenario.database,
            scenario.corridor,
            date,
            top_n=top_n,
            engine=scenario.engine(),
        )


@dataclass(frozen=True)
class ApaRow:
    """One row of Table 3."""

    path: tuple[str, str]
    values: dict[str, int]


def table3_apa(
    scenario: Scenario,
    licensees: tuple[str, ...] | None = None,
    on_date: dt.date | None = None,
) -> list[ApaRow]:
    """Table 3: per-path APA for selected networks (default: the
    scenario's spotlight pair, the paper's NLN vs WH)."""
    if licensees is None:
        licensees = scenario.spotlight_names
    date = on_date or scenario.snapshot_date
    engine = scenario.engine()
    paths = tuple(scenario.corridor.paths)
    with obs.span("analysis.table3", date=date.isoformat()):
        networks = {name: engine.snapshot(name, date) for name in licensees}
        columns = {
            name: {
                path: apa_percent(network, path[0], path[1]) for path in paths
            }
            for name, network in networks.items()
        }
        return [
            ApaRow(
                path=path,
                values={name: columns[name][path] for name in licensees},
            )
            for path in paths
        ]
