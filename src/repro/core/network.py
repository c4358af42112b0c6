"""Graph model of a reconstructed HFT microwave network.

An :class:`HftNetwork` is what the paper's tool produces for one licensee
at one date: towers (license endpoints stitched across filings), microwave
links between them, fiber tails to the corridor's data centers, and a
latency-weighted graph to route over.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import networkx as nx

from repro import obs
from repro.core.corridor import CorridorSpec, DataCenterSite
from repro.core.latency import LatencyModel, seconds_to_ms
from repro.geodesy import GeoPoint

#: Node-attribute value for data center nodes.
NODE_KIND_DATACENTER = "datacenter"
#: Node-attribute value for tower nodes.
NODE_KIND_TOWER = "tower"

# Re-exported name: the corridor's site type doubles as the network's
# data-center type.
DataCenter = DataCenterSite


@dataclass(frozen=True, slots=True)
class Tower:
    """A physical tower: a stitched license endpoint."""

    tower_id: str
    point: GeoPoint
    ground_elevation_m: float = 0.0
    structure_height_m: float = 0.0
    site_name: str = ""
    license_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.tower_id:
            raise ValueError("tower_id must be non-empty")

    # Fast pickle path for store entries (see GeoPoint.__getstate__):
    # a snapshot export carries ~40 towers per network per fingerprint.
    def __getstate__(self):
        return (
            self.tower_id,
            self.point,
            self.ground_elevation_m,
            self.structure_height_m,
            self.site_name,
            self.license_ids,
        )

    def __setstate__(self, state) -> None:
        set_ = object.__setattr__
        set_(self, "tower_id", state[0])
        set_(self, "point", state[1])
        set_(self, "ground_elevation_m", state[2])
        set_(self, "structure_height_m", state[3])
        set_(self, "site_name", state[4])
        set_(self, "license_ids", state[5])


@dataclass(frozen=True, slots=True)
class MicrowaveLink:
    """A licensed microwave link between two towers.

    Multiple filings over the same tower pair are merged into one link with
    the union of their frequencies and license ids.
    """

    tower_a: str
    tower_b: str
    length_m: float
    frequencies_mhz: tuple[float, ...] = ()
    license_ids: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.tower_a == self.tower_b:
            raise ValueError("a link cannot connect a tower to itself")
        if self.length_m <= 0.0:
            raise ValueError("link length must be positive")

    @property
    def endpoints(self) -> frozenset[str]:
        return frozenset((self.tower_a, self.tower_b))

    # Fast pickle path for store entries (see GeoPoint.__getstate__).
    def __getstate__(self):
        return (
            self.tower_a,
            self.tower_b,
            self.length_m,
            self.frequencies_mhz,
            self.license_ids,
        )

    def __setstate__(self, state) -> None:
        set_ = object.__setattr__
        set_(self, "tower_a", state[0])
        set_(self, "tower_b", state[1])
        set_(self, "length_m", state[2])
        set_(self, "frequencies_mhz", state[3])
        set_(self, "license_ids", state[4])


@dataclass(frozen=True, slots=True)
class FiberTail:
    """A fiber segment connecting a data center to a nearby tower."""

    data_center: str
    tower_id: str
    length_m: float

    def __post_init__(self) -> None:
        if self.length_m < 0.0:
            raise ValueError("fiber length cannot be negative")

    # Fast pickle path for store entries (see GeoPoint.__getstate__).
    def __getstate__(self):
        return (self.data_center, self.tower_id, self.length_m)

    def __setstate__(self, state) -> None:
        set_ = object.__setattr__
        set_(self, "data_center", state[0])
        set_(self, "tower_id", state[1])
        set_(self, "length_m", state[2])


@dataclass(frozen=True)
class Route:
    """A lowest-latency route between two data centers."""

    source: str
    target: str
    nodes: tuple[str, ...]
    latency_s: float
    length_m: float
    microwave_length_m: float
    fiber_length_m: float
    tower_count: int

    @property
    def latency_ms(self) -> float:
        return seconds_to_ms(self.latency_s)

    @property
    def hop_count(self) -> int:
        """Number of links (microwave + fiber) on the route."""
        return len(self.nodes) - 1


class HftNetwork:
    """One licensee's network at one reconstruction date."""

    def __init__(
        self,
        licensee: str,
        as_of: dt.date,
        towers: Iterable[Tower],
        links: Iterable[MicrowaveLink],
        fiber_tails: Iterable[FiberTail],
        data_centers: Iterable[DataCenterSite],
        latency_model: LatencyModel | None = None,
    ) -> None:
        self.licensee = licensee
        self.as_of = as_of
        self.latency_model = latency_model or LatencyModel()
        self.towers: dict[str, Tower] = {tower.tower_id: tower for tower in towers}
        self.data_centers: dict[str, DataCenterSite] = {
            dc.name: dc for dc in data_centers
        }
        self.links: list[MicrowaveLink] = list(links)
        self.fiber_tails: list[FiberTail] = list(fiber_tails)
        self._validate()

    def _validate(self) -> None:
        overlap = set(self.towers) & set(self.data_centers)
        if overlap:
            raise ValueError(f"tower ids collide with data center names: {overlap}")
        for link in self.links:
            for endpoint in (link.tower_a, link.tower_b):
                if endpoint not in self.towers:
                    raise ValueError(
                        f"link references unknown tower {endpoint!r}"
                    )
        for tail in self.fiber_tails:
            if tail.data_center not in self.data_centers:
                raise ValueError(f"fiber tail to unknown data center {tail.data_center!r}")
            if tail.tower_id not in self.towers:
                raise ValueError(f"fiber tail from unknown tower {tail.tower_id!r}")

    # ------------------------------------------------------------------
    # Graph
    # ------------------------------------------------------------------

    @cached_property
    def graph(self) -> nx.Graph:
        """The latency-weighted graph (nodes: towers + data centers).

        Edge attributes: ``medium`` ("microwave"/"fiber"), ``length_m``,
        ``latency_s`` (propagation only), ``frequencies_mhz``,
        ``license_ids``.
        """
        graph = nx.Graph()
        for name, dc in self.data_centers.items():
            graph.add_node(name, kind=NODE_KIND_DATACENTER, point=dc.point)
        for tower_id, tower in self.towers.items():
            graph.add_node(tower_id, kind=NODE_KIND_TOWER, point=tower.point)
        for link in self.links:
            graph.add_edge(
                link.tower_a,
                link.tower_b,
                medium="microwave",
                length_m=link.length_m,
                latency_s=self.latency_model.microwave_latency_s(link.length_m),
                frequencies_mhz=link.frequencies_mhz,
                license_ids=link.license_ids,
            )
        for tail in self.fiber_tails:
            graph.add_edge(
                tail.data_center,
                tail.tower_id,
                medium="fiber",
                length_m=tail.length_m,
                latency_s=self.latency_model.fiber_latency_s(tail.length_m),
                frequencies_mhz=(),
                license_ids=(),
            )
        return graph

    def _edge_weight(self, u: str, v: str, data: dict) -> float:
        """Dijkstra weight: propagation latency plus half the per-tower
        overhead for each tower endpoint (so a path through n towers pays
        exactly n overheads)."""
        weight = data["latency_s"]
        overhead = self.latency_model.per_tower_overhead_s
        if overhead:
            if u in self.towers:
                weight += overhead / 2.0
            if v in self.towers:
                weight += overhead / 2.0
        return weight

    # ------------------------------------------------------------------
    # Routing and properties
    # ------------------------------------------------------------------

    def is_connected(self, source: str, target: str) -> bool:
        """Whether an end-to-end path exists between two data centers."""
        graph = self.graph
        if source not in graph or target not in graph:
            return False
        return nx.has_path(graph, source, target)

    def lowest_latency_route(self, source: str, target: str) -> Route | None:
        """The lowest-latency route between two data centers, or None.

        Latency accounts for medium-specific speeds and (when configured)
        per-tower overheads, exactly as §2.3 describes.
        """
        graph = self.graph
        if source not in graph or target not in graph:
            return None
        with obs.span(
            "core.routing", licensee=self.licensee, source=source, target=target
        ):
            try:
                latency, nodes = nx.single_source_dijkstra(
                    graph, source, target, weight=self._edge_weight
                )
            except nx.NetworkXNoPath:
                return None
        length = 0.0
        mw_length = 0.0
        fiber_length = 0.0
        for u, v in zip(nodes, nodes[1:]):
            data = graph.edges[u, v]
            length += data["length_m"]
            if data["medium"] == "microwave":
                mw_length += data["length_m"]
            else:
                fiber_length += data["length_m"]
        tower_count = sum(1 for node in nodes if node in self.towers)
        return Route(
            source=source,
            target=target,
            nodes=tuple(nodes),
            latency_s=latency,
            length_m=length,
            microwave_length_m=mw_length,
            fiber_length_m=fiber_length,
            tower_count=tower_count,
        )

    def route_frequencies_mhz(self, route: Route) -> list[tuple[float, ...]]:
        """Per-link frequency tuples along a route (microwave links only)."""
        graph = self.graph
        frequencies = []
        for u, v in zip(route.nodes, route.nodes[1:]):
            data = graph.edges[u, v]
            if data["medium"] == "microwave":
                frequencies.append(data["frequencies_mhz"])
        return frequencies

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------

    @property
    def tower_count(self) -> int:
        return len(self.towers)

    @property
    def link_count(self) -> int:
        return len(self.links)

    def link_lengths_m(self) -> list[float]:
        """Lengths of all microwave links, metres."""
        return [link.length_m for link in self.links]

    def with_latency_model(self, latency_model: LatencyModel) -> "HftNetwork":
        """A copy of this network under a different latency model."""
        return HftNetwork(
            licensee=self.licensee,
            as_of=self.as_of,
            towers=self.towers.values(),
            links=self.links,
            fiber_tails=self.fiber_tails,
            data_centers=self.data_centers.values(),
            latency_model=latency_model,
        )

    def with_as_of(self, as_of: dt.date) -> "HftNetwork":
        """A re-dated view of this network (same towers/links/graph).

        The engine's snapshot cache keys on the *active license set*, so
        one stitched network can serve many dates; this produces the view
        carrying the caller's date.  The already-built latency graph is
        shared — all consumers treat it as read-only (mutating analyses
        like APA work on ``graph.copy()``).
        """
        if as_of == self.as_of:
            return self
        clone = HftNetwork(
            licensee=self.licensee,
            as_of=as_of,
            towers=self.towers.values(),
            links=self.links,
            fiber_tails=self.fiber_tails,
            data_centers=self.data_centers.values(),
            latency_model=self.latency_model,
        )
        if "graph" in self.__dict__:
            clone.__dict__["graph"] = self.graph
        return clone

    def __getstate__(self):
        # The latency graph is a cached_property rebuilt deterministically
        # from towers/links; persisting it in store entries would pickle
        # a networkx adjacency per snapshot — the bulk of the payload —
        # that warm consumers mostly never touch (routes ship separately
        # in the engine's route cache).
        state = dict(self.__dict__)
        state.pop("graph", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HftNetwork({self.licensee!r}, as_of={self.as_of.isoformat()}, "
            f"towers={len(self.towers)}, links={len(self.links)})"
        )
