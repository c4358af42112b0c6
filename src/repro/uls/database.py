"""Indexed in-memory store of ULS licenses.

The real ULS is a relational database fronted by several search pages; our
substitute keeps every license in memory with the indices the searches
need: by license id, by call sign, by licensee, and a spatial grid over
location coordinates for the radius searches.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import math
import pickle
from typing import Iterable, Iterator

from repro.geodesy import GeoPoint, geodesic_distance
from repro.uls.columnar import ColumnarLicenseStore
from repro.uls.index import TemporalIndex
from repro.uls.records import License

#: Spatial-grid cell size in degrees (~55 km of latitude).  Radius searches
#: scan the cells overlapping the search circle; at 10 km radii that is at
#: most four cells.
_GRID_CELL_DEG = 0.5


class DuplicateLicenseError(ValueError):
    """Raised when adding a license whose id is already present."""


class UnknownLicenseError(KeyError):
    """Raised when looking up a license id that is not on file."""


class UlsDatabase:
    """An in-memory, indexed collection of :class:`License` records."""

    def __init__(self, licenses: Iterable[License] = ()) -> None:
        self._by_id: dict[str, License] = {}
        self._by_callsign: dict[str, License] = {}
        self._by_licensee: dict[str, list[License]] = {}
        self._grid: dict[tuple[int, int], list[tuple[GeoPoint, str]]] = {}
        #: Bumped on every mutation; temporal-index consumers (the
        #: engine's snapshot cursors) compare generations to detect
        #: stale evolution state.
        self._generation: int = 0
        #: Lazily-built temporal indices: None = database-wide, a
        #: licensee name = that licensee's filings only.
        self._temporal_indices: dict[str | None, TemporalIndex] = {}
        #: Lazily-built columnar store (one per generation, like the
        #: temporal indices; invalidated by any mutation).
        self._columnar_store: ColumnarLicenseStore | None = None
        #: Cached (generation, digest) pair for :meth:`content_digest`.
        self._content_digest: tuple[int, str] | None = None
        for lic in licenses:
            self.add(lic)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add(self, lic: License) -> None:
        """Add a license, maintaining all indices."""
        if lic.license_id in self._by_id:
            raise DuplicateLicenseError(f"duplicate license id {lic.license_id!r}")
        if lic.callsign and lic.callsign in self._by_callsign:
            raise DuplicateLicenseError(f"duplicate callsign {lic.callsign!r}")
        self._by_id[lic.license_id] = lic
        if lic.callsign:
            self._by_callsign[lic.callsign] = lic
        self._by_licensee.setdefault(lic.licensee_name, []).append(lic)
        for location in lic.locations.values():
            cell = self._cell(location.point)
            self._grid.setdefault(cell, []).append((location.point, lic.license_id))
        self._generation += 1
        self._temporal_indices.clear()
        self._columnar_store = None

    def extend(self, licenses: Iterable[License]) -> None:
        for lic in licenses:
            self.add(lic)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, license_id: str) -> License:
        """The license with ``license_id``; raises :class:`UnknownLicenseError`."""
        try:
            return self._by_id[license_id]
        except KeyError:
            raise UnknownLicenseError(license_id) from None

    def get_by_callsign(self, callsign: str) -> License:
        try:
            return self._by_callsign[callsign]
        except KeyError:
            raise UnknownLicenseError(callsign) from None

    def licenses_for(self, licensee_name: str) -> list[License]:
        """All filings by ``licensee_name`` (empty list if none)."""
        return list(self._by_licensee.get(licensee_name, ()))

    def licensee_names(self) -> list[str]:
        """All licensee names, sorted."""
        return sorted(self._by_licensee)

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self) -> Iterator[License]:
        return iter(self._by_id.values())

    def __contains__(self, license_id: object) -> bool:
        return license_id in self._by_id

    # ------------------------------------------------------------------
    # Queries used by the search service
    # ------------------------------------------------------------------

    def licenses_within(self, center: GeoPoint, radius_m: float) -> list[License]:
        """Licenses with at least one location within ``radius_m`` of ``center``.

        Results are unique and ordered by license id for determinism.
        """
        if radius_m < 0.0:
            raise ValueError("radius must be non-negative")
        hits: set[str] = set()
        for cell in self._cells_overlapping(center, radius_m):
            for point, license_id in self._grid.get(cell, ()):
                if license_id in hits:
                    continue
                if geodesic_distance(center, point) <= radius_m:
                    hits.add(license_id)
        return [self._by_id[license_id] for license_id in sorted(hits)]

    def active_on(self, on_date: dt.date) -> list[License]:
        """All licenses active on ``on_date``, in filing (insertion) order.

        Served from the :class:`~repro.uls.index.TemporalIndex`: a bisect
        plus a memoised interval set instead of a per-license date scan.
        """
        active = self.temporal_index().active_ids_at(on_date)
        return [lic for lic in self._by_id.values() if lic.license_id in active]

    # ------------------------------------------------------------------
    # Temporal index
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Mutation counter: changes whenever a license is added."""
        return self._generation

    def temporal_index(self, licensee: str | None = None) -> TemporalIndex:
        """The (cached) event index over the whole database or one licensee.

        Indices are invalidated whenever a license is added; callers that
        cache derived state across mutations should also remember
        :attr:`generation` and rebuild when it moves.
        """
        index = self._temporal_indices.get(licensee)
        if index is None:
            licenses = (
                self._by_id.values()
                if licensee is None
                else self._by_licensee.get(licensee, ())
            )
            index = TemporalIndex(licenses)
            self._temporal_indices[licensee] = index
        return index

    def columnar_store(self) -> ColumnarLicenseStore:
        """The (cached) columnar view of every filing, one per generation.

        Built lazily on first use — rows grouped per licensee in
        ``licensee_names()`` order, licenses in filing (insertion) order
        — and invalidated whenever a license is added, exactly like the
        temporal indices.  The columnar reconstruction kernel
        (:mod:`repro.core.columnar`) iterates this store instead of the
        per-object license graph.
        """
        store = self._columnar_store
        if store is None or store.generation != self._generation:
            store = ColumnarLicenseStore(
                {
                    name: self._by_licensee[name]
                    for name in sorted(self._by_licensee)
                },
                generation=self._generation,
            )
            self._columnar_store = store
        return store

    def content_digest(self) -> str:
        """A stable hex digest of every license's full content.

        The persistent store (:mod:`repro.store`) keys its on-disk
        entries off this: two databases holding identical license sets
        share a digest across processes, and any mutation (generation
        bump) changes it, which is what invalidates persisted cache
        entries.  Computed from a fixed-protocol pickle of the id-sorted
        license list (field-complete and ~an order of magnitude faster
        than the repr-based digest the engine uses for small ad-hoc
        license sets), and cached per generation like the other derived
        views.
        """
        cached = self._content_digest
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        payload = pickle.dumps(
            sorted(self._by_id.values(), key=lambda lic: lic.license_id),
            protocol=4,
        )
        digest = hashlib.sha256(payload).hexdigest()
        self._content_digest = (self._generation, digest)
        return digest

    def __getstate__(self) -> dict:
        """Pickle without the derived caches (rebuilt lazily on use).

        The columnar store is deliberately excluded: an unpickled
        database rebuilds it from the license records under its own
        generation counter rather than trusting pickled float columns.
        """
        state = self.__dict__.copy()
        state["_temporal_indices"] = {}
        state["_columnar_store"] = None
        return state

    # ------------------------------------------------------------------
    # Spatial grid internals
    # ------------------------------------------------------------------

    @staticmethod
    def _cell(point: GeoPoint) -> tuple[int, int]:
        return (
            int(math.floor(point.latitude / _GRID_CELL_DEG)),
            int(math.floor(point.longitude / _GRID_CELL_DEG)),
        )

    @staticmethod
    def _cells_overlapping(
        center: GeoPoint, radius_m: float
    ) -> Iterator[tuple[int, int]]:
        # Conservative bounding box in degrees.
        lat_pad = radius_m / 111_320.0 + 1e-9
        cos_lat = max(0.01, math.cos(math.radians(center.latitude)))
        lon_pad = radius_m / (111_320.0 * cos_lat) + 1e-9
        lat_lo = int(math.floor((center.latitude - lat_pad) / _GRID_CELL_DEG))
        lat_hi = int(math.floor((center.latitude + lat_pad) / _GRID_CELL_DEG))
        lon_lo = int(math.floor((center.longitude - lon_pad) / _GRID_CELL_DEG))
        lon_hi = int(math.floor((center.longitude + lon_pad) / _GRID_CELL_DEG))
        for lat_cell in range(lat_lo, lat_hi + 1):
            for lon_cell in range(lon_lo, lon_hi + 1):
                yield (lat_cell, lon_cell)
