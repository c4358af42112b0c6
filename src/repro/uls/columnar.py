"""Flat, column-oriented storage of license geometry.

The cold reconstruction path walks per-object ``License`` →
``TowerLocation`` → ``MicrowavePath`` structures endpoint by endpoint;
the obs traces show most of that time inside the geodesic machinery and
the attribute-chasing around it.  :class:`ColumnarLicenseStore` lays the
same data out as parallel stdlib :mod:`array` columns — license rows,
endpoint coordinates (degrees *and* the radian/trig forms the geodesic
kernels consume), path endpoint indices, flattened frequency spans, and
activity-interval bounds — so the hot phases in
:mod:`repro.core.columnar` iterate flat numeric columns instead of
object graphs.

A store is built **once per** :attr:`repro.uls.database.UlsDatabase
.generation` (mirroring the temporal index: any mutation invalidates it)
and is deliberately *not* pickled with the database — a process that
loads the database rebuilds its own from the license records, which is
cheaper and safer than shipping derived float columns across process
boundaries.

Activity intervals reuse :func:`repro.uls.index.license_interval` — the
exact half-open ``[grant, end)`` window the :class:`~repro.uls.index
.TemporalIndex` is built from — converted to proleptic-Gregorian
ordinals so the active-row scan is pure integer comparison.

The store also precomputes a table of exact Vincenty solutions for the
coordinate pairs reconstruction is known to measure: every filed path
endpoint pair (link lengths) and every pair of distinct endpoint
coordinates within :data:`NEIGHBOR_RADIUS_M` (stitching probes),
each in both directions because the scalar path is direction-sensitive
at the last ulp.  Each endpoint row carries a unique-coordinate id
(:attr:`~ColumnarLicenseStore.ep_uid`); the table is keyed by the packed
integer ``uid_a * n_coords + uid_b``, and equal uids short-circuit to a
distance of exactly 0.0 with no lookup.  Solutions come from
:func:`repro.geodesy.batch.inverse_batch` and are bit-identical to the
scalar memoised path.
"""

from __future__ import annotations

import datetime as dt
import math
from array import array
from typing import Mapping, Sequence

from repro import obs
from repro.geodesy import EARTH_MEAN_RADIUS_M, GeoPoint
from repro.geodesy.batch import inverse_batch, reduced_latitude_trig
from repro.uls.index import license_interval
from repro.uls.records import License

#: Radius (metres) within which pairs of distinct endpoint coordinates
#: get a precomputed inverse solution.  Stitching probes measure a point
#: against cluster anchors in the surrounding 3x3 grid cells, i.e. out to
#: ~2.9x the stitch tolerance — 1.2 km covers every tolerance up to
#: ~400 m (the paper's default is 30 m; the ablation sweep tops out at
#: 1 km, whose rare far probes fall through to the inline kernel).
NEIGHBOR_RADIUS_M = 1200.0

#: Activity-interval sentinel for "active indefinitely" (one past the
#: largest representable date ordinal).
FOREVER_ORDINAL = dt.date.max.toordinal() + 1

#: Stride for packing a (lat-cell, lon-cell) pair into one integer:
#: ``c_lat * _CELL_STRIDE + c_lon``.  Lon cell indices are far below the
#: stride for every tolerance the sweep uses (even 1 m tolerances index
#: at ~2·10⁷), so the packing is bijective and packed-key grid buckets
#: behave exactly like tuple-keyed ones.
CELL_STRIDE = 1 << 32


def _haversine_m(
    lat1_rad: float, lon1_rad: float, cos1: float,
    lat2_rad: float, lon2_rad: float, cos2: float,
) -> float:
    """Spherical distance over precomputed radian/cosine columns."""
    sin_dphi = math.sin((lat2_rad - lat1_rad) / 2.0)
    sin_dlam = math.sin((lon2_rad - lon1_rad) / 2.0)
    h = sin_dphi * sin_dphi + cos1 * cos2 * sin_dlam * sin_dlam
    return 2.0 * EARTH_MEAN_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


class ColumnarLicenseStore:
    """Column-oriented view of one set of license filings.

    ``groups`` maps licensee name → license sequence; rows are laid out
    contiguously per licensee, licensees in mapping order and licenses in
    sequence order, so per-licensee iteration order matches the object
    path (``UlsDatabase.licenses_for`` insertion order) exactly.

    The store is immutable once built.  Construction is confined by the
    cache-discipline lint rule to :mod:`repro.uls` and the engine module
    — everything else obtains one via
    :meth:`repro.uls.database.UlsDatabase.columnar_store`.
    """

    __slots__ = (
        "generation",
        "license_ids",
        "row_ep_start",
        "row_ep_end",
        "row_path_start",
        "row_path_end",
        "row_active_start",
        "row_active_end",
        "ep_lat",
        "ep_lon",
        "ep_lat_rad",
        "ep_lon_rad",
        "ep_cos_phi",
        "ep_sin_u",
        "ep_cos_u",
        "ep_ground",
        "ep_height",
        "ep_site",
        "ep_point",
        "ep_license_id",
        "path_tx",
        "path_rx",
        "path_freq_start",
        "freq_mhz",
        "ep_uid",
        "n_coords",
        "solutions",
        "_spans",
        "_cell_cache",
    )

    def __init__(
        self,
        groups: Mapping[str, Sequence[License]],
        *,
        generation: int = 0,
    ) -> None:
        self.generation = generation

        license_ids: list[str] = []
        row_ep_start = array("l")
        row_ep_end = array("l")
        row_path_start = array("l")
        row_path_end = array("l")
        row_active_start = array("l")
        row_active_end = array("l")

        ep_lat = array("d")
        ep_lon = array("d")
        ep_ground = array("d")
        ep_height = array("d")
        ep_site: list[str] = []
        ep_point: list[GeoPoint] = []
        ep_license_id: list[str] = []

        path_tx = array("l")
        path_rx = array("l")
        path_freq_start = array("l", [0])
        freq_mhz = array("d")

        spans: dict[str, tuple[int, int]] = {}
        # Filed (tx, rx) endpoint-row pairs, for the solutions table.
        filed_pairs: list[tuple[int, int]] = []

        for licensee, licenses in groups.items():
            row_start = len(license_ids)
            for lic in licenses:
                license_ids.append(lic.license_id)
                interval = license_interval(lic)
                if interval is None:
                    # Never active: an empty integer window.
                    row_active_start.append(0)
                    row_active_end.append(0)
                else:
                    start, end = interval
                    row_active_start.append(start.toordinal())
                    row_active_end.append(
                        FOREVER_ORDINAL if end is None else end.toordinal()
                    )

                ep_base = len(ep_lat)
                row_ep_start.append(ep_base)
                # location number -> endpoint row, for path resolution.
                number_to_row: dict[int, int] = {}
                for number, location in lic.locations.items():
                    number_to_row[number] = len(ep_lat)
                    point = location.point
                    ep_lat.append(point.latitude)
                    ep_lon.append(point.longitude)
                    ep_ground.append(location.ground_elevation_m)
                    ep_height.append(location.structure_height_m)
                    ep_site.append(location.site_name)
                    ep_point.append(point)
                    ep_license_id.append(lic.license_id)
                row_ep_end.append(len(ep_lat))

                row_path_start.append(len(path_tx))
                for path in lic.paths:
                    tx_row = number_to_row[path.tx_location_number]
                    rx_row = number_to_row[path.rx_location_number]
                    path_tx.append(tx_row)
                    path_rx.append(rx_row)
                    freq_mhz.extend(path.frequencies_mhz)
                    path_freq_start.append(len(freq_mhz))
                    filed_pairs.append((tx_row, rx_row))
                row_path_end.append(len(path_tx))
            spans[licensee] = (row_start, len(license_ids))

        self.license_ids = tuple(license_ids)
        self.row_ep_start = row_ep_start
        self.row_ep_end = row_ep_end
        self.row_path_start = row_path_start
        self.row_path_end = row_path_end
        self.row_active_start = row_active_start
        self.row_active_end = row_active_end
        self.ep_lat = ep_lat
        self.ep_lon = ep_lon
        self.ep_ground = ep_ground
        self.ep_height = ep_height
        self.ep_site = tuple(ep_site)
        self.ep_point = tuple(ep_point)
        self.ep_license_id = tuple(ep_license_id)
        self.path_tx = path_tx
        self.path_rx = path_rx
        self.path_freq_start = path_freq_start
        self.freq_mhz = freq_mhz
        self._spans = spans
        self._cell_cache: dict[float, array] = {}

        # Derived per-endpoint trig columns (radians, haversine cosines,
        # Vincenty reduced-latitude sin/cos), computed once per *unique*
        # coordinate and broadcast to rows.
        with obs.span(
            "kernel.columnar.store.build",
            licenses=len(self.license_ids),
            endpoints=len(ep_lat),
            paths=len(path_tx),
        ) as span:
            self._build_trig_columns()
            pairs, uid_rows = self._solution_pairs(filed_pairs)
            self._build_solutions(pairs, uid_rows)
            span.tag(solutions=len(self.solutions))
        obs.count("kernel.columnar.store.build")

    # ------------------------------------------------------------------
    # Derived columns + precomputed solutions
    # ------------------------------------------------------------------

    def _build_trig_columns(self) -> None:
        ep_lat, ep_lon = self.ep_lat, self.ep_lon
        lat_rad = array("d", bytes(8 * len(ep_lat)))
        lon_rad = array("d", bytes(8 * len(ep_lat)))
        cos_phi = array("d", bytes(8 * len(ep_lat)))
        sin_u = array("d", bytes(8 * len(ep_lat)))
        cos_u = array("d", bytes(8 * len(ep_lat)))
        trig_memo: dict[float, tuple[float, float, float, float]] = {}
        for row, lat in enumerate(ep_lat):
            cached = trig_memo.get(lat)
            if cached is None:
                rad = math.radians(lat)
                su, cu = reduced_latitude_trig(lat)
                cached = (rad, math.cos(rad), su, cu)
                trig_memo[lat] = cached
            lat_rad[row], cos_phi[row], sin_u[row], cos_u[row] = cached
            lon_rad[row] = math.radians(ep_lon[row])
        self.ep_lat_rad = lat_rad
        self.ep_lon_rad = lon_rad
        self.ep_cos_phi = cos_phi
        self.ep_sin_u = sin_u
        self.ep_cos_u = cos_u

    def _solution_pairs(
        self, filed_pairs: list[tuple[int, int]]
    ) -> tuple[list[tuple[int, int]], list[int]]:
        """Unique-coordinate index pairs worth pre-solving, both ways.

        Covers every filed path pair (link lengths) and every pair of
        distinct coordinates within :data:`NEIGHBOR_RADIUS_M` (stitch
        probes).  Both directions are included: Vincenty's inverse is
        direction-sensitive in the last ulp, and byte-identity to the
        object kernel requires solving the exact direction it would.
        Returns the sorted pair list and the uid → endpoint-row map.

        As a side effect this assigns every endpoint row its
        unique-coordinate id (:attr:`ep_uid`): solutions are keyed by the
        packed integer ``uid_a * n_coords + uid_b``, and equal uids mean
        bitwise-equal coordinates (geodesic distance exactly 0.0 — the
        kernels need no lookup at all for that case).
        """
        ep_lat, ep_lon = self.ep_lat, self.ep_lon
        coord_uid: dict[tuple[float, float], int] = {}
        row_uid = array("l", [0]) * len(ep_lat)
        uid_rows: list[int] = []
        for row in range(len(ep_lat)):
            key = (ep_lat[row], ep_lon[row])
            uid = coord_uid.get(key)
            if uid is None:
                uid = len(uid_rows)
                coord_uid[key] = uid
                uid_rows.append(row)
            row_uid[row] = uid
        self.ep_uid = row_uid
        self.n_coords = len(uid_rows)

        pairs: set[tuple[int, int]] = set()
        for tx_row, rx_row in filed_pairs:
            a, b = row_uid[tx_row], row_uid[rx_row]
            if a != b:
                pairs.add((a, b))
                pairs.add((b, a))

        # Neighbour pairs: bucket unique coordinates into cells roughly
        # NEIGHBOR_RADIUS_M on a side and compare within the 3x3 block.
        cell_lat = NEIGHBOR_RADIUS_M / 111_320.0
        grid: dict[tuple[int, int], list[int]] = {}
        lat_rad, lon_rad, cos_phi = self.ep_lat_rad, self.ep_lon_rad, self.ep_cos_phi
        for uid, row in enumerate(uid_rows):
            cos_lat = max(0.01, cos_phi[row])
            cell = (
                int(ep_lat[row] // cell_lat),
                int(ep_lon[row] // (NEIGHBOR_RADIUS_M / (111_320.0 * cos_lat))),
            )
            grid.setdefault(cell, []).append(uid)
        for (cell_a, cell_b), members in grid.items():
            neighbourhood: list[int] = []
            for d_lat in (-1, 0, 1):
                for d_lon in (-1, 0, 1):
                    neighbourhood.extend(
                        grid.get((cell_a + d_lat, cell_b + d_lon), ())
                    )
            for uid in members:
                row = uid_rows[uid]
                for other in neighbourhood:
                    if other == uid:
                        continue
                    other_row = uid_rows[other]
                    if (
                        _haversine_m(
                            lat_rad[row], lon_rad[row], cos_phi[row],
                            lat_rad[other_row], lon_rad[other_row],
                            cos_phi[other_row],
                        )
                        <= NEIGHBOR_RADIUS_M
                    ):
                        pairs.add((uid, other))
                        pairs.add((other, uid))
        return sorted(pairs), uid_rows

    def _build_solutions(
        self, pairs: list[tuple[int, int]], uid_rows: list[int]
    ) -> None:
        ep_lat, ep_lon = self.ep_lat, self.ep_lon
        lats = [ep_lat[row] for row in uid_rows]
        lons = [ep_lon[row] for row in uid_rows]
        solved = inverse_batch(lats, lons, pairs)
        n = self.n_coords
        self.solutions = {
            i * n + j: solution for (i, j), solution in zip(pairs, solved)
        }

    def cells_for(self, tolerance_m: float) -> array:
        """Per-endpoint stitch-grid cell ids for ``tolerance_m``, packed.

        Each entry is ``c_lat * CELL_STRIDE + c_lon`` with the exact
        :func:`repro.geodesy.coordinates.coordinate_key` cell arithmetic
        (per-endpoint longitude cell width from the clamped cosine
        column).  Cached per tolerance: a parameter sweep computes each
        tolerance's column once, and every reconstruction at that
        tolerance reads it back.
        """
        cells = self._cell_cache.get(tolerance_m)
        if cells is None:
            ep_lat, ep_lon, cos_phi = self.ep_lat, self.ep_lon, self.ep_cos_phi
            cell_deg_lat = tolerance_m / 111_320.0
            cells = array("q", bytes(8 * len(ep_lat)))
            for row in range(len(ep_lat)):
                cos_lat = max(0.01, cos_phi[row])
                cells[row] = int(ep_lat[row] // cell_deg_lat) * CELL_STRIDE + int(
                    ep_lon[row] // (tolerance_m / (111_320.0 * cos_lat))
                )
            self._cell_cache[tolerance_m] = cells
        return cells

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def licensees(self) -> tuple[str, ...]:
        return tuple(self._spans)

    def span(self, licensee: str) -> tuple[int, int]:
        """The ``[start, end)`` license-row span of ``licensee``."""
        return self._spans.get(licensee, (0, 0))

    def active_rows(self, licensee: str, on_date: dt.date) -> list[int]:
        """License rows of ``licensee`` active on ``on_date``, row order.

        Row order is filing (insertion) order, so the object path's
        ``active_licenses(licenses_for(...))`` sequence is reproduced
        exactly.
        """
        ordinal = on_date.toordinal()
        start, end = self.span(licensee)
        active_start, active_end = self.row_active_start, self.row_active_end
        return [
            row
            for row in range(start, end)
            if active_start[row] <= ordinal < active_end[row]
        ]

    def active_ids(self, licensee: str, on_date: dt.date) -> frozenset[str]:
        """The active-license fingerprint — the snapshot-cache key column.

        Equals the object path's per-filing ``License.is_active`` scan
        (``license_interval`` mirrors ``is_active`` exactly).
        """
        ids = self.license_ids
        return frozenset(
            ids[row] for row in self.active_rows(licensee, on_date)
        )

    def __len__(self) -> int:
        return len(self.license_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarLicenseStore(licenses={len(self.license_ids)}, "
            f"endpoints={len(self.ep_lat)}, paths={len(self.path_tx)}, "
            f"solutions={len(self.solutions)}, generation={self.generation})"
        )
