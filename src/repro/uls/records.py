"""Data model for FCC ULS microwave licenses.

A ULS license (identified by a call sign such as ``WRFF778``) authorises a
set of point-to-point microwave paths.  Each license lists:

* the licensee (entity name),
* life-cycle dates: grant, expiration, and — when applicable —
  cancellation and termination dates,
* numbered tower *locations* (coordinates, ground elevation, structure
  height),
* *paths*: transmitter location → receiver location pairs,
* the *frequencies* authorised on each path.

The model below captures exactly the fields the paper's methodology needs
(§2.2): dates for longitudinal reconstruction, coordinates for geometry,
and frequencies for the §5 reliability analysis.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.constants import RADIO_SERVICE_MG, STATION_CLASS_FXO
from repro.geodesy import GeoPoint, geodesic_distance


@dataclass(frozen=True, slots=True)
class TowerLocation:
    """A numbered antenna location within a license filing."""

    location_number: int
    point: GeoPoint
    ground_elevation_m: float = 0.0
    structure_height_m: float = 0.0
    site_name: str = ""

    def __post_init__(self) -> None:
        if self.location_number < 1:
            raise ValueError("ULS location numbers start at 1")
        if not math.isfinite(self.ground_elevation_m):
            raise ValueError("ground elevation must be finite")
        height = self.structure_height_m
        if not (math.isfinite(height) and height >= 0.0):
            raise ValueError("structure height must be finite and non-negative")

    @property
    def antenna_height_amsl_m(self) -> float:
        """Antenna height above mean sea level (ground + structure)."""
        return self.ground_elevation_m + self.structure_height_m


@dataclass(frozen=True, slots=True)
class MicrowavePath:
    """One authorised point-to-point path within a license.

    ``frequencies_mhz`` lists the centre frequencies authorised on the path
    (a transmitter may use several frequencies towards one receiver).
    """

    path_number: int
    tx_location_number: int
    rx_location_number: int
    frequencies_mhz: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.path_number < 1:
            raise ValueError("ULS path numbers start at 1")
        if self.tx_location_number == self.rx_location_number:
            raise ValueError("a path cannot loop back to its own location")
        if not all(
            math.isfinite(freq) and freq > 0.0 for freq in self.frequencies_mhz
        ):
            raise ValueError("frequencies must be finite and positive")


@dataclass(slots=True)
class License:
    """One ULS license filing.

    ``license_id`` is the unique ULS identifier; ``callsign`` is the
    human-facing call sign printed on the portal pages.
    ``contact_email`` is the filing contact (the §6 future-work signal for
    identifying co-owned licensees); empty when not on file.  A license is
    *active* on a date if it has been granted on or before that date and
    neither cancelled nor terminated on or before it (paper §2.3).
    """

    license_id: str
    callsign: str
    licensee_name: str
    radio_service_code: str = RADIO_SERVICE_MG
    station_class: str = STATION_CLASS_FXO
    contact_email: str = ""
    grant_date: dt.date | None = None
    expiration_date: dt.date | None = None
    cancellation_date: dt.date | None = None
    termination_date: dt.date | None = None
    locations: dict[int, TowerLocation] = field(default_factory=dict)
    paths: list[MicrowavePath] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.license_id:
            raise ValueError("license_id must be non-empty")
        if not self.licensee_name:
            raise ValueError("licensee_name must be non-empty")
        self.validate_references()

    def validate_references(self) -> None:
        """Check that every path references defined location numbers."""
        for path in self.paths:
            if path.tx_location_number not in self.locations:
                raise ValueError(
                    f"license {self.license_id}: path {path.path_number} "
                    f"references undefined tx location {path.tx_location_number}"
                )
            if path.rx_location_number not in self.locations:
                raise ValueError(
                    f"license {self.license_id}: path {path.path_number} "
                    f"references undefined rx location {path.rx_location_number}"
                )

    def is_active(self, on_date: dt.date) -> bool:
        """Whether the license authorises transmission on ``on_date``.

        Mirrors the paper's rule: granted, and not cancelled/terminated.
        A missing grant date means the filing is still pending — inactive.
        The cancellation/termination date itself counts as inactive (the
        FCC records the date the authorisation ends).
        """
        if self.grant_date is None or on_date < self.grant_date:
            return False
        if self.cancellation_date is not None and on_date >= self.cancellation_date:
            return False
        if self.termination_date is not None and on_date >= self.termination_date:
            return False
        if self.expiration_date is not None and on_date >= self.expiration_date:
            return False
        return True

    def path_endpoints(self, path: MicrowavePath) -> tuple[TowerLocation, TowerLocation]:
        """The (tx, rx) tower locations of ``path``."""
        return (
            self.locations[path.tx_location_number],
            self.locations[path.rx_location_number],
        )

    def path_length_m(self, path: MicrowavePath) -> float:
        """Geodesic length of a path in metres."""
        tx, rx = self.path_endpoints(path)
        return geodesic_distance(tx.point, rx.point)

    def iter_links(self) -> Iterator[tuple[TowerLocation, TowerLocation, MicrowavePath]]:
        """Yield (tx, rx, path) for every authorised path."""
        for path in self.paths:
            tx, rx = self.path_endpoints(path)
            yield (tx, rx, path)

    @property
    def all_frequencies_mhz(self) -> tuple[float, ...]:
        """All frequencies authorised anywhere on the license, sorted."""
        freqs: list[float] = []
        for path in self.paths:
            freqs.extend(path.frequencies_mhz)
        return tuple(sorted(freqs))


def active_licenses(
    licenses: Iterable[License], on_date: dt.date
) -> list[License]:
    """Filter ``licenses`` to the ones active on ``on_date``."""
    return [lic for lic in licenses if lic.is_active(on_date)]


def licenses_by_licensee(licenses: Iterable[License]) -> dict[str, list[License]]:
    """Group licenses by licensee name, preserving insertion order."""
    grouped: dict[str, list[License]] = {}
    for lic in licenses:
        grouped.setdefault(lic.licensee_name, []).append(lic)
    return grouped


def parse_date(text: str | None) -> dt.date | None:
    """Parse a ULS date.

    Accepts ISO (``2020-04-01``) and the portal's US style
    (``04/01/2020``); empty/None mean "no date on file".
    """
    if text is None:
        return None
    text = text.strip()
    if not text:
        return None
    if "/" in text:
        month, day, year = text.split("/")
        return dt.date(int(year), int(month), int(day))
    return dt.date.fromisoformat(text)


def format_date(value: dt.date | None, style: str = "iso") -> str:
    """Format a date for dumps (``iso``) or portal pages (``us``)."""
    if value is None:
        return ""
    if style == "iso":
        return value.isoformat()
    if style == "us":
        return f"{value.month:02d}/{value.day:02d}/{value.year:04d}"
    raise ValueError(f"unknown date style: {style!r}")


def total_filings(licenses: Sequence[License]) -> int:
    """Number of license filings (the paper's shortlisting unit, §2.2)."""
    return len(licenses)
