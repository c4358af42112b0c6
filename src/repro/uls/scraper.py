"""Scraping client for ULS portal pages.

This is the data-collection half of the paper's tool (§2.2).  It drives
the portal's search pages, extracts the results tables and the detail
page's heading/meta lines with a few regular expressions over the portal's
fixed page grammar, and rebuilds :class:`License` records.  Every table's
header and row widths are checked; a malformed page raises
:class:`ScrapeError` naming the table and row.

The scraper is written against page *structure* (table ids and column
order), not against our renderer's internals, so it would work unchanged on
any server producing the same page layout.  A per-license cache avoids
refetching detail pages, mirroring the original tool's on-disk cache.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from html import unescape

from repro import obs
from repro.geodesy import GeoPoint
from repro.geodesy.coordinates import parse_dms
from repro.uls.portal import UlsPortal
from repro.uls.records import (
    License,
    MicrowavePath,
    TowerLocation,
    parse_date,
)


class ScrapeError(ValueError):
    """Raised when a page cannot be parsed into the expected structure."""


#: A ``<table>`` whose class names ``results``: (attributes, body).
_TABLE_RE = re.compile(r'<table\b([^>]*class="[^"]*results[^>]*)>(.*?)</table>', re.S)
_ID_RE = re.compile(r'(?:^|\s)id="([^"]*)"')
_ROW_RE = re.compile(r"<tr\b[^>]*>(.*?)</tr>", re.S)
_CELL_RE = re.compile(r"<t[dh]\b[^>]*>(.*?)</t[dh]>", re.S)
_TAG_RE = re.compile(r"<[^>]*>")


def _text(fragment: str) -> str:
    """Markup-free, unescaped, stripped text of an HTML fragment."""
    return unescape(_TAG_RE.sub("", fragment)).strip()


def _element_text(html: str, start_tag: str, end_tag: str) -> str:
    """Text of the first ``start_tag ... end_tag`` element ("" if absent)."""
    start = html.find(start_tag)
    if start < 0:
        return ""
    end = html.find(end_tag, start)
    return _text(html[start + len(start_tag) : end if end >= 0 else len(html)])


def _results_tables(html: str) -> dict[str, list[list[str]]]:
    """Every ``<table class="results">`` as text rows (header row included),
    keyed by ``id``, or ``table{n}`` (n = its position) when it has none."""
    tables: dict[str, list[list[str]]] = {}
    for position, match in enumerate(_TABLE_RE.finditer(html)):
        table_id = _ID_RE.search(match[1])
        tables[(table_id and table_id[1]) or f"table{position}"] = [
            [_text(cell) for cell in _CELL_RE.findall(row)]
            for row in _ROW_RE.findall(match[2])
        ]
    return tables


def _parse_table_page(html: str) -> list[list[str]]:
    tables = _results_tables(html)
    if not tables:
        raise ScrapeError("page contains no results table")
    return next(iter(tables.values()))


def _table_rows(table: list[list[str]] | None, name: str, header: tuple, convert) -> list:
    """``convert(*cells)`` for each data row of a results table whose header
    must be ``header``; any malformed row raises :class:`ScrapeError`."""
    if table is None:
        raise ScrapeError(f"page is missing the {name!r} table")
    if table[:1] != [list(header)]:
        raise ScrapeError(f"unexpected {name} results header: {table[:1]!r}")
    converted = []
    for number, row in enumerate(table[1:], start=1):
        if len(row) != len(header):
            raise ScrapeError(f"{name} row {number}: {len(row)} cells, expected {len(header)}")
        try:
            converted.append(convert(*row))
        except (ValueError, OverflowError) as exc:
            raise ScrapeError(f"{name} row {number}: {exc}") from exc
    return converted


@dataclass
class ScrapeStats:
    """Bookkeeping for a scraping session."""

    search_pages: int = 0
    detail_pages: int = 0
    cache_hits: int = 0


class UlsScraper:
    """Replays the paper's scraping pipeline against a portal."""

    def __init__(self, portal: UlsPortal) -> None:
        self._portal = portal
        self._detail_cache: dict[str, License] = {}
        self.stats = ScrapeStats()

    # ------------------------------------------------------------------
    # Search pages
    # ------------------------------------------------------------------

    def geographic_search(
        self, latitude: float, longitude: float, radius_km: float
    ) -> list[dict[str, str]]:
        """Scrape the geographic results: one dict per row."""
        with obs.span("uls.scraper.search", kind="geographic"):
            html = self._portal.geographic_search_page(
                latitude, longitude, radius_km
            )
            self.stats.search_pages += 1
            obs.count("uls.scraper.page.search")
            table = _parse_table_page(html)
        keys = ("callsign", "license_id", "licensee_name", "radio_service_code", "station_class")
        header = ("Call Sign", "License ID", "Licensee", "Radio Service", "Station Class")
        return _table_rows(table, "geographic", header, lambda *row: dict(zip(keys, row)))

    def licenses_of(self, licensee_name: str) -> list[str]:
        """License ids filed by a licensee (name-search page)."""
        with obs.span("uls.scraper.search", kind="name", licensee=licensee_name):
            html = self._portal.name_search_page(licensee_name)
            self.stats.search_pages += 1
            obs.count("uls.scraper.page.search")
            table = _parse_table_page(html)
        header = ("Call Sign", "License ID", "Licensee")
        return _table_rows(table, "name search", header, lambda callsign, lid, name: lid)

    # ------------------------------------------------------------------
    # Detail pages
    # ------------------------------------------------------------------

    def license_detail(self, license_id: str) -> License:
        """Scrape (or serve from cache) one license-detail page."""
        if license_id in self._detail_cache:
            self.stats.cache_hits += 1
            obs.count("uls.scraper.cache.hit")
            return self._detail_cache[license_id]
        obs.count("uls.scraper.cache.miss")
        with obs.span("uls.scraper.detail", license_id=license_id):
            html = self._portal.license_detail_page(license_id)
            self.stats.detail_pages += 1
            obs.count("uls.scraper.page.detail")
            lic = self._parse_detail(html)
        if lic.license_id != license_id:
            raise ScrapeError(
                f"requested {license_id!r} but page is for {lic.license_id!r}"
            )
        self._detail_cache[license_id] = lic
        return lic

    def scrape_licensee(self, licensee_name: str) -> list[License]:
        """All filings of one licensee, via name search + detail pages."""
        return [self.license_detail(lid) for lid in self.licenses_of(licensee_name)]

    # ------------------------------------------------------------------
    # Detail page parsing
    # ------------------------------------------------------------------

    @staticmethod
    def _parse_detail(html: str) -> License:
        tables = _results_tables(html)
        dates = dict(
            _table_rows(
                tables.get("dates"),
                "dates",
                ("Event", "Date"),
                lambda event, date: (event, parse_date("" if date == "—" else date)),
            )
        )
        locations = {
            loc.location_number: loc
            for loc in _table_rows(
                tables.get("locations"),
                "locations",
                ("Loc", "Latitude", "Longitude", "Ground Elev (m)", "Height (m)", "Site"),
                lambda number, lat, lon, ground, height, site: TowerLocation(
                    location_number=int(number),
                    point=GeoPoint(parse_dms(lat), parse_dms(lon)),
                    ground_elevation_m=float(ground),
                    structure_height_m=float(height),
                    site_name="" if site == "—" else site,
                ),
            )
        }
        paths = _table_rows(
            tables.get("paths"),
            "paths",
            ("Path", "TX Loc", "RX Loc", "Frequencies (MHz)"),
            lambda number, tx, rx, freqs: MicrowavePath(
                path_number=int(number),
                tx_location_number=int(tx),
                rx_location_number=int(rx),
                frequencies_mhz=(
                    () if freqs == "—" else tuple(float(f) for f in freqs.split(","))
                ),
            ),
        )

        meta_fields: dict[str, str] = {}
        for chunk in _element_text(html, '<p id="meta">', "</p>").split("|"):
            if ":" in chunk:
                key, _, value = chunk.partition(":")
                meta_fields[key.strip()] = value.strip()
        license_id = meta_fields.get("License ID", "")
        if not license_id:
            raise ScrapeError("detail page has no license id")

        contact = _element_text(html, '<p id="contact">', "</p>").partition(":")[2].strip()
        heading = _element_text(html, "<h1>", "</h1>")
        if "—" not in heading:
            raise ScrapeError(f"unparseable detail heading: {heading!r}")
        callsign_part, _, licensee_name = heading.partition("—")

        try:
            return License(
                license_id=license_id,
                callsign=callsign_part.replace("License", "").strip(),
                licensee_name=licensee_name.strip(),
                contact_email="" if contact == "—" else contact,
                radio_service_code=meta_fields.get("Radio Service", ""),
                station_class=meta_fields.get("Station Class", ""),
                grant_date=dates.get("Grant"),
                expiration_date=dates.get("Expiration"),
                cancellation_date=dates.get("Cancellation"),
                termination_date=dates.get("Termination"),
                locations=locations,
                paths=paths,
            )
        except ValueError as exc:
            raise ScrapeError(f"detail page for {license_id!r}: {exc}") from exc
