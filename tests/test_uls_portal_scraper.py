"""Tests for the portal simulator and the scraping client."""

from __future__ import annotations

import datetime as dt
import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geodesy import GeoPoint, geodesic_destination
from repro.uls.database import UlsDatabase
from repro.scenarios import resolve_scenario, scenario_names
from repro.uls.portal import PageNotFoundError, UlsPortal
from repro.uls.scraper import (
    ScrapeError,
    UlsScraper,
    _parse_table_page,
    _results_tables,
)
from tests.conftest import make_license

CME = GeoPoint(41.7580, -88.1801)


@pytest.fixture()
def stack():
    near = geodesic_destination(CME, 45.0, 3_000.0)
    far = geodesic_destination(CME, 90.0, 40_000.0)
    licenses = [
        make_license(
            "L1",
            licensee="HFT Alpha & Co",
            points=((near.latitude, near.longitude), (far.latitude, far.longitude)),
            grant=dt.date(2015, 3, 1),
            cancellation=dt.date(2019, 9, 30),
            frequencies=(10995.0, 11485.0),
        ),
        make_license(
            "L2",
            licensee="HFT Alpha & Co",
            points=((far.latitude, far.longitude), (41.5, -86.9)),
            grant=dt.date(2016, 6, 1),
        ),
    ]
    db = UlsDatabase(licenses)
    portal = UlsPortal(db)
    return portal, UlsScraper(portal)


class TestPortal:
    def test_geographic_page_contains_rows(self, stack):
        portal, _ = stack
        html = portal.geographic_search_page(CME.latitude, CME.longitude, 10.0)
        assert "HFT Alpha &amp; Co" in html
        assert "L1" in html

    def test_detail_page_escapes_and_structures(self, stack):
        portal, _ = stack
        html = portal.license_detail_page("L1")
        assert 'id="dates"' in html and 'id="locations"' in html and 'id="paths"' in html
        assert "03/01/2015" in html  # US-format grant date
        assert "&amp;" in html  # entity escaping

    def test_missing_license_raises(self, stack):
        portal, _ = stack
        with pytest.raises(PageNotFoundError):
            portal.license_detail_page("NOPE")

    def test_request_counter(self, stack):
        portal, _ = stack
        start = portal.page_requests
        portal.name_search_page("HFT Alpha & Co")
        portal.license_detail_page("L1")
        assert portal.page_requests == start + 2


class TestScraper:
    def test_geographic_rows(self, stack):
        _, scraper = stack
        rows = scraper.geographic_search(CME.latitude, CME.longitude, 10.0)
        assert rows[0]["licensee_name"] == "HFT Alpha & Co"
        assert rows[0]["radio_service_code"] == "MG"

    def test_licenses_of(self, stack):
        _, scraper = stack
        assert scraper.licenses_of("HFT Alpha & Co") == ["L1", "L2"]

    def test_detail_roundtrip(self, stack):
        _, scraper = stack
        lic = scraper.license_detail("L1")
        assert lic.license_id == "L1"
        assert lic.licensee_name == "HFT Alpha & Co"
        assert lic.grant_date == dt.date(2015, 3, 1)
        assert lic.cancellation_date == dt.date(2019, 9, 30)
        assert lic.paths[0].frequencies_mhz == (10995.0, 11485.0)
        # Coordinates survive the DMS rendering within ~1 cm.
        original = make_license("X").locations  # not used; precision check below
        assert lic.locations[1].point.latitude == pytest.approx(
            geodesic_destination(CME, 45.0, 3_000.0).latitude, abs=1e-6
        )

    def test_detail_cache(self, stack):
        portal, scraper = stack
        scraper.license_detail("L1")
        pages_before = portal.page_requests
        scraper.license_detail("L1")
        assert portal.page_requests == pages_before
        assert scraper.stats.cache_hits == 1

    def test_scrape_licensee_reconstructs_all(self, stack):
        _, scraper = stack
        licenses = scraper.scrape_licensee("HFT Alpha & Co")
        assert [lic.license_id for lic in licenses] == ["L1", "L2"]

    def test_active_semantics_survive_scrape(self, stack):
        _, scraper = stack
        lic = scraper.license_detail("L1")
        assert lic.is_active(dt.date(2018, 1, 1))
        assert not lic.is_active(dt.date(2020, 1, 1))


class TestHtmlRobustness:
    def test_table_extractor_ignores_non_result_tables(self):
        html = (
            "<table><tr><td>noise</td></tr></table>"
            '<table class="results" id="dates"><tr><th>Event</th><th>Date</th></tr>'
            "<tr><td>Grant</td><td>01/02/2015</td></tr></table>"
        )
        tables = _results_tables(html)
        assert list(tables) == ["dates"]
        assert tables["dates"][1] == ["Grant", "01/02/2015"]

    def test_cells_are_unescaped_text(self):
        html = (
            '<table class="results"><tr><th> A </th></tr>'
            "<tr><td><b>x &amp;lt; y</b> &lt;z&gt;</td></tr></table>"
        )
        assert _results_tables(html) == {"table0": [["A"], ["x &lt; y <z>"]]}

    def test_first_table_raises_when_absent(self):
        with pytest.raises(ScrapeError):
            _parse_table_page("<html><body><p>empty</p></body></html>")

    def test_scraper_rejects_header_drift(self, stack):
        portal, scraper = stack
        real = portal.geographic_search_page

        def tampered(lat, lon, radius, active_on=None):
            return real(lat, lon, radius, active_on).replace("Call Sign", "Callsign")

        portal.geographic_search_page = tampered
        with pytest.raises(ScrapeError, match="header"):
            scraper.geographic_search(CME.latitude, CME.longitude, 10.0)


def _tamper(html: str, table_id: str, old: str, new: str) -> str:
    """Replace the first ``old`` inside the results table ``table_id``."""
    start = html.index(f'id="{table_id}"')
    end = html.index(old, start)
    return html[:end] + new + html[end + len(old):]


_FUZZ_PAGE = UlsPortal(
    UlsDatabase([make_license("L1", licensee="Fuzz & Sons <LLC>")])
).license_detail_page("L1")


class TestMalformedPages:
    """Malformed pages raise ScrapeError naming the table and row."""

    @pytest.mark.parametrize(
        "table_id, old, new",
        [
            ("locations", "<td>—</td>", ""),  # a dropped cell
            ("paths", "<td>1</td>", "<td>1</td><td>1</td>"),  # an extra cell
            ("locations", "<td>1</td>", "<td>one</td>"),  # non-integer Loc
            ("locations", " N</td>", " Q</td>"),  # bad DMS hemisphere
            ("locations", "<td>200.0</td>", "<td>high</td>"),  # bad elevation
            ("dates", "03/01/2015", "13/01/2015"),  # bad US date
            ("paths", "<td>1</td>", "<td>1.5</td>"),  # non-integer path number
            ("locations", "<td>90.0</td>", "<td>nan</td>"),  # NaN height
            ("locations", "<td>200.0</td>", "<td>nan</td>"),  # NaN elevation
            ("paths", "<td>10995.0", "<td>nan"),  # NaN frequency
            ("paths", "<td>10995.0", "<td>inf"),  # infinite frequency
        ],
    )
    def test_bad_detail_row(self, stack, table_id, old, new):
        portal, scraper = stack
        html = _tamper(portal.license_detail_page("L1"), table_id, old, new)
        portal.license_detail_page = lambda license_id: html
        with pytest.raises(ScrapeError, match=rf"{table_id} row 1"):
            scraper.license_detail("L1")

    def test_dangling_path_reference(self, stack):
        portal, _ = stack
        html = _tamper(
            portal.license_detail_page("L1"), "paths", "<td>2</td>", "<td>7</td>"
        )
        with pytest.raises(ScrapeError, match="undefined rx location 7"):
            UlsScraper._parse_detail(html)

    def test_short_name_search_row(self, stack):
        portal, scraper = stack
        html = portal.name_search_page("HFT Alpha & Co").replace(
            "<td>L1</td><td>HFT Alpha &amp; Co</td>", "", 1
        )
        portal.name_search_page = lambda name: html
        with pytest.raises(ScrapeError, match="row 1"):
            scraper.licenses_of("HFT Alpha & Co")

    def test_licenses_of_rejects_header_drift(self, stack):
        portal, scraper = stack
        real = portal.name_search_page
        portal.name_search_page = lambda name: real(name).replace(
            "License ID", "License Id"
        )
        with pytest.raises(ScrapeError, match="header"):
            scraper.licenses_of("HFT Alpha & Co")

    @given(
        cut=st.integers(len(_FUZZ_PAGE) // 2, len(_FUZZ_PAGE)),
        drop=st.integers(0, len(_FUZZ_PAGE)),
        width=st.integers(0, 8),
    )
    @settings(max_examples=150, deadline=None)
    def test_truncated_or_spliced_page(self, cut, drop, width):
        # Cut the page short (inside its tables) and splice a span out of
        # it: the scraper returns a License or raises ScrapeError.
        html = _FUZZ_PAGE[:cut]
        html = html[:drop] + html[drop + width :]
        try:
            UlsScraper._parse_detail(html)
        except ScrapeError:
            pass


#: SHA-256 of ``repr`` of every parsed detail page (database order) and of
#: every name-search table (``licensee_names()`` order), per scenario.  The
#: values were taken from the original ``html.parser`` scraper, so any
#: extractor change has to reproduce its output exactly.
PARSE_PINS = {
    "europe2020": (
        "403adbacd2d73a4249664fd15018ef138aac52047855107f981f2b97ea3c2f76",
        "99f635acdcc2148855e3adce258edfcff66e0858dd3df81e9bf2fc0e641dc192",
    ),
    "paper2020": (
        "69a02aa5843fc406a86523c012c748b475d13bd6514a2383d23343341b0c2b80",
        "35dcec5ae999c56a3786f15b4b08531055b3ef82deefd23b0a28fd5934647ac7",
    ),
    "tokyo-singapore": (
        "cac285b7a860eed2aaa9fd926939905c3f6e9cdbbd6ed1c28123a443f70003c0",
        "8cd44521ff6fbd880c9c36b85df52d4616a1bcd9c166035a292372a627b38b51",
    ),
    "synthetic:seed=7,networks=3": (
        "e4a72498c2c06f5a3be21f3bc29586a004c94f065720dff6d5cb7fbf5471988d",
        "9729ea4822068ee0d77e3d06ea0f92a2afa88cdcea06d27b8c9ad48c4b341801",
    ),
}


@pytest.mark.parametrize("ref", sorted(PARSE_PINS))
def test_parsed_pages_match_pins(ref):
    database = resolve_scenario(ref).database
    portal = UlsPortal(database)
    details = [
        UlsScraper._parse_detail(portal.license_detail_page(lic.license_id))
        for lic in database
    ]
    tables = [
        _parse_table_page(portal.name_search_page(name))
        for name in database.licensee_names()
    ]
    digests = tuple(
        hashlib.sha256(repr(parsed).encode()).hexdigest() for parsed in (details, tables)
    )
    assert digests == PARSE_PINS[ref]


def test_pins_cover_every_concrete_scenario():
    assert set(scenario_names(concrete_only=True)) <= set(PARSE_PINS)


_ESCAPED_TEXT = st.text(alphabet="aZ9 &<>\"';#", min_size=1, max_size=12).map(
    str.strip
).filter(bool)


@given(
    licensee=_ESCAPED_TEXT,
    sites=st.lists(_ESCAPED_TEXT, min_size=2, max_size=2),
    lat=st.floats(-60.0, 60.0),
    lon=st.floats(-170.0, 170.0),
    grant=st.dates(dt.date(2000, 1, 1), dt.date(2030, 12, 31)),
)
@settings(max_examples=60, deadline=None)
def test_detail_page_roundtrip(licensee, sites, lat, lon, grant):
    lic = make_license(
        "L1", licensee=licensee, points=((lat, lon), (lat + 0.3, lon - 0.4)), grant=grant
    )
    lic.locations = {
        number: replace(loc, site_name=site)
        for (number, loc), site in zip(lic.locations.items(), sites)
    }
    parsed = UlsScraper._parse_detail(UlsPortal(UlsDatabase([lic])).license_detail_page("L1"))
    for number, loc in lic.locations.items():
        point = parsed.locations[number].point
        assert point.latitude == pytest.approx(loc.point.latitude, abs=1e-6)
        assert point.longitude == pytest.approx(loc.point.longitude, abs=1e-6)
    parsed.locations = {
        number: replace(loc, point=lic.locations[number].point)
        for number, loc in parsed.locations.items()
    }
    assert parsed == lic
