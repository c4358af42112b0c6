"""Round-trip and robustness tests for the ULS dump format."""

from __future__ import annotations

import datetime as dt
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geodesy import GeoPoint
from repro.uls import dumpio
from repro.uls.records import License, MicrowavePath, TowerLocation
from tests.conftest import make_license


class TestRoundTrip:
    def test_single_license(self):
        lic = make_license(
            grant=dt.date(2015, 3, 1), cancellation=dt.date(2019, 9, 30)
        )
        (back,) = dumpio.loads(dumpio.dumps([lic]))
        assert back.license_id == lic.license_id
        assert back.licensee_name == lic.licensee_name
        assert back.grant_date == lic.grant_date
        assert back.cancellation_date == lic.cancellation_date
        assert back.paths == lic.paths
        for number in lic.locations:
            original = lic.locations[number].point
            parsed = back.locations[number].point
            assert parsed.latitude == pytest.approx(original.latitude, abs=1e-7)
            assert parsed.longitude == pytest.approx(original.longitude, abs=1e-7)

    def test_multiple_licenses_preserve_order(self):
        lics = [make_license(f"L{i}") for i in range(5)]
        back = dumpio.loads(dumpio.dumps(lics))
        assert [lic.license_id for lic in back] == [f"L{i}" for i in range(5)]

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "dump.dat"
        dumpio.write_uls_dump([make_license()], path)
        assert len(dumpio.read_uls_dump(path)) == 1

    def test_stream_roundtrip(self):
        buffer = io.StringIO()
        dumpio.write_uls_dump([make_license()], buffer)
        buffer.seek(0)
        assert len(dumpio.read_uls_dump(buffer)) == 1

    def test_multi_receiver_license(self):
        lic = License(
            license_id="L1",
            callsign="W1",
            licensee_name="X",
            grant_date=dt.date(2015, 1, 1),
            locations={
                1: TowerLocation(1, GeoPoint(41.0, -88.0)),
                2: TowerLocation(2, GeoPoint(41.2, -87.8)),
                3: TowerLocation(3, GeoPoint(40.8, -87.8)),
            },
            paths=[
                MicrowavePath(1, 1, 2, (10995.0,)),
                MicrowavePath(2, 1, 3, (11485.0, 6063.8)),
            ],
        )
        (back,) = dumpio.loads(dumpio.dumps([lic]))
        assert len(back.paths) == 2
        assert back.paths[1].frequencies_mhz == (11485.0, 6063.8)


class TestErrors:
    def test_rejects_pipe_in_field(self):
        lic = make_license(licensee="Evil|Pipes Inc")
        with pytest.raises(dumpio.DumpFormatError):
            dumpio.dumps([lic])

    def test_rejects_record_before_header(self):
        with pytest.raises(dumpio.DumpFormatError, match="before any HD"):
            dumpio.loads("EN|L1|Someone\n")

    def test_rejects_unknown_record_type(self):
        text = dumpio.dumps([make_license()]) + "ZZ|L0001|x\n"
        with pytest.raises(dumpio.DumpFormatError, match="unknown record"):
            dumpio.loads(text)

    def test_rejects_wrong_field_count(self):
        with pytest.raises(dumpio.DumpFormatError, match="HD needs 9"):
            dumpio.loads("HD|L1|W1\n")

    def test_rejects_foreign_license_record(self):
        lines = dumpio.dumps([make_license("L1")]).splitlines()
        lines.insert(2, "PA|OTHER|1|1|2")
        with pytest.raises(dumpio.DumpFormatError):
            dumpio.loads("\n".join(lines) + "\n")

    def test_rejects_bad_frequency(self):
        text = dumpio.dumps([make_license("L1")]) + "FR|L0001|1|-5.0\n"
        # FR for the finished license group: 'L0001' doesn't match... use
        # an in-group malformed frequency instead.
        lic = make_license("L2", frequencies=(11225.0,))
        good = dumpio.dumps([lic])
        bad = good.replace("11225.0", "nan")
        with pytest.raises((dumpio.DumpFormatError, ValueError)):
            dumpio.loads(bad)

    def test_blank_lines_ignored(self):
        text = "\n" + dumpio.dumps([make_license()]) + "\n\n"
        assert len(dumpio.loads(text)) == 1


@st.composite
def licenses(draw):
    index = draw(st.integers(0, 999))
    n_points = draw(st.integers(2, 4))
    points = []
    for point_index in range(n_points):
        lat = draw(st.floats(min_value=-80.0, max_value=80.0))
        lon = draw(st.floats(min_value=-179.0, max_value=179.0))
        points.append((round(lat, 5), round(lon, 5)))
    freqs = tuple(
        sorted(
            draw(
                st.lists(
                    st.sampled_from([5945.2, 6063.8, 10995.0, 11485.0, 17765.0]),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
        )
    )
    return make_license(
        f"H{index:03d}",
        points=tuple(points),
        frequencies=freqs,
        grant=dt.date(2010 + index % 10, 1 + index % 12, 1 + index % 28),
    )


class TestPropertyRoundTrip:
    @given(licenses())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_preserves_structure(self, lic):
        (back,) = dumpio.loads(dumpio.dumps([lic]))
        assert back.license_id == lic.license_id
        assert len(back.locations) == len(lic.locations)
        assert [p.frequencies_mhz for p in back.paths] == [
            p.frequencies_mhz for p in lic.paths
        ]
        for number, location in lic.locations.items():
            parsed = back.locations[number].point
            assert parsed.latitude == pytest.approx(location.point.latitude, abs=2e-7)
            assert parsed.longitude == pytest.approx(location.point.longitude, abs=2e-7)


class TestMalformedRecords:
    """Malformed lines raise DumpFormatError naming the line, never a bare
    IndexError or ValueError."""

    @pytest.mark.parametrize(
        "line_index, old, new, match",
        [
            (1, "EN|L0001|Test Networks LLC|", "EN", "line 2: EN record has no license id"),
            (2, "LO|L0001|1|", "LO|L0001|x|", "line 3: .*'x'"),
            (2, "|N|", "|Q|", "line 3: bad hemisphere"),
            (2, "|200.0|", "|high|", "line 3: .*'high'"),
            (4, "PA|L0001|1|1|2", "PA|L0001|1|one|2", "line 5: .*'one'"),
            (5, "|11225.0", "|11225,0", "line 6: .*'11225,0'"),
            (0, "|2015-03-01|", "|2015-13-01|", "line 1: month"),
            (4, "PA|L0001|1|1|2", "PA|L0001|1|1|9", "line 1: .*undefined rx location 9"),
            (4, "PA|L0001|1|1|2", "PA|L0001|1|1|1", "line 1: .*loop back"),
            (2, "|90.0|", "|nan|", "line 3: structure height must be finite"),
            (2, "|200.0|", "|nan|", "line 3: ground elevation must be finite"),
            (2, "|90.0|", "|inf|", "line 3: structure height must be finite"),
        ],
    )
    def test_bad_field(self, line_index, old, new, match):
        lines = dumpio.dumps([make_license()]).splitlines()
        assert old in lines[line_index]
        lines[line_index] = lines[line_index].replace(old, new, 1)
        with pytest.raises(dumpio.DumpFormatError, match=match):
            dumpio.loads("\n".join(lines) + "\n")

    @given(
        batch=st.lists(licenses(), min_size=1, max_size=3),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_truncated_or_mutated_lines(self, batch, data):
        lines = dumpio.dumps(batch).splitlines()
        index = data.draw(st.integers(0, len(lines) - 1))
        line = lines[index]
        cut = data.draw(st.integers(0, len(line)))
        patch = data.draw(st.text(alphabet="0123456789-.|NSEWHDLOPAFR x", max_size=6))
        lines[index] = line[:cut] + patch + line[cut + data.draw(st.integers(0, 6)):]
        if data.draw(st.booleans()):
            lines = lines[: index + 1]  # the dump ends mid-group
        try:
            dumpio.loads("\n".join(lines) + "\n")
        except dumpio.DumpFormatError:
            pass
