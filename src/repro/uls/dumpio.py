"""Pipe-delimited ULS dump reader/writer.

The FCC publishes ULS data as pipe-delimited files with one record type per
line.  We implement the subset of record types the reconstruction needs,
mirroring the real layout (record-type tag first, license identifier
second):

``HD`` — license header: id, call sign, radio service, station class,
grant/expiration/cancellation/termination dates (ISO).
``EN`` — entity: licensee name and filing contact e-mail.
``LO`` — location: number, split DMS latitude/longitude, ground elevation
(m), structure height (m), site name.
``PA`` — path: number, tx location number, rx location number.
``FR`` — frequency: path number, frequency (MHz).

Records for one license are contiguous and start with its ``HD`` line, as
in the real dumps.  Pipes are not escaped (the FCC format has no escaping),
so field values must not contain ``|``.
"""

from __future__ import annotations

import io
import math
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from repro.geodesy import GeoPoint
from repro.geodesy.coordinates import parse_uls_coordinate
from repro.uls.records import (
    License,
    MicrowavePath,
    TowerLocation,
    format_date,
    parse_date,
)


class DumpFormatError(ValueError):
    """Raised on malformed dump content."""


def _check_field(value: str) -> str:
    if "|" in value or "\n" in value:
        raise DumpFormatError(f"field value may not contain '|' or newline: {value!r}")
    return value


def _split_dms(value: float) -> tuple[int, int, float]:
    """Split decimal degrees magnitude into (deg, min, sec)."""
    magnitude = abs(value)
    degrees = int(magnitude)
    rem = (magnitude - degrees) * 60.0
    minutes = int(rem)
    seconds = (rem - minutes) * 60.0
    # Guard against floating point pushing seconds to 60.
    if seconds >= 59.9999999:
        seconds = 0.0
        minutes += 1
        if minutes == 60:
            minutes = 0
            degrees += 1
    return degrees, minutes, seconds


def write_license(lic: License, out: TextIO) -> None:
    """Write one license's record group to ``out``."""
    out.write(
        "|".join(
            [
                "HD",
                _check_field(lic.license_id),
                _check_field(lic.callsign),
                _check_field(lic.radio_service_code),
                _check_field(lic.station_class),
                format_date(lic.grant_date),
                format_date(lic.expiration_date),
                format_date(lic.cancellation_date),
                format_date(lic.termination_date),
            ]
        )
        + "\n"
    )
    out.write(
        f"EN|{lic.license_id}|{_check_field(lic.licensee_name)}"
        f"|{_check_field(lic.contact_email)}\n"
    )
    for number in sorted(lic.locations):
        loc = lic.locations[number]
        lat_d, lat_m, lat_s = _split_dms(loc.point.latitude)
        lon_d, lon_m, lon_s = _split_dms(loc.point.longitude)
        lat_h = "N" if loc.point.latitude >= 0 else "S"
        lon_h = "E" if loc.point.longitude >= 0 else "W"
        out.write(
            "|".join(
                [
                    "LO",
                    lic.license_id,
                    str(number),
                    str(lat_d),
                    str(lat_m),
                    f"{lat_s:.4f}",
                    lat_h,
                    str(lon_d),
                    str(lon_m),
                    f"{lon_s:.4f}",
                    lon_h,
                    f"{loc.ground_elevation_m:.1f}",
                    f"{loc.structure_height_m:.1f}",
                    _check_field(loc.site_name),
                ]
            )
            + "\n"
        )
    for path in lic.paths:
        out.write(
            f"PA|{lic.license_id}|{path.path_number}"
            f"|{path.tx_location_number}|{path.rx_location_number}\n"
        )
        for freq in path.frequencies_mhz:
            out.write(f"FR|{lic.license_id}|{path.path_number}|{freq:.1f}\n")


def write_uls_dump(licenses: Iterable[License], destination: str | Path | TextIO) -> None:
    """Write licenses to a dump file or stream."""
    if isinstance(destination, (str, Path)):
        with open(destination, "w", encoding="utf-8") as handle:
            for lic in licenses:
                write_license(lic, handle)
    else:
        for lic in licenses:
            write_license(lic, destination)


def dumps(licenses: Iterable[License]) -> str:
    """Serialise licenses to a dump string."""
    buffer = io.StringIO()
    write_uls_dump(licenses, buffer)
    return buffer.getvalue()


def _finish(record: dict) -> License:
    try:
        paths = [
            MicrowavePath(
                path_number=number,
                tx_location_number=tx,
                rx_location_number=rx,
                frequencies_mhz=tuple(record["freqs"].get(number, ())),
            )
            for number, (tx, rx) in sorted(record["paths"].items())
        ]
        return License(
            license_id=record["license_id"],
            callsign=record["callsign"],
            licensee_name=record["licensee_name"],
            contact_email=record["contact_email"],
            radio_service_code=record["service"],
            station_class=record["station_class"],
            grant_date=record["grant"],
            expiration_date=record["expiration"],
            cancellation_date=record["cancellation"],
            termination_date=record["termination"],
            locations=record["locations"],
            paths=paths,
        )
    except ValueError as exc:
        # Path and license checks (loops, dangling locations) run once the
        # group is complete; report them at the group's HD line.
        raise DumpFormatError(f"line {record['line']}: {exc}") from exc


def _header(fields: list[str], line_number: int) -> dict:
    if len(fields) != 9:
        raise DumpFormatError("HD needs 9 fields")
    return {
        "line": line_number,
        "license_id": fields[1],
        "callsign": fields[2],
        "service": fields[3],
        "station_class": fields[4],
        "grant": parse_date(fields[5]),
        "expiration": parse_date(fields[6]),
        "cancellation": parse_date(fields[7]),
        "termination": parse_date(fields[8]),
        "licensee_name": "",
        "contact_email": "",
        "locations": {},
        "paths": {},
        "freqs": {},
    }


def _add_record(current: dict | None, fields: list[str]) -> None:
    """Fold one non-HD record into the open license group."""
    tag = fields[0]
    if current is None:
        raise DumpFormatError(f"{tag} record before any HD")
    if len(fields) < 2:
        raise DumpFormatError(f"{tag} record has no license id")
    if fields[1] != current["license_id"]:
        raise DumpFormatError(
            f"{tag} for {fields[1]!r} inside {current['license_id']!r} group"
        )
    if tag == "EN":
        if len(fields) not in (3, 4):
            raise DumpFormatError("EN needs 3 or 4 fields")
        current["licensee_name"] = fields[2]
        if len(fields) == 4:
            current["contact_email"] = fields[3]
    elif tag == "LO":
        if len(fields) != 14:
            raise DumpFormatError("LO needs 14 fields")
        number = int(fields[2])
        latitude = parse_uls_coordinate(fields[3], fields[4], fields[5], fields[6])
        longitude = parse_uls_coordinate(fields[7], fields[8], fields[9], fields[10])
        current["locations"][number] = TowerLocation(
            location_number=number,
            point=GeoPoint(latitude, longitude),
            ground_elevation_m=float(fields[11]),
            structure_height_m=float(fields[12]),
            site_name=fields[13],
        )
    elif tag == "PA":
        if len(fields) != 5:
            raise DumpFormatError("PA needs 5 fields")
        current["paths"][int(fields[2])] = (int(fields[3]), int(fields[4]))
    elif tag == "FR":
        if len(fields) != 4:
            raise DumpFormatError("FR needs 4 fields")
        frequency = float(fields[3])
        if not math.isfinite(frequency) or frequency <= 0.0:
            raise DumpFormatError(f"bad frequency {fields[3]!r}")
        current["freqs"].setdefault(int(fields[2]), []).append(frequency)
    else:
        raise DumpFormatError(f"unknown record type {tag!r}")


def _parse_records(lines: Iterable[str]) -> Iterator[License]:
    current: dict | None = None
    for line_number, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line:
            continue
        fields = line.split("|")
        if fields[0] == "HD" and current is not None:
            yield _finish(current)
        try:
            if fields[0] == "HD":
                current = _header(fields, line_number)
            else:
                _add_record(current, fields)
        except (ValueError, OverflowError) as exc:
            # Bad numbers, dates, hemispheres and field counts alike.
            raise DumpFormatError(f"line {line_number}: {exc}") from exc

    if current is not None:
        yield _finish(current)


def read_uls_dump(source: str | Path | TextIO) -> list[License]:
    """Read licenses from a dump file, stream, or path."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return list(_parse_records(handle))
    return list(_parse_records(source))


def loads(text: str) -> list[License]:
    """Parse licenses from a dump string."""
    return list(_parse_records(io.StringIO(text)))
