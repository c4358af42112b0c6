"""Golden parity: every served endpoint equals its CLI twin, byte for byte.

Each test runs the real CLI in a subprocess (fresh interpreter, fresh
engine) with ``--format json`` and compares its stdout to the HTTP
response body from the session's warm server.  Both sides render through
:func:`repro.serve.payloads.render_payload`, so any drift between the
service and the paper pipeline — a changed default, a reordered field, a
different engine mode — fails these tests at the byte level.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

PROJECT_ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args: str) -> bytes:
    result = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=PROJECT_ROOT,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def http_body(server, path: str) -> bytes:
    with urllib.request.urlopen(server.url + path, timeout=60) as response:
        assert response.status == 200
        return response.read()


@pytest.mark.parametrize(
    "cli_args, path",
    [
        (("table1", "--format", "json"), "/rankings"),
        (("table1", "--format", "json", "--date", "2019-01-01"), "/rankings?date=2019-01-01"),
        (("table3", "--format", "json"), "/apa"),
        (("timeline", "--format", "json"), "/timeline"),
        (("search", "--format", "json"), "/search"),
        (("search", "--format", "json", "--active-on", "2016-01-01"), "/search?active_on=2016-01-01"),
    ],
)
def test_endpoint_matches_cli_stdout(serve_server, cli_args, path):
    assert http_body(serve_server, path) == run_cli(*cli_args)


def test_map_matches_export_geojson(serve_server, tmp_path):
    run_cli(
        "export", "New Line Networks", "--output-dir", str(tmp_path)
    )
    exported = json.loads(
        (tmp_path / "new_line_networks_2020-04-01.geojson").read_text()
    )
    served = json.loads(http_body(serve_server, "/map"))
    assert served["type"] == exported["type"] == "FeatureCollection"
    assert served["features"] == exported["features"]
