"""The load harness: seeded mixes, percentile maths, live reports."""

from __future__ import annotations

import time

import pytest

from repro.serve import loadgen
from repro.serve.loadgen import (
    DEFAULT_PATHS,
    LoadProfile,
    RequestSample,
    percentile,
    replay,
    request_sequence,
    run_load,
)


class TestRequestSequence:
    def test_seeded_and_reproducible(self):
        profile = LoadProfile(requests=50, seed=7)
        assert request_sequence(profile) == request_sequence(profile)

    def test_different_seed_different_mix(self):
        base = LoadProfile(requests=50, seed=7)
        other = LoadProfile(requests=50, seed=8)
        assert request_sequence(base) != request_sequence(other)

    def test_draws_from_profile_paths(self):
        profile = LoadProfile(requests=200, paths=("/a", "/b"), seed=1)
        assert set(request_sequence(profile)) == {"/a", "/b"}

    def test_default_mix_covers_every_endpoint(self):
        endpoints = {path.split("?")[0] for path in DEFAULT_PATHS}
        assert endpoints == {"/rankings", "/apa", "/timeline", "/search", "/map"}


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 51.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 100.0

    def test_singleton(self):
        assert percentile([42.0], 0.99) == 42.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)


class TestRunLoad:
    def test_load_against_live_server(self, serve_server):
        profile = LoadProfile(requests=20, clients=2, seed=3)
        report = run_load(serve_server.url, profile)
        assert report.requests == 20
        assert report.clients == 2
        assert report.errors == 0
        assert report.qps > 0
        assert 0 < report.p50_ms <= report.p99_ms
        assert "20 requests" in report.describe()

    def test_non_200_counts_as_error(self, serve_server):
        profile = LoadProfile(
            requests=10, clients=1, paths=("/healthz", "/nope"), seed=5
        )
        expected_errors = sum(
            1 for path in request_sequence(profile) if path == "/nope"
        )
        report = run_load(serve_server.url, profile)
        assert report.errors == expected_errors > 0

    def test_samples_in_request_order_with_four_clients(self, serve_server):
        profile = LoadProfile(
            requests=24, clients=4, paths=("/healthz", "/nope", "/rankings"), seed=11
        )
        sequence = request_sequence(profile)
        samples = replay(serve_server.url, sequence, profile.clients)
        assert [s.path for s in samples] == sequence
        assert [s.status for s in samples] == [
            404 if path == "/nope" else 200 for path in sequence
        ]

    def test_order_survives_out_of_order_completion(self, monkeypatch):
        paths = [f"/p{i}" for i in range(12)]

        def earliest_finishes_last(item):
            _, path = item
            time.sleep(0.002 * (len(paths) - int(path[2:])))
            return RequestSample(path=path, status=200, elapsed_ms=0.0)

        monkeypatch.setattr(loadgen, "_fetch", earliest_finishes_last)
        samples = replay("http://localhost:1", paths, clients=4)
        assert [s.path for s in samples] == paths
