"""Load generation against a running corridor query server.

The client fleet is a thread pool of ``profile.clients`` workers: the
seeded request mix is built up front, the fleet replays it, and the
report reduces per-request samples (in request-sequence order) into
sustained throughput and tail latency.  Determinism discipline: the
request *sequence* is seeded (``random.Random(profile.seed)``), so two
runs of the same profile issue identical requests in identical order —
only the timings differ.

This module is on the lint obs-discipline allowlist: like
``benchmarks/``, measuring wall time is its whole point, so it reads
``time.perf_counter`` directly instead of going through obs spans.
"""

from __future__ import annotations

import random
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

#: The default request mix: every served endpoint, with a couple of
#: parameterised variants so warm runs exercise more than one cache key.
DEFAULT_PATHS = (
    "/rankings",
    "/rankings?date=2019-01-01",
    "/apa",
    "/timeline?step=paper",
    "/timeline?step=paper&licensee=New%20Line%20Networks",
    "/search",
    "/map",
)


@dataclass(frozen=True)
class LoadProfile:
    """One reproducible load shape: how much, how wide, what mix."""

    requests: int = 200
    clients: int = 4
    paths: tuple[str, ...] = DEFAULT_PATHS
    seed: int = 7


@dataclass(frozen=True)
class RequestSample:
    """One request's outcome as measured by the client."""

    path: str
    status: int
    elapsed_ms: float


@dataclass(frozen=True)
class LoadReport:
    """The reduced result of one load run."""

    requests: int
    clients: int
    wall_s: float
    qps: float
    p50_ms: float
    p99_ms: float
    errors: int

    def describe(self) -> str:
        return (
            f"{self.requests} requests / {self.clients} clients: "
            f"{self.qps:.1f} qps over {self.wall_s:.2f}s, "
            f"p50 {self.p50_ms:.2f} ms, p99 {self.p99_ms:.2f} ms, "
            f"{self.errors} errors"
        )


def request_sequence(profile: LoadProfile) -> list[str]:
    """The seeded request mix: same profile, same sequence, always."""
    rng = random.Random(profile.seed)
    return [rng.choice(profile.paths) for _ in range(profile.requests)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _fetch(item: tuple[str, str]) -> RequestSample:
    """One client request."""
    base_url, path = item
    start = time.perf_counter()
    try:
        with urllib.request.urlopen(base_url + path, timeout=60) as response:
            response.read()
            status = response.status
    except urllib.error.HTTPError as error:
        error.read()
        status = error.code
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return RequestSample(path=path, status=status, elapsed_ms=elapsed_ms)


def replay(base_url: str, paths: list[str], clients: int) -> list[RequestSample]:
    """Issue ``paths`` against ``base_url`` from ``clients`` threads.

    Samples come back in request order, whatever order they finish in.
    """
    base = base_url.rstrip("/")
    with ThreadPoolExecutor(max_workers=clients) as fleet:
        return list(fleet.map(_fetch, [(base, path) for path in paths]))


def run_load(
    base_url: str,
    profile: LoadProfile | None = None,
) -> LoadReport:
    """Replay ``profile`` against ``base_url`` with a thread fleet."""
    profile = profile if profile is not None else LoadProfile()
    paths = request_sequence(profile)
    start = time.perf_counter()
    samples = replay(base_url, paths, profile.clients)
    wall_s = time.perf_counter() - start
    latencies = [s.elapsed_ms for s in samples]
    errors = sum(1 for s in samples if s.status != 200)
    return LoadReport(
        requests=len(samples),
        clients=profile.clients,
        wall_s=wall_s,
        qps=len(samples) / wall_s if wall_s > 0 else 0.0,
        p50_ms=percentile(latencies, 0.50),
        p99_ms=percentile(latencies, 0.99),
        errors=errors,
    )
