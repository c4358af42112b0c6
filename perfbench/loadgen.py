"""Open-loop HTTP load from one process over one connection at a time.

Request ``i`` of a phase is *due* at ``start + i / rate`` whatever
happened to earlier requests; one sender takes requests in order, waits
for their due time and sends.  Latency is measured from the due time,
so a stall also charges the wait it imposes on the requests queued
behind it, and the generator's lateness (send minus due) is recorded
beside it.

One connection, not two: with two, requests overlapped in the server
and contended for its interpreter lock, and p50 swung with the host's
speed about twice as much as CPU-bound work did (interleaved 150-request
phases on one server: p50 spread 26% with two connections, 15% with
one, at the same median).
"""

from __future__ import annotations

import hashlib
import http.client
import time
from dataclasses import dataclass
from typing import Sequence
from urllib.parse import urlsplit

from plan import Request

REQUEST_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class Sample:
    request: Request
    due: float
    sent: float
    done: float
    status: int
    sha256: str

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        return (self.done - self.sent) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


def fetch(base_url: str, target: str) -> tuple[int, bytes]:
    """One GET on a fresh connection (the server closes every connection)."""
    parts = urlsplit(base_url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=REQUEST_TIMEOUT_S)
    try:
        conn.request("GET", target)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def open_loop(base_url: str, requests: Sequence[Request], rate: float) -> list[Sample]:
    """Send ``requests`` at ``rate`` per second; returns samples in order."""
    samples: list[Sample] = []
    start = time.perf_counter() + 0.05
    for index, request in enumerate(requests):
        due = start + index / rate
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        sent = time.perf_counter()
        try:
            status, body = fetch(base_url, request.url)
        except (OSError, http.client.HTTPException):
            status, body = 0, b""
        done = time.perf_counter()
        samples.append(
            Sample(request, due, sent, done, status, hashlib.sha256(body).hexdigest())
        )
    return samples
