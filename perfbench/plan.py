"""Pure logic of the benchmark: inputs from a seed, and the statistics.

Nothing here starts a process or touches the program under test, so
``perfbench/tests`` can pin every rule without building a scenario:

* the CLI whole-pass schedule (seeded command order, cut only at a pass
  boundary);
* the serve request mix (seeded URLs on stratified dates, in whole
  passes over the read kinds);
* nearest-rank percentiles and the rule that a reported tail keeps at
  least ten samples beyond it;
* self time from nested spans.
"""

from __future__ import annotations

import datetime as dt
import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar
from urllib.parse import quote

# ----------------------------------------------------------------------
# CLI passes
# ----------------------------------------------------------------------

T = TypeVar("T")

#: The fixed CLI command mix: one pass runs each of these once, each as
#: a fresh process.  Keys are the metric names' command labels.
CLI_COMMANDS: dict[str, tuple[str, ...]] = {
    "table1": ("table1",),
    "timeline-monthly": ("timeline", "--step", "monthly"),
    "funnel": ("funnel",),
}


def pass_orders(seed: int):
    """Endless seeded command orders, one permutation of
    :data:`CLI_COMMANDS` per pass."""
    rng = random.Random(f"cli-pass-order:{seed}")
    while True:
        order = list(CLI_COMMANDS)
        rng.shuffle(order)
        yield order


def run_passes(
    seed: int,
    seconds: float,
    run_one: Callable[[str], T],
    clock: Callable[[], float],
) -> list[list[tuple[str, T]]]:
    """Run whole passes until ``seconds`` have elapsed, then stop.

    ``run_one(label)`` runs one command and returns its result.  The
    window is checked only between passes, so every pass is complete
    and every command runs equally often; at least one pass always runs.
    """
    orders = pass_orders(seed)
    passes: list[list[tuple[str, T]]] = []
    start = clock()
    while not passes or clock() - start < seconds:
        passes.append([(label, run_one(label)) for label in next(orders)])
    return passes


# ----------------------------------------------------------------------
# Serve request mix
# ----------------------------------------------------------------------

#: The concrete scenarios /rankings is asked about, by registry name.
CONCRETE_SCENARIOS = ("paper2020", "europe2020", "tokyo-singapore")

#: paper2020's featured networks (the Fig 1/2 series), used as the
#: ``licensee`` param of /timeline and /map.
FEATURED = (
    "National Tower Company",
    "Webline Holdings",
    "Jefferson Microwave",
    "Pierce Broadband",
    "New Line Networks",
)

#: The /timeline steps of the read mix.
TIMELINE_STEPS = ("paper", "monthly", "weekly")

#: The read kinds of the serve mix; one pass sends each once.
READ_KINDS = (
    "rankings:paper2020",
    "rankings:europe2020",
    "rankings:tokyo-singapore",
    "timeline",
    "apa",
    "search",
    "map",
)

#: Query dates: each kind's draws visit each of :data:`STRATA` strata of
#: the study window once per cycle, in seeded order, on a uniform day
#: within the stratum, so nearly every dated URL is new and the working
#: set grows far past the server's 256-entry body cache.
WINDOW_START = dt.date(2012, 1, 1)
WINDOW_END = dt.date(2020, 12, 31)
STRATA = 36


class _Dates:
    """Seeded stratified query dates for one read kind."""

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self._strata: list[int] = []
        self._span = (WINDOW_END - WINDOW_START).days + 1

    def draw(self) -> str:
        if not self._strata:
            self._strata = list(range(STRATA))
            self._rng.shuffle(self._strata)
        stratum = self._strata.pop()
        low = self._span * stratum // STRATA
        high = self._span * (stratum + 1) // STRATA
        day = WINDOW_START + dt.timedelta(days=self._rng.randrange(low, high))
        return day.isoformat()


def _query(pairs: Sequence[tuple[str, str]]) -> str:
    return "&".join(f"{key}={quote(value, safe='-:=,')}" for key, value in pairs)


class ReadMix:
    """Seeded read URLs, issued in whole passes over :data:`READ_KINDS`."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"serve-read:{seed}")
        self._dates = {kind: _Dates(self._rng) for kind in READ_KINDS}

    def url(self, kind: str) -> str:
        rng, date = self._rng, self._dates[kind].draw
        if kind.startswith("rankings:"):
            scenario = kind.split(":", 1)[1]
            return "/rankings?" + _query([("date", date()), ("scenario", scenario)])
        if kind == "timeline":
            step = rng.choice(TIMELINE_STEPS)
            return "/timeline?" + _query(
                [("licensee", rng.choice(FEATURED)), ("step", step)]
            )
        if kind == "apa":
            return "/apa?" + _query([("date", date())])
        if kind == "search":
            return "/search?" + _query([("active_on", date())])
        if kind == "map":
            return "/map?" + _query([("date", date()), ("licensee", rng.choice(FEATURED))])
        raise ValueError(f"unknown read kind {kind!r}")

    def next_pass(self) -> list[tuple[str, str]]:
        """One pass: every read kind once, in seeded order, as (kind, url)."""
        order = list(READ_KINDS)
        self._rng.shuffle(order)
        return [(kind, self.url(kind)) for kind in order]


def warmup_urls() -> list[str]:
    """Set-up requests, in order: a weekly timeline per concrete scenario
    (it reconstructs every network at every week, filling the engine's
    snapshot and route caches), then every /timeline URL of the read mix
    (fifteen, undated, so the mix would otherwise pay their first
    computation inside the window)."""
    urls = [
        "/timeline?" + _query([("scenario", name), ("step", "weekly")])
        for name in CONCRETE_SCENARIOS
    ]
    for step in TIMELINE_STEPS:
        urls += [
            "/timeline?" + _query([("licensee", name), ("step", step)]) for name in FEATURED
        ]
    return urls


@dataclass(frozen=True)
class Request:
    """One planned request, from read pass ``pass_no``."""

    kind: str
    url: str
    pass_no: int


def request_plan(seed: int, count: int) -> list[Request]:
    """The first ``count`` requests of the serve workload, in whole passes
    of :data:`READ_KINDS` (the last pass may be cut)."""
    reads = ReadMix(seed)
    plan: list[Request] = []
    pass_no = 0
    while len(plan) < count:
        plan += [Request(kind, url, pass_no) for kind, url in reads.next_pass()]
        pass_no += 1
    return plan[:count]


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------

#: A reported tail percentile must leave at least this many samples
#: beyond it.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank ``percent`` percentile of ``values``."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, percent: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank percentile."""
    return count - max(1, math.ceil(percent / 100.0 * count))


def tail_supported(count: int, percent: float) -> bool:
    """Whether ``count`` samples support reporting the ``percent`` tail."""
    return samples_beyond(count, percent) >= MIN_BEYOND


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) as the steadiness check takes them."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / mid if mid else math.inf


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One wrapped call: ``parent`` is the index of the enclosing span in
    the same thread's record list, or -1."""

    name: str
    start: float
    end: float
    parent: int


def self_times(spans: Sequence[Span]) -> dict[str, tuple[int, float, float]]:
    """Per span name: (calls, total seconds, self seconds).

    A span's self time is its duration minus the durations of the spans
    whose parent it is.  A name that recurses into itself counts its
    total once, at the outermost call.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    result: dict[str, list] = {}
    for index, span in enumerate(spans):
        entry = result.setdefault(span.name, [0, 0.0, 0.0])
        duration = span.end - span.start
        entry[0] += 1
        entry[2] += duration - child_time[index]
        ancestor, nested = span.parent, False
        while ancestor >= 0:
            if spans[ancestor].name == span.name:
                nested = True
                break
            ancestor = spans[ancestor].parent
        if not nested:
            entry[1] += duration
    return {name: (calls, total, own) for name, (calls, total, own) in result.items()}
