"""Tests of the benchmark's pure logic: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import bisect
import datetime as dt
import sys
from collections import Counter
from pathlib import Path
from urllib.parse import parse_qsl, urlsplit

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import plan  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Whole-pass balancing
# ----------------------------------------------------------------------


def _run(seconds: float, cost: dict[str, float], seed: int = 1):
    clock = FakeClock()

    def run_one(label: str) -> float:
        clock.now += cost[label]
        return cost[label]

    return plan.run_passes(seed, seconds, run_one, clock)


def test_every_command_runs_equally_often():
    passes = _run(40.0, {"table1": 2.0, "timeline-monthly": 2.2, "funnel": 6.5})
    counts = Counter(label for one in passes for label, _ in one)
    assert set(counts) == set(plan.CLI_COMMANDS)
    assert len(set(counts.values())) == 1
    assert all(sorted(label for label, _ in one) == sorted(plan.CLI_COMMANDS) for one in passes)


def test_run_is_cut_only_at_a_pass_boundary():
    # Each pass costs 10 s: at 20 s the window closes exactly at the end
    # of pass 2; at 20.5 s pass 3 starts and runs to completion.
    cost = {"table1": 2.0, "timeline-monthly": 2.0, "funnel": 6.0}
    assert len(_run(20.0, cost)) == 2
    assert len(_run(20.5, cost)) == 3
    assert len(_run(0.0, cost)) == 1


def test_pass_order_is_seeded():
    first = [next(plan.pass_orders(7)) for _ in range(2)]
    assert first[0] == first[1]
    orders = plan.pass_orders(7)
    seen = {tuple(next(orders)) for _ in range(60)}
    assert len(seen) == 6  # every permutation of three commands occurs


# ----------------------------------------------------------------------
# Seeded generators
# ----------------------------------------------------------------------


def _shares(requests):
    kinds = Counter(r.kind for r in requests)
    scenarios = Counter(
        dict(parse_qsl(urlsplit(r.url).query)).get("scenario", "-")
        for r in requests
    )
    params = Counter(
        tuple(sorted(dict(parse_qsl(urlsplit(r.url).query)))) for r in requests
    )
    return kinds, scenarios, params


def test_same_seed_gives_same_urls():
    assert plan.request_plan(5, 700) == plan.request_plan(5, 700)
    assert plan.request_plan(5, 700) != plan.request_plan(6, 700)


def test_different_seeds_keep_endpoint_scenario_and_param_shares():
    first, second = (_shares(plan.request_plan(seed, 7 * 500)) for seed in (1, 2))
    assert first == second


def test_read_kinds_come_in_whole_passes():
    requests = plan.request_plan(3, 7 * 50 + 3)
    by_pass: dict[int, list[str]] = {}
    for request in requests:
        by_pass.setdefault(request.pass_no, []).append(request.kind)
    assert len(by_pass) == 51
    assert all(sorted(by_pass[n]) == sorted(plan.READ_KINDS) for n in range(50))
    assert len(by_pass[50]) == 3


def _dates(requests, kind):
    return [dict(parse_qsl(urlsplit(r.url).query))[
        "active_on" if kind == "search" else "date"] for r in requests if r.kind == kind]


def test_dates_are_stratified_over_the_window():
    requests = plan.request_plan(2, 7 * plan.STRATA * 3)
    span = (plan.WINDOW_END - plan.WINDOW_START).days + 1
    bounds = [span * k // plan.STRATA for k in range(1, plan.STRATA)]
    for kind in ("rankings:europe2020", "apa", "search", "map"):
        dates = _dates(requests, kind)
        assert len(dates) == plan.STRATA * 3
        for start in range(0, len(dates), plan.STRATA):
            strata = sorted(
                bisect.bisect_right(bounds, (dt.date.fromisoformat(d) - plan.WINDOW_START).days)
                for d in dates[start:start + plan.STRATA]
            )
            assert strata == list(range(plan.STRATA))


def test_working_set_outgrows_the_body_cache():
    requests = plan.request_plan(4, 1500)
    assert len({r.url for r in requests}) > 4 * 256


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------


def test_nearest_rank():
    values = list(range(1, 101))
    assert plan.nearest_rank(values, 50) == 50
    assert plan.nearest_rank(values, 99) == 99
    assert plan.nearest_rank(values, 100) == 100
    assert plan.nearest_rank([3.0], 99) == 3.0
    assert plan.nearest_rank([5, 1, 4, 2, 3], 50) == 3
    with pytest.raises(ValueError):
        plan.nearest_rank([], 50)


def test_ten_beyond_rule():
    assert plan.samples_beyond(1000, 99) == 10
    assert plan.tail_supported(1000, 99)
    assert not plan.tail_supported(999, 99)
    assert plan.tail_supported(20, 50)
    assert not plan.tail_supported(9, 50)


def test_spread_is_interquartile_over_median():
    mid, q1, q3, width = plan.spread([10, 10, 10, 10, 10, 10, 10, 10, 10, 10])
    assert (mid, width) == (10, 0)
    mid, q1, q3, width = plan.spread([1, 2, 3, 4, 5])
    assert mid == 3 and width == pytest.approx((q3 - q1) / 3)


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------


def test_self_time_subtracts_wrapped_children():
    spans = [
        plan.Span("cli.main", 0.0, 10.0, -1),
        plan.Span("synth.build", 1.0, 5.0, 0),
        plan.Span("synth.calibrate", 1.5, 2.5, 1),
        plan.Span("synth.calibrate", 3.0, 4.0, 1),
        plan.Span("core.route", 6.0, 7.0, 0),
    ]
    result = plan.self_times(spans)
    assert result["cli.main"] == (1, 10.0, pytest.approx(5.0))
    assert result["synth.build"] == (1, 4.0, pytest.approx(2.0))
    assert result["synth.calibrate"] == (2, 2.0, pytest.approx(2.0))
    assert result["core.route"] == (1, 1.0, pytest.approx(1.0))
    total_self = sum(own for _, _, own in result.values())
    assert total_self == pytest.approx(10.0)


def test_self_time_of_a_recursive_name_counts_total_once():
    spans = [
        plan.Span("core.snapshot", 0.0, 4.0, -1),
        plan.Span("core.snapshot", 1.0, 3.0, 0),
    ]
    calls, total, own = plan.self_times(spans)["core.snapshot"]
    assert (calls, total, own) == (2, 4.0, pytest.approx(4.0))
