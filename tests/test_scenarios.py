"""The scenario registry: references, resolution, and the multi-corridor
round-trip contract.

The load-bearing property: *every* registered scenario (and randomized
``synthetic(...)`` instances) must round-trip through funnel → rankings →
timeline with byte-identical output whether computed on the scenario's
own engine, on a cold store-attached engine, or store-warmed from that
engine's checkpoint.  The
paper scenario additionally pins its golden Table 1 numbers so the
registry refactor can never drift the default output.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.funnel import run_scraping_funnel
from repro.core.engine import CorridorEngine
from repro.core.timeline import yearly_snapshot_dates
from repro.metrics.rankings import rank_connected_networks
from repro.scenarios import (
    ScenarioEntry,
    ScenarioParamError,
    ScenarioRef,
    UnknownScenarioError,
    parse_scenario_ref,
    register_scenario,
    registered_scenarios,
    resolve_scenario,
    scenario_names,
    synthetic_scenario,
)
from repro.serve.payloads import render_payload, rankings_payload
from repro.store import CacheStore
from repro.synth.scenario import (
    europe2020_scenario,
    paper2020_scenario,
    tokyo_singapore_scenario,
)


class TestScenarioRef:
    def test_bare_name(self):
        ref = parse_scenario_ref("paper2020")
        assert ref == ScenarioRef("paper2020")
        assert ref.canonical == "paper2020"

    def test_params_sorted_into_canonical_form(self):
        a = parse_scenario_ref("synthetic:seed=7,links=20")
        b = parse_scenario_ref("synthetic:links=20,seed=7")
        assert a == b
        assert hash(a) == hash(b)
        assert a.canonical == "synthetic:links=20,seed=7"

    def test_whitespace_stripped(self):
        ref = parse_scenario_ref("  synthetic: seed = 7 , links = 20 ")
        assert ref.params == (("links", "20"), ("seed", "7"))

    @pytest.mark.parametrize(
        "text", ["synthetic:seed", "synthetic:=7", "synthetic:seed=", ""]
    )
    def test_malformed_reference_raises(self, text):
        with pytest.raises(ScenarioParamError):
            parse_scenario_ref(text)

    def test_duplicate_keys_raise(self):
        with pytest.raises(ScenarioParamError, match="duplicate"):
            parse_scenario_ref("synthetic:seed=1,seed=2")

    def test_ref_passthrough(self):
        ref = ScenarioRef("europe2020")
        assert parse_scenario_ref(ref) is ref


class TestRegistry:
    def test_builtins_registered(self):
        assert scenario_names() == (
            "europe2020",
            "paper2020",
            "synthetic",
            "tokyo-singapore",
        )

    def test_concrete_only_excludes_the_generator(self):
        assert scenario_names(concrete_only=True) == (
            "europe2020",
            "paper2020",
            "tokyo-singapore",
        )
        by_name = {entry.name: entry for entry in registered_scenarios()}
        assert not by_name["synthetic"].concrete
        assert by_name["paper2020"].concrete

    def test_resolution_shares_the_builder_singletons(self):
        # The whole engine-sharing story rests on this: the registry
        # answers with the *same* cached object the direct builders (and
        # the test fixtures) use, so there is exactly one warm default
        # engine per scenario per process.
        assert resolve_scenario("paper2020") is paper2020_scenario()
        assert resolve_scenario("europe2020") is europe2020_scenario()
        assert resolve_scenario("tokyo-singapore") is tokyo_singapore_scenario()

    def test_synthetic_spellings_share_one_scenario(self):
        a = resolve_scenario("synthetic:seed=11,networks=1,links=12")
        b = resolve_scenario("synthetic:links=12,seed=11,networks=1")
        assert a is b

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(UnknownScenarioError) as excinfo:
            resolve_scenario("atlantis")
        assert "paper2020" in str(excinfo.value)
        assert "tokyo-singapore" in str(excinfo.value)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ScenarioParamError, match="does not accept"):
            resolve_scenario("synthetic:towers=5")

    def test_params_on_parameterless_scenario_rejected(self):
        with pytest.raises(ScenarioParamError, match="does not accept"):
            resolve_scenario("paper2020:seed=1")

    def test_bad_parameter_value_rejected(self):
        with pytest.raises(ScenarioParamError, match="bad value"):
            resolve_scenario("synthetic:seed=many")

    def test_register_replaces_same_name(self):
        entry = ScenarioEntry(
            name="_test_only",
            summary="unit-test entry",
            builder=paper2020_scenario,
        )
        try:
            register_scenario(entry)
            assert resolve_scenario("_test_only") is paper2020_scenario()
            replacement = ScenarioEntry(
                name="_test_only",
                summary="replacement",
                builder=europe2020_scenario,
            )
            register_scenario(replacement)
            assert resolve_scenario("_test_only") is europe2020_scenario()
        finally:
            from repro.scenarios import registry

            with registry._LOCK:
                registry._REGISTRY.pop("_test_only", None)


class TestSyntheticScenario:
    def test_determinism_same_seed_same_world(self):
        a = synthetic_scenario(seed=5, networks=2, links=14)
        b = synthetic_scenario(seed=5, networks=2, links=14)
        assert a is b  # builder-level memoisation
        assert a.name == "synthetic-s5-n2-l14"

    def test_networks_are_connected_and_ranked(self):
        scenario = resolve_scenario("synthetic:seed=9,networks=3,links=16")
        rankings = rank_connected_networks(
            scenario.database,
            scenario.corridor,
            scenario.snapshot_date,
            engine=scenario.engine(),
        )
        assert [r.licensee for r in rankings] == [
            "Synthetic Net 01",
            "Synthetic Net 02",
            "Synthetic Net 03",
        ]
        # Calibration targets are strictly increasing with index.
        latencies = [r.latency_ms for r in rankings]
        assert latencies == sorted(latencies)

    def test_decoys_are_filtered_by_the_funnel(self):
        scenario = resolve_scenario(
            "synthetic:seed=13,networks=2,links=14,decoys=8"
        )
        result = run_scraping_funnel(
            scenario.database,
            scenario.corridor,
            scenario.snapshot_date,
            engine=scenario.engine(),
        )
        candidates, shortlisted, connected = result.counts
        assert candidates > connected  # decoys showed up...
        assert connected == 2  # ...but never survive the funnel

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"networks": 0},
            {"networks": 65},
            {"links": 11},
            {"links": 401},
            {"eras": 0},
            {"eras": 7},
            {"decoys": -1},
            {"decoys": 201},
            # Corridor below the 200 km calibration floor.
            {"west_lat": 32.7, "west_lon": -96.8,
             "east_lat": 32.9, "east_lon": -96.5},
        ],
    )
    def test_out_of_range_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            synthetic_scenario(seed=1, **kwargs)


class TestPaperGoldenPins:
    """The default scenario's output is pinned byte-for-byte forever."""

    def test_table1_golden_numbers(self, scenario, engine):
        rankings = rank_connected_networks(
            scenario.database,
            scenario.corridor,
            scenario.snapshot_date,
            engine=engine,
        )
        top = rankings[0]
        assert top.licensee == "New Line Networks"
        assert f"{top.latency_ms:.5f}" == "3.96172"
        assert top.tower_count == 25
        assert len(rankings) == 9

    def test_cli_table1_default_title_is_unchanged(self, capsys):
        from repro.cli import main

        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Connected networks, CME-NY4\n")
        assert "New Line Networks" in out

    def test_default_resolution_is_the_conftest_scenario(self, scenario):
        assert resolve_scenario("paper2020") is scenario


class TestEuropeTokyoGoldenPins:
    def test_europe_cli_end_to_end(self, capsys):
        from repro.cli import main

        assert main(["table1", "--scenario", "europe2020"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Connected networks, LD4-FR2\n")
        assert "Channel Wave Networks" in out
        assert "2.24600" in out

    def test_tokyo_rankings_golden(self):
        scenario = resolve_scenario("tokyo-singapore")
        rankings = rank_connected_networks(
            scenario.database,
            scenario.corridor,
            scenario.snapshot_date,
            engine=scenario.engine(),
        )
        assert [r.licensee for r in rankings] == [
            "Pacific Rim Relay",
            "Straits Microwave",
            "Archipelago Wave",
        ]
        assert f"{rankings[0].latency_ms:.5f}" == "17.77800"

    def test_unknown_scenario_exits_2(self, capsys):
        from repro.cli import main

        assert main(["table1", "--scenario", "atlantis"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


def _roundtrip_bytes(scenario, engine=None) -> tuple:
    """(funnel counts, canonical rankings bytes, timeline latencies)."""
    engine = engine if engine is not None else scenario.engine()
    funnel = run_scraping_funnel(
        scenario.database,
        scenario.corridor,
        scenario.snapshot_date,
        engine=engine,
    )
    rankings = render_payload(
        rankings_payload(scenario, engine, scenario.snapshot_date)
    )
    dates = yearly_snapshot_dates()
    timeline = {
        name: tuple(point.latency_ms for point in engine.timeline(name, dates))
        for name in scenario.featured_names
    }
    return funnel.counts, rankings, timeline


def _assert_store_roundtrip(scenario) -> None:
    """The scenario's own engine == a cold store-attached engine == an
    engine warmed from that engine's checkpoint, byte for byte."""
    serial = _roundtrip_bytes(scenario)
    with tempfile.TemporaryDirectory() as tmp:
        store_dir = Path(tmp)
        cold = CorridorEngine(
            scenario.database,
            scenario.corridor,
            store=CacheStore(store_dir),
        )
        assert serial == _roundtrip_bytes(scenario, engine=cold)
        cold.checkpoint()
        warmed = CorridorEngine(
            scenario.database,
            scenario.corridor,
            store=CacheStore(store_dir),
        )
        assert serial == _roundtrip_bytes(scenario, engine=warmed)
        # The warm engine really loaded the checkpoint: the snapshots the
        # cold run computed are cache hits, not recomputations.
        assert warmed.stats.snapshot.misses == 0


@pytest.mark.parametrize("name", ["europe2020", "tokyo-singapore"])
def test_registered_scenarios_roundtrip_serial_vs_store(name):
    _assert_store_roundtrip(resolve_scenario(name))


def test_paper_roundtrip_serial_vs_store(scenario):
    _assert_store_roundtrip(scenario)


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    seed=st.integers(min_value=0, max_value=49),
    networks=st.integers(min_value=1, max_value=3),
    links=st.integers(min_value=12, max_value=18),
    decoys=st.integers(min_value=0, max_value=6),
)
def test_synthetic_roundtrip_serial_and_store(seed, networks, links, decoys):
    """Randomized synthetic scenarios hold the full determinism contract:
    serial == cold-store == store-warmed, byte for byte."""
    _assert_store_roundtrip(
        resolve_scenario(
            f"synthetic:seed={seed},networks={networks}"
            f",links={links},decoys={decoys}"
        )
    )
