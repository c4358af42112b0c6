"""Multi-scenario serving: ``?scenario=``, the engine table, ``/scenarios``.

One :class:`CorridorQueryService` hosts every registered scenario: the
default stays exactly as the single-scenario server behaved (pinned by
``test_serve_service.py``/``test_serve_parity.py``), and this file pins
the routing layer on top — lazy engine-per-scenario states, per-scenario
body caches, structured errors for bad references, and checkpoint-all on
draining shutdown.
"""

from __future__ import annotations

import json

import pytest

from repro.scenarios import resolve_scenario
from repro.serve import CorridorQueryService
from repro.serve.payloads import render_payload


@pytest.fixture()
def service(scenario, engine):
    return CorridorQueryService(scenario=scenario, engine=engine)


class TestScenarioParam:
    def test_routes_to_the_requested_corridor(self, service):
        status, payload = service.handle_url("/rankings?scenario=europe2020")
        assert status == 200
        assert (payload["source"], payload["target"]) == ("LD4", "FR2")
        assert [r["licensee"] for r in payload["rankings"]] == [
            "Channel Wave Networks",
            "Rhine Crossing Comm",
            "Lowland Relay",
        ]

    def test_default_requests_untouched(self, service):
        status, payload = service.handle_url("/rankings")
        assert status == 200
        assert (payload["source"], payload["target"]) == ("CME", "NY4")

    def test_engine_shared_with_the_registry(self, service):
        service.handle_url("/rankings?scenario=europe2020")
        state = service._resolve_state("europe2020")
        assert state.facade.engine is resolve_scenario("europe2020").engine()

    def test_spellings_share_one_state(self, service):
        a = service._resolve_state("synthetic:seed=4,networks=1,links=12")
        b = service._resolve_state("synthetic:links=12,networks=1,seed=4")
        assert a is b

    def test_hosted_ref_not_rebuilt_after_builder_eviction(self, service):
        from repro.scenarios.synthetic import synthetic_scenario

        ref = "synthetic:seed=5,networks=3"
        status, first = service.handle_url(f"/rankings?scenario={ref}")
        assert status == 200
        hosted = service._resolve_state(ref)
        # The builder's lru_cache forgets the scenario; the service still
        # hosts it and must answer from the table without rebuilding.
        synthetic_scenario.cache_clear()
        status, again = service.handle_url(f"/rankings?scenario={ref}")
        assert status == 200
        assert again == first
        assert synthetic_scenario.cache_info().misses == 0
        assert service._resolve_state(ref) is hosted

    def test_default_name_routes_to_default_state(self, service, scenario):
        state = service._resolve_state(scenario.name)
        assert state is service._default_state

    def test_scenario_defaults_follow_the_scenario(self, service):
        # /apa falls back to the scenario's spotlight pair and /map to
        # its first spotlight network — not the paper's hardcoded names.
        status, payload = service.handle_url("/apa?scenario=tokyo-singapore")
        assert status == 200
        assert payload["licensees"] == ["Pacific Rim Relay", "Straits Microwave"]
        status, payload = service.handle_url("/map?scenario=tokyo-singapore")
        assert status == 200
        assert payload["properties"]["licensee"] == "Pacific Rim Relay"

    def test_unknown_scenario_is_structured_404(self, service):
        status, payload = service.handle_url("/rankings?scenario=atlantis")
        assert status == 404
        assert payload["error"]["code"] == "unknown-scenario"

    def test_bad_parameters_are_structured_400(self, service):
        status, payload = service.handle_url(
            "/rankings?scenario=synthetic:seed=many"
        )
        assert status == 400
        assert payload["error"]["code"] == "bad-scenario"

    def test_sites_validated_against_the_requested_corridor(self, service):
        status, payload = service.handle_url(
            "/rankings?scenario=europe2020&source=CME"
        )
        assert status == 400
        assert payload["error"]["code"] == "unknown-site"
        assert "LD4" in payload["error"]["message"]


class TestScenariosEndpoint:
    def test_lists_registry_and_loaded(self, service, scenario):
        service.handle_url("/rankings?scenario=europe2020")
        status, payload = service.handle_url("/scenarios")
        assert status == 200
        assert payload["default"] == scenario.name
        assert "europe2020" in payload["loaded"]
        by_name = {entry["name"]: entry for entry in payload["scenarios"]}
        assert by_name["synthetic"]["concrete"] is False
        assert "seed" in by_name["synthetic"]["params"]
        assert by_name["paper2020"]["concrete"] is True

    def test_payload_renders_canonically(self, service):
        status, payload = service.handle_url("/scenarios")
        assert json.loads(render_payload(payload)) == payload

    def test_unknown_endpoint_mentions_scenarios(self, service):
        status, payload = service.handle_url("/nope")
        assert status == 404
        assert "/scenarios" in payload["error"]["message"]


class TestPerScenarioBodyCaches:
    def test_body_caches_are_isolated_per_scenario(self, service):
        s1, body1 = service.handle_http("/rankings?scenario=europe2020")
        s2, body2 = service.handle_http("/rankings?scenario=europe2020")
        assert (s1, s2) == (200, 200)
        assert body1 == body2
        europe = service._resolve_state("europe2020")
        assert europe.bodies.describe()["hits"] == 1
        # The default scenario's cache never saw the request.
        assert service.bodies.describe()["misses"] == 0

    def test_stats_reports_loaded_scenarios(self, service):
        service.handle_http("/rankings?scenario=europe2020")
        status, stats = service.handle_url("/stats")
        assert status == 200
        assert "europe2020" in stats["scenarios"]
        europe = stats["scenarios"]["europe2020"]
        assert europe["scenario"] == "europe2020"
        assert europe["body_cache"]["misses"] >= 1

    def test_bad_scenario_bodies_never_cached(self, service):
        service.handle_http("/rankings?scenario=atlantis")
        service.handle_http("/rankings?scenario=atlantis")
        for state in service._states.values():
            described = state.bodies.describe()
            assert described["entries"] == 0


class TestCheckpointAll:
    def test_checkpoint_covers_every_loaded_engine(self, tmp_path, scenario):
        import dataclasses

        from repro.core.engine import CorridorEngine
        from repro.store import CacheStore
        from repro.uls.database import UlsDatabase

        # Two scenarios, each on its own store-attached engine.
        default_store = CacheStore(tmp_path / "default")
        copy = UlsDatabase(list(scenario.database))
        default_engine = CorridorEngine(
            copy, scenario.corridor, store=default_store
        )
        service = CorridorQueryService(
            scenario=dataclasses.replace(scenario, database=copy),
            engine=default_engine,
        )
        europe = resolve_scenario("europe2020")
        europe_store = CacheStore(tmp_path / "europe")
        europe_engine = CorridorEngine(
            europe.database, europe.corridor, store=europe_store
        )
        state = service._resolve_state("europe2020")
        state.facade = type(state.facade)(europe_engine)

        service.handle_url("/rankings")
        service.handle_url("/rankings?scenario=europe2020")
        service.checkpoint()
        assert len(default_store.stat()) == 1
        assert len(europe_store.stat()) == 1

    def test_cold_service_checkpoint_is_noop(self, scenario):
        service = CorridorQueryService(scenario=scenario, warm=False)
        assert service.checkpoint() is None


class TestLoadgenAcrossScenarios:
    def test_inprocess_server_serves_scenario_param(self, service):
        from repro.serve import CorridorServer

        import urllib.request

        with CorridorServer(service) as server:
            with urllib.request.urlopen(
                server.url + "/rankings?scenario=europe2020"
            ) as response:
                assert response.status == 200
                payload = json.loads(response.read())
        assert payload["source"] == "LD4"
