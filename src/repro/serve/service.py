"""The corridor query service: validated endpoints over the facade.

:class:`CorridorQueryService` is the transport-free core of the server
— it maps ``(path, query params)`` to a JSON payload, with every
engine-touching computation routed through a
:class:`~repro.serve.facade.EngineFacade` (lock-scoped, coalesced).
The HTTP layer (:mod:`repro.serve.server`) is a thin adapter; tests
exercise the service directly where the socket adds nothing.

One service hosts *many* corridor scenarios: every analysis endpoint
accepts ``?scenario=NAME[:k=v,...]`` (resolved through
:mod:`repro.scenarios`), each resolved scenario gets its own
facade-wrapped warm engine and its own rendered-body cache in an
engine-per-scenario table built lazily on first request, and
``/scenarios`` lists what the registry offers and what is already
loaded.  Requests without the param hit the default scenario exactly
as before.

Faults are values, not stack traces: every rejected request raises a
:class:`ServiceError` carrying an HTTP status and a machine-readable
code, rendered as ``{"error": {"code": ..., "message": ...}}``.  An
unexpected handler exception becomes a structured 500 and the service
keeps serving.
"""

from __future__ import annotations

import datetime as dt
import threading
from collections import OrderedDict
from typing import Callable
from urllib.parse import parse_qsl, urlsplit

from repro import obs
from repro.core.engine import CorridorEngine
from repro.serve import payloads
from repro.serve.facade import EngineFacade
from repro.serve.payloads import DATE_MAX, DATE_MIN, render_payload
from repro.synth.scenario import Scenario, paper2020_scenario


class ServiceError(Exception):
    """A structured request failure (HTTP status + stable error code)."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code

    def payload(self) -> dict:
        return {"error": {"code": self.code, "message": str(self)}}


# ----------------------------------------------------------------------
# Parameter parsing/validation helpers
# ----------------------------------------------------------------------


def parse_request(url: str) -> tuple[str, dict[str, str]]:
    """Split a request target into (path, params); reject duplicates."""
    parts = urlsplit(url)
    params: dict[str, str] = {}
    for key, value in parse_qsl(parts.query, keep_blank_values=True):
        if key in params:
            raise ServiceError(
                400, "duplicate-param", f"query parameter repeated: {key!r}"
            )
        params[key] = value
    return parts.path, params


def _check_params(params: dict[str, str], allowed: tuple[str, ...]) -> None:
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ServiceError(
            400,
            "unknown-param",
            f"unknown query parameter(s) {unknown}; "
            f"expected a subset of {sorted(allowed)}",
        )


def _date_param(
    params: dict[str, str], name: str, default: dt.date | None
) -> dt.date | None:
    text = params.get(name)
    if text is None:
        date = default
    else:
        try:
            date = dt.date.fromisoformat(text)
        except ValueError:
            raise ServiceError(
                400, "bad-date", f"{name!r} is not a YYYY-MM-DD date: {text!r}"
            ) from None
    if date is not None and not (DATE_MIN <= date <= DATE_MAX):
        raise ServiceError(
            400,
            "date-out-of-range",
            f"{name!r} must fall within [{DATE_MIN}, {DATE_MAX}], "
            f"got {date.isoformat()}",
        )
    return date


def _float_param(
    params: dict[str, str], name: str, default: float | None
) -> float | None:
    text = params.get(name)
    if text is None:
        return default
    try:
        value = float(text)
    except ValueError:
        raise ServiceError(
            400, "bad-number", f"{name!r} is not a number: {text!r}"
        ) from None
    if value != value or value in (float("inf"), float("-inf")):
        raise ServiceError(400, "bad-number", f"{name!r} must be finite")
    return value


#: Bound on cached rendered bodies.  The request space is small (a
#: handful of endpoints x a few hundred plausible param combinations);
#: 256 covers a steady-state load profile without unbounded growth.
DEFAULT_BODY_CACHE_SIZE = 256


class ResponseBodyCache:
    """Rendered 200 response bodies, keyed on (endpoint, params).

    One level above the facade: a hit skips request parsing, payload
    building *and* JSON rendering.  Entries are scoped to one engine
    generation — any database mutation bumps the generation and the
    next lookup drops every cached body, so a stale body can never be
    served (same invalidation rule as the engine's own caches).  Bodies
    are immutable ``bytes``, safe to hand to any number of threads.
    """

    def __init__(self, maxsize: int = DEFAULT_BODY_CACHE_SIZE) -> None:
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self._generation: int | None = None
        self._entries: OrderedDict[tuple, bytes] = OrderedDict()
        self._lock = threading.Lock()

    def _sync_generation(self, generation: int) -> None:
        if generation != self._generation:
            if self._entries:
                self.invalidations += 1
                self._entries.clear()
            self._generation = generation

    def get(self, key: tuple, generation: int) -> bytes | None:
        with self._lock:
            self._sync_generation(generation)
            body = self._entries.get(key)
            if body is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return body

    def put(self, key: tuple, generation: int, body: bytes) -> None:
        with self._lock:
            self._sync_generation(generation)
            if key not in self._entries and len(self._entries) >= self.maxsize:
                self._entries.popitem(last=False)
            self._entries[key] = body
            self._entries.move_to_end(key)

    def describe(self) -> dict:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "invalidations": self.invalidations,
                "generation": self._generation,
            }


class _ScenarioState:
    """One hosted scenario: its facade-wrapped engine and body cache."""

    __slots__ = ("scenario", "facade", "bodies")

    def __init__(self, scenario: Scenario, facade: EngineFacade) -> None:
        self.scenario = scenario
        self.facade = facade
        self.bodies = ResponseBodyCache()


class CorridorQueryService:
    """Route validated queries to payload builders over warm engines.

    Parameters
    ----------
    scenario:
        The *default* corridor scenario — served when a request carries
        no ``scenario`` param (defaults to ``paper2020``).  Other
        registered scenarios are loaded on demand into the
        engine-per-scenario table.
    engine:
        The default scenario's shared warm engine behind its facade;
        defaults to the scenario's shared default engine.
    warm:
        ``False`` builds a *fresh* engine for every request — the
        cold-per-request baseline the serve benchmark compares against
        (``hftnetview serve --cold``).  Warm is the production mode.
    """

    def __init__(
        self,
        scenario: Scenario | None = None,
        engine: CorridorEngine | None = None,
        warm: bool = True,
    ) -> None:
        self.scenario = scenario if scenario is not None else paper2020_scenario()
        self.warm = warm
        shared = engine if engine is not None else self.scenario.engine()
        self._default_state = _ScenarioState(self.scenario, EngineFacade(shared))
        # Canonical scenario reference -> loaded state.  The default
        # scenario sits under its own name, so `?scenario=<default>`
        # routes to the very same engine and body cache.
        self._states: dict[str, _ScenarioState] = {
            self.scenario.name: self._default_state
        }
        self._states_lock = threading.Lock()
        # The state the *current thread's* request resolved; handlers
        # read it through `_current()`.  Thread-local because requests
        # for different scenarios run concurrently, and the coalescing
        # leader computes on the thread that set the value.
        self._local = threading.local()
        self.routes: dict[str, Callable[[CorridorEngine, dict], dict]] = {
            "/rankings": self._rankings,
            "/timeline": self._timeline,
            "/apa": self._apa,
            "/search": self._search,
            "/map": self._map,
        }

    @property
    def facade(self) -> EngineFacade:
        """The default scenario's facade (service-level request counters)."""
        return self._default_state.facade

    @property
    def bodies(self) -> ResponseBodyCache:
        """The default scenario's rendered-body cache."""
        return self._default_state.bodies

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def handle_http(self, url: str) -> tuple[int, bytes]:
        """One request target -> (status, canonical JSON body bytes).

        Successful analysis responses are served from the rendered-body
        cache when possible; ``/healthz`` and ``/stats`` (live values)
        and every error path always render fresh.
        """
        key = self._body_key(url)
        state = self._body_state(key) if key is not None else None
        if state is not None:
            body = state.bodies.get(key, state.facade.engine.database.generation)
            if body is not None:
                obs.count("serve.body_cache.hit")
                # A body hit is still a request for accounting purposes.
                self.facade.enter_request()
                self.facade.exit_request()
                return 200, body
            obs.count("serve.body_cache.miss")
        status, payload = self.handle_url(url)
        body = (render_payload(payload) + "\n").encode("utf-8")
        if state is not None and status == 200:
            state.bodies.put(key, state.facade.engine.database.generation, body)
        return status, body

    def _body_state(self, key: tuple) -> _ScenarioState | None:
        """The state whose body cache holds ``key``, or ``None``.

        A bad scenario reference returns ``None`` so the request takes
        the normal (error-rendering, uncached) path.
        """
        try:
            return self._resolve_state(dict(key[1]).get("scenario"))
        except ServiceError:
            return None

    def _body_key(self, url: str) -> tuple | None:
        """The body-cache key for ``url``, or ``None`` if uncacheable.

        Only the warm shared-engine mode caches (the cold baseline must
        pay full price per request), and only analysis endpoints —
        ``/healthz``/``/stats`` report live state and unparseable
        requests take the error path.
        """
        if not self.warm:
            return None
        try:
            path, params = parse_request(url)
        except ServiceError:
            return None
        if path not in self.routes:
            return None
        return (path, tuple(sorted(params.items())))

    def handle_url(self, url: str) -> tuple[int, dict]:
        """One request target -> (status, payload dict); never raises."""
        self.facade.enter_request()
        try:
            path, params = parse_request(url)
            return 200, self.handle(path, params)
        except ServiceError as error:
            self.facade.note_error()
            return error.status, error.payload()
        except Exception as error:  # lint: disable=broad-except (server boundary: every handler fault must surface as structured JSON on the socket, never a traceback or a dead connection)
            self.facade.note_error()
            return 500, {
                "error": {
                    "code": "internal",
                    "message": f"{type(error).__name__}: {error}",
                }
            }
        finally:
            self.facade.exit_request()

    def handle(self, path: str, params: dict[str, str]) -> dict:
        """Dispatch a parsed request; raises :class:`ServiceError`."""
        if path == "/healthz":
            _check_params(params, ())
            return {"status": "ok", "warm": self.warm}
        if path == "/stats":
            _check_params(params, ())
            stats = self.facade.describe()
            stats["body_cache"] = self.bodies.describe()
            stats["scenarios"] = self._scenario_stats()
            return stats
        if path == "/scenarios":
            _check_params(params, ())
            return self._scenarios_payload()
        handler = self.routes.get(path)
        if handler is None:
            raise ServiceError(
                404,
                "unknown-endpoint",
                f"no such endpoint: {path!r}; expected one of "
                f"{sorted(self.routes) + ['/healthz', '/scenarios', '/stats']}",
            )
        state = self._resolve_state(params.pop("scenario", None))
        key = (path, tuple(sorted(params.items())))
        self._local.state = state
        try:
            with obs.span(
                "serve.request", endpoint=path, scenario=state.scenario.name
            ):
                obs.count("serve.request" + path.replace("/", "."))
                return state.facade.coalesced(
                    key, lambda: handler(self._engine(), params)
                )
        finally:
            self._local.state = None

    def _current(self) -> _ScenarioState:
        """The state the current thread's request resolved to."""
        return getattr(self._local, "state", None) or self._default_state

    def _resolve_state(self, text: str | None) -> _ScenarioState:
        """The loaded state for a ``scenario`` query param (lazy table).

        ``None``/empty routes to the default.  A hosted canonical
        reference is served from the table without resolving it again,
        so a scenario the registry's builder cache has dropped is never
        rebuilt just to be discarded.  On a miss, a reference that
        resolves to an already-hosted scenario reuses that scenario's
        facade and body cache — coalescing and generation scoping stay
        per-engine no matter how many spellings of the reference arrive.
        """
        if not text:
            return self._default_state
        from repro.scenarios import (
            ScenarioParamError,
            UnknownScenarioError,
            parse_scenario_ref,
            resolve_scenario,
        )

        try:
            canonical = parse_scenario_ref(text).canonical
            with self._states_lock:
                state = self._states.get(canonical)
            if state is not None:
                return state
            scenario = resolve_scenario(canonical)
        except UnknownScenarioError as error:
            raise ServiceError(404, "unknown-scenario", str(error)) from None
        except ScenarioParamError as error:
            raise ServiceError(400, "bad-scenario", str(error)) from None
        with self._states_lock:
            state = self._states.get(canonical)
            if state is not None:
                return state
            for state in self._states.values():
                if state.scenario is scenario:
                    self._states[canonical] = state
                    return state
            state = _ScenarioState(scenario, EngineFacade(scenario.engine()))
            self._states[canonical] = state
            return state

    def _scenario_stats(self) -> dict:
        """Per-loaded-scenario facade + body-cache stats for ``/stats``."""
        with self._states_lock:
            states = dict(self._states)
        return {
            ref: {
                "scenario": state.scenario.name,
                "facade": state.facade.describe()["facade"],
                "body_cache": state.bodies.describe(),
            }
            for ref, state in states.items()
        }

    def _scenarios_payload(self) -> dict:
        """``/scenarios``: the registry's offerings and what is loaded."""
        from repro.scenarios import registered_scenarios

        with self._states_lock:
            loaded = sorted(self._states)
        return {
            "endpoint": "scenarios",
            "default": self.scenario.name,
            "loaded": loaded,
            "scenarios": [
                {
                    "name": entry.name,
                    "summary": entry.summary,
                    "concrete": entry.concrete,
                    "params": sorted(entry.params),
                }
                for entry in registered_scenarios()
            ],
        }

    def _engine(self) -> CorridorEngine:
        state = self._current()
        if self.warm:
            return state.facade.engine
        # Cold baseline: a private engine per request, empty caches, and
        # no store — the baseline must really rebuild from scratch.
        return CorridorEngine(
            state.scenario.database, state.scenario.corridor, store=False
        )

    def checkpoint(self):
        """Persist every loaded warm engine's caches to its store.

        The draining-shutdown hook: :meth:`repro.serve.server
        .CorridorServer.close` calls this after the last in-flight
        request completes, so the next server boot starts warm — for
        every scenario the table loaded, not just the default.  A no-op
        without a store, or in cold-baseline mode.
        """
        if not self.warm:
            return None
        with self._states_lock:
            states = list(self._states.values())
        result = None
        seen: set[int] = set()
        for state in states:
            engine = state.facade.engine
            if id(engine) in seen:
                continue
            seen.add(id(engine))
            checkpointed = engine.checkpoint()
            if state is self._default_state:
                result = checkpointed
        return result

    # ------------------------------------------------------------------
    # Endpoint handlers (validated params -> payload builders)
    # ------------------------------------------------------------------

    def _licensee_param(
        self, params: dict[str, str], default: str | None = None
    ) -> str | None:
        scenario = self._current().scenario
        name = params.get("licensee", default)
        if name is not None and name not in scenario.database.licensee_names():
            raise ServiceError(404, "unknown-licensee", f"unknown licensee: {name!r}")
        return name

    def _site_param(self, params: dict[str, str], name: str, default: str) -> str:
        site = params.get(name, default)
        scenario = self._current().scenario
        known = sorted({s for path in scenario.corridor.paths for s in path})
        if site not in known:
            raise ServiceError(
                400, "unknown-site", f"{name!r} must be one of {known}, got {site!r}"
            )
        return site

    def _rankings(self, engine: CorridorEngine, params: dict[str, str]) -> dict:
        _check_params(params, ("date", "source", "target"))
        scenario = self._current().scenario
        date = _date_param(params, "date", scenario.snapshot_date)
        default_source, default_target = scenario.primary_path
        source = self._site_param(params, "source", default_source)
        target = self._site_param(params, "target", default_target)
        return payloads.rankings_payload(scenario, engine, date, source, target)

    def _timeline(self, engine: CorridorEngine, params: dict[str, str]) -> dict:
        _check_params(params, ("step", "licensee"))
        step = params.get("step", "paper")
        if step not in ("paper", "monthly", "weekly"):
            raise ServiceError(
                400,
                "bad-step",
                f"'step' must be one of ['paper', 'monthly', 'weekly'], got {step!r}",
            )
        licensee = self._licensee_param(params)
        names = (licensee,) if licensee else None
        return payloads.timeline_payload(
            self._current().scenario, engine, step, names
        )

    def _apa(self, engine: CorridorEngine, params: dict[str, str]) -> dict:
        _check_params(params, ("date", "licensee"))
        scenario = self._current().scenario
        date = _date_param(params, "date", scenario.snapshot_date)
        licensee = self._licensee_param(params)
        names = (licensee,) if licensee else None
        return payloads.apa_payload(scenario, engine, date, names)

    def _search(self, engine: CorridorEngine, params: dict[str, str]) -> dict:
        _check_params(params, ("lat", "lon", "radius_m", "active_on"))
        latitude = _float_param(params, "lat", None)
        longitude = _float_param(params, "lon", None)
        if latitude is not None and not -90.0 <= latitude <= 90.0:
            raise ServiceError(400, "bad-number", "'lat' must be in [-90, 90]")
        if longitude is not None and not -180.0 <= longitude <= 180.0:
            raise ServiceError(400, "bad-number", "'lon' must be in [-180, 180]")
        radius_m = _float_param(params, "radius_m", None)
        if radius_m is not None and radius_m <= 0:
            raise ServiceError(400, "bad-number", "'radius_m' must be positive")
        active_on = _date_param(params, "active_on", None)
        return payloads.search_payload(
            self._current().scenario, latitude, longitude, radius_m, active_on
        )

    def _map(self, engine: CorridorEngine, params: dict[str, str]) -> dict:
        _check_params(params, ("licensee", "date"))
        scenario = self._current().scenario
        licensee = self._licensee_param(params, scenario.spotlight_names[0])
        date = _date_param(params, "date", scenario.snapshot_date)
        return payloads.map_payload(scenario, engine, licensee, date)
