"""The corridor engine: a caching query layer over reconstruction.

Every paper artefact (tables, figures, funnel, ablations, entities, flux,
monitoring) answers queries of the same shape — "this licensee's network on
this date", "the lowest-latency route on this date" — against topology that
changes only when a license is granted, cancelled or terminated.  The
paper's tool (:class:`~repro.core.reconstruction.NetworkReconstructor`)
recomputes stitching, fiber attachment and routing from scratch on every
call; across a timeline or a ranking sweep that repeats nearly all of the
work.

:class:`CorridorEngine` is the memoising layer the workload shape calls
for.  It owns one :class:`~repro.uls.database.UlsDatabase`, one
:class:`~repro.core.corridor.CorridorSpec`, one set of reconstruction
parameters, and three caches:

* a **snapshot cache** keyed on ``(licensee, active-license fingerprint,
  reconstruction params)`` — two dates on which a licensee's active
  license set is identical share one stitched network;
* a **geodesic memo** (:class:`repro.geodesy.memo.GeodesicMemo`) installed
  around every reconstruction, converting repeated Vincenty inverse
  solutions — the hot path under stitching, fiber attachment and link
  measurement — into lookups;
* a **route cache** for ``lowest_latency_route(source, target)`` per
  cached snapshot.

Cached results are *bit-identical* to cache-free reconstruction (property-
tested in ``tests/test_engine.py``): the memo stores exact solutions and
the snapshot cache stores the exact network object.  Reconstruction
parameters are part of every snapshot key, so engines built with different
stitch tolerances, fiber modes or latency models can never alias — and the
engine itself is parameter-immutable: build one engine per parameterisation
(see :meth:`repro.synth.scenario.Scenario.engine`).

The :class:`NetworkReconstructor` remains the cache-free kernel; the
engine wraps it and never changes its semantics.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from repro import obs
from repro.core.columnar import reconstruct_columnar
from repro.core.corridor import CorridorSpec
from repro.core.latency import LatencyModel
from repro.core.network import HftNetwork, Route
from repro.core.reconstruction import NetworkReconstructor
from repro.core.timeline import TimelinePoint
from repro.geodesy.memo import DEFAULT_MEMO_SIZE, GeodesicMemo, use_memo
from repro.uls.columnar import ColumnarLicenseStore
from repro.uls.database import UlsDatabase
from repro.uls.records import License

#: Default bound on cached snapshots.  A full corridor scenario has ~60
#: licensees × a handful of distinct active sets each; 512 covers every
#: analysis driver without eviction while bounding worst-case memory.
DEFAULT_SNAPSHOT_CACHE_SIZE = 512

#: Default bound on cached routes ((snapshot, source, target) triples).
DEFAULT_ROUTE_CACHE_SIZE = 4096

#: Process-wide default for :class:`CorridorEngine`'s ``incremental``
#: flag.  The CLI's ``--no-incremental`` flips this to replay the
#: pre-index behaviour (a full fingerprint scan per request) for the
#: byte-identity diff gates and honest benchmarking.
INCREMENTAL_DEFAULT = True

#: Process-wide default for :class:`CorridorEngine`'s ``kernel``
#: selection.  ``"columnar"`` runs cold reconstructions through the
#: flat-column kernel (:func:`repro.core.columnar.reconstruct_columnar`
#: over the database's :class:`~repro.uls.columnar.ColumnarLicenseStore`);
#: ``"object"`` replays the per-object :class:`NetworkReconstructor`
#: path.  Outputs are byte-identical (diff-gated in ``scripts/check.sh``),
#: so the kernel deliberately does **not** participate in cache keys —
#: snapshots built by either kernel are interchangeable.  The CLI's
#: ``--kernel`` flips this before any engine is built.
KERNEL_DEFAULT = "columnar"

#: Process-wide default persistent store for :class:`CorridorEngine`'s
#: ``store`` parameter.  Holds a :class:`repro.store.CacheStore` (or any
#: object with ``attach``/``load_into``/``save_from`` — the engine never
#: imports :mod:`repro.store`, keeping the layering DAG acyclic) or
#: ``None``.  The CLI's ``--cache-dir`` sets this before any engine is
#: built, so every engine constructed during a command auto-loads from
#: and checkpoints to the on-disk store.
STORE_DEFAULT = None

_KERNELS = ("columnar", "object")

_MISSING = object()


def _license_content_digest(licenses: Iterable[License]) -> str:
    """A stable digest of full license *content*, not just ids.

    Keys :meth:`CorridorEngine.snapshot_from_licenses` entries for
    record sets that are not verbatim database rows (scraped licenses
    differ in the low float bits), so they can never alias a
    database-derived snapshot.  Dataclass reprs spell out every field
    deterministically; sorting by id makes the digest order-insensitive.
    """
    hasher = hashlib.sha256()
    for lic in sorted(licenses, key=lambda item: item.license_id):
        hasher.update(repr(lic).encode("utf-8"))
    return hasher.hexdigest()


@dataclass(frozen=True, slots=True)
class CacheCounter:
    """Hit/miss/eviction counts for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never used)."""
        return self.hits / self.lookups if self.lookups else 0.0


@dataclass(frozen=True, slots=True)
class CacheStats:
    """A point-in-time snapshot of all three engine caches.

    ``snapshot_incremental`` / ``snapshot_full`` split snapshot-key
    resolutions by how the active-set fingerprint was derived: evolved
    from a per-licensee cursor via a :class:`~repro.uls.index
    .TemporalDelta` (incremental) versus computed from scratch (full —
    first touch of a licensee, a stale cursor after a database mutation,
    or ``incremental=False``).  ``index_events`` is the temporal index's
    event count over the engine's database.
    """

    snapshot: CacheCounter
    route: CacheCounter
    geodesic: CacheCounter
    snapshot_incremental: int = 0
    snapshot_full: int = 0
    index_events: int = 0

    @property
    def incremental_share(self) -> float:
        """Fraction of snapshot-key resolutions served incrementally."""
        total = self.snapshot_incremental + self.snapshot_full
        return self.snapshot_incremental / total if total else 0.0

    def describe(self) -> str:
        """A short human-readable summary (the CLI's ``--cache-stats``)."""
        lines = ["engine cache stats:"]
        for name, counter in (
            ("snapshot", self.snapshot),
            ("route", self.route),
            ("geodesic", self.geodesic),
        ):
            lines.append(
                f"  {name:9s} hits={counter.hits}  misses={counter.misses}  "
                f"evictions={counter.evictions}  entries={counter.size}  "
                f"hit-rate={counter.hit_rate:.1%}"
            )
        lines.append(
            f"  snapshot resolutions: incremental={self.snapshot_incremental}  "
            f"full={self.snapshot_full}  "
            f"incremental-share={self.incremental_share:.1%}"
        )
        lines.append(f"  temporal index: events={self.index_events}")
        return "\n".join(lines)


class _LruCache:
    """A bounded LRU mapping with hit/miss/eviction accounting."""

    def __init__(self, maxsize: int) -> None:
        if maxsize <= 0:
            raise ValueError("cache size must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Hashable, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable, default: object = None) -> object:
        entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: Hashable, value: object) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        if len(self._entries) >= self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = value

    def items(self) -> tuple[tuple[Hashable, object], ...]:
        """Every cached (key, value) pair, LRU order (oldest first)."""
        return tuple(self._entries.items())

    def clear(self) -> None:
        self._entries.clear()

    def counter(self) -> CacheCounter:
        return CacheCounter(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
        )


@dataclass(frozen=True)
class EngineCacheExport:
    """A picklable copy of an engine's cache *contents* (no counters).

    Produced by :meth:`CorridorEngine.export_cache_state` and installed
    with :meth:`CorridorEngine.seed_cache_state`: the persistent store
    (:mod:`repro.store`) writes one of these per engine so a later
    process starts from the same warm state.  Every entry is exact
    (memoised Vincenty solutions, the cached network/route objects
    themselves), so seeding never perturbs results.
    """

    params_key: tuple
    snapshots: tuple[tuple[Hashable, HftNetwork], ...]
    routes: tuple[tuple[Hashable, Route | None], ...]
    geodesic: tuple[tuple[tuple, tuple], ...]
    #: Per-licensee snapshot cursors ((licensee, date, key, generation)),
    #: sorted by licensee — a seeded engine adopts them so its first touch
    #: of a cursored licensee evolves incrementally, exactly as the
    #: exporting engine would have.
    cursors: tuple[tuple[str, dt.date, tuple, int], ...] = ()


class _SnapshotCursor:
    """Per-licensee incremental-evolution state.

    Remembers the last resolved ``(date, snapshot key)`` for a licensee
    and the database generation it was derived under; the next request
    for that licensee consults ``TemporalIndex.diff`` from here instead
    of recomputing the fingerprint from scratch.
    """

    __slots__ = ("date", "key", "generation")

    def __init__(self, date: dt.date, key: tuple, generation: int) -> None:
        self.date = date
        self.key = key
        self.generation = generation


class CorridorEngine:
    """Snapshot/route cache layer over one database + one parameter set.

    Parameters
    ----------
    database:
        The license records every query runs against.
    corridor:
        The corridor's data centers.  May be omitted when
        ``reconstructor`` is given (taken from it); when both are given
        they must agree.
    reconstructor:
        An existing cache-free kernel to wrap.  Mutually exclusive with
        the individual parameter keywords below.
    latency_model / stitch_tolerance_m / max_fiber_tail_m / fiber_mode:
        Reconstruction parameters, forwarded to the kernel
        :class:`NetworkReconstructor`.  All parameters participate in
        every cache key, so differently-parameterised engines never share
        entries.
    snapshot_cache_size / route_cache_size / geodesic_memo_size:
        Bounds on the three caches (LRU eviction).
    incremental:
        Whether snapshot keys evolve incrementally from per-licensee
        cursors via the database's :class:`~repro.uls.index
        .TemporalIndex` (the default; ``None`` defers to the
        process-wide :data:`INCREMENTAL_DEFAULT`).  ``False`` replays
        the pre-index behaviour — a linear active-set scan per request —
        and is only useful for equivalence gates and benchmarks.
    kernel:
        ``"columnar"`` (cold reconstructions run over the database's
        flat :class:`~repro.uls.columnar.ColumnarLicenseStore`) or
        ``"object"`` (the per-object :class:`NetworkReconstructor`
        path).  ``None`` defers to the process-wide
        :data:`KERNEL_DEFAULT`.  Both kernels produce byte-identical
        networks, so the choice affects cold-path speed only and is not
        part of any cache key.
    store:
        A persistent on-disk cache store (:class:`repro.store
        .CacheStore`).  ``None`` defers to the process-wide
        :data:`STORE_DEFAULT` (itself ``None`` unless the CLI engaged a
        store); ``False`` opts out explicitly.  With a store attached the
        engine auto-loads a matching entry on construction and
        :meth:`checkpoint` persists its caches back.
    """

    def __init__(
        self,
        database: UlsDatabase,
        corridor: CorridorSpec | None = None,
        *,
        reconstructor: NetworkReconstructor | None = None,
        latency_model: LatencyModel | None = None,
        stitch_tolerance_m: float | None = None,
        max_fiber_tail_m: float | None = None,
        fiber_mode: str | None = None,
        snapshot_cache_size: int = DEFAULT_SNAPSHOT_CACHE_SIZE,
        route_cache_size: int = DEFAULT_ROUTE_CACHE_SIZE,
        geodesic_memo_size: int = DEFAULT_MEMO_SIZE,
        incremental: bool | None = None,
        kernel: str | None = None,
        store: object | None = None,
    ) -> None:
        params_given = any(
            value is not None
            for value in (
                latency_model,
                stitch_tolerance_m,
                max_fiber_tail_m,
                fiber_mode,
            )
        )
        if reconstructor is not None:
            if params_given:
                raise ValueError(
                    "pass reconstruction parameters either via reconstructor= "
                    "or via keywords, not both"
                )
            if corridor is not None and corridor != reconstructor.corridor:
                raise ValueError(
                    "corridor disagrees with reconstructor.corridor; "
                    "pass one or the other"
                )
        else:
            if corridor is None:
                raise ValueError("pass a corridor (or a reconstructor)")
            kwargs: dict = {}
            if latency_model is not None:
                kwargs["latency_model"] = latency_model
            if stitch_tolerance_m is not None:
                kwargs["stitch_tolerance_m"] = stitch_tolerance_m
            if max_fiber_tail_m is not None:
                kwargs["max_fiber_tail_m"] = max_fiber_tail_m
            if fiber_mode is not None:
                kwargs["fiber_mode"] = fiber_mode
            reconstructor = NetworkReconstructor(corridor, **kwargs)

        kernel = KERNEL_DEFAULT if kernel is None else kernel
        if kernel not in _KERNELS:
            raise ValueError(
                f"unknown reconstruction kernel: {kernel!r} "
                f"(expected one of {_KERNELS})"
            )
        self.database = database
        self.reconstructor = reconstructor
        self.corridor = reconstructor.corridor
        self.kernel = kernel
        self.incremental = (
            INCREMENTAL_DEFAULT if incremental is None else bool(incremental)
        )
        self._snapshots = _LruCache(snapshot_cache_size)
        self._routes = _LruCache(route_cache_size)
        self._geodesic_memo = GeodesicMemo(geodesic_memo_size)
        self._cursors: dict[str, _SnapshotCursor] = {}
        self._incremental_resolutions = 0
        self._full_resolutions = 0
        self._delta_ids_total = 0
        # The engine's caches (LRU dicts, cursors, counters) are not
        # internally synchronised; concurrent callers serialise through
        # this lock (see repro.serve.facade.EngineFacade).  Engines are
        # never pickled, so the lock never crosses a process boundary.
        self._lock = threading.RLock()
        if store is None:
            store = STORE_DEFAULT
        elif store is False:
            store = None
        self.store = store
        if self.store is not None:
            self.store.attach(self)

    def locked(self) -> threading.RLock:
        """The engine's reentrant guard, for ``with engine.locked():``.

        Every mutation of engine state (snapshot resolution, route
        lookups, cache transplants) by concurrent callers must run under
        this lock; single-threaded drivers may ignore it.
        """
        return self._lock

    # ------------------------------------------------------------------
    # Cache keys
    # ------------------------------------------------------------------

    @property
    def params_key(self) -> tuple:
        """The reconstruction-parameter component of every cache key."""
        kernel = self.reconstructor
        model = kernel.latency_model
        return (
            kernel.stitch_tolerance_m,
            kernel.max_fiber_tail_m,
            kernel.fiber_mode,
            model.microwave_speed,
            model.fiber_speed,
            model.per_tower_overhead_s,
        )

    def active_fingerprint(
        self, licensee: str, on_date: dt.date
    ) -> frozenset[str]:
        """The ids of ``licensee``'s licenses active on ``on_date``.

        This is the invariant the snapshot cache exploits: the stitched
        network is a pure function of (active license set, parameters), so
        any two dates with equal fingerprints share a snapshot.

        Incremental engines derive the set from the database's
        :class:`~repro.uls.index.TemporalIndex` (O(log n) warm, and the
        *same* frozenset object per constant-active-set interval, so key
        hashing stays cheap); full-rebuild engines scan the license list,
        exactly as before the index existed.
        """
        if self.incremental:
            return self.database.temporal_index(licensee).active_ids_at(on_date)
        return self._scan_fingerprint(licensee, on_date)

    def _scan_fingerprint(
        self, licensee: str, on_date: dt.date
    ) -> frozenset[str]:
        """The pre-index fingerprint path: one activity test per filing.

        The columnar kernel scans the store's integer activity-interval
        columns; the object kernel runs ``License.is_active`` per filing.
        Both produce the identical frozenset (``license_interval`` mirrors
        ``is_active`` exactly).
        """
        if self.kernel == "columnar":
            return self.database.columnar_store().active_ids(licensee, on_date)
        return frozenset(
            lic.license_id
            for lic in self.database.licenses_for(licensee)
            if lic.is_active(on_date)
        )

    def snapshot_key(self, licensee: str, on_date: dt.date) -> tuple:
        """The snapshot-cache key for (licensee, date) under this engine.

        Pure (no counters moved, no cursor state touched) — the counting
        resolution path every query runs through is :meth:`_resolve_key`.
        """
        return (
            licensee,
            self.active_fingerprint(licensee, on_date),
            self.params_key,
        )

    def _resolve_key(
        self, licensee: str, on_date: dt.date
    ) -> tuple[tuple, str, int]:
        """Resolve a snapshot key, evolving the licensee's cursor.

        Returns ``(key, resolution, delta_size)`` where ``resolution`` is
        ``"incremental"`` (derived from an existing cursor via
        ``TemporalIndex.diff``) or ``"full"`` (computed from scratch:
        first touch, stale cursor generation, or ``incremental=False``).
        An empty delta reuses the cursor's key outright — the exact same
        tuple object, fingerprint untouched — so consecutive grid dates
        with no license events cost a bisect and nothing else.
        """
        if not self.incremental:
            self._full_resolutions += 1
            obs.count("engine.snapshot.full")
            key = (licensee, self._scan_fingerprint(licensee, on_date), self.params_key)
            return key, "full", 0
        generation = self.database.generation
        cursor = self._cursors.get(licensee)
        if cursor is not None and cursor.generation == generation:
            delta_size = 0
            if cursor.date != on_date:
                index = self.database.temporal_index(licensee)
                delta = index.diff(cursor.date, on_date)
                if delta:
                    delta_size = delta.size
                    self._delta_ids_total += delta_size
                    cursor.key = (
                        licensee,
                        index.active_ids_at(on_date),
                        self.params_key,
                    )
                cursor.date = on_date
            self._incremental_resolutions += 1
            obs.count("engine.snapshot.incremental")
            return cursor.key, "incremental", delta_size
        fingerprint = self.database.temporal_index(licensee).active_ids_at(on_date)
        key = (licensee, fingerprint, self.params_key)
        self._cursors[licensee] = _SnapshotCursor(on_date, key, generation)
        self._full_resolutions += 1
        obs.count("engine.snapshot.full")
        return key, "full", 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def snapshot(self, licensee: str, on_date: dt.date) -> HftNetwork:
        """``licensee``'s network on ``on_date`` (cached by active set).

        Equivalent to ``NetworkReconstructor.reconstruct_licensee`` — the
        returned network always carries the requested ``as_of`` date, even
        when its topology was stitched for an earlier query.
        """
        with obs.span("engine.snapshot", licensee=licensee) as span:
            key, resolution, delta_size = self._resolve_key(licensee, on_date)
            span.tag(resolution=resolution, delta_ids=delta_size)
            network = self._snapshot_for_key(key, licensee, on_date)
        return network.with_as_of(on_date)

    def _snapshot_for_key(
        self, key: tuple, licensee: str, on_date: dt.date
    ) -> HftNetwork:
        """The cached network for a resolved key (``as_of`` = first query's
        date).  The lookup always runs — even when an empty delta proved
        the key unchanged — so hit/miss accounting and LRU order are
        exactly what a full-rebuild engine would produce."""
        network = self._snapshots.get(key)
        if network is None:
            obs.count("engine.snapshot.miss")
            network = self._reconstruct_memoised(
                self._cold_build(licensee, on_date), licensee
            )
            self._snapshots.put(key, network)
        else:
            obs.count("engine.snapshot.hit")
        return network

    def _cold_build(self, licensee: str, on_date: dt.date):
        """The kernel-selected cold-reconstruction thunk for one snapshot.

        For the columnar kernel the license store is fetched (and, on
        generation change, rebuilt) *before* the memoised window opens:
        store construction is a per-generation cost with its own
        ``kernel.columnar.store.build`` span, not part of any single
        snapshot's build time.
        """
        if self.kernel == "columnar":
            store = self.database.columnar_store()
            recon = self.reconstructor
            return lambda: reconstruct_columnar(
                store,
                licensee,
                on_date,
                corridor=self.corridor,
                latency_model=recon.latency_model,
                stitch_tolerance_m=recon.stitch_tolerance_m,
                max_fiber_tail_m=recon.max_fiber_tail_m,
                fiber_mode=recon.fiber_mode,
            )
        return lambda: self.reconstructor.reconstruct_licensee(
            self.database, licensee, on_date
        )

    def _reconstruct_memoised(self, build, licensee: str) -> HftNetwork:
        """Run one reconstruction under the engine's geodesic memo.

        The ``geodesy.memo`` span covers the window the memo is installed
        for; its hit/miss deltas (this reconstruction only) are tagged on
        the span and accumulated into the session counters.
        """
        memo = self._geodesic_memo
        hits_before, misses_before = memo.hits, memo.misses
        with obs.span("engine.snapshot.build", licensee=licensee):
            with obs.span("geodesy.memo", licensee=licensee) as memo_span:
                with use_memo(memo):
                    network = build()
                memo_span.tag(
                    hits=memo.hits - hits_before,
                    misses=memo.misses - misses_before,
                )
            obs.count("geodesy.memo.hit", memo.hits - hits_before)
            obs.count("geodesy.memo.miss", memo.misses - misses_before)
        return network

    def snapshot_from_licenses(
        self,
        licenses: Iterable[License],
        on_date: dt.date,
        licensee: str | None = None,
    ) -> HftNetwork:
        """A cached reconstruction of an explicit license set.

        For callers whose records do not come straight out of the engine's
        database: the §2.2 funnel reconstructs *scraped* licenses, and
        entity resolution pools filings across licensees.  When every
        active record is byte-identical to the database's row of the same
        id (pooled database rows are), the cache key fingerprints the
        active license ids exactly as :meth:`snapshot` does (ids are
        unique corridor-wide), under the resolved network name — so those
        callers share snapshots with the ranking/timeline drivers.

        Records that *differ* from the database's — scraped licenses,
        whose coordinates lose ~1e-8 deg through the portal's DMS
        round-trip — get a content-digested key instead.  Sharing the
        ids-only slot would let the scraped variant overwrite the
        database-derived snapshot and leak its perturbed floats into
        every later :meth:`snapshot` result (the byte-parity contracts
        in scripts/check.sh and the serve tier pin this).
        """
        license_list = list(licenses)
        if licensee is None:
            names = {lic.licensee_name for lic in license_list}
            if len(names) > 1:
                raise ValueError(
                    "licenses span multiple licensees; pass licensee= "
                    f"explicitly (found {sorted(names)})"
                )
            licensee = next(iter(names)) if names else "(empty)"
        active = [lic for lic in license_list if lic.is_active(on_date)]
        fingerprint = frozenset(lic.license_id for lic in active)
        verbatim = all(
            lic.license_id in self.database
            and self.database.get(lic.license_id) == lic
            for lic in active
        )
        if verbatim:
            key = (licensee, fingerprint, self.params_key)
        else:
            key = (
                licensee,
                (fingerprint, _license_content_digest(active)),
                self.params_key,
            )
        with obs.span("engine.snapshot", licensee=licensee, source="licenses"):
            network = self._snapshots.get(key)
            if network is None:
                obs.count("engine.snapshot.miss")
                if self.kernel == "columnar":
                    # An ephemeral store over just these records (they are
                    # not the engine database's rows), built outside the
                    # memoised window like the per-generation store.
                    store = ColumnarLicenseStore({licensee: license_list})
                    recon = self.reconstructor

                    def build() -> HftNetwork:
                        return reconstruct_columnar(
                            store,
                            licensee,
                            on_date,
                            corridor=self.corridor,
                            latency_model=recon.latency_model,
                            stitch_tolerance_m=recon.stitch_tolerance_m,
                            max_fiber_tail_m=recon.max_fiber_tail_m,
                            fiber_mode=recon.fiber_mode,
                        )

                else:

                    def build() -> HftNetwork:
                        return self.reconstructor.reconstruct(
                            license_list, on_date, licensee=licensee
                        )

                network = self._reconstruct_memoised(build, licensee)
                self._snapshots.put(key, network)
            else:
                obs.count("engine.snapshot.hit")
        return network.with_as_of(on_date)

    def route(
        self, licensee: str, on_date: dt.date, source: str, target: str
    ) -> Route | None:
        """The lowest-latency ``source``→``target`` route, or None.

        Routes are cached per snapshot (so per active-set fingerprint, not
        per date) and per endpoint pair.  The snapshot key is resolved
        once — incrementally when the licensee has a cursor — and shared
        between the route lookup and any snapshot rebuild.
        """
        snapshot_key, _, _ = self._resolve_key(licensee, on_date)
        key = (snapshot_key, source, target)
        route = self._routes.get(key, _MISSING)
        if route is _MISSING:
            obs.count("engine.route.miss")
            with obs.span(
                "engine.route", licensee=licensee, source=source, target=target
            ):
                network = self._snapshot_for_key(snapshot_key, licensee, on_date)
                route = network.lowest_latency_route(source, target)
            self._routes.put(key, route)
        else:
            obs.count("engine.route.hit")
        return route

    def is_connected(
        self, licensee: str, on_date: dt.date, source: str, target: str
    ) -> bool:
        """Whether an end-to-end path exists (via the route cache)."""
        return self.route(licensee, on_date, source, target) is not None

    def connected_networks(
        self,
        on_date: dt.date,
        source: str,
        target: str,
        licensees: Iterable[str] | None = None,
    ) -> list[HftNetwork]:
        """Networks with an end-to-end path on ``on_date`` (§3).

        Mirrors ``NetworkReconstructor.connected_networks``, with every
        snapshot and connectivity probe served through the caches.
        """
        names = (
            list(licensees)
            if licensees is not None
            else self.database.licensee_names()
        )
        return [
            self.snapshot(name, on_date)
            for name in names
            if self.is_connected(name, on_date, source, target)
        ]

    def timeline(
        self,
        licensee: str,
        dates: Sequence[dt.date],
        source: str | None = None,
        target: str | None = None,
    ) -> list[TimelinePoint]:
        """The Fig 1 series: one licensee's route latency over a date grid.

        The grid is walked in order as successive deltas: each date's
        snapshot key evolves from the previous one via the temporal
        index, so dates with no license events between them cost a
        bisect, a route-cache hit and nothing else.  The span records
        how the grid resolved (incremental vs full) and the total number
        of license ids that changed state across it.
        """
        source, target = self.corridor.resolve_path(source, target)
        with obs.span(
            "engine.timeline",
            licensee=licensee,
            points=len(dates),
            source=source,
            target=target,
        ) as span:
            incremental_before = self._incremental_resolutions
            full_before = self._full_resolutions
            delta_before = self._delta_ids_total
            points = self._timeline_points(licensee, dates, source, target)
            span.tag(
                incremental=self._incremental_resolutions - incremental_before,
                full=self._full_resolutions - full_before,
                delta_ids=self._delta_ids_total - delta_before,
            )
            return points

    def _timeline_points(
        self,
        licensee: str,
        dates: Sequence[dt.date],
        source: str,
        target: str,
    ) -> list[TimelinePoint]:
        points = []
        for date in dates:
            route = self.route(licensee, date, source, target)
            if route is None:
                points.append(TimelinePoint(date=date, latency_ms=None))
            else:
                points.append(
                    TimelinePoint(
                        date=date,
                        latency_ms=route.latency_ms,
                        tower_count=route.tower_count,
                    )
                )
        return points

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction counters for all three caches (a snapshot)."""
        memo = self._geodesic_memo
        return CacheStats(
            snapshot=self._snapshots.counter(),
            route=self._routes.counter(),
            geodesic=CacheCounter(
                hits=memo.hits,
                misses=memo.misses,
                evictions=memo.evictions,
                size=len(memo),
            ),
            snapshot_incremental=self._incremental_resolutions,
            snapshot_full=self._full_resolutions,
            index_events=self.database.temporal_index().event_count,
        )

    def clear_caches(self) -> None:
        """Drop all cached snapshots, routes, geodesic solutions and
        snapshot cursors.

        Counters are preserved (they describe lifetime behaviour); sizes
        return to zero.
        """
        self._snapshots.clear()
        self._routes.clear()
        self._geodesic_memo.clear()
        self._cursors.clear()

    # ------------------------------------------------------------------
    # Cache export and seeding (the persistent store's payload)
    # ------------------------------------------------------------------

    def export_cache_state(
        self, geodesic_only: bool = False
    ) -> EngineCacheExport:
        """A picklable copy of the current cache contents (no counters).

        With ``geodesic_only`` the snapshot/route caches are omitted:
        geodesic memo entries are parameter-independent exact solutions,
        so they may seed a *differently*-parameterised engine (sibling
        seeding in a sweep), while snapshots/routes are only meaningful
        under the same ``params_key``.
        """
        memo = self._geodesic_memo
        return EngineCacheExport(
            params_key=self.params_key,
            snapshots=() if geodesic_only else self._snapshots.items(),
            routes=() if geodesic_only else self._routes.items(),
            geodesic=memo.entries(),
            cursors=() if geodesic_only else self._export_cursors(),
        )

    def _export_cursors(self) -> tuple[tuple[str, dt.date, tuple, int], ...]:
        """Picklable cursor state, sorted by licensee for determinism."""
        return tuple(
            (licensee, cursor.date, cursor.key, cursor.generation)
            for licensee, cursor in sorted(self._cursors.items())
        )

    def _install_cursors(
        self, cursors: tuple[tuple[str, dt.date, tuple, int], ...]
    ) -> None:
        """Adopt exported cursors (no counters move — not a resolution).

        Cursors from a different database generation are ignored: their
        fingerprints may predate a mutation this engine has seen.
        """
        generation = self.database.generation
        for licensee, date, key, cursor_generation in cursors:
            if cursor_generation == generation:
                self._cursors[licensee] = _SnapshotCursor(date, key, generation)

    def seed_cache_state(
        self, export: EngineCacheExport, geodesic_only: bool = False
    ) -> None:
        """Install exported entries into this engine's caches.

        Installation counts no hits or misses (it is not a lookup);
        entries beyond a cache's capacity evict LRU-first as usual.
        Snapshot/route entries require a matching ``params_key`` — pass
        ``geodesic_only`` to transplant only the memo across
        parameterisations.
        """
        if not geodesic_only and export.params_key != self.params_key:
            raise ValueError(
                "cache export was taken under different reconstruction "
                "parameters; re-export with geodesic_only=True"
            )
        for key, solution in export.geodesic:
            self._geodesic_memo.store(key, solution)
        if geodesic_only:
            return
        for key, network in export.snapshots:
            self._snapshots.put(key, network)
        for key, route in export.routes:
            self._routes.put(key, route)
        self._install_cursors(export.cursors)

    def checkpoint(self):
        """Persist this engine's cache contents to its attached store.

        A no-op (returning ``None``) without a store; otherwise returns
        the path the store published the entry at.  Because an attached
        engine loaded the store's entry on construction, its caches are a
        superset of the entry (modulo LRU eviction), so a checkpoint
        never loses previously persisted state.
        """
        if self.store is None:
            return None
        with self._lock:
            return self.store.save_from(self)

    def with_params(self, **overrides) -> "CorridorEngine":
        """A fresh engine sharing this database with parameter overrides.

        Parameter sweeps (ablations) must not share caches across
        parameterisations; this constructs the parameter-distinct sibling
        with empty caches.  Accepts the reconstruction-parameter keywords
        of the constructor (``latency_model``, ``stitch_tolerance_m``,
        ``max_fiber_tail_m``, ``fiber_mode``).
        """
        kernel = self.reconstructor
        base = {
            "latency_model": kernel.latency_model,
            "stitch_tolerance_m": kernel.stitch_tolerance_m,
            "max_fiber_tail_m": kernel.max_fiber_tail_m,
            "fiber_mode": kernel.fiber_mode,
        }
        unknown = set(overrides) - set(base)
        if unknown:
            raise TypeError(f"unknown reconstruction parameters: {sorted(unknown)}")
        base.update(overrides)
        return CorridorEngine(
            self.database,
            self.corridor,
            snapshot_cache_size=self._snapshots.maxsize,
            route_cache_size=self._routes.maxsize,
            geodesic_memo_size=self._geodesic_memo.maxsize,
            incremental=self.incremental,
            kernel=self.kernel,
            store=False,
            **base,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CorridorEngine(licensees={len(self.database.licensee_names())}, "
            f"snapshots={len(self._snapshots)}, routes={len(self._routes)})"
        )
