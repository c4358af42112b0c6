"""The persistent cache store: disk-backed warm starts for engines.

:class:`CacheStore` persists :class:`~repro.core.engine
.EngineCacheExport` payloads (snapshot cache, route cache, geodesic
memo, temporal-index cursors) under content-addressed fingerprints
(:func:`~repro.store.fingerprint.store_fingerprint`), so a cold process
— a CLI driver or a restarted server — starts from the previous run's
warm state instead of rebuilding it.

Failure discipline: the store **never makes an answer wrong and never
crashes a driver**.  Unreadable or unpicklable entries are quarantined
and treated as misses; entries whose envelope (schema / fingerprint /
payload type / params) does not match are stale misses; every error path
degrades to a cold start that produces byte-identical output anyway.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.core.engine import EngineCacheExport
from repro.store.fingerprint import STORE_SCHEMA_VERSION, store_fingerprint
from repro.store.layout import (
    default_cache_dir,
    list_entries,
    quarantine_entry,
    read_entry,
    write_entry,
)


@dataclass(frozen=True)
class StoreEntry:
    """One published entry, as reported by :meth:`CacheStore.stat`."""

    fingerprint: str
    path: Path
    size_bytes: int
    mtime_s: float


class CacheStore:
    """A content-addressed on-disk store of engine cache exports.

    Parameters
    ----------
    cache_dir:
        Store root.  ``None`` resolves ``$REPRO_CACHE_DIR``, then
        ``$XDG_CACHE_HOME/repro``, then ``~/.cache/repro``.

    Engines attach via the constructor's ``store=`` parameter (or the
    process-wide :data:`repro.core.engine.STORE_DEFAULT` the CLI sets):
    :meth:`attach` registers the engine for :meth:`checkpoint_all` and
    immediately loads a matching entry if one exists.
    """

    def __init__(self, cache_dir: "Path | str | None" = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.loads = 0
        self.hits = 0
        self.misses = 0
        self.saves = 0
        self.corrupt = 0
        self.stale = 0
        self._engines: list = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------

    def fingerprint_for(self, engine) -> str:
        """The entry key for an engine's (database, params, kernel)."""
        return store_fingerprint(
            engine.database.content_digest(), engine.params_key, engine.kernel
        )

    # ------------------------------------------------------------------
    # Engine attachment
    # ------------------------------------------------------------------

    def attach(self, engine) -> bool:
        """Register ``engine`` for checkpointing and warm it if possible.

        Returns whether a store entry was loaded into the engine.
        """
        with self._lock:
            self._engines.append(engine)
        return self.load_into(engine)

    def engines(self) -> tuple:
        """Engines attached to this store, in attachment order."""
        with self._lock:
            return tuple(self._engines)

    def load_into(self, engine) -> bool:
        """Seed ``engine`` from its matching entry; ``False`` on any miss."""
        fingerprint = self.fingerprint_for(engine)
        with obs.span("store.load", fingerprint=fingerprint[:12]) as span:
            export = self.load_export(fingerprint)
            if export is None or export.params_key != engine.params_key:
                span.tag(outcome="miss")
                return False
            engine.seed_cache_state(export)
            span.tag(
                outcome="hit",
                snapshots=len(export.snapshots),
                routes=len(export.routes),
            )
        return True

    def save_from(self, engine) -> Path:
        """Publish ``engine``'s current cache contents as its entry.

        Callers that may race with other threads should go through
        :meth:`~repro.core.engine.CorridorEngine.checkpoint`, which holds
        the engine lock across the export.
        """
        fingerprint = self.fingerprint_for(engine)
        payload = pickle.dumps(
            {
                "schema": STORE_SCHEMA_VERSION,
                "fingerprint": fingerprint,
                "export": engine.export_cache_state(),
            },
            protocol=4,
        )
        with obs.span(
            "store.save", fingerprint=fingerprint[:12], bytes=len(payload)
        ):
            path = write_entry(self.cache_dir, fingerprint, payload)
        with self._lock:
            self.saves += 1
        obs.count("store.save")
        return path

    def checkpoint_all(self) -> int:
        """Checkpoint every attached engine; returns how many saved."""
        saved = 0
        for engine in self.engines():
            if engine.checkpoint() is not None:
                saved += 1
        return saved

    # ------------------------------------------------------------------
    # Raw entry access
    # ------------------------------------------------------------------

    def load_export(self, fingerprint: str) -> EngineCacheExport | None:
        """The export stored under ``fingerprint``, or ``None``.

        Misses are silent; corrupt entries (unreadable pickles) are
        quarantined and counted; well-formed pickles with a mismatched
        envelope (schema bump, foreign fingerprint, wrong payload type)
        are *stale* misses left in place for ``cache gc`` to age out.
        """
        with self._lock:
            self.loads += 1
        obs.count("store.load")
        data = read_entry(self.cache_dir, fingerprint)
        if data is None:
            return self._miss()
        try:
            payload = pickle.loads(data)
        except Exception:  # lint: disable=broad-except (unpickling an arbitrary corrupt file can raise nearly anything; the contract is quarantine-and-go-cold, never crash the driver)
            quarantine_entry(self.cache_dir, fingerprint)
            with self._lock:
                self.corrupt += 1
            obs.count("store.corrupt")
            return self._miss()
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != STORE_SCHEMA_VERSION
            or payload.get("fingerprint") != fingerprint
            or not isinstance(payload.get("export"), EngineCacheExport)
        ):
            with self._lock:
                self.stale += 1
            obs.count("store.stale")
            return self._miss()
        with self._lock:
            self.hits += 1
        obs.count("store.hit")
        return payload["export"]

    def _miss(self) -> None:
        with self._lock:
            self.misses += 1
        obs.count("store.miss")
        return None

    # ------------------------------------------------------------------
    # Maintenance (cache stat / gc / clear)
    # ------------------------------------------------------------------

    def stat(self) -> tuple[StoreEntry, ...]:
        """Published entries with sizes and mtimes, sorted by fingerprint."""
        entries = []
        for path in list_entries(self.cache_dir):
            try:
                info = path.stat()
            except OSError:
                continue
            entries.append(
                StoreEntry(
                    fingerprint=path.stem,
                    path=path,
                    size_bytes=info.st_size,
                    mtime_s=info.st_mtime,
                )
            )
        return tuple(entries)

    def gc(
        self,
        max_bytes: int | None = None,
        max_age_s: float | None = None,
        now_s: float | None = None,
    ) -> tuple[StoreEntry, ...]:
        """Remove entries beyond a size or age bound; returns the removed.

        ``max_bytes`` keeps the newest entries whose cumulative size fits
        the bound; ``max_age_s`` removes entries older than the bound
        relative to ``now_s``.  The store never reads the wall clock
        itself — the one ``time.time()`` call lives in the CLI, behind an
        explicit lint pragma — so ``max_age_s`` requires ``now_s``.
        """
        if max_age_s is not None and now_s is None:
            raise ValueError("max_age_s requires now_s")
        removed: dict[str, StoreEntry] = {}
        entries = sorted(self.stat(), key=lambda e: e.mtime_s, reverse=True)
        if max_age_s is not None:
            for entry in entries:
                if now_s - entry.mtime_s > max_age_s:
                    removed[entry.fingerprint] = entry
        if max_bytes is not None:
            kept_bytes = 0
            for entry in entries:
                if entry.fingerprint in removed:
                    continue
                if kept_bytes + entry.size_bytes > max_bytes:
                    removed[entry.fingerprint] = entry
                else:
                    kept_bytes += entry.size_bytes
        for entry in removed.values():
            try:
                entry.path.unlink()
            except OSError:
                pass
        return tuple(
            sorted(removed.values(), key=lambda e: e.fingerprint)
        )

    def clear(self) -> int:
        """Remove every entry (quarantine included); returns the count.

        Only counts published entries; quarantined and stale temp files
        are swept as a side effect.
        """
        count = 0
        for entry in self.stat():
            try:
                entry.path.unlink()
            except OSError:
                continue
            count += 1
        for extra in self._sweepable():
            try:
                extra.unlink()
            except OSError:
                pass
        return count

    def _sweepable(self) -> list[Path]:
        """Quarantined entries and abandoned temp files."""
        from repro.store.layout import entry_dir, quarantine_dir

        paths: list[Path] = []
        qdir = quarantine_dir(self.cache_dir)
        try:
            paths.extend(sorted(p for p in qdir.iterdir() if p.is_file()))
        except OSError:
            pass
        try:
            children = sorted(entry_dir(self.cache_dir).iterdir())
        except OSError:
            children = []
        paths.extend(
            p for p in children if p.is_file() and p.name.startswith(".tmp-")
        )
        return paths

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def counters(self) -> dict[str, int]:
        """Lifetime load/save activity, for ``/stats`` and ``cache stat``."""
        with self._lock:
            return {
                "loads": self.loads,
                "hits": self.hits,
                "misses": self.misses,
                "saves": self.saves,
                "corrupt": self.corrupt,
                "stale": self.stale,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheStore({str(self.cache_dir)!r})"
