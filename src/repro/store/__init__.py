"""Persistent cache tier: disk-backed warm starts for corridor engines.

An engine's cache contents leave it as a picklable export
(``export_cache_state``) and re-enter another engine through
``seed_cache_state``; this package carries those exports across process
lifetimes.  A :class:`CacheStore` persists them under content-addressed
fingerprints — (database content digest, reconstruction params, kernel,
schema version, code version) — so a cold CLI run or a restarted
``repro.serve`` server boots from the previous run's warm state instead
of rebuilding it.

See DESIGN.md §14 for the store layout, key derivation, and
invalidation rules.
"""

from repro.store.cachestore import CacheStore, StoreEntry
from repro.store.fingerprint import (
    CODE_VERSION,
    STORE_SCHEMA_VERSION,
    store_fingerprint,
)
from repro.store.layout import default_cache_dir

__all__ = [
    "CacheStore",
    "StoreEntry",
    "CODE_VERSION",
    "STORE_SCHEMA_VERSION",
    "store_fingerprint",
    "default_cache_dir",
]
