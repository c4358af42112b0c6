"""On-disk layout of the persistent cache store.

::

    <cache_dir>/
        v1/                          # one directory per schema version
            <fingerprint>.pkl        # published entries (atomic renames)
            .tmp-<fp>-<pid>-<tid>    # in-flight writes, never read
            quarantine/              # corrupt entries, moved aside

Every path computation and raw file touch lives here — the
cache-discipline lint rule confines calls to these functions to
``src/repro/store/`` so no other layer can grow a private on-disk
protocol.  Publication is write-then-rename: a writer streams the
payload to a uniquely named temp file in the same directory, then
:func:`os.replace`\\ s it over the final name.  Readers therefore see
either the old complete entry or the new complete entry, never a torn
write, and concurrent writers of the same fingerprint are safe (last
rename wins; both payloads are equivalent by content-addressing).
"""

from __future__ import annotations

import os
import threading
from pathlib import Path

from repro.store.fingerprint import STORE_SCHEMA_VERSION

#: Suffix for published entries.
ENTRY_SUFFIX = ".pkl"


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR``, else ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def entry_dir(cache_dir: Path) -> Path:
    """The schema-versioned directory holding published entries."""
    return Path(cache_dir) / f"v{STORE_SCHEMA_VERSION}"


def entry_path(cache_dir: Path, fingerprint: str) -> Path:
    """Where the entry for ``fingerprint`` lives (whether or not it exists)."""
    return entry_dir(cache_dir) / f"{fingerprint}{ENTRY_SUFFIX}"


def quarantine_dir(cache_dir: Path) -> Path:
    """Where corrupt entries are moved for post-mortem inspection."""
    return entry_dir(cache_dir) / "quarantine"


def read_entry(cache_dir: Path, fingerprint: str) -> bytes | None:
    """The raw payload for ``fingerprint``, or ``None`` if unreadable.

    Any OS-level failure (missing entry, permissions, transient FS
    errors) is a miss, never an exception — the store's contract is that
    a broken disk degrades to a cold start.
    """
    try:
        return entry_path(cache_dir, fingerprint).read_bytes()
    except OSError:
        return None


def write_entry(cache_dir: Path, fingerprint: str, payload: bytes) -> Path:
    """Atomically publish ``payload`` as the entry for ``fingerprint``.

    The temp name carries pid and thread id so concurrent writers (two
    drivers, or two threads of one server) never collide on the staging
    file; :func:`os.replace` makes the publication itself atomic.
    """
    directory = entry_dir(cache_dir)
    directory.mkdir(parents=True, exist_ok=True)
    final = entry_path(cache_dir, fingerprint)
    tmp = directory / (
        f".tmp-{fingerprint}-{os.getpid()}-{threading.get_ident()}"
    )
    tmp.write_bytes(payload)
    os.replace(tmp, final)
    return final


def quarantine_entry(cache_dir: Path, fingerprint: str) -> Path | None:
    """Move a corrupt entry aside so it is never re-read.

    Returns the quarantine path, or ``None`` if the entry vanished (a
    concurrent writer may have already replaced it — fine either way).
    The quarantined name carries the pid so two processes quarantining
    the same entry do not clobber each other's evidence.
    """
    source = entry_path(cache_dir, fingerprint)
    destination = quarantine_dir(cache_dir) / (
        f"{fingerprint}-{os.getpid()}{ENTRY_SUFFIX}"
    )
    try:
        destination.parent.mkdir(parents=True, exist_ok=True)
        os.replace(source, destination)
    except OSError:
        return None
    return destination


def list_entries(cache_dir: Path) -> list[Path]:
    """Published entry files, sorted by name (i.e. by fingerprint).

    Temp files and the quarantine directory are not entries.
    """
    directory = entry_dir(cache_dir)
    try:
        children = sorted(directory.iterdir())
    except OSError:
        return []
    return [
        child
        for child in children
        if child.suffix == ENTRY_SUFFIX and child.is_file()
    ]
