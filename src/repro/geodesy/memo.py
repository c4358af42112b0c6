"""Bounded memoisation of the Vincenty inverse solution.

The inverse geodesic problem is the hot path of the whole reconstruction
pipeline: stitching measures every endpoint against cluster anchors, fiber
attachment measures every tower against every data center, and link lengths
feed the latency model.  The same coordinate pairs recur constantly — the
tower set of a licensee is stable across snapshot dates, and several
analyses reconstruct the same licensee repeatedly — so an LRU memo over
``(lat_a, lon_a, lat_b, lon_b)`` converts most of those Vincenty iterations
into dictionary lookups.

The memo is *opt-in*: :func:`repro.geodesy.earth.geodesic_inverse` consults
the currently-installed memo (if any) and otherwise computes as before.
:class:`repro.core.engine.CorridorEngine` installs its own memo around each
unit of work via :func:`use_memo`, so cache statistics stay per-engine and
plain library calls are unaffected.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from typing import Iterator

#: Inverse solutions are (distance_m, azimuth_fwd_deg, azimuth_back_deg).
InverseSolution = tuple[float, float, float]

#: Default memo capacity.  A full corridor scenario touches a few hundred
#: thousand distinct coordinate pairs; at ~100 bytes per entry this bound
#: keeps the memo under ~25 MB.
DEFAULT_MEMO_SIZE = 262_144


class GeodesicMemo:
    """A bounded LRU cache of inverse geodesic solutions.

    Tracks hits, misses and evictions so callers (the engine's
    ``CacheStats``) can report effectiveness.  The key is the exact
    coordinate 4-tuple; memoised results are bit-identical to fresh
    computations, so enabling the memo never perturbs analysis output.
    """

    def __init__(self, maxsize: int = DEFAULT_MEMO_SIZE) -> None:
        if maxsize <= 0:
            raise ValueError("memo size must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[
            tuple[float, float, float, float], InverseSolution
        ] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, key: tuple[float, float, float, float]
    ) -> InverseSolution | None:
        """The memoised solution for ``key``, or None (counts hit/miss)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def store(
        self, key: tuple[float, float, float, float], solution: InverseSolution
    ) -> None:
        """Memoise ``solution``, evicting the least recently used entry."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = solution
            return
        if len(self._entries) >= self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = solution

    def entries(self) -> tuple[
        tuple[tuple[float, float, float, float], InverseSolution], ...
    ]:
        """Every memoised (key, solution) pair, LRU order (oldest first).

        Solutions are exact and parameter-independent, so entries can be
        transplanted between memos (persisted and reloaded through
        :mod:`repro.store`) without perturbing any result.
        """
        return tuple(self._entries.items())

    def clear(self) -> None:
        self._entries.clear()


#: The memo currently consulted by ``geodesic_inverse`` (None = disabled).
_active_memo: GeodesicMemo | None = None


def active_memo() -> GeodesicMemo | None:
    """The memo installed by the innermost :func:`use_memo`, if any."""
    return _active_memo


@contextmanager
def use_memo(memo: GeodesicMemo) -> Iterator[GeodesicMemo]:
    """Install ``memo`` for the duration of the block (re-entrant)."""
    global _active_memo
    previous = _active_memo
    _active_memo = memo
    try:
        yield memo
    finally:
        _active_memo = previous
