"""Content-hash-keyed memoization of distance evaluations.

EM clustering recomputes OG-vs-centroid distances every iteration, BIC's
K-sweep repeats whole EM runs, and ``n_init`` restarts re-seed from the
same data — so the same (series, series) pairs are evaluated over and
over.  Both k-means++ seeding and restarted warm starts measure against
centroids that are *copies of actual input series*, which makes those
pairs exact repeats across every K of a BIC sweep and every restart.

:class:`DistanceCache` memoizes scalar distances under a key built from
the distance's ``cache_token`` (its function + parameters) and a content
hash of the two series.  Only distances that expose a ``cache_token``
participate (EGED, MetricEGED, unconstrained ERP, DTW, LCS); the token is
a promise that the distance is **deterministic and symmetric**, so each
pair is stored once under a canonical (sorted) key.  Distances without a
token — notably :class:`~repro.distance.base.CountingDistance`, whose
whole purpose is to observe every evaluation — bypass the cache.

The cache is bounded (least-recently-used eviction) and keeps hit/miss
counters so benchmarks can report reuse rates.  It is safe for
concurrent use — the serving layer's worker threads share it — with a
lock around probe and store phases; distance computation for misses runs
*outside* the lock so concurrent readers only serialise on bookkeeping,
never on DP kernels.  A process-wide default instance serves the
clustering layer; swap or disable it with :func:`set_default_cache`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.distance.base import Distance, SeriesLike, as_series
from repro.distance.batch import PaddedBatch, one_vs_many, series_digest
from repro.errors import InvalidParameterError
from repro.observability.registry import CacheStats as _CacheStats

#: Default bound on memoized pairs (~50 MB of keys + floats).
DEFAULT_MAX_ENTRIES = 262_144


@dataclass
class DistanceCache:
    """Bounded LRU memo of scalar distance evaluations."""

    max_entries: int = DEFAULT_MAX_ENTRIES
    stats: _CacheStats = field(default_factory=_CacheStats)

    def __post_init__(self) -> None:
        if self.max_entries < 1:
            raise InvalidParameterError(
                f"max_entries must be >= 1, got {self.max_entries}"
            )
        self._store: OrderedDict[tuple, float] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        with self._lock:
            self._store.clear()
            self.stats = _CacheStats()

    # -- lookups --------------------------------------------------------------

    def one_vs_many(self, distance: Distance | Callable[[Any, Any], float],
                    query: SeriesLike,
                    items: Sequence[SeriesLike]) -> np.ndarray:
        """Distances from ``query`` to every item, reusing memoized pairs.

        Missing pairs are computed in one batched ``compute_many`` sweep
        and stored; distances without a ``cache_token`` (or plain
        callables) are forwarded untouched.  A
        :class:`~repro.distance.batch.PaddedBatch` passed as ``items``
        is hashed once however many queries probe it, and swept as it is
        when every pair misses.
        """
        token = getattr(distance, "cache_token", None)
        if token is None:
            with self._lock:
                self.stats.bypasses += len(items)
            return one_vs_many(distance, query, items)
        a = as_series(query)
        batch = PaddedBatch.of(items, a)
        qd = series_digest(a)
        # Canonical order — cache_token promises symmetry.
        keys = [(token, qd, bd) if qd <= bd else (token, bd, qd)
                for bd in batch.digests()]
        out = np.empty(len(batch), dtype=np.float64)
        missing: list[int] = []
        with self._lock:
            for i, key in enumerate(keys):
                value = self._store.get(key)
                if value is None:
                    missing.append(i)
                else:
                    self._store.move_to_end(key)
                    out[i] = value
            self.stats.hits += len(batch) - len(missing)
            self.stats.misses += len(missing)
        if missing:
            # Kernels run unlocked: concurrent readers only serialise on
            # the probe/store bookkeeping above and below.
            computed = one_vs_many(
                distance, a,
                batch if len(missing) == len(batch)
                else [batch[i] for i in missing])
            with self._lock:
                for i, value in zip(missing, computed):
                    out[i] = value
                    self._put(keys[i], float(value))
        return out

    def _put(self, key: tuple, value: float) -> None:
        # Caller holds self._lock.
        self._store[key] = value
        self._store.move_to_end(key)
        while len(self._store) > self.max_entries:
            self._store.popitem(last=False)
            self.stats.evictions += 1


_default_cache: DistanceCache | None = DistanceCache()


def get_default_cache() -> DistanceCache | None:
    """The process-wide cache used by the clustering layer (or ``None``
    when caching is disabled)."""
    return _default_cache


def set_default_cache(cache: DistanceCache | None) -> DistanceCache | None:
    """Install (or, with ``None``, disable) the process-wide cache;
    returns the previous one."""
    global _default_cache
    previous = _default_cache
    _default_cache = cache
    return previous


def cached_one_vs_many(distance: Distance | Callable[[Any, Any], float],
                       query: SeriesLike,
                       items: Sequence[SeriesLike]) -> np.ndarray:
    """:func:`repro.distance.batch.one_vs_many` through the default cache
    (straight through when caching is disabled)."""
    cache = get_default_cache()
    if cache is None:
        return one_vs_many(distance, query, items)
    return cache.one_vs_many(distance, query, items)
