"""The one search contract every layer speaks.

A query is a validated, immutable :class:`SearchRequest`; every layer —
``STRGIndex``, ``ShardedIndex``, ``IndexSnapshot``, ``LiveIndex``,
``QueryService``, ``WorkerPool`` — exposes ``search(request)`` and
answers with a :class:`SearchResult`.  The argument rules live in the
two constructors below and nowhere else, so a request that exists is a
request every layer may run without re-checking it (see the "Search
contract" section of ``docs/API.md``).
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.distance.base import as_series
from repro.errors import InvalidParameterError


def _check_query(query: Any) -> None:
    if not np.isfinite(as_series(query)).all():
        raise InvalidParameterError(
            "query trajectory contains non-finite values (NaN or inf)")


def _integer(value: Any, name: str) -> int:
    """``value`` as an ``int``; floats, strings and bools are rejected
    rather than truncated."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError(
            f"{name} must be an integer, got {value!r}") from None


def _flag(value: Any, name: str) -> bool:
    """``value`` if it is a ``bool``; strings and numbers are rejected
    rather than coerced (``"false"`` is truthy)."""
    if not isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be a bool, got {value!r}")
    return value


@dataclass(frozen=True, eq=False)
class SearchRequest:
    """One k-NN or range query, validated at construction.

    Build with :meth:`knn` or :meth:`range`.  ``query`` is kept as given
    (an ``ObjectGraph`` or a raw trajectory); ``search_budget`` switches
    k-NN to the approximate sketch tier; ``prune_bound`` is a caller-known
    upper bound on the k-th distance that layers able to use it prune
    against (it never changes which hits are returned); ``degrade`` asks
    a sharded layer to answer from the surviving shards when one fails
    instead of raising.
    """

    kind: str  # "knn" | "range"
    query: Any
    k: int | None = None
    radius: float | None = None
    background: Any = None
    n_probe: int | None = None
    search_budget: int | None = None
    prune_bound: float | None = None
    degrade: bool = False

    @classmethod
    def knn(cls, query: Any, k: int, *, background: Any = None,
            n_probe: int | None = None, search_budget: int | None = None,
            prune_bound: float | None = None,
            degrade: bool = False) -> "SearchRequest":
        """The ``k`` nearest OGs.  ``k = 0`` is legal (no hits) and ``k``
        beyond the corpus returns every OG, ranked."""
        k = _integer(k, "k")
        if k < 0:
            raise InvalidParameterError(f"k must be >= 0, got {k}")
        if n_probe is not None:
            n_probe = _integer(n_probe, "n_probe")
            if n_probe < 1:
                raise InvalidParameterError(
                    f"n_probe must be >= 1, got {n_probe}")
        if search_budget is not None:
            search_budget = _integer(search_budget, "search_budget")
            if search_budget < 1:
                raise InvalidParameterError(
                    f"search_budget must be >= 1, got {search_budget}")
        if prune_bound is not None and not prune_bound >= 0.0:
            raise InvalidParameterError(
                f"prune_bound must be >= 0, got {prune_bound}")
        _check_query(query)
        return cls("knn", query, k=k, background=background,
                   n_probe=n_probe, search_budget=search_budget,
                   prune_bound=prune_bound, degrade=_flag(degrade, "degrade"))

    @classmethod
    def range(cls, query: Any, radius: float, *, background: Any = None,
              degrade: bool = False) -> "SearchRequest":
        """Every OG within ``radius`` (finite, ``>= 0``) of the query."""
        try:
            radius = float(radius)
        except (TypeError, ValueError):
            raise InvalidParameterError(
                f"radius must be a number, got {radius!r}") from None
        if not 0.0 <= radius < math.inf:
            raise InvalidParameterError(
                f"radius must be >= 0, got {radius}")
        _check_query(query)
        return cls("range", query, radius=radius, background=background,
                   degrade=_flag(degrade, "degrade"))

    @property
    def series(self) -> np.ndarray:
        """The query as a normalized ``(n, d)`` value series."""
        return as_series(self.query)


@dataclass
class SearchResult:
    """What every ``search()`` returns.

    ``hits`` are sorted by ``(distance, og_id)``: ``(distance, og,
    clip_ref)`` tuples in process, ``RemoteHit`` records from a worker
    pool.  When a shard failed under ``degrade=True`` the result is
    flagged ``degraded`` and lists the ``failed_shards`` whose candidates
    are missing.  ``snapshot_version`` is stamped by the layer that owns
    versions (``IndexSnapshot``: an int; ``WorkerPool``: its store's
    committed version) from the same read that served the hits, and
    stays ``None`` below those layers; ``latency`` (seconds, queue wait
    + execution) is set by ``QueryService``.
    """

    hits: list
    degraded: bool = False
    failed_shards: list[int] = field(default_factory=list)
    snapshot_version: Any = None
    latency: float = 0.0


def hit_key(hit: tuple[float, Any, Any]) -> tuple[float, int]:
    """The ``(distance, og_id)`` sort key of a ``(distance, og,
    clip_ref)`` hit — the order every layer ranks and merges by."""
    return hit[0], hit[1].og_id


class TopK:
    """The best ``k >= 1`` hits seen so far, in :func:`hit_key` order.

    Ordering by the pair makes tie-breaking deterministic: equal
    distances resolve by og_id, so a sharded search over the same corpus
    returns bit-identical answers regardless of scan order.
    """

    __slots__ = ("k", "hits", "bound", "_keys")

    def __init__(self, k: int):
        self.k = k
        self.hits: list[tuple[float, Any, Any]] = []
        #: The k-th best distance (``inf`` until ``k`` hits are held):
        #: nothing farther can still enter.
        self.bound = math.inf
        self._keys: list[tuple[float, int]] = []

    def offer(self, distance: float, og: Any, clip_ref: Any) -> None:
        """Keep the hit if it ranks among the best ``k``."""
        key = (distance, og.og_id)
        keys = self._keys
        full = len(keys) == self.k
        if full and key >= keys[-1]:
            return
        at = bisect.bisect_left(keys, key)
        keys.insert(at, key)
        self.hits.insert(at, (distance, og, clip_ref))
        if full:
            keys.pop()
            self.hits.pop()
        if len(keys) == self.k:
            self.bound = keys[-1][0]


def split_budget(budget: int, sizes: Sequence[int], k: int,
                 total: int | None = None) -> list[int]:
    """Per-shard evaluation budgets, proportional to shard size.

    A shard holding half of the ``total`` rows (``None``: the ``sizes``
    summed) gets half the evaluations; every shard gets at least ``k``
    so it can always fill a top-k list (the split can therefore
    overshoot ``budget`` by at most ``len(sizes) * k``).  The shares
    bound each shard's shortlist;
    :func:`~repro.search.sketch.approx_knn` reranks all of them under
    one k-th best distance.
    """
    total = (sum(sizes) if total is None else total) or 1
    return [max(k, math.ceil(budget * size / total)) for size in sizes]


__all__ = ["SearchRequest", "SearchResult", "TopK", "hit_key",
           "split_budget"]
