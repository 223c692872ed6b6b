"""Cheap lower bounds for the metric EGED (ERP-style).

Because ``EGED_M`` is a metric (Theorem 2), the triangle inequality with
any fixed reference ``R`` gives ``|d(Q, R) - d(S, R)| <= d(Q, S)``.
Taking ``R`` to be the *empty* sequence makes ``d(X, R)`` the total gap
mass ``sum_i |x_i - g|`` — an O(n) quantity — so candidate sequences can
be discarded without running the O(n*m) dynamic program at all.  This is
the norm-based pruning idea of Chen & Ng's ERP indexing, generalized to
the vector-valued OG nodes used here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distance.base import SeriesLike, as_series


def gap_mass(x: SeriesLike, gap: float | np.ndarray = 0.0) -> float:
    """Total gap cost of a series against the reference value ``g``.

    Equals ``EGED_M(x, <empty sequence>)``: deleting every node.
    """
    a = as_series(x)
    g = np.broadcast_to(np.asarray(gap, dtype=np.float64), (a.shape[1],))
    return float(np.sum(np.sqrt(np.sum((a - g) ** 2, axis=1))))


def eged_metric_lower_bound(x: SeriesLike, y: SeriesLike,
                            gap: float | np.ndarray = 0.0) -> float:
    """A lower bound on ``EGED_M(x, y)`` computable in O(n + m).

    ``|gap_mass(x) - gap_mass(y)| <= EGED_M(x, y)`` by the triangle
    inequality through the empty sequence.
    """
    return abs(gap_mass(x, gap) - gap_mass(y, gap))


#: Relative rounding of a float32 column: ``float32(d)`` is within
#: ``2**-24 * d`` of ``d``, doubled to cover the correction's division.
FLOAT32_ROUNDING = 2.0 ** -23


def pivot_lower_bounds(query_pd: np.ndarray,
                       corpus_pd: np.ndarray) -> np.ndarray:
    """Triangle lower bounds from precomputed reference distances.

    Given ``query_pd[p] = d(Q, P_p)`` and ``corpus_pd[i, p] = d(S_i,
    P_p)`` for a set of reference series ``P``, the triangle inequality
    gives ``|d(Q, P_p) - d(S_i, P_p)| <= d(Q, S_i)`` for every
    reference; the tightest (largest) bound per candidate is returned,
    shape ``(n,)``, as float64.  With zero references the bound
    degenerates to all-zeros (always valid).

    The maximum is taken one column at a time, in place.  For a float32
    ``corpus_pd`` it is then lowered to ``(1 - u) * t - u * max(q)``
    (``u`` = :data:`FLOAT32_ROUNDING`), which absorbs the columns'
    rounding: the bound never exceeds the true distance either.

    This is the multi-reference generalization of
    :func:`eged_metric_lower_bound` (which uses the single fixed
    reference ``R = <empty sequence>``); the search tiers use it both
    to order candidates and to prune work that provably cannot enter
    the top-k.
    """
    query_pd = np.asarray(query_pd, dtype=np.float64)
    corpus_pd = np.asarray(corpus_pd)
    n, width = corpus_pd.shape
    bound = np.zeros(n, dtype=np.float64)
    if width == 0 or n == 0:
        return bound
    np.subtract(corpus_pd[:, 0], query_pd[0], out=bound, dtype=np.float64)
    np.abs(bound, out=bound)
    column = np.empty(n, dtype=np.float64)
    for p in range(1, width):
        np.subtract(corpus_pd[:, p], query_pd[p], out=column,
                    dtype=np.float64)
        np.abs(column, out=column)
        np.maximum(bound, column, out=bound)
    if corpus_pd.dtype == np.float32:
        bound *= 1.0 - FLOAT32_ROUNDING
        bound -= FLOAT32_ROUNDING * float(query_pd.max())
    return bound


def distinct_reference_sets(sets: Sequence[Sequence[np.ndarray]]
                            ) -> tuple[list[Sequence[np.ndarray]], list[int]]:
    """The distinct reference sets among ``sets``, in first-appearance
    order, and the position of each of ``sets`` among them.

    Two sets holding equal series (bit for bit) in equal order count as
    one, whatever lists hold them — each shard of a reopened store reads
    its own copy of the one stored set — so a query that sweeps each
    distinct set measures every reference once.
    """
    keys: dict[tuple, int] = {}
    distinct: list[Sequence[np.ndarray]] = []
    where: list[int] = []
    for refs in sets:
        at = keys.setdefault(
            tuple((ref.shape, ref.tobytes()) for ref in refs), len(distinct))
        if at == len(distinct):
            distinct.append(refs)
        where.append(at)
    return distinct, where
