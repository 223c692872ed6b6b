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


def pivot_lower_bounds(query_pd: np.ndarray,
                       corpus_pd: np.ndarray) -> np.ndarray:
    """Triangle lower bounds from precomputed pivot distances.

    Given ``query_pd[p] = d(Q, P_p)`` and ``corpus_pd[i, p] = d(S_i,
    P_p)`` for a set of pivot series ``P``, the triangle inequality gives
    ``|d(Q, P_p) - d(S_i, P_p)| <= d(Q, S_i)`` for every pivot; the
    tightest (largest) bound per candidate is returned, shape ``(n,)``.
    With zero pivots the bound degenerates to all-zeros (always valid).

    This is the multi-reference generalization of
    :func:`eged_metric_lower_bound` (which uses the single fixed
    reference ``R = <empty sequence>``); the approximate search tier
    (:mod:`repro.search`) uses it both to order candidates and to prune
    rerank work that provably cannot enter the top-k.
    """
    corpus_pd = np.asarray(corpus_pd, dtype=np.float64)
    query_pd = np.asarray(query_pd, dtype=np.float64)
    if corpus_pd.ndim != 2:
        corpus_pd = corpus_pd.reshape(len(corpus_pd), -1)
    if corpus_pd.shape[1] == 0:
        return np.zeros(corpus_pd.shape[0], dtype=np.float64)
    return np.abs(corpus_pd - query_pd.reshape(1, -1)).max(axis=1)

