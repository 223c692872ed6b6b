"""Algorithm 3 — the one exact scan every layer answers k-NN and range
queries with.

Rank the clusters by ``EGED_M`` from the query to each centroid, prune a
whole cluster when even its nearest possible member is too far, cut each
sorted leaf to the window of keys around ``Key_q`` that the bound still
admits, and evaluate the survivors best-first in kernel-sized windows,
re-cutting against the k-th distance as it tightens.  Every prune is a
metric lower bound (Theorem 2), so the answer is exact.

A leaf key is the member's distance to one reference series, its
centroid.  A :class:`ClusterView` generalises that to a *table* of
reference distances per member: column 0 is the leaf key, and an index
that holds a sketch tier appends one column per sketch pivot — the
``pivot_dists`` rows the sketch already stores, so building a view
evaluates only centroids against pivots.  ``|d(Q, R) - d(S, R)| <=
d(Q, S)`` holds for every column, and the tightest one bounds the
candidate (:func:`~repro.distance.bounds.pivot_lower_bounds`).  Each
view names the reference series of its columns; the scan evaluates the
query against every distinct set in the sweep that ranks the centroids.

``STRGIndex.search`` scans its own clusters, ``ShardedIndex.search`` the
views of every live shard under one bound, and the budgeted rerank of
:func:`~repro.search.sketch.approx_knn` hands its sketch-bounded
shortlist to the same :func:`evaluate_windowed` loop.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.nodes import ClusterRecord, LeafRecord
from repro.distance.base import as_series
from repro.distance.batch import one_vs_many, pairwise_matrix
from repro.distance.bounds import pivot_lower_bounds
from repro.observability import OBS
from repro.search.request import TopK, hit_key

#: Candidates per kernel sweep of the exact scan, and of the budgeted
#: rerank.  Larger windows amortise the per-sweep overhead; smaller ones
#: re-cut against a tighter bound more often (window 1 is the paper's
#: scalar walk).  Both are the values every gated §6.3 count was
#: measured at — changing either moves those counts.
EXACT_WINDOW = 32
RERANK_WINDOW = 64

#: Relative slack on every pruning comparison, absorbing the batched
#: kernels' ~1e-12 float asymmetry (``d(a, b)`` vs ``d(b, a)``).  It only
#: ever makes a scan slightly larger, never a result wrong.
PRUNE_SLACK = 1e-9


def slack_at(bound: float) -> float:
    """Absolute slack for comparisons against ``bound``."""
    if not math.isfinite(bound):
        return 0.0
    return PRUNE_SLACK * (1.0 + abs(bound))


class ClusterView:
    """Immutable scan view of one cluster: everything the scan needs
    without touching the OGs again.

    ``refs[i, 0]`` is member ``i``'s leaf key (ascending) and ``refs[i,
    1:]`` its distance to each series of ``pivots``; ``centroid_refs``
    is the same row for the centroid itself, so its column 0 is
    ``d(centroid, centroid) = 0``.
    """

    __slots__ = ("centroid", "records", "members", "pivots", "refs",
                 "centroid_refs", "max_key")

    def __init__(self, record: ClusterRecord,
                 pivots: Sequence[np.ndarray] = (),
                 centroid_pd: Sequence[float] = (),
                 member_pd: np.ndarray | None = None):
        leaf = record.leaf
        self.centroid = np.asarray(record.centroid, dtype=np.float64)
        self.records: list[LeafRecord] = list(leaf.records)
        self.members = [as_series(r.og) for r in self.records]
        self.pivots = pivots
        keys = np.asarray(leaf.keys, dtype=np.float64).reshape(-1, 1)
        self.refs = (keys if member_pd is None
                     else np.hstack([keys, member_pd]))
        self.centroid_refs = np.concatenate([[0.0], centroid_pd])
        self.max_key = leaf.max_key()


class ScanViews:
    """The :class:`ClusterView` of every cluster of one index, by
    cluster-record identity; valid while the index's ``mutations``
    counter still reads :attr:`mutations` and it holds :attr:`sketch`."""

    __slots__ = ("mutations", "sketch", "by_record")

    def __init__(self, distance, records: Sequence[ClusterRecord],
                 mutations: int, sketch=None):
        """Views of ``records``, with reference columns from ``sketch``.

        Member rows are the sketch's stored pivot distances, matched to
        each leaf member by its row; the one kernel sweep is centroids x
        pivots.  Without a sketch — or one missing a member's row — the
        views carry the leaf keys alone.
        """
        self.mutations = mutations
        self.sketch = sketch
        self.by_record: dict[int, ClusterView] = {}
        rows = None
        if sketch is not None and sketch.pivots and records:
            rows = sketch.rows_of(
                [r.row for record in records for r in record.leaf])
        if rows is None:
            for record in records:
                self.by_record[id(record)] = ClusterView(record)
            return
        member_pd, pivots = rows[0], sketch.pivots
        centroid_pd = np.ascontiguousarray(pairwise_matrix(
            distance, pivots, [record.centroid for record in records]).T)
        start = 0
        for record, pd in zip(records, centroid_pd):
            stop = start + len(record.leaf)
            self.by_record[id(record)] = ClusterView(
                record, pivots, pd, member_pd[start:stop])
            start = stop


def evaluate_windowed(distance, series: np.ndarray, candidates: Sequence,
                      best: TopK, window: int,
                      series_of: Callable[[Any], np.ndarray],
                      record_of: Callable[[Any], tuple],
                      external: float = math.inf) -> int:
    """Offer ``candidates`` to ``best``, nearest lower bound first.

    ``candidates`` are ordered by ``candidate[0]``, a lower bound on the
    candidate's distance.  At most ``window`` of them go through one
    kernel sweep; before each sweep the prefix is re-cut against the
    k-th best distance so far (and ``external``, a caller-known upper
    bound on it), so a candidate queued under an older, looser bound is
    dropped without paying the kernel.  The first one beyond the bound
    ends the scan — every later one is provably farther.  ``series_of``
    and ``record_of`` fetch a candidate's series and ``(og, clip_ref)``
    only once it is evaluated.  Returns how many were evaluated.
    """
    start = 0
    while start < len(candidates):
        bound = min(best.bound, external)
        limit = bound + slack_at(bound)
        stop = start
        end = min(len(candidates), start + window)
        while stop < end and candidates[stop][0] <= limit:
            stop += 1
        if stop == start:
            break
        chunk = candidates[start:stop]
        dists = one_vs_many(distance, series, [series_of(c) for c in chunk])
        for candidate, d in zip(chunk, dists):
            best.offer(float(d), *record_of(candidate))
        start = stop
    return start


def _rank_clusters(distance, series: np.ndarray,
                   views: Sequence[ClusterView]
                   ) -> tuple[np.ndarray, list[np.ndarray]]:
    """``Key_q`` per cluster, and the query's reference row per view
    (``Key_q``, then its distance to each of the view's pivots) — one
    sweep over every distinct pivot set and every centroid."""
    start: dict[int, int] = {}
    pivots: list[np.ndarray] = []
    for view in views:
        if id(view.pivots) not in start:
            start[id(view.pivots)] = len(pivots)
            pivots.extend(view.pivots)
    swept = one_vs_many(distance, series,
                        [*pivots, *(view.centroid for view in views)])
    key_qs = swept[len(pivots):]
    q_refs = []
    for view, key_q in zip(views, key_qs):
        first = start[id(view.pivots)]
        q_refs.append(np.concatenate(
            [[key_q], swept[first:first + len(view.pivots)]]))
    return key_qs, q_refs


def _leaf_window(view: ClusterView, q: np.ndarray, bound: float,
                 layer: str, pending: list) -> None:
    """Queue the members of one cluster that no reference column rules
    out at ``bound``, as ``(lower bound, leaf record, series)``; ``q``
    is the query's reference row for this view."""
    slack = slack_at(bound)
    limit = bound + slack
    # Nearest possible member: d(q, o) >= |d(q, R) - d(R, c)| - max_key
    # for every reference R (the centroid itself gives key_q - max_key).
    # Strict >: a candidate whose bound ties the k-th distance can still
    # win on og_id.
    if float(np.abs(q - view.centroid_refs).max()) - view.max_key > limit:
        OBS.count(f"{layer}.clusters_pruned")
        return
    OBS.count(f"{layer}.leaf_scans")
    keys = view.refs[:, 0]
    lo = int(np.searchsorted(keys, q[0] - bound - slack, side="left"))
    hi = int(np.searchsorted(keys, q[0] + bound + slack, side="right"))
    lbs = pivot_lower_bounds(q, view.refs[lo:hi])
    keep = np.flatnonzero(lbs <= limit)
    records, members = view.records, view.members
    pending.extend((lb, records[i], members[i])
                   for lb, i in zip(lbs[keep].tolist(), (keep + lo).tolist()))


def _leaf_hit(candidate: tuple) -> tuple:
    record = candidate[1]
    return record.og, record.clip_ref


def _drain(distance, series: np.ndarray, pending: list, best: TopK,
           window: int, external: float) -> int:
    """Evaluate the queued leaf candidates best-first and empty the queue."""
    pending.sort(key=itemgetter(0))
    done = evaluate_windowed(distance, series, pending, best, window,
                             itemgetter(2), _leaf_hit, external)
    pending.clear()
    return done


def knn_scan(distance, series: np.ndarray, views: Sequence[ClusterView],
             k: int, *, prune_bound: float | None = None,
             window: int = EXACT_WINDOW, layer: str = "index"
             ) -> list[tuple]:
    """The ``k`` nearest members of ``views`` to ``series``, as sorted
    ``(distance, og, clip_ref)`` hits.

    Clusters are visited in ``Key_q`` order whatever index they belong
    to: the nearest one anywhere seeds the bound and every later window
    is cut by it.  Candidates accumulate across clusters until a
    ``window`` of them is queued.  ``prune_bound`` only ever prunes, so
    any valid upper bound on the true k-th distance leaves the result
    exact.  Counters are reported under ``layer``.
    """
    best = TopK(k)
    if not views:
        return best.hits
    external = math.inf if prune_bound is None else float(prune_bound)
    key_qs, q_refs = _rank_clusters(distance, series, views)
    pending: list[tuple] = []
    evaluated = 0
    for i in np.argsort(key_qs, kind="stable"):
        if len(pending) >= window:
            evaluated += _drain(distance, series, pending, best, window,
                                external)
        _leaf_window(views[i], q_refs[i], min(best.bound, external), layer,
                     pending)
    evaluated += _drain(distance, series, pending, best, window, external)
    OBS.count(f"{layer}.candidates_evaluated", evaluated)
    return best.hits


def range_scan(distance, series: np.ndarray, views: Sequence[ClusterView],
               radius: float, *, layer: str = "index") -> list[tuple]:
    """Every member of ``views`` within ``radius`` of ``series``: the
    bound is known up front, so all windows go through one sweep."""
    hits: list[tuple] = []
    pending: list[tuple] = []
    if views:
        _, q_refs = _rank_clusters(distance, series, views)
        for view, q in zip(views, q_refs):
            _leaf_window(view, q, radius, layer, pending)
    if pending:
        dists = one_vs_many(distance, series, [c[2] for c in pending])
        OBS.count(f"{layer}.candidates_evaluated", len(pending))
        for candidate, d in zip(pending, dists):
            if float(d) <= radius:
                hits.append((float(d), *_leaf_hit(candidate)))
    hits.sort(key=hit_key)
    return hits
