"""Algorithm 3 — the one exact scan every layer answers k-NN and range
queries with.

Every member of every scanned cluster, in every shard at once, gets a
metric lower bound on its distance to the query (Theorem 2), and the
members are evaluated in ascending ``(bound, table position)`` order —
the incremental best-first order of Hjaltason & Samet (*Distance
Browsing in Spatial Databases*, TODS 1999) — in kernel-sized windows,
each re-cut against the k-th distance as it tightens.  The first bound
beyond the k-th distance ends the scan, so the answer is exact.

A leaf key is the member's distance to one reference series, its
centroid.  :class:`ScanViews` holds one contiguous *table* of reference
distances per index: column 0 is the leaf key, and an index that holds
a sketch tier appends one column per sketch pivot — the
``pivot_dists`` rows the sketch already stores.  ``|d(Q, R) - d(S, R)|
<= d(Q, S)`` holds for every column; a member's bound is the tightest
of them.  One ranking sweep measures the query against every pivot set
and every centroid.

``STRGIndex.search`` scans its own clusters, ``ShardedIndex.search`` the
views of every live shard under one bound, and the budgeted rerank of
:func:`~repro.search.sketch.approx_knn` hands its sketch-bounded
shortlist to the same :func:`evaluate_windowed` loop.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Sequence

import numpy as np

from repro.core.nodes import ClusterRecord
from repro.distance.base import as_series
from repro.distance.batch import one_vs_many
from repro.distance.bounds import pivot_lower_bounds
from repro.observability import OBS
from repro.search.request import TopK, hit_key

#: Candidates per kernel sweep of the exact scan, and of the budgeted
#: rerank.  Larger windows amortise the per-sweep overhead; smaller ones
#: re-cut against a tighter bound more often.  Both are the values every
#: gated §6.3 count was measured at — changing either moves those counts.
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
    """One cluster: rows ``start:stop`` of its :class:`ScanViews` table.
    ``refs[i]`` is member ``i``'s leaf key (ascending), then its distance
    to each series of ``pivots``, a view of the table."""

    __slots__ = ("table", "cluster", "start", "stop", "centroid", "pivots",
                 "refs")

    def __init__(self, table: ScanViews, cluster: int, start: int,
                 stop: int, centroid: np.ndarray):
        self.table, self.cluster, self.start, self.stop = (
            table, cluster, start, stop)
        self.centroid = np.asarray(centroid, dtype=np.float64)
        self.pivots = table.pivots
        self.refs = table.refs[start:stop]

    @property
    def records(self) -> list:
        return self.table.records[self.start:self.stop]


class ScanViews:
    """One index's reference table and the :class:`ClusterView` of each
    cluster by record identity; valid while the index's ``mutations``
    still reads :attr:`mutations` and it holds :attr:`sketch`."""

    __slots__ = ("mutations", "sketch", "pivots", "records", "members",
                 "refs", "row_cluster", "by_record")

    def __init__(self, records: Sequence[ClusterRecord], mutations: int,
                 sketch=None):
        """The table of ``records``' members in leaf order.  Pivot
        columns are the sketch's stored rows, matched by ``row``, so a
        build evaluates nothing.  Without a sketch — or one missing a
        member's row — the table holds the leaf keys alone."""
        self.mutations, self.sketch = mutations, sketch
        self.records = [r for record in records for r in record.leaf]
        self.members = [as_series(r.og) for r in self.records]
        rows = None
        if sketch is not None and sketch.pivots and self.records:
            rows = sketch.rows_of([r.row for r in self.records])
        self.pivots = () if rows is None else sketch.pivots
        # Column-major: a bound sweeps each column contiguously.
        self.refs = np.empty((len(self.records), 1 + len(self.pivots)),
                             order="F")
        self.refs[:, 0] = [key for record in records
                           for key in record.leaf.keys]
        if rows is not None:
            self.refs[:, 1:] = rows[0]
        sizes = [len(record.leaf) for record in records]
        self.row_cluster = np.repeat(np.arange(len(records)), sizes)
        at = np.cumsum([0, *sizes]).tolist()
        self.by_record = {id(record): ClusterView(
            self, c, at[c], at[c + 1], record.centroid)
            for c, record in enumerate(records)}


def evaluate_windowed(distance, series: np.ndarray, candidates: Sequence,
                      best: TopK, window: int,
                      series_of: Callable[[Any], np.ndarray],
                      record_of: Callable[[Any], tuple],
                      external: float = math.inf,
                      first: int | None = None) -> int:
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

    ``first`` seeds the bound: the first sweep takes only that many
    candidates when at least as many again are left of the window
    (otherwise the seed would leave a sliver sweep for nothing), and
    every later sweep ends on a multiple of ``window``.  Every cut of
    the unseeded schedule is kept and the k-th distance only falls as
    the evaluated prefix grows, so seeding never evaluates more, and
    the prune is the same bound test, so the hits do not move.
    """
    start = 0
    end = first if first is not None and 2 * first <= window else window
    while start < len(candidates):
        bound = min(best.bound, external)
        limit = bound + slack_at(bound)
        stop = start
        end = min(len(candidates), end)
        while stop < end and candidates[stop][0] <= limit:
            stop += 1
        if stop == start:
            break
        chunk = candidates[start:stop]
        dists = one_vs_many(distance, series, [series_of(c) for c in chunk])
        for candidate, d in zip(chunk, dists):
            best.offer(float(d), *record_of(candidate))
        start = stop
        end = (stop // window + 1) * window
    return start


class _Candidates:
    """Every member of the scanned views with its lower bound, as
    parallel arrays (tables in first-view order, rows in table order)."""

    def __init__(self, distance, series: np.ndarray,
                 views: Sequence[ClusterView]):
        picked: dict[int, list[int]] = {}
        for i, view in enumerate(views):
            picked.setdefault(id(view.table), []).append(i)
        self.tables = [views[at[0]].table for at in picked.values()]
        # The one ranking sweep: every table's pivots, every centroid.
        pivots = [pivot for table in self.tables for pivot in table.pivots]
        swept = one_vs_many(distance, series,
                            [*pivots, *(view.centroid for view in views)])
        key_qs, start, parts = swept[len(pivots):], 0, []
        for t, (table, at) in enumerate(zip(self.tables, picked.values())):
            q = swept[start:start + len(table.pivots)]
            start += len(table.pivots)
            key_q = key_qs[at]
            # Each row's position in ``at``; rows of clusters not scanned
            # read -1 (a placeholder), are bounded too and then dropped.
            of = np.full(len(table.by_record), -1)
            of[[views[i].cluster for i in at]] = np.arange(len(at))
            of = of[table.row_cluster]
            lb = np.abs(table.refs[:, 0] - key_q[of])
            np.maximum(lb, pivot_lower_bounds(q, table.refs[:, 1:]), out=lb)
            rows = np.flatnonzero(of >= 0)
            parts.append((lb[rows], np.full(len(rows), t), rows,
                          np.asarray(at)[of[rows]]))
        self.lbs, self.tab, self.rows, self.view_of = (
            np.concatenate(column) for column in zip(*parts))

    def listed(self, order: np.ndarray) -> list[tuple]:
        """``(bound, table, row)`` of the candidates at ``order``."""
        return list(zip(self.lbs[order].tolist(), self.tab[order].tolist(),
                        self.rows[order].tolist()))

    def series_of(self, candidate: tuple) -> np.ndarray:
        return self.tables[candidate[1]].members[candidate[2]]

    def record_of(self, candidate: tuple) -> tuple:
        record = self.tables[candidate[1]].records[candidate[2]]
        return record.og, record.clip_ref

    def count(self, layer: str, views: int, evaluated: np.ndarray) -> None:
        """Counters: a cluster with an evaluated member is scanned."""
        scanned = len(np.unique(self.view_of[evaluated]))
        OBS.count(f"{layer}.leaf_scans", scanned)
        OBS.count(f"{layer}.clusters_pruned", views - scanned)
        OBS.count(f"{layer}.candidates_evaluated", len(evaluated))


def probe(distance, query, views: Sequence[ClusterView],
          n_probe: int | None) -> Sequence[ClusterView]:
    """The ``n_probe`` views whose centroids lie nearest ``query`` under
    ``distance``, nearest first (ties in view order); every view when
    ``n_probe`` is ``None``."""
    if n_probe is None or not views:
        return views
    dists = one_vs_many(distance, query, [view.centroid for view in views])
    return [views[int(i)] for i in np.argsort(dists, kind="stable")[:n_probe]]


def knn_scan(distance, series: np.ndarray, views: Sequence[ClusterView],
             k: int, *, prune_bound: float | None = None,
             window: int = EXACT_WINDOW, layer: str = "index"
             ) -> list[tuple]:
    """The ``k`` nearest members of ``views`` to ``series``, as sorted
    ``(distance, og, clip_ref)`` hits.

    Members of every view, whatever index they belong to, are evaluated
    best-first by their tightest lower bound, ``window`` at a time; only
    the rows still under the k-th distance after the first window are
    sorted.  ``prune_bound`` only ever prunes, so any valid upper bound
    on the true k-th distance leaves the result exact.  Counters are
    reported under ``layer``."""
    best = TopK(k)
    if not views:
        return best.hits
    external = math.inf if prune_bound is None else float(prune_bound)
    cands = _Candidates(distance, series, views)
    lbs = cands.lbs
    # Positions are ascending, so a stable sort orders by (bound, position).
    first = np.arange(len(lbs))
    if len(lbs) > window:
        first = first[lbs <= np.partition(lbs, window - 1)[window - 1]]
    first = first[np.argsort(lbs[first], kind="stable")][:window]
    done = evaluate_windowed(distance, series, cands.listed(first), best,
                             window, cands.series_of, cands.record_of,
                             external)
    evaluated = first[:done]
    if done == len(first) < len(lbs):
        bound = min(best.bound, external)
        under = lbs <= bound + slack_at(bound)
        under[first] = False
        rest = np.flatnonzero(under)
        rest = rest[np.argsort(lbs[rest], kind="stable")]
        done = evaluate_windowed(distance, series, cands.listed(rest), best,
                                 window, cands.series_of, cands.record_of,
                                 external)
        evaluated = np.concatenate([evaluated, rest[:done]])
    cands.count(layer, len(views), evaluated)
    return best.hits


def range_scan(distance, series: np.ndarray, views: Sequence[ClusterView],
               radius: float, *, layer: str = "index") -> list[tuple]:
    """Every member of ``views`` within ``radius`` of ``series``: the
    bound is known up front, so every candidate under it goes through
    one sweep."""
    hits: list[tuple] = []
    if views:
        cands = _Candidates(distance, series, views)
        under = np.flatnonzero(cands.lbs <= radius + slack_at(radius))
        cands.count(layer, len(views), under)
        listed = cands.listed(under)
        dists = one_vs_many(distance, series,
                            [cands.series_of(c) for c in listed])
        hits = [(d, *cands.record_of(c))
                for c, d in zip(listed, dists.tolist()) if d <= radius]
    return sorted(hits, key=hit_key)
