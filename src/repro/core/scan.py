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
centroid.  :class:`ScanViews` holds one contiguous *table* per index:
the leaf keys, and — when the index holds a reference set — one
float32 column per reference series, stacked from the ``refs`` row
each leaf record carries.  ``|d(Q, R) - d(S, R)| <= d(Q, S)`` holds
for every column; a member's bound is the tightest of them.  One
ranking sweep measures the query against each distinct reference set
once (compared by content: the shards of a corpus hold one) and
against every centroid that is not itself a reference; a cluster whose
centroid is a reference reads its ``Key_q`` from the reference sweep.

The same table serves both paths: an exact or range scan bounds every
member of the scanned clusters, and a budgeted read shortlists the
table's rows by their reference bound (:meth:`ScanViews.candidates`).
Every k-NN runs through one loop, :func:`best_first`, on one window
schedule: ``STRGIndex.search`` over its own clusters,
``ShardedIndex.search`` over the views of every live shard under one
bound, and :func:`~repro.search.sketch.approx_knn` over the shortlists
of its parts' tables.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.core.nodes import ClusterRecord, reference_table
from repro.distance.base import series_key
from repro.distance.batch import one_vs_many
from repro.distance.bounds import distinct_reference_sets, pivot_lower_bounds
from repro.observability import OBS
from repro.search.request import TopK, hit_key
from repro.search.sketch import shortlist

#: Candidates per kernel sweep of every k-NN, exact or budgeted; the
#: first sweep is 2k when 4k <= WINDOW.  Larger windows amortise the
#: per-sweep overhead; smaller ones re-cut against a tighter bound more
#: often.  Every gated §6.3 count was measured at it — changing it moves
#: those counts.  Exact queries at k > 16 skip the seed and cost
#: 0.7-1.7 % more evaluations than on the earlier unseeded 32-wide
#: window (docs/PERFORMANCE.md, *One schedule*); no gated workload runs
#: there.
WINDOW = 64

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
    ``refs[i]`` is member ``i``'s distance to each series of ``pivots``,
    a view of the table; ``reference`` is the position of the centroid
    in ``pivots``, or ``None``."""

    __slots__ = ("table", "cluster", "start", "stop", "centroid", "pivots",
                 "reference", "refs")

    def __init__(self, table: ScanViews, cluster: int, start: int,
                 stop: int, centroid: np.ndarray, reference: int | None):
        self.table, self.cluster, self.start, self.stop = (
            table, cluster, start, stop)
        self.centroid = np.asarray(centroid, dtype=np.float64)
        self.pivots, self.reference = table.pivots, reference
        self.refs = table.refs[start:stop]

    @property
    def records(self) -> list:
        return self.table.records[self.start:self.stop]


class ScanViews:
    """One index's row table and the :class:`ClusterView` of each
    cluster by record identity; valid while the index's ``mutations``
    still reads :attr:`mutations` and its reference set is
    :attr:`pivots`.

    Row ``i`` is the ``i``-th member in leaf order: ``records[i]``, its
    leaf key ``keys[i]``, its index row ``row_ids[i]`` and its reference
    distances ``refs[i]``."""

    __slots__ = ("mutations", "pivots", "records", "keys", "row_ids",
                 "refs", "row_cluster", "by_record")

    def __init__(self, records: Sequence[ClusterRecord], mutations: int,
                 pivots: Sequence[np.ndarray] | None = None):
        """The table of ``records``' members in leaf order.  Reference
        columns are the records' stored ``refs`` rows, so a build
        evaluates nothing; without ``pivots`` the table holds the leaf
        keys alone."""
        self.mutations = mutations
        self.pivots = () if pivots is None else pivots
        self.records = [r for record in records for r in record.leaf]
        self.keys = np.array([key for record in records
                              for key in record.leaf.keys], dtype=np.float64)
        self.row_ids = np.array([r.row for r in self.records],
                                dtype=np.int64)
        # Column-major: a bound sweeps each column contiguously.
        self.refs = np.asfortranarray(
            reference_table(self.records, len(self.pivots)))
        sizes = [len(record.leaf) for record in records]
        self.row_cluster = np.repeat(np.arange(len(records)), sizes)
        at = np.cumsum([0, *sizes]).tolist()
        reference = {series_key(p): i for i, p in enumerate(self.pivots)}
        self.by_record = {id(record): ClusterView(
            self, c, at[c], at[c + 1], record.centroid,
            reference.get(series_key(record.centroid)))
            for c, record in enumerate(records)}

    def __len__(self) -> int:
        return len(self.records)

    def candidates(self, distance, series: np.ndarray, budget: int, k: int,
                   qd: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The ``max(k, budget)`` rows with the smallest ``(reference
        bound, row id)``, as ``(rows, bounds)`` in that order
        (:func:`~repro.search.sketch.shortlist`).  ``qd`` is the query's
        distance to each reference when the caller already swept them;
        otherwise they are swept here."""
        if qd is None:
            qd = one_vs_many(distance, series, self.pivots)
        return shortlist(qd, ((self.refs, None),), self.row_ids,
                         max(k, budget))

    def row_series(self, row: int) -> np.ndarray:
        # An OG's values are already its (n, d) float64 series.
        return self.records[row].og.values

    def row_record(self, row: int) -> tuple:
        record = self.records[row]
        return record.og, record.clip_ref


def evaluate_windowed(distance, series: np.ndarray, order: np.ndarray,
                      lbs: np.ndarray, best: TopK, window: int,
                      series_at: Callable[[int], np.ndarray],
                      record_at: Callable[[int], tuple],
                      external: float = math.inf,
                      first: int | None = None) -> int:
    """Offer the candidates at positions ``order`` to ``best``, nearest
    lower bound first.

    ``lbs[i]`` is a lower bound on candidate ``i``'s distance, and
    ``lbs[order]`` ascends.  At most ``window`` candidates go through
    one kernel sweep; before each sweep the prefix is re-cut against
    the k-th best distance so far (and ``external``, a caller-known
    upper bound on it), so a candidate queued under an older, looser
    bound is dropped without paying the kernel.  The first one beyond
    the bound ends the scan — every later one is provably farther.
    ``series_at`` and ``record_at`` fetch a candidate's series and
    ``(og, clip_ref)`` only once it is evaluated.  Returns how many of
    ``order`` were evaluated.

    ``first`` seeds the bound: the first sweep takes only that many
    candidates when at least as many again are left of the window
    (otherwise the seed would leave a sliver sweep for nothing), and
    every later sweep ends on a multiple of ``window``.  Every cut of
    the unseeded schedule is kept and the k-th distance only falls as
    the evaluated prefix grows, so seeding never evaluates more, and
    the prune is the same bound test, so the hits do not move.
    """
    bounds = lbs[order].tolist()
    start = 0
    end = first if first is not None and 2 * first <= window else window
    while start < len(bounds):
        bound = min(best.bound, external)
        limit = bound + slack_at(bound)
        stop = start
        end = min(len(bounds), end)
        while stop < end and bounds[stop] <= limit:
            stop += 1
        if stop == start:
            break
        chunk = order[start:stop].tolist()
        dists = one_vs_many(distance, series, [series_at(at) for at in chunk])
        for at, d in zip(chunk, dists):
            best.offer(float(d), *record_at(at))
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
        # The one ranking sweep: each distinct reference set once, then
        # every centroid that is not a reference.
        sets, where = distinct_reference_sets(
            [table.pivots for table in self.tables])
        ends = np.cumsum([0, *(len(refs) for refs in sets)]).tolist()
        starts = [ends[w] for w in where]
        own = [i for i, view in enumerate(views) if view.reference is None]
        swept = one_vs_many(distance, series,
                            [*(ref for refs in sets for ref in refs),
                             *(views[i].centroid for i in own)])
        key_qs = np.empty(len(views))
        for start, at in zip(starts, picked.values()):
            for i in at:
                if views[i].reference is not None:
                    key_qs[i] = swept[start + views[i].reference]
        key_qs[own] = swept[ends[-1]:]
        parts = []
        for t, (table, at) in enumerate(zip(self.tables, picked.values())):
            q = swept[starts[t]:starts[t] + len(table.pivots)]
            key_q = key_qs[at]
            # Each row's position in ``at``; rows of clusters not scanned
            # read -1 (a placeholder), are bounded too and then dropped.
            of = np.full(len(table.by_record), -1)
            of[[views[i].cluster for i in at]] = np.arange(len(at))
            of = of[table.row_cluster]
            lb = np.abs(table.keys - key_q[of])
            np.maximum(lb, pivot_lower_bounds(q, table.refs), out=lb)
            rows = np.flatnonzero(of >= 0)
            parts.append((lb[rows], np.full(len(rows), t), rows,
                          np.asarray(at)[of[rows]]))
        self.lbs, self.tab, self.rows, self.view_of = (
            np.concatenate(column) for column in zip(*parts))

    def series_at(self, at: int) -> np.ndarray:
        return self.tables[self.tab[at]].row_series(self.rows[at])

    def record_at(self, at: int) -> tuple:
        return self.tables[self.tab[at]].row_record(self.rows[at])

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


def best_first(distance, series: np.ndarray, lbs: np.ndarray, k: int,
               series_at: Callable[[int], np.ndarray],
               record_at: Callable[[int], tuple], *,
               external: float = math.inf, window: int = WINDOW
               ) -> tuple[list[tuple], np.ndarray]:
    """The ``k`` nearest candidates, as sorted ``(distance, og,
    clip_ref)`` hits, and the positions evaluated.

    Candidate ``i`` has the lower bound ``lbs[i]``; ``series_at(i)`` and
    ``record_at(i)`` fetch it once it is evaluated, in ascending
    ``(bound, position)`` order by :func:`evaluate_windowed` with a
    first sweep of 2k.  Only the first ``window`` are sorted up front,
    the rest only if that window is used up and only those still under
    the k-th distance.  ``external``, a caller-known upper bound on the
    k-th distance, only ever prunes."""
    best = TopK(k)
    # Positions are ascending, so a stable sort orders by (bound, position).
    first = np.arange(len(lbs))
    if len(lbs) > window:
        first = first[lbs <= np.partition(lbs, window - 1)[window - 1]]
    first = first[np.argsort(lbs[first], kind="stable")][:window]
    done = evaluate_windowed(distance, series, first, lbs, best, window,
                             series_at, record_at, external, first=2 * k)
    evaluated = first[:done]
    if done == len(first) < len(lbs):
        bound = min(best.bound, external)
        under = lbs <= bound + slack_at(bound)
        under[first] = False
        rest = np.flatnonzero(under)
        rest = rest[np.argsort(lbs[rest], kind="stable")]
        done = evaluate_windowed(distance, series, rest, lbs, best, window,
                                 series_at, record_at, external)
        evaluated = np.concatenate([evaluated, rest[:done]])
    return best.hits, evaluated


def knn_scan(distance, series: np.ndarray, views: Sequence[ClusterView],
             k: int, *, prune_bound: float | None = None,
             window: int = WINDOW, layer: str = "index") -> list[tuple]:
    """The ``k`` nearest members of ``views`` to ``series``, as sorted
    ``(distance, og, clip_ref)`` hits.

    Members of every view, whatever index they belong to, are evaluated
    :func:`best_first` by their tightest lower bound.  ``prune_bound``
    only ever prunes, so any valid upper bound on the true k-th
    distance leaves the result exact.  Counters are reported under
    ``layer``."""
    if not views:
        return []
    cands = _Candidates(distance, series, views)
    hits, evaluated = best_first(
        distance, series, cands.lbs, k, cands.series_at, cands.record_at,
        external=math.inf if prune_bound is None else float(prune_bound),
        window=window)
    cands.count(layer, len(views), evaluated)
    return hits


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
        dists = one_vs_many(distance, series,
                            [cands.series_at(at) for at in under])
        hits = [(d, *cands.record_at(at))
                for at, d in zip(under, dists.tolist()) if d <= radius]
    return sorted(hits, key=hit_key)
