"""Per-OG reference columns and the budgeted k-NN search.

The exact search paths (``STRGIndex.knn``, the sharded scatter-gather)
pay at least one full EGED_M dynamic program per *surviving* candidate.
This module trades a bounded amount of recall for a hard cap on exact
distance evaluations, following the paper's own cost model (Section
6.3 charges queries per distance computation):

**Stage 1 — candidate generation.**  Every indexed OG carries its
metric distance to each series of one *reference set*, as a float32
row (:func:`reference_rows`).  The set is every leaf centroid of the
corpus (all shards), topped up to :data:`MIN_REFERENCES` by continuing
a farthest-point greedy from those centroids over a sample of the
corpus.  A first build of at least :data:`MIN_FIT_OGS` OGs fits it in
the sweep that computes the leaf keys; after a smaller one, the first
budgeted read (or ``sketch_tier()``) does.  Every shard holds the one set, and
a query sweeps each distinct set once.  Because EGED_M is a metric
(Theorem 2), ``|d(Q, R) - d(S, R)| <= d(Q, S)`` for every reference
``R``: one vectorized pass turns the query's distance to each
reference into a lower bound on every row, and each part's shortlist
is its rows with the smallest ``(bound, row id)``.

A part is a table of such rows.  An in-RAM index's is the row table
its exact scan reads (``repro.core.scan.ScanViews``, stacked from the
``refs`` row of every leaf record); a store read without the tree is a
:class:`SketchIndex` over the store's columns.

**Stage 2 — exact rerank.**  The shortlists go through the exact scan's
best-first loop (:func:`repro.core.scan.best_first`) under one k-th
best distance; a candidate whose bound exceeds it is pruned without
touching the kernel (the bound is exact, so pruning never costs recall —
only the shortlist cut can).

The *total* number of exact distance evaluations per query — one per
distinct reference plus the rerank — stays within ``search_budget``:
:func:`approx_knn` sweeps the references once and splits the rest of
the budget into per-part shares that bound each part's shortlist.

Storage
-------
A reference column holds ``float32(d)``, whose rounding
:func:`~repro.distance.bounds.pivot_lower_bounds` subtracts; the
in-memory rows are float32 too, so a live index and its reloaded store
bound — and answer — bit for bit alike.  A store's
:class:`SketchIndex` is opened in one pass and never written after:
its *base* rows are the base segment's reference column, often a
zero-copy view of the mmap'd column, under one fixed live mask; its
delta inserts still live are measured once, by one
:meth:`SketchIndex.add`, into an owned *tail*.  The store's segment
merge reclaims dead rows.  One row provider, :class:`SketchRows`,
returns each row's ``(og, clip_ref)`` record: a store's stream lazily
from its row-addressed read path (see ``ColumnarStore.load_sketch``),
a built table's are held in memory.

Both kinds of table — ``ScanViews`` and :class:`SketchIndex` — give
:func:`approx_knn` the same parts: ``pivots``, ``len``,
``candidates`` (:func:`shortlist`), ``row_series`` and
``row_record``.

Tables hold no reference to a distance object: the caller passes its
metric into every call, so counting wrappers count every evaluation in
one place.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Sequence

import numpy as np

from repro.distance.base import series_key
from repro.distance.batch import PaddedBatch, one_vs_many, pairwise_matrix
from repro.distance.bounds import distinct_reference_sets, pivot_lower_bounds
from repro.errors import InvalidParameterError
from repro.graph.object_graph import ObjectGraph
from repro.observability import OBS
from repro.search.request import SearchRequest, split_budget

#: Store-read rows a sketch keeps materialized (LRU).
ROW_CACHE_SIZE = 512


#: Fewest reference series a fitted set holds: the corpus's centroids,
#: topped up by the farthest-point greedy when they are fewer.  Each
#: costs one exact distance per query, paid out of the budget (§6.3).
MIN_REFERENCES = 16
#: Fewest OGs a first build files for it to fit the reference set: fitted
#: on 20 OGs, the set matched one fitted on 2 000; a smaller first build
#: leaves the fit to the first budgeted read (``sketch_tier()``).
MIN_FIT_OGS = 20
#: Cap on the greedy top-up's sample, and its seed.
PIVOT_SAMPLE_SIZE = 256
PIVOT_SEED = 0


# -- row provider -----------------------------------------------------------


class SketchRows:
    """The ``(og, clip_ref)`` record of each row of a table, by index row.

    A store's table reads every record, base and delta rows alike, on
    demand from the store's ``reader`` — ``record(row) -> (og,
    clip_ref)`` backed by offsets-table slicing, see
    ``ColumnarStore.row_reader`` — through an LRU of
    :data:`ROW_CACHE_SIZE` rows that keeps hot shortlist rows warm
    across queries.  A built table (no ``reader``) holds every record
    it was given.
    """

    def __init__(self, reader: Any = None):
        self.reader = reader
        self._records: OrderedDict[int, tuple[ObjectGraph, Any]] = \
            OrderedDict()

    def add(self, rows: np.ndarray,
            pairs: Sequence[tuple[ObjectGraph, Any]]) -> None:
        """Hold the records of ``rows`` — a built table's only: a
        store's reader reads its own."""
        if self.reader is None:
            self._records.update(zip(rows.tolist(), pairs))

    def record(self, row: int) -> tuple[ObjectGraph, Any]:
        if self.reader is None:
            return self._records[row]
        pair = self._records.get(row)
        if pair is not None:
            self._records.move_to_end(row)
            return pair
        pair = self._records[row] = self.reader.record(row)
        if len(self._records) > ROW_CACHE_SIZE:
            self._records.popitem(last=False)
        return pair


# -- reference sets ---------------------------------------------------------


def fit_references(distance, centroids: Sequence[np.ndarray],
                   corpus: Sequence[Any]) -> list[np.ndarray]:
    """The reference set of a corpus: its distinct ``centroids``, then —
    while fewer than :data:`MIN_REFERENCES` — the farthest-point greedy
    continued from them over a seeded sample of at most
    :data:`PIVOT_SAMPLE_SIZE` members of ``corpus`` (OGs or series).
    With no centroid the greedy starts at the sample's first member.
    It stops early once every sampled member coincides with a
    reference."""
    refs: list[np.ndarray] = []
    seen: set[tuple] = set()
    for centroid in centroids:
        key = series_key(centroid)
        if key not in seen:
            seen.add(key)
            refs.append(np.asarray(centroid, dtype=np.float64))
    if len(refs) >= MIN_REFERENCES or not len(corpus):
        return refs
    if len(corpus) > PIVOT_SAMPLE_SIZE:
        pick = np.random.default_rng(PIVOT_SEED).choice(
            len(corpus), size=PIVOT_SAMPLE_SIZE, replace=False)
        corpus = [corpus[int(i)] for i in sorted(pick)]
    sample = PaddedBatch(corpus)
    closest = (pairwise_matrix(distance, refs, sample).min(axis=0) if refs
               else np.full(len(sample), np.inf))
    while len(refs) < MIN_REFERENCES:
        nxt = int(np.argmax(closest))
        if closest[nxt] <= 0.0:
            break  # every sampled member coincides with a reference
        refs.append(np.array(sample[nxt], dtype=np.float64, copy=True))
        np.minimum(closest, one_vs_many(distance, refs[-1], sample),
                   out=closest)
    return refs


def reference_rows(distance, references: list[np.ndarray],
                   ogs: Sequence[Any]) -> tuple[list[np.ndarray], np.ndarray]:
    """``(references, rows)``: row ``i`` holds ``float32`` of the
    distance of ``ogs[i]`` to each reference, from one
    :func:`~repro.distance.batch.pairwise_matrix` sweep.  An empty
    ``references`` is first fitted on ``ogs`` alone
    (:func:`fit_references`)."""
    if not len(ogs):
        return references, np.empty((0, len(references)), dtype=np.float32)
    # Prepared once for the fit and the reference sweep.
    series = PaddedBatch(ogs)
    if not references:
        references = fit_references(distance, (), series)
    return references, np.ascontiguousarray(
        pairwise_matrix(distance, references, series).T, dtype=np.float32)


# -- top-m selection --------------------------------------------------------


def _exact_top(m: int, keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """Indices of the exact top-``m`` rows under lexicographic ``keys``.

    ``keys`` are aligned 1-D arrays, most-significant first.  An
    ``argpartition`` on the primary key prunes to at most ``m`` rows
    plus the primary-key ties at the boundary; the full compound sort
    then runs only on that superset.  Every caller ends its key tuple
    with the row id, unique among a table's live rows (an index never
    reuses a row), so the compound order is total — the selected set
    (and its order) is exactly the first ``m`` entries of a global
    lexsort.
    """
    if m <= 0:
        return np.empty(0, dtype=np.intp)
    lex = tuple(reversed(keys))
    n = len(keys[0])
    if n <= m:
        return np.lexsort(lex)
    primary = keys[0]
    part = np.argpartition(primary, m - 1)[:m]
    boundary = primary[part].max()
    cand = np.flatnonzero(primary <= boundary)
    order = np.lexsort(tuple(key[cand] for key in lex))
    return cand[order[:m]]


def shortlist(qd: np.ndarray,
              blocks: Sequence[tuple[np.ndarray, np.ndarray | None]],
              row_ids: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``m`` rows of a table with the smallest ``(reference bound,
    row id)``, as ``(positions, bounds)`` in that order — the one
    selection of every budgeted read.

    ``qd`` is the query's distance to each reference.  The table's
    float32 reference rows come in ``blocks`` of ``(rows, live)``:
    ``live`` masks the rows of a block that the table holds (``None``:
    all of them).  ``row_ids`` are the index rows of the held rows, in
    block order; a position counts held rows only."""
    bounds = [pivot_lower_bounds(qd, refs) if live is None
              else pivot_lower_bounds(qd, refs)[live]
              for refs, live in blocks]
    lbs = bounds[0] if len(bounds) == 1 else np.concatenate(bounds)
    top = _exact_top(m, (lbs, row_ids))
    return top, lbs[top]


class SketchIndex:
    """Flat-array reference columns over a corpus of Object Graphs: the
    table of a store read without the tree (``ColumnarStore.load_sketch``)
    or of a bare list (:meth:`build`).

    Position ``i`` is the ``i``-th row the table holds: ``row_ids[i]``
    (its row in the owning index or store) and ``pivot_dists[i]`` (its
    float32 distance to each reference series of :attr:`pivots`);
    :meth:`row_record` and :meth:`row_series` take positions, as
    ``ScanViews``' do.  The reference rows are two blocks: a *base*
    that is never written — a store's base segment column, often a
    zero-copy mmap view of it, under one fixed live mask — then the
    rows :meth:`add` appends.  A store's table is opened in one pass
    (its live delta inserts are its one :meth:`add`) and never changes
    after.  ``(og, clip_ref)`` records come from a :class:`SketchRows`
    provider.
    """

    def __init__(self, pivots: list[np.ndarray] | None = None,
                 base: np.ndarray | None = None,
                 live: np.ndarray | None = None,
                 rows: SketchRows | None = None):
        """A table over ``base``, the ``(n, len(pivots))`` float32
        reference rows of index rows ``0 .. n - 1`` (what
        ``repro.storage.serialize.read_references`` checks and returns),
        of which ``live`` masks the rows held (``None``: all of them);
        ``rows`` gives their records."""
        #: The reference series, fixed when the tier is built and equal
        #: across every shard of a corpus.
        self.pivots: list[np.ndarray] = [] if pivots is None else pivots
        empty = np.empty((0, len(self.pivots)), dtype=np.float32)
        self._base = empty if base is None else base
        self._live = live
        self._tail = empty
        held = np.arange(len(self._base), dtype=np.int64)
        self.row_ids: np.ndarray = held if live is None else held[live]
        self._rows = SketchRows() if rows is None else rows
        #: Set by ``ColumnarStore.load_sketch`` to the metric it measured
        #: the delta inserts with — a convenience for callers running
        #: the sketch-only query path without a materialized index.
        #: The sketch itself never calls it (see the module docstring).
        self.replay_distance: Any = None

    @property
    def pivot_dists(self) -> np.ndarray:
        """The held rows' float32 reference columns, by position."""
        base = self._base if self._live is None else self._base[self._live]
        return np.concatenate([base, self._tail]) if len(base) \
            else self._tail

    def __len__(self) -> int:
        return len(self.row_ids)

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, distance, ogs: Sequence[ObjectGraph],
              clip_refs: Sequence[Any] | None = None,
              rows: Sequence[int] | None = None,
              references: list[np.ndarray] | None = None) -> "SketchIndex":
        """Sketch every one of ``ogs`` against ``references`` (``None``:
        :func:`fit_references` over ``ogs`` alone)."""
        sketch = cls(references or None)
        sketch.add(distance, ogs, clip_refs, rows)  # an unfitted add fits
        return sketch

    def add(self, distance, ogs: Sequence[ObjectGraph],
            clip_refs: Sequence[Any] | None = None,
            rows: Sequence[int] | None = None) -> None:
        """Append rows for ``ogs`` under their index ``rows`` (``None``:
        the rows after the largest; references stay fixed)."""
        ogs = list(ogs)
        if not ogs:
            return
        refs = list(clip_refs) if clip_refs is not None else [None] * len(ogs)
        if rows is None:
            first = 1 + int(self.row_ids.max(initial=len(self._base) - 1))
            rows = range(first, first + len(ogs))
        if not len(refs) == len(rows) == len(ogs):
            raise InvalidParameterError(
                f"{len(ogs)} OGs, {len(refs)} clip refs, {len(rows)} rows"
            )
        # The first rows of an unfitted sketch fit its references.
        self.pivots, new = reference_rows(distance, self.pivots, ogs)
        # The base is never written (often mmap views): growth goes to
        # the owned tail.
        self._tail = np.concatenate([self._tail, new]) if len(self._tail) \
            else new
        rows = np.asarray(rows, dtype=np.int64)
        self.row_ids = np.concatenate([self.row_ids, rows])
        self._rows.add(rows, list(zip(ogs, refs)))
        OBS.count("search.sketch_rows_added", len(ogs))

    # -- position-addressed record access ----------------------------------

    def row_record(self, at: int) -> tuple[ObjectGraph, Any]:
        """``(og, clip_ref)`` of position ``at`` (lazily materialized)."""
        return self._rows.record(int(self.row_ids[at]))

    def row_series(self, at: int) -> np.ndarray:
        """Normalized series of position ``at`` for the rerank kernel:
        an OG's values are already its ``(n, d)`` float64 series (a
        store-read OG's the zero-copy slice of the ``og_values``
        column)."""
        return self.row_record(at)[0].values

    # -- stage 1: candidate generation -------------------------------------

    def candidates(self, distance, series: np.ndarray, budget: int, k: int,
                   qd: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The ``max(k, budget)`` rows with the smallest ``(lower bound,
        row id)``, as ``(positions, bounds)`` in that order
        (:func:`shortlist`).  ``qd`` is the query's distance to each
        reference when the caller already swept them (:func:`approx_knn`
        sweeps each distinct set once); otherwise they are swept here."""
        if qd is None:
            qd = one_vs_many(distance, series, self.pivots)
        return shortlist(qd, ((self._base, self._live), (self._tail, None)),
                         self.row_ids, max(k, budget))


def approx_knn(parts: Sequence[Any], distance,
               request: SearchRequest, total: int | None = None
               ) -> list[tuple[float, ObjectGraph, Any]]:
    """Two-stage approximate k-NN over the row tables of a corpus.

    ``parts`` are the tables of a partitioned corpus — one per shard; a
    monolithic index is the one-part case — each an in-RAM index's
    ``ScanViews`` or a store-attached :class:`SketchIndex`; ``total`` is
    the corpus size
    (``None``: the parts' sizes summed; a caller holding some of the
    parts passes the whole corpus's).  The query is measured once
    against each distinct reference set of the parts (R evaluations),
    :func:`~repro.search.request.split_budget` splits what is left of
    ``request.search_budget`` over the corpus, each part shortlists its
    share (its ``candidates``), and the shortlists go
    through the exact scan's :func:`~repro.core.scan.best_first` under
    one k-th best distance.

    A query spends at most its budget (each share floored at ``k`` and
    rounded up), and a budget of at least the corpus size plus R is an
    exact full scan.  Hits are ``(distance, og, clip_ref)`` sorted by
    ``(distance, og_id)`` — the exact top-k of the union of the
    shortlists, the same contract as the exact paths, and bit-identical
    whether the rows live in RAM or stream from the store's mmap
    columns.
    """
    # Imported here: importing ``repro.core`` imports the index, which
    # imports this module.
    from repro.core.scan import best_first

    k, search_budget = request.k, request.search_budget
    if k == 0:
        return []
    live = [part for part in parts if len(part)]
    if not live:
        return []
    series = request.series
    with OBS.span("search.approx_knn", k=k, budget=search_budget,
                  parts=len(live)) as sp:
        OBS.count("search.knn_queries")
        sets, where = distinct_reference_sets(
            [part.pivots for part in live])
        swept = one_vs_many(distance, series,
                            [ref for refs in sets for ref in refs])
        ends = np.cumsum([0] + [len(refs) for refs in sets])
        shares = split_budget(max(0, search_budget - len(swept)),
                              [len(part) for part in live], k, total)
        idx, lbs = zip(*(
            part.candidates(distance, series, share, k,
                            qd=swept[ends[at]:ends[at + 1]])
            for part, share, at in zip(live, shares, where)))
        part_of = np.repeat(np.arange(len(live)), [len(i) for i in idx])
        pos, lbs = np.concatenate(idx), np.concatenate(lbs)
        OBS.count("search.candidates_generated", len(lbs))
        # Each shortlist is in (bound, row id) order, so the loop's
        # (bound, position) order is (bound, part, row id).
        hits, evaluated = best_first(
            distance, series, lbs, k,
            lambda at: live[part_of[at]].row_series(pos[at]),
            lambda at: live[part_of[at]].row_record(pos[at]))
        pruned = len(lbs) - len(evaluated)
        OBS.count("search.distances_computed", len(evaluated) + len(swept))
        OBS.count("search.candidates_pruned", pruned)
        OBS.count("search.distances_saved",
                  max(0, sum(len(part) for part in live)
                      - len(evaluated) - len(swept)))
        sp.set(hits=len(hits), evaluated=len(evaluated), pruned=pruned)
        return hits
