"""Compact per-OG sketches and the two-stage approximate k-NN search.

The exact search paths (``STRGIndex.knn``, the sharded scatter-gather)
pay at least one full EGED_M dynamic program per *surviving* candidate —
fine at thousands of OGs, hopeless at the hundreds of thousands the
ROADMAP north-star demands.  This module trades a bounded amount of
recall for a hard cap on exact distance evaluations, following the
paper's own cost model (Section 6.3 charges queries per distance
computation):

**Stage 1 — candidate generation.**  Every indexed OG carries a
*sketch*: its metric distance to a small set of pivot series (chosen by
greedy farthest-point, the same k-center heuristic the M-tree bulk
loader uses) plus a fixed-length quantized trajectory *signature*
(spatial grid cell x heading sector per resampled node).  Both live in
flat numpy arrays, so one vectorized pass scores the whole corpus:
triangle lower bounds ``max_p |d(Q,P_p) - d(S,P_p)|`` rank candidates by
how close they *can* be, and a temporal-voting channel (count of
matching signature codes, in the spirit of the temporal-voting video
search of PAPERS.md) rescues near-misses whose pivot geometry is
uninformative.  The top-C union of both channels becomes the shortlist.

**Stage 2 — exact rerank.**  Shortlisted candidates are evaluated with
the batched EGED_M kernel in ascending lower-bound order; a candidate
whose stored bound exceeds the current k-th best distance is pruned
without touching the kernel (the bound is exact, so pruning never costs
recall — only the shortlist cut can).

The *total* number of exact distance evaluations per query — the pivot
distances plus the rerank — never exceeds ``search_budget``.  A
partitioned corpus (one sketch per shard) splits the budget into
per-part shares that bound each part's shortlist; the merged shortlists
are reranked once, under one k-th best distance.

Out-of-core operation
---------------------
Every sketch has one layout: *base* arrays (``row_ids``,
``pivot_dists``, ``sig``) that are never written in place — bound by
:meth:`SketchIndex.attach_rows`, often as zero-copy views of a columnar
store's mmap'd sketch columns — an owned *tail* every :meth:`add`
appends to, and a tombstone mask.  One row provider,
:class:`SketchRows`, returns each row's ``(og, clip_ref)`` record: the
first rows may stream lazily from the store's row-addressed read path
(see ``ColumnarStore.load_sketch``), the rest are held in memory.
Candidate generation runs as a blocked scan
over fixed-size row blocks (exact per-block ``argpartition`` top-m per
channel, streamed merge — bit-identical to one global lexsort at any
block size), so query-time resident memory scales with the shortlist,
not the corpus.  The scan is one serial loop in the calling thread
(docs/PERFORMANCE.md, *Sketch scan*, has the measurement against a
per-query process fan-out).

Deletions tombstone rows instead of rewriting the arrays.  A sketch
none of whose rows comes from a store reader compacts physically past
a threshold (the surviving rows become its tail); a store-attached
sketch keeps the mask and leaves compaction to the store's segment
merge.

Sketches hold no reference to a distance object: the owning index
passes its metric into every call, so cloned indexes (serving
snapshots) keep sharing one distance instance and counting wrappers
count every evaluation in one place.
"""

from __future__ import annotations

import copy
import json
import math
from collections import OrderedDict
from typing import Any, Sequence

import numpy as np

from repro.distance.base import resample_stack
from repro.distance.batch import PaddedBatch, one_vs_many, pairwise_matrix
from repro.distance.bounds import gap_mass, pivot_lower_bounds
from repro.errors import InvalidParameterError
from repro.graph.object_graph import ObjectGraph
from repro.observability import OBS
from repro.search.request import SearchRequest, TopK, split_budget

#: Tombstones before a sketch with no store-read rows is worth
#: compacting (and the dead fraction that triggers it — mirrors the
#: columnar merge policy).
TOMBSTONE_COMPACT_MIN = 64
TOMBSTONE_COMPACT_FRACTION = 0.25

#: Store-read rows a sketch keeps materialized (LRU).
ROW_CACHE_SIZE = 512


#: Reference series per sketch for the triangle bounds; each costs one
#: exact distance per query, paid out of the budget (Section 6.3).
NUM_PIVOTS = 8
#: Nodes per resampled signature.
SIG_LENGTH = 16
#: Spatial grid cells per axis and heading sectors: the vote channel's
#: code alphabet is ``GRID**2 * HEADING_SECTORS`` symbols.
GRID = 4
HEADING_SECTORS = 8
#: Fraction of the candidate shortlist filled from the voting channel
#: (the rest comes from the pivot-bound channel).
VOTE_SHARE = 0.25
#: Cap on the farthest-point pivot sweep's sample, and its seed.
PIVOT_SAMPLE_SIZE = 256
PIVOT_SEED = 0
#: Row-block size of the candidate scan: it bounds stage 1's working
#: set when the arrays are mmap views and has no effect on results (the
#: blocked scan is bit-identical to a global sort at any block size).
BLOCK_ROWS = 4096


# -- row provider -----------------------------------------------------------


class SketchRows:
    """The ``(og, clip_ref)`` record of every raw sketch row.

    Rows ``[0, n_attached)`` are read on demand from an optional store
    ``reader`` — ``record(row) -> (og, clip_ref)`` backed by
    offsets-table slicing, see ``ColumnarStore.row_reader`` — through an
    LRU of :data:`ROW_CACHE_SIZE` rows that keeps hot shortlist rows
    warm across queries.  Every later row (all of them when there is no
    reader: a built or tree-loaded sketch) sits in an in-memory list,
    so those paths never touch the LRU.
    """

    def __init__(self, records: Sequence[tuple[ObjectGraph, Any]] = (),
                 reader: Any = None, n_attached: int = 0):
        self.reader = reader
        self._attached = int(n_attached)
        self._cache: OrderedDict[int, tuple[ObjectGraph, Any]] = OrderedDict()
        self._records: list[tuple[ObjectGraph, Any]] = list(records)

    def __len__(self) -> int:
        return self._attached + len(self._records)

    def append(self, pairs: list[tuple[ObjectGraph, Any]]) -> None:
        self._records.extend(pairs)

    def record(self, row: int) -> tuple[ObjectGraph, Any]:
        if row >= self._attached:
            return self._records[row - self._attached]
        pair = self._cache.get(row)
        if pair is not None:
            self._cache.move_to_end(row)
            return pair
        pair = self.reader.record(row)
        self._cache[row] = pair
        if len(self._cache) > ROW_CACHE_SIZE:
            self._cache.popitem(last=False)
        return pair

    def series_at(self, row: int) -> np.ndarray:
        # An OG's values are already its (n, d) float64 series; a
        # store-read OG's are the zero-copy slice the reader cut out of
        # the mmap'd og_values column.
        return self.record(row)[0].values

    def compact(self, keep: np.ndarray) -> None:
        if self.reader is not None:
            raise InvalidParameterError(
                "store-attached sketch rows cannot be compacted in place; "
                "the owning store's segment merge reclaims tombstones"
            )
        self._records = [self._records[int(i)] for i in keep]

    def clone(self) -> "SketchRows":
        """Own record list; the reader and its row cache (a memo of
        immutable store rows) stay shared."""
        dup = copy.copy(self)
        dup._records = list(self._records)
        return dup


# -- blocked-scan primitives ------------------------------------------------


def _exact_top(m: int, keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """Indices of the exact top-``m`` rows under lexicographic ``keys``.

    ``keys`` are aligned 1-D arrays, most-significant first.  An
    ``argpartition`` on the primary key prunes to at most ``m`` rows
    plus the primary-key ties at the boundary; the full compound sort
    then runs only on that superset.  Every caller ends its key tuple
    with the row id, unique among a sketch's live rows (an index never
    reuses a row), so the compound order is total — the selected set
    (and its order) is exactly the first ``m`` entries of a global
    lexsort, which is what makes the blocked scan bit-identical to the
    monolithic path.
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


def _merge_top(m: int, acc: tuple[np.ndarray, ...] | None,
               new: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Streamed merge of winner tuples ``(key..., rows)`` keeping top-m.

    Both inputs are already individually top-m (≤ m rows each), so the
    merge sorts at most ``2m`` rows regardless of corpus size.
    """
    if acc is None:
        return new
    cat = tuple(np.concatenate([a, b]) for a, b in zip(acc, new))
    sel = _exact_top(m, cat[:-1])
    return tuple(a[sel] for a in cat)


def _block_winners(rows: np.ndarray, ids: np.ndarray, pd: np.ndarray,
                   sig: np.ndarray | None, qd: np.ndarray | None,
                   qsig: np.ndarray | None, m_bound: int, m_vote: int
                   ) -> tuple[tuple | None, tuple | None]:
    """Score one row block and cut its exact per-channel winners.

    Returns ``(bound, vote)`` where ``bound`` is ``(lbs, ids,
    rows)`` under key ``(lb, row id)`` and ``vote`` is ``(neg_votes,
    lbs, ids, rows)`` under key ``(-votes, lb, row id)`` — the same
    compound orders the monolithic lexsorts used.
    """
    if qd is not None and pd.shape[1]:
        lbs = pivot_lower_bounds(qd, pd)
    else:
        lbs = np.zeros(len(rows), dtype=np.float64)
    bound = vote = None
    if m_bound:
        sel = _exact_top(m_bound, (lbs, ids))
        bound = (lbs[sel], ids[sel], rows[sel])
    if m_vote:
        neg_votes = -((sig == qsig).sum(axis=1).astype(np.int64))
        sel = _exact_top(m_vote, (neg_votes, lbs, ids))
        vote = (neg_votes[sel], lbs[sel], ids[sel], rows[sel])
    return bound, vote


class SketchIndex:
    """Flat-array sketches over a corpus of Object Graphs.

    Row ``i`` of every array describes the same OG: ``row_ids[i]`` (its
    row in the owning index), ``pivot_dists[i]`` (distance to each
    pivot), ``sig[i]`` (quantized signature codes).  The public arrays
    are live views: tombstoned rows are already filtered out.  Internally rows live in a *base*
    part that is never written in place — RAM arrays or zero-copy mmap
    views bound by :meth:`attach_rows` — then an owned *tail* every
    :meth:`add` appends to, so incremental adds never force an mmap
    base into RAM.  Raw rows are numbered base then tail.
    ``(og, clip_ref)`` records come from a :class:`SketchRows` provider
    and may be materialized lazily from the store's row-addressed read
    path.
    """

    def __init__(self):
        #: Fixed reference series chosen at fit time.  Immutable after
        #: fitting: incremental adds reuse them, which is what makes a
        #: maintained sketch bit-identical to one rebuilt with the same
        #: pivots.
        self.pivots: list[np.ndarray] = []
        #: Spatial bounding box (lo, hi) over the first two value dims,
        #: frozen at fit time; later values are clipped into it.
        self.bbox: tuple[np.ndarray, np.ndarray] | None = None
        self._ids, self._pd, self._sig = self._empty_part(0)
        self._tail_ids, self._tail_pd, self._tail_sig = self._empty_part(0)
        self._rows = SketchRows()
        self._dead: np.ndarray | None = None
        self._n_dead = 0
        #: Set by ``ColumnarStore.load_sketch`` to the metric it bound
        #: for delta replay — a convenience for callers running the
        #: sketch-only query path without a materialized index.  The
        #: sketch itself never calls it (see the module docstring).
        self.replay_distance: Any = None

    # -- public array views ------------------------------------------------

    @property
    def row_ids(self) -> np.ndarray:
        """Live index row per raw row (tombstoned rows filtered out)."""
        return self._live(self._cat(self._ids, self._tail_ids))

    @property
    def pivot_dists(self) -> np.ndarray:
        """Live pivot-distance matrix, one column per pivot."""
        return self._live(self._cat(self._pd, self._tail_pd))

    @property
    def sig(self) -> np.ndarray:
        """Live signature codes, shape ``(len(self), SIG_LENGTH)`` int16."""
        return self._live(self._cat(self._sig, self._tail_sig))

    @property
    def dead_rows(self) -> int:
        """Tombstoned rows awaiting compaction (0 on the clean path)."""
        return self._n_dead

    def _empty_part(self, num_pivots: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(row_ids, pivot_dists, sig)`` arrays of zero rows."""
        return (np.empty(0, dtype=np.int64),
                np.empty((0, num_pivots), dtype=np.float64),
                np.empty((0, SIG_LENGTH), dtype=np.int16))

    @staticmethod
    def _cat(base: np.ndarray, tail: np.ndarray) -> np.ndarray:
        if len(tail) == 0:
            return base
        if len(base) == 0:
            return tail
        return np.concatenate([base, tail])

    def _live(self, arr: np.ndarray) -> np.ndarray:
        if self._n_dead == 0:
            return arr
        return arr[~self._dead]

    def _num_raw(self) -> int:
        return len(self._ids) + len(self._tail_ids)

    def __len__(self) -> int:
        return self._num_raw() - self._n_dead

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, distance, ogs: Sequence[ObjectGraph],
              clip_refs: Sequence[Any] | None = None,
              rows: Sequence[int] | None = None) -> "SketchIndex":
        """Fit pivots + bbox on ``ogs`` and sketch every one of them."""
        sketch = cls()
        sketch.add(distance, ogs, clip_refs, rows)    # the first add fits
        return sketch

    def _fit(self, distance, series: Sequence[np.ndarray]) -> None:
        """Choose pivots (greedy farthest-point) and the signature bbox."""
        planar = [self._planar(s) for s in series]
        stacked = np.concatenate(planar, axis=0)
        lo = stacked.min(axis=0)
        hi = stacked.max(axis=0)
        span = hi - lo
        hi = np.where(span <= 0, lo + 1.0, hi)
        self.bbox = (lo.astype(np.float64), hi.astype(np.float64))

        rng = np.random.default_rng(PIVOT_SEED)
        if len(series) > PIVOT_SAMPLE_SIZE:
            pick = rng.choice(len(series), size=PIVOT_SAMPLE_SIZE,
                              replace=False)
            sample = PaddedBatch([series[int(i)] for i in sorted(pick)])
        else:
            sample = series
        # Deterministic seed: the series farthest from the empty
        # sequence (largest gap mass) — an extreme point, which is what
        # the k-center greedy wants to start from anyway.
        masses = [gap_mass(s) for s in sample]
        first = int(np.argmax(masses))
        pivots = [np.array(sample[first], dtype=np.float64, copy=True)]
        closest = np.asarray(
            one_vs_many(distance, pivots[0], sample), dtype=np.float64
        )
        while len(pivots) < min(NUM_PIVOTS, len(sample)):
            nxt = int(np.argmax(closest))
            if closest[nxt] <= 0.0:
                break  # every remaining sample coincides with a pivot
            pivots.append(np.array(sample[nxt], dtype=np.float64, copy=True))
            closest = np.minimum(
                closest,
                np.asarray(one_vs_many(distance, pivots[-1], sample),
                           dtype=np.float64),
            )
        self.pivots = pivots

    def attach_rows(self, row_ids: np.ndarray, pivot_dists: np.ndarray,
                    sig: np.ndarray, rows: SketchRows) -> None:
        """Bind base arrays (possibly zero-copy mmap views) + records.

        ``rows`` is the :class:`SketchRows` provider aligned with the
        arrays.  The base is never written: later adds go to the tail,
        and compaction (only without a store reader) rebinds it.
        """
        row_ids = np.asarray(row_ids, dtype=np.int64)
        pivot_dists = np.asarray(pivot_dists, dtype=np.float64)
        sig_arr = np.asarray(sig, dtype=np.int16)
        n = len(row_ids)
        if pivot_dists.shape != (n, len(self.pivots)):
            raise InvalidParameterError(
                f"pivot_dists shape {pivot_dists.shape} does not match "
                f"{n} rows x {len(self.pivots)} pivots"
            )
        if sig_arr.shape != (n, SIG_LENGTH):
            raise InvalidParameterError(
                f"sig shape {sig_arr.shape} does not match "
                f"{n} rows x sig_length {SIG_LENGTH}"
            )
        if len(rows) != n:
            raise InvalidParameterError(
                f"row provider has {len(rows)} rows, arrays have {n}"
            )
        self._ids, self._pd, self._sig = row_ids, pivot_dists, sig_arr
        self._tail_ids, self._tail_pd, self._tail_sig = self._empty_part(
            pivot_dists.shape[1])
        self._rows = rows
        self._dead = None
        self._n_dead = 0

    # -- maintenance -------------------------------------------------------

    def clone(self) -> "SketchIndex":
        """A sketch that grows and tombstones independently.

        Row arrays, pivots and bbox are shared — :meth:`add` and
        :meth:`compact_tombstones` rebind them, never write in place;
        only the mask :meth:`remove` writes and the row list are copied.
        """
        dup = copy.copy(self)
        dup._rows = self._rows.clone()
        if self._dead is not None:
            dup._dead = self._dead.copy()
        return dup

    def add(self, distance, ogs: Sequence[ObjectGraph],
            clip_refs: Sequence[Any] | None = None,
            rows: Sequence[int] | None = None) -> None:
        """Append sketch rows for ``ogs`` under their index ``rows``
        (``None``: the rows after the largest; pivots stay fixed)."""
        ogs = list(ogs)
        if not ogs:
            return
        refs = list(clip_refs) if clip_refs is not None else [None] * len(ogs)
        if rows is None:
            first = 1 + int(self._cat(self._ids, self._tail_ids).max(
                initial=-1))
            rows = range(first, first + len(ogs))
        if not len(refs) == len(rows) == len(ogs):
            raise InvalidParameterError(
                f"{len(ogs)} OGs, {len(refs)} clip refs, {len(rows)} rows"
            )
        # Prepared once for the fit, every pivot sweep and the signatures.
        series = PaddedBatch(ogs)
        if not self.pivots:
            # First rows of an initially-empty sketch: fit on them.
            self._fit(distance, series)
        new_pd = np.ascontiguousarray(
            pairwise_matrix(distance, self.pivots, series).T)
        new_sig = self._signatures(series)
        new_ids = np.asarray(rows, dtype=np.int64)
        # The base is never written (often mmap views): growth goes to
        # the owned tail, rebound rather than written in place.
        self._tail_ids = self._cat(self._tail_ids, new_ids)
        self._tail_pd = self._cat(self._tail_pd, new_pd)
        self._tail_sig = self._cat(self._tail_sig, new_sig)
        if self._dead is not None:
            self._dead = np.concatenate(
                [self._dead, np.zeros(len(ogs), dtype=bool)]
            )
        self._rows.append(list(zip(ogs, refs)))
        OBS.count("search.sketch_rows_added", len(ogs))

    def remove(self, row: int) -> bool:
        """Tombstone the sketch row of index row ``row``; True when it
        was live.  O(n) to locate the raw row but O(1) to drop it.  Past
        the tombstone threshold :meth:`compact_tombstones` runs, which a
        store-attached sketch declines (the store's segment merge
        reclaims its rows).
        """
        hits = np.flatnonzero(self._cat(self._ids, self._tail_ids) == row)
        if self._n_dead:
            hits = hits[~self._dead[hits]]
        if not hits.size:
            return False
        raw = int(hits[0])
        if self._dead is None:
            self._dead = np.zeros(self._num_raw(), dtype=bool)
        self._dead[raw] = True
        self._n_dead += 1
        if (self._n_dead >= TOMBSTONE_COMPACT_MIN
                and self._n_dead >= TOMBSTONE_COMPACT_FRACTION
                * self._num_raw()):
            self.compact_tombstones()
        return True

    def rows_of(self, rows: Sequence[int]
                ) -> tuple[np.ndarray, np.ndarray] | None:
        """Stored ``(pivot_dists, sig)`` of these index rows, in order,
        or ``None`` when one of them has no live sketch row."""
        live = (np.flatnonzero(~self._dead) if self._n_dead
                else np.arange(self._num_raw()))
        ids = self._cat(self._ids, self._tail_ids)[live]
        order = np.argsort(ids, kind="stable")
        rows = np.asarray(rows, dtype=np.int64)
        at = np.searchsorted(ids[order], rows)
        if (at >= len(ids)).any() or (ids[order[at]] != rows).any():
            return None
        raw = live[order[at]]
        return (self._cat(self._pd, self._tail_pd)[raw],
                self._cat(self._sig, self._tail_sig)[raw])

    def compact_tombstones(self) -> bool:
        """Physically drop tombstoned rows into a fresh tail — only
        when no row comes from a store reader."""
        if self._n_dead == 0 or self._rows.reader is not None:
            return False
        keep = np.flatnonzero(~self._dead)
        self._tail_ids = self._cat(self._ids, self._tail_ids)[keep]
        self._tail_pd = self._cat(self._pd, self._tail_pd)[keep]
        self._tail_sig = self._cat(self._sig, self._tail_sig)[keep]
        self._ids, self._pd, self._sig = self._empty_part(
            self._tail_pd.shape[1])
        self._rows.compact(keep)
        self._dead = None
        self._n_dead = 0
        return True

    # -- row-addressed record access ---------------------------------------

    def row_ids_at(self, rows: np.ndarray) -> np.ndarray:
        """Index rows of raw rows (candidate ``idx`` values)."""
        rows = np.asarray(rows, dtype=np.int64)
        n0 = len(self._ids)
        if n0 == 0 or len(self._tail_ids) == 0:
            return np.asarray(self._cat(self._ids, self._tail_ids)[rows],
                              dtype=np.int64)
        out = np.empty(len(rows), dtype=np.int64)
        in_base = rows < n0
        out[in_base] = self._ids[rows[in_base]]
        out[~in_base] = self._tail_ids[rows[~in_base] - n0]
        return out

    def row_record(self, row: int) -> tuple[ObjectGraph, Any]:
        """``(og, clip_ref)`` of a raw row (lazily materialized)."""
        return self._rows.record(int(row))

    def row_series(self, row: int) -> np.ndarray:
        """Normalized series of a raw row for the rerank kernel."""
        return self._rows.series_at(int(row))

    # -- signatures --------------------------------------------------------

    def _planar(self, series: np.ndarray) -> np.ndarray:
        """First two value dims of a series, or of a stack of series
        (1-D values get y = 0)."""
        if series.shape[-1] >= 2:
            return series[..., :2]
        return np.concatenate(
            [series[..., :1], np.zeros(series.shape[:-1] + (1,))], axis=-1
        )

    def signature(self, series: np.ndarray) -> np.ndarray:
        """Quantized trajectory codes, shape ``(SIG_LENGTH,)`` int16.

        Each resampled node becomes ``cell * heading_sectors + sector``
        where ``cell`` is its spatial grid cell (bbox-relative) and
        ``sector`` the heading bucket of the step leading into it.
        ``series`` must already be a normalized ``(n, d)`` float array
        (callers hold one from :func:`as_series`; re-converting here
        was pure overhead).
        """
        series = np.asarray(series, dtype=np.float64)
        if series.ndim == 1:
            series = series.reshape(-1, 1)
        return self._signatures([series])[0]

    def _signatures(self, series: Sequence[np.ndarray]) -> np.ndarray:
        """:meth:`signature` rows of normalized series, one vectorised
        pass per group of equal length."""
        out = np.empty((len(series), SIG_LENGTH), dtype=np.int16)
        lo, hi = self.bbox if self.bbox is not None else (
            np.zeros(2), np.ones(2)
        )
        groups: dict[int, list[int]] = {}
        for row, s in enumerate(series):
            groups.setdefault(s.shape[0], []).append(row)
        for rows in groups.values():
            pts = resample_stack(
                self._planar(np.stack([series[i] for i in rows])),
                SIG_LENGTH,
            )                                       # (G, SIG_LENGTH, 2)
            frac = (pts - lo) / (hi - lo)
            cells = np.clip((frac * GRID).astype(np.int64), 0, GRID - 1)
            cell = cells[..., 0] * GRID + cells[..., 1]
            deltas = np.diff(pts, axis=1, prepend=pts[:, :1])
            angles = np.arctan2(deltas[..., 1], deltas[..., 0])  # [-pi, pi]
            sector = np.clip(
                ((angles + math.pi) / (2.0 * math.pi)
                 * HEADING_SECTORS).astype(np.int64),
                0, HEADING_SECTORS - 1,
            )
            out[rows] = cell * HEADING_SECTORS + sector
        return out

    # -- stage 1: candidate generation -------------------------------------

    def _iter_part_blocks(self, offset: int, ids: np.ndarray,
                          pd: np.ndarray, sig: np.ndarray):
        """Fixed-size blocks of one array part, tombstones filtered."""
        block = BLOCK_ROWS
        for lo in range(0, len(ids), block):
            hi = min(lo + block, len(ids))
            rows = np.arange(offset + lo, offset + hi, dtype=np.int64)
            b_ids = np.asarray(ids[lo:hi], dtype=np.int64)
            b_pd = np.asarray(pd[lo:hi], dtype=np.float64)
            b_sig = sig[lo:hi]
            if self._n_dead:
                keep = np.flatnonzero(~self._dead[offset + lo:offset + hi])
                if keep.size == 0:
                    continue
                if keep.size < hi - lo:
                    rows, b_ids = rows[keep], b_ids[keep]
                    b_pd, b_sig = b_pd[keep], b_sig[keep]
            yield rows, b_ids, b_pd, b_sig

    def _iter_blocks(self):
        """Blocks over base then tail — never straddling the boundary,
        so base blocks stay views over the (possibly mmap'd) arrays."""
        yield from self._iter_part_blocks(0, self._ids, self._pd, self._sig)
        yield from self._iter_part_blocks(len(self._ids), self._tail_ids,
                                          self._tail_pd, self._tail_sig)

    def candidates(self, distance, series: np.ndarray, budget: int, k: int,
                   qd: np.ndarray | None = None
                   ) -> tuple[np.ndarray, np.ndarray, int]:
        """Shortlist for an exact rerank under ``budget`` evaluations.

        Returns ``(idx, lbs, pivot_evals)``: candidate raw-row indices
        (ascending), their triangle lower bounds, and how many exact
        evaluations stage 1 already spent (one per pivot).  The
        shortlist size is ``max(k, budget - pivot_evals)`` — stage 1's
        own exact work is paid out of the same budget the rerank draws
        from.  ``qd`` is the query's distance to each pivot when the
        caller already swept them (:func:`approx_knn` sweeps every
        part's pivots at once); it is charged to ``pivot_evals`` all the
        same.

        The scan is blocked: each :data:`BLOCK_ROWS` slice contributes its
        exact per-channel top-m (``argpartition`` + boundary-tie
        resolution) and a streamed ≤ 2m merge folds it into the global
        shortlist, so peak working memory is O(block + shortlist)
        whatever the corpus size.
        """
        n = len(self)
        if n == 0:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64), 0)
        pivot_evals = len(self.pivots)
        if not pivot_evals:
            qd = None
        elif qd is None:
            qd = np.asarray(one_vs_many(distance, series, self.pivots),
                            dtype=np.float64)
        shortlist = max(k, budget - pivot_evals)
        if shortlist >= n:
            rows, lbs = self._scan_full(qd)
            return rows, lbs, pivot_evals
        # Channel 1 (primary): smallest triangle lower bound — the
        # candidates that *can* be nearest.  Channel 2: most matching
        # signature codes — temporal voting, rescuing candidates whose
        # pivot geometry is uninformative.  Ties break on the row id so
        # the shortlist is deterministic for any corpus order.
        n_vote = min(shortlist, int(round(shortlist * VOTE_SHARE)))
        n_bound = shortlist - n_vote
        # The vote channel tracks the top-``shortlist`` rows, not just
        # top-``n_vote``: the bound channel claims at most n_bound of
        # them, leaving >= n_vote unclaimed — exactly the rows the
        # monolithic skip-chosen fill would pick.
        m_vote = shortlist if n_vote else 0
        qsig = self.signature(series) if n_vote else None
        bound, vote = self._scan_top(qd, qsig, n_bound, m_vote)
        if bound is not None:
            lbs_b, _, rows_b = bound
        else:
            rows_b = np.empty(0, dtype=np.int64)
            lbs_b = np.empty(0, dtype=np.float64)
        if n_vote:
            _, v_lbs, _, v_rows = vote
            taken = np.zeros(self._num_raw(), dtype=bool)
            taken[rows_b] = True
            need = shortlist - len(rows_b)
            pick = np.flatnonzero(~taken[v_rows])[:need]
            rows = np.concatenate([rows_b, v_rows[pick]])
            lbs = np.concatenate([lbs_b, v_lbs[pick]])
        else:
            rows, lbs = rows_b, lbs_b
        order = np.argsort(rows)
        return rows[order], lbs[order], pivot_evals

    def _scan_full(self, qd: np.ndarray | None
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Degenerate shortlist >= n: every live row, with its bound."""
        rows_parts: list[np.ndarray] = []
        lbs_parts: list[np.ndarray] = []
        for rows, _, pd, _ in self._iter_blocks():
            if qd is not None and pd.shape[1]:
                lbs_parts.append(pivot_lower_bounds(qd, pd))
            else:
                lbs_parts.append(np.zeros(len(rows), dtype=np.float64))
            rows_parts.append(rows)
        if not rows_parts:
            return (np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        return np.concatenate(rows_parts), np.concatenate(lbs_parts)

    def _scan_top(self, qd: np.ndarray | None, qsig: np.ndarray | None,
                  m_bound: int, m_vote: int
                  ) -> tuple[tuple | None, tuple | None]:
        """Merged per-channel winners of every block, base then tail."""
        bound = vote = None
        for rows, ids, pd, sig in self._iter_blocks():
            b, v = _block_winners(rows, ids, pd, sig, qd, qsig,
                                  m_bound, m_vote)
            if b is not None:
                bound = _merge_top(m_bound, bound, b)
            if v is not None:
                vote = _merge_top(m_vote, vote, v)
        return bound, vote


def approx_knn(parts: Sequence[SketchIndex], distance,
               request: SearchRequest, shares: Sequence[int] | None = None
               ) -> list[tuple[float, ObjectGraph, Any]]:
    """Two-stage approximate k-NN over the sketches of a corpus.

    ``parts`` are the sketches of a partitioned corpus — one per shard;
    a monolithic index is the one-part case — and ``shares`` each
    part's evaluation budget, by default the
    :func:`~repro.search.request.split_budget` of
    ``request.search_budget`` over the parts' sizes.  Each part
    shortlists its own rows under its share
    (:meth:`SketchIndex.candidates`; one kernel sweep evaluates the
    query against every part's pivots), and the merged shortlists are
    reranked in one pass, in ascending ``(lower bound, part, row id)``
    order, under one k-th best distance: the nearest candidate found in
    any part prunes every other part.

    A part spends at most its share (pivot distances + its shortlist),
    floored at ``k`` plus its pivot count so a degenerate budget still returns
    ``k`` hits.  With a share of at least ``len(part)`` plus its pivot count
    every row of the part is shortlisted, so covering every part makes
    the search an exact full scan (pruning is bound-exact).  Hits are
    ``(distance, og, clip_ref)`` sorted by ``(distance, og_id)`` — the
    exact top-k of the union of the shortlists, the same contract as the
    exact paths, and bit-identical whether the sketch rows live in RAM
    or stream from the store's mmap columns.
    """
    # Imported here: importing ``repro.core`` imports the index, which
    # imports this module.
    from repro.core.scan import RERANK_WINDOW, evaluate_windowed

    k, search_budget = request.k, request.search_budget
    if k == 0:
        return []
    if shares is None:
        shares = split_budget(search_budget,
                              [len(sketch) for sketch in parts], k)
    live = [(sketch, share) for sketch, share in zip(parts, shares)
            if len(sketch)]
    if not live:
        return []
    series = request.series
    with OBS.span("search.approx_knn", k=k, budget=search_budget,
                  parts=len(live)) as sp:
        OBS.count("search.knn_queries")
        pivots = [pivot for sketch, _ in live for pivot in sketch.pivots]
        swept = np.asarray(one_vs_many(distance, series, pivots)
                           if pivots else [], dtype=np.float64)
        lbs, part_of, row_ids, raw = [], [], [], []
        pivot_evals = start = 0
        for part, (sketch, share) in enumerate(live):
            stop = start + len(sketch.pivots)
            idx, part_lbs, spent = sketch.candidates(
                distance, series, share, k, qd=swept[start:stop])
            start = stop
            pivot_evals += spent
            lbs.append(part_lbs)
            part_of.append(np.full(len(idx), part, dtype=np.int64))
            row_ids.append(sketch.row_ids_at(idx))
            raw.append(idx)
        lbs, part_of, raw = (np.concatenate(lbs), np.concatenate(part_of),
                             np.concatenate(raw))
        # Rerank in ascending (lower bound, part, row id) order: the most
        # promising candidates of every part seed the one k-th best
        # distance early, and the sorted bounds make the prune a single
        # prefix cut.
        order = np.lexsort((np.concatenate(row_ids), part_of, lbs))
        shortlist = list(zip(lbs[order].tolist(), part_of[order].tolist(),
                             raw[order].tolist()))
        OBS.count("search.candidates_generated", len(shortlist))
        best = TopK(k)
        evaluated = evaluate_windowed(
            distance, series, shortlist, best, RERANK_WINDOW,
            lambda c: live[c[1]][0].row_series(c[2]),
            lambda c: live[c[1]][0].row_record(c[2]))
        pruned = len(shortlist) - evaluated
        OBS.count("search.distances_computed", evaluated + pivot_evals)
        OBS.count("search.candidates_pruned", pruned)
        OBS.count("search.distances_saved",
                  max(0, sum(len(sketch) for sketch, _ in live)
                      - evaluated - pivot_evals))
        sp.set(hits=len(best.hits), evaluated=evaluated, pruned=pruned)
        return best.hits


def sketch_meta_json(sketch: SketchIndex) -> str:
    """Serializable sketch metadata (the bbox) for persistence."""
    lo, hi = sketch.bbox if sketch.bbox is not None else (None, None)
    return json.dumps({
        "bbox_lo": None if lo is None else [float(v) for v in lo],
        "bbox_hi": None if hi is None else [float(v) for v in hi],
    })


def sketch_from_meta(meta_json: str) -> SketchIndex:
    """Empty :class:`SketchIndex` restored from :func:`sketch_meta_json`.

    The caller fills pivots and rows (see
    :mod:`repro.storage.serialize`).  Metas written through 13.x also
    record the sketch settings under ``config``.  Those settings decide
    how a query's codes and bounds line up with the stored rows, so a
    value other than this module's constant raises ``ValueError`` (a
    malformed payload), never silently honoured.  A key that is not a
    former setting is ignored (metas written through 4.0.0 carry the
    rerank window, now a constant of :mod:`repro.core.scan`).
    """
    meta = json.loads(meta_json)
    settings = {
        "num_pivots": NUM_PIVOTS, "sig_length": SIG_LENGTH, "grid": GRID,
        "heading_sectors": HEADING_SECTORS, "vote_share": VOTE_SHARE,
        "pivot_sample_size": PIVOT_SAMPLE_SIZE, "seed": PIVOT_SEED,
        "block_rows": BLOCK_ROWS,
    }
    for key, value in meta.get("config", {}).items():
        if key in settings and value != settings[key]:
            raise ValueError(f"the sketch was stored with {key}={value!r}; "
                             f"this version sketches with {settings[key]!r}")
    sketch = SketchIndex()
    if meta.get("bbox_lo") is not None:
        sketch.bbox = (
            np.asarray(meta["bbox_lo"], dtype=np.float64),
            np.asarray(meta["bbox_hi"], dtype=np.float64),
        )
    return sketch
