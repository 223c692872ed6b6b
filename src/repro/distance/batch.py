"""Batched distance kernels: one DP sweep for a whole batch of pairs.

Every distance in this package is an O(n*m) dynamic program, and Section
6.3's cost model makes those DPs the dominant cost of every experiment —
EM evaluates EGED against every centroid each iteration, BIC repeats whole
EM runs across K, and index build / k-NN pay per-pair calls.  The scalar
kernels (:mod:`repro.distance.eged` etc.) run a rolling-row Python loop
per pair; this module instead pads a batch of series to a common length
and advances the recurrence one *row* at a time as NumPy operations over
the entire batch, so P pairs cost roughly one NumPy-speed DP instead of P
Python-loop DPs.

Row-scan vectorization
----------------------
A DP row cannot be vectorized naively because ``cur[j]`` depends on
``cur[j - 1]`` (the insert/left transition).  All four recurrences are
min-plus (max-plus for LCS) linear along a row, so the row collapses to a
prefix scan.  Writing ``E[j]`` for the part of cell ``j`` that depends
only on the *previous* row and ``w[j]`` for the additive weight of the
left transition into cell ``j``:

    cur[j] = min(E[j], cur[j-1] + w[j])
           = C[j] + min_{k <= j} (E[k] - C[k]),   C[j] = w[1] + ... + w[j]

which is one ``cumsum`` plus one ``np.minimum.accumulate`` over the whole
row plane.  For LCS the weight is zero and min becomes max, so the scan
is exact integer arithmetic; for the real-valued kernels the
re-association of the sums introduces rounding differences of order
``1e-12`` relative to the scalar kernels (well inside the 1e-9
equivalence tolerance the test suite enforces).

The planes are column-major, ``(M + 1, B)``: the scan runs down axis 0
and every per-row operand is contiguous along the batch.  An ERP or
EGED row is six NumPy calls — one full-row add of the delete weight,
the substitution add, a ``minimum`` and the three-call scan.

Padding
-------
Series are zero-padded to the batch maximum length ``M``.  Cells at DP
column ``j`` only ever read columns ``<= j`` of the current and previous
row, so the garbage computed in padded columns never reaches the cell
``(n, m_b)`` that is read out for a series of true length ``m_b <= M``.
Chunks of at most :data:`ROW_PLANE_CELLS` cells of one DP row keep a
chunk's tensors inside the L2 cache; a batch of several chunks is
length-sorted first to limit padding waste.

Preparation
-----------
Normalising, dimension-checking, chunking and padding depend on the
batch alone, not on the query, so they are one object: a
:class:`PaddedBatch`.  Every sweep runs over one — a plain list handed
to any entry point goes through the same constructor — and a caller
that sweeps the same items with many queries (index build, sketch
build, EM) prepares once and passes the batch instead of the list.  A
batch that fits one chunk — every query window does — is padded in
input order, with no sort.

Reference batching
------------------
Keying an OG against every centroid, or sketching it against every
pivot, is Q references x B items.  The ERP kernel takes the references
as a leading axis: it stacks the Q planes side by side into one ``(M +
1, Q * B)`` plane, advances it once per node of the longest reference
(shorter ones zero-padded), and reads reference ``q``'s results out at
its own last DP row ``n_q``.  Every cell is the same IEEE operation on
the same operands as in a one-reference sweep, so each row of the block
is bit for bit :func:`one_vs_many` — which *is* the one-reference case.
Per chunk of the items, references run in groups of at most
``ROW_PLANE_CELLS // (B * (M + 1))`` (at least one) per kernel call: a
full chunk (sketch build, bulk key assignment) still sweeps one
reference at a time, while a one-OG insert sweeps all of them at once.

The public entry points are :func:`one_vs_many` and
:func:`pairwise_matrix`; they dispatch through
:meth:`repro.distance.base.Distance.compute_many` and
:meth:`~repro.distance.base.Distance.compute_matrix`, which the kernel
classes override to land here.  Distances without a batched kernel (or
plain callables) fall back to a per-pair loop with unchanged call order,
so asymmetric user distances keep their semantics.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.distance.base import (
    Distance,
    SeriesLike,
    as_series,
    check_same_dim,
)
from repro.observability import OBS

try:  # optional: ~2x faster node-norm tensors when SciPy is around
    from scipy.spatial.distance import cdist as _cdist
except ImportError:  # pragma: no cover - exercised only without SciPy
    _cdist = None

#: Upper bound on ``batch * (M + 1)`` cells of one DP row plane per chunk.
#: With the 10-20 node series of this corpus a chunk is ~200k DP cells and
#: its cost tensors stay inside a 4 MiB L2; measured us/pair is flat from
#: half to twice this value and 20-35 % worse once the tensors spill
#: (``docs/PERFORMANCE.md``, *Row-scan batching*).  The bound does not
#: depend on the query, so one :class:`PaddedBatch` serves every query.
ROW_PLANE_CELLS = 12_288


# -- preparation --------------------------------------------------------------


def series_digest(series: np.ndarray) -> bytes:
    """16-byte content hash of a normalized ``(n, d)`` series."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.int64(series.shape[0]).tobytes())
    h.update(np.int64(series.shape[1]).tobytes())
    h.update(np.ascontiguousarray(series).tobytes())
    return h.digest()


def _pad(series: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad a list of ``(m_i, d)`` series with zeros to a common
    length ``M``; returns the column-major ``(M, B, d)`` tensor (node
    ``j`` of series ``b`` at ``[j, b]``) and the true lengths."""
    lengths = np.array([s.shape[0] for s in series], dtype=np.int64)
    out = np.zeros((int(lengths.max()), len(series), series[0].shape[1]),
                   dtype=np.float64)
    for b, s in enumerate(series):
        out[:s.shape[0], b] = s
    return out, lengths


class PaddedBatch:
    """A batch of series prepared once for any number of sweeps.

    The items are coerced to ``(n, d)`` series and checked to share one
    attribute dimension, then right-padded into column-major chunks of
    at most :data:`ROW_PLANE_CELLS` row-plane cells: the whole batch in
    input order when it fits one chunk (every query window does), else
    length-sorted first to limit padding waste.  As a sequence it yields
    the normalized series in input order, so it stands in for the list
    it was built from.  Chunk boundaries and item order never change a
    result bit: every pair's DP only reads its own column of the padded
    tensor.

    A batch is scratch state of the stage that built it — keep it a
    local, never an attribute of an index, sketch or snapshot.
    """

    __slots__ = ("series", "chunks", "_digests")

    def __init__(self, items: Sequence[SeriesLike]):
        #: Normalized ``(n, d)`` series, input order.
        self.series = series = [as_series(item) for item in items]
        for s in series:
            check_same_dim(series[0], s)
        #: ``(idx, padded, lengths)`` per chunk: input positions, the
        #: ``(M, B, d)`` zero-padded tensor and the true lengths.
        self.chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._digests: list[bytes] | None = None
        big = max((s.shape[0] for s in series), default=0)
        if series and len(series) * (big + 1) <= ROW_PLANE_CELLS:
            # One chunk (every query window): input order, no sort.
            self.chunks.append((np.arange(len(series)), *_pad(series)))
            return
        order = sorted(range(len(series)), key=lambda i: series[i].shape[0])
        pos = 0
        while pos < len(order):
            stop = pos + 1
            while stop < len(order):
                longest = series[order[stop]].shape[0] + 1
                if (stop - pos + 1) * longest > ROW_PLANE_CELLS:
                    break
                stop += 1
            idx = order[pos:stop]
            self.chunks.append((np.array(idx, dtype=np.intp),
                                *_pad([series[i] for i in idx])))
            pos = stop

    @classmethod
    def of(cls, items: Sequence[SeriesLike],
           *queries: np.ndarray) -> "PaddedBatch":
        """``items`` prepared (itself, when it already is a batch) and
        checked against every normalized query's attribute dimension."""
        batch = items if isinstance(items, cls) else cls(items)
        if batch.series:
            for query in queries:
                check_same_dim(query, batch.series[0])
        return batch

    def __len__(self) -> int:
        return len(self.series)

    def __getitem__(self, i):
        return self.series[i]

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.series)

    def digests(self) -> list[bytes]:
        """:func:`series_digest` of every series (computed on first use;
        what :class:`~repro.distance.cache.DistanceCache` keys on)."""
        if self._digests is None:
            self._digests = [series_digest(s) for s in self.series]
        return self._digests


def _chunked(kernel: Callable, a: np.ndarray,
             items: Sequence[SeriesLike], *params) -> np.ndarray:
    """Run ``kernel`` for the normalized query ``a`` over every chunk of
    ``items`` (a :class:`PaddedBatch`, or a list that becomes one),
    scattering results back to input order."""
    batch = PaddedBatch.of(items, a)
    out = np.empty(len(batch), dtype=np.float64)
    for idx, padded, lengths in batch.chunks:
        out[idx] = kernel(a, padded, lengths, *params)
    return out


def _row_scan_min(e: np.ndarray, c: np.ndarray, scan: np.ndarray,
                  out: np.ndarray) -> None:
    """Min-plus prefix scan down axis 0: ``cur[j] = min(E[j], cur[j-1] +
    w[j])`` with ``c`` the prefix sums of the left-transition weights
    ``w``, entirely in the preallocated ``scan``/``out`` buffers."""
    np.subtract(e, c, out=scan)
    np.minimum.accumulate(scan, axis=0, out=scan)
    np.add(c, scan, out=out)


def _norms_to(points: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Batched L2 norms in the kernels' column-major layout.

    ``points`` is ``(M, B, d)`` and ``ref`` is ``(R, d)``; the result is
    ``(R, M, B)`` — the reference (DP row) axis first, so the per-row
    planes the kernels take are contiguous.  Both paths compute
    ``sqrt(sum_k (p_k - r_k)^2)`` directly (no expanded ``|p|^2 + |r|^2 -
    2 p.r`` form, whose cancellation would blow the 1e-9 scalar-equivalence
    tolerance); SciPy's C loop is ~2x the NumPy path, which accumulates the
    squared differences one attribute dimension at a time so no ``(R, M,
    B, d)`` intermediate is ever materialized.
    """
    if _cdist is not None:
        big, batch, dim = points.shape
        return _cdist(ref, points.reshape(big * batch, dim)).reshape(
            ref.shape[0], big, batch
        )
    out = np.square(points[None, :, :, 0] - ref[:, None, None, 0])
    for k in range(1, ref.shape[1]):
        diff = points[None, :, :, k] - ref[:, None, None, k]
        out += np.square(diff, out=diff)
    return np.sqrt(out, out=out)


# -- kernels ------------------------------------------------------------------


def _node_major(refs: list[np.ndarray]) -> np.ndarray:
    """``Q`` refs as ``(N * Q, d)`` DP rows: row ``i * Q + q`` is node
    ``i`` of ref ``q``, zeros past its end (one ref is itself)."""
    if len(refs) == 1:
        return refs[0]
    longest = max(ref.shape[0] for ref in refs)
    rows = np.zeros((longest, len(refs), refs[0].shape[1]), dtype=np.float64)
    for q, ref in enumerate(refs):
        rows[:ref.shape[0], q] = ref
    return rows.reshape(longest * len(refs), -1)


def _erp_kernel(refs: list[np.ndarray], padded: np.ndarray,
                lengths: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """Unconstrained ERP of ``Q`` refs against one padded chunk.

    The ``Q`` planes are stacked side by side into one ``(M + 1, Q * B)``
    plane (ref ``q`` owns columns ``q * B`` to ``q * B + B - 1``), the DP
    advances it once per node of the longest ref, and ref ``q``'s
    results are read out at its own last DP row.  Returns ``(Q, B)``.
    """
    q = len(refs)
    ends = [ref.shape[0] for ref in refs]
    n = max(ends)
    big, batch = padded.shape[0], padded.shape[1]
    rows = _node_major(refs)
    sub = _norms_to(padded, rows)                    # (n * Q, M, B)
    gap_a = np.sqrt(np.sum((rows - gap) ** 2, axis=1))
    gap_b = np.sqrt(np.sum((padded - gap) ** 2, axis=2))
    # Prefix sums of the insert weights double as DP row 0.
    c = np.zeros((big + 1, batch), dtype=np.float64)
    np.cumsum(gap_b, axis=0, out=c[1:])
    if q == 1:
        gap_row = gap_a         # one scalar delete weight per DP row
        rowshape = (big, batch)
    else:
        # sub[i]: nodes i of the refs against every item node, read as
        # an (M, Q, B) view (a transposed copy costs more than it saves).
        sub = sub.reshape(n, q, big, batch).transpose(0, 2, 1, 3)
        gap_row = np.repeat(gap_a.reshape(n, q), batch, axis=1)
        c = np.tile(c, (1, q))
        rowshape = (big, q, batch)
    prev = c.copy()
    e = np.empty_like(prev)
    scan = np.empty_like(prev)
    t1 = np.empty(rowshape, dtype=np.float64)
    head = prev[:-1].reshape(rowshape)
    e_tail = e[1:].reshape(rowshape)
    planes = prev.reshape(big + 1, q, batch)
    out = np.empty((q, batch), dtype=np.float64)
    cols = np.arange(batch)
    lasts = sorted(set(ends))
    row = 0
    for last in lasts:
        # Advance to the last DP row of the refs this long; read them out.
        for i in range(row, last):
            np.add(prev, gap_row[i], out=e)
            np.add(head, sub[i], out=t1)
            np.minimum(t1, e_tail, out=e_tail)
            _row_scan_min(e, c, scan, prev)
        if len(lasts) == 1:     # one length (always so for one ref)
            out[:] = planes[lengths, :, cols].T
        else:
            done = [r for r, end in enumerate(ends) if end == last]
            out[done] = planes[lengths, :, cols].T[done]
        row = last
    return out


def _gap_states(padded: np.ndarray, lengths: np.ndarray,
                mode: str) -> np.ndarray:
    """Batched :func:`repro.distance.eged._gap_values`, ``(M + 1, B, d)``:
    per-item gap values for alignment states ``0..m_b`` of each series."""
    from repro.distance.eged import ADAPTIVE

    big, batch, dim = padded.shape
    # Zero-init: states past ``m_b`` are never read by the DP, but they do
    # flow through the batched norm, so they must stay finite.
    out = np.zeros((big + 1, batch, dim), dtype=np.float64)
    out[0] = padded[0]
    if mode == ADAPTIVE:
        if big > 1:
            out[1:big] = (padded[:-1] + padded[1:]) / 2.0
        # State m_b clamps to the last *true* node, not the padding.
        cols = np.arange(batch)
        out[lengths, cols] = padded[lengths - 1, cols]
    else:
        out[1:] = padded
    return out


def _eged_kernel(a: np.ndarray, padded: np.ndarray, lengths: np.ndarray,
                 mode: str) -> np.ndarray:
    """Non-metric EGED (adaptive or dtw gap policy) over one padded chunk."""
    from repro.distance.eged import _gap_values

    n = a.shape[0]
    big, batch = padded.shape[0], padded.shape[1]
    sub = _norms_to(padded, a)                       # (n, M, B)
    mid_a = _gap_values(a, mode)                     # (n + 1, d)
    mid_b = _gap_states(padded, lengths, mode)       # (M + 1, B, d)
    # del_cost[i, j, b]: gap a[i] while b has consumed j nodes.
    del_cost = _norms_to(mid_b, a)                   # (n, M + 1, B)
    # ins_cost[i, j, b]: gap b[j] while a has consumed i nodes.
    ins_cost = _norms_to(padded, mid_a)              # (n + 1, M, B)

    # ins_cum[i]: the insert-only DP row for ``a`` consumed up to i — one
    # vectorized prefix sum for all n+1 rows instead of n+1 in-loop calls.
    ins_cum = np.zeros((n + 1, big + 1, batch), dtype=np.float64)
    np.cumsum(ins_cost, axis=1, out=ins_cum[:, 1:])

    prev = ins_cum[0].copy()
    e = np.empty_like(prev)
    scan = np.empty_like(prev)
    t1 = np.empty((big, batch), dtype=np.float64)
    head, e_tail = prev[:-1], e[1:]
    for i in range(n):
        np.add(prev, del_cost[i], out=e)
        np.add(head, sub[i], out=t1)
        np.minimum(t1, e_tail, out=e_tail)
        _row_scan_min(e, ins_cum[i + 1], scan, prev)
    return prev[lengths, np.arange(batch)]


def _dtw_kernel(a: np.ndarray, padded: np.ndarray,
                lengths: np.ndarray) -> np.ndarray:
    """Unconstrained DTW over one padded chunk."""
    n = a.shape[0]
    big, batch = padded.shape[0], padded.shape[1]
    cost = _norms_to(padded, a)                      # (n, M, B)
    # s[i]: DP row i's left-transition prefix sums, all in one call.
    s = np.zeros((n, big + 1, batch), dtype=np.float64)
    np.cumsum(cost, axis=1, out=s[:, 1:])
    prev = np.full((big + 1, batch), np.inf)
    prev[0] = 0.0
    v = np.empty_like(prev)
    v[0] = np.inf
    scan = np.empty_like(prev)
    head, tail, v_tail = prev[:-1], prev[1:], v[1:]
    for i in range(n):
        np.minimum(head, tail, out=v_tail)
        np.add(cost[i], v_tail, out=v_tail)
        _row_scan_min(v, s[i], scan, prev)
    return prev[lengths, np.arange(batch)]


def _lcs_kernel(a: np.ndarray, padded: np.ndarray, lengths: np.ndarray,
                epsilon: float, delta: int | None) -> np.ndarray:
    """LCS *length* (exact integer DP) over one padded chunk."""
    n = a.shape[0]
    big, batch = padded.shape[0], padded.shape[1]
    # match[i, j, b]: nodes a[i] and b[j] agree within epsilon in every
    # attribute dimension (accumulated per dimension).
    match = (
        np.abs(padded[None, :, :, 0] - a[:, None, None, 0]) <= epsilon
    )
    for k in range(1, a.shape[1]):
        match &= (
            np.abs(padded[None, :, :, k] - a[:, None, None, k]) <= epsilon
        )
    if delta is not None:
        ii, jj = np.indices((n, big))
        match &= (np.abs(ii - jj) <= delta)[:, :, None]
    # An LCS row never falls along j and rises by at most one per step,
    # so ``max(prev[j], prev[j-1] + match)`` is the match-or-keep cell.
    prev = np.zeros((big + 1, batch), dtype=np.int64)
    e = np.zeros_like(prev)
    t1 = np.empty((big, batch), dtype=np.int64)
    head, tail, e_tail = prev[:-1], prev[1:], e[1:]
    for i in range(n):
        np.add(head, match[i], out=t1)
        np.maximum(tail, t1, out=e_tail)
        np.maximum.accumulate(e, axis=0, out=prev)
    return prev[lengths, np.arange(batch)].astype(np.float64)


# -- batched entry points per kernel -----------------------------------------


def batch_erp(query: SeriesLike, items: Sequence[SeriesLike],
              gap: float | np.ndarray = 0.0) -> np.ndarray:
    """Unconstrained ERP (= metric EGED_M) of ``query`` against every item:
    the one-ref case of :func:`batch_erp_matrix`."""
    return batch_erp_matrix([query], items, gap)[0]


def batch_erp_matrix(refs: Sequence[SeriesLike],
                     items: Sequence[SeriesLike],
                     gap: float | np.ndarray = 0.0) -> np.ndarray:
    """Unconstrained ERP of every ref against every item, ``(Q, B)``.

    Per chunk of the items' :class:`PaddedBatch`, the refs run in groups
    of at most ``ROW_PLANE_CELLS // (B * (M + 1))`` (at least one) per
    kernel call; row ``q`` is bit for bit ``batch_erp(refs[q], items)``.
    """
    refs = [as_series(r) for r in refs]
    batch = PaddedBatch.of(items, *refs)
    if not refs:
        return np.empty((0, len(batch)), dtype=np.float64)
    g = np.asarray(gap, dtype=np.float64)
    out = np.empty((len(refs), len(batch)), dtype=np.float64)
    for idx, padded, lengths in batch.chunks:
        group = max(1, ROW_PLANE_CELLS // (len(idx) * (padded.shape[0] + 1)))
        for start in range(0, len(refs), group):
            stop = min(start + group, len(refs))
            out[start:stop, idx] = _erp_kernel(
                refs[start:stop], padded, lengths, g)
    return out


def batch_eged(query: SeriesLike, items: Sequence[SeriesLike],
               mode: str = "adaptive") -> np.ndarray:
    """Non-metric EGED (``adaptive`` or ``dtw`` gap policy) of ``query``
    against every item."""
    from repro.distance.eged import ADAPTIVE, DTW_GAP
    from repro.errors import InvalidParameterError

    if mode not in (ADAPTIVE, DTW_GAP):
        raise InvalidParameterError(
            f"mode must be 'adaptive' or 'dtw', got {mode!r}"
        )
    return _chunked(_eged_kernel, as_series(query), items, mode)


def batch_dtw(query: SeriesLike, items: Sequence[SeriesLike]) -> np.ndarray:
    """Unconstrained DTW of ``query`` against every item.

    Sakoe-Chiba-banded DTW is served by the scalar kernel (the band makes
    the reachable region differ per pair, defeating shared-row batching).
    """
    return _chunked(_dtw_kernel, as_series(query), items)


def batch_lcs(query: SeriesLike, items: Sequence[SeriesLike],
              epsilon: float = 1.0, delta: int | None = None) -> np.ndarray:
    """LCS dissimilarity ``1 - |LCS| / min(n, m)`` of ``query`` against
    every item (exact — the LCS DP is integer arithmetic)."""
    a = as_series(query)
    batch = PaddedBatch.of(items, a)
    common = _chunked(_lcs_kernel, a, batch, epsilon, delta)
    mins = np.minimum(a.shape[0], np.array([b.shape[0] for b in batch]))
    return 1.0 - common / mins


# -- generic dispatch ---------------------------------------------------------


def supports_batch(distance: Any) -> bool:
    """True when ``distance`` overrides
    :meth:`~repro.distance.base.Distance.compute_many` with a batched
    kernel (all shipped kernels are symmetric, so callers may freely flip
    the query/item roles on this path)."""
    return (
        isinstance(distance, Distance)
        and type(distance).compute_many is not Distance.compute_many
    )


def one_vs_many(distance: Distance | Callable[[Any, Any], float],
                query: SeriesLike,
                items: Sequence[SeriesLike]) -> np.ndarray:
    """Distances from ``query`` to every item, batched when possible.

    :class:`~repro.distance.base.Distance` instances dispatch through
    ``compute_many`` (batched for EGED/ERP/DTW/LCS, a loop otherwise);
    plain callables are looped with the ``(query, item)`` argument order
    preserved.
    """
    if OBS.enabled:
        OBS.count("distance.pairs_computed", len(items))
    if isinstance(distance, Distance):
        a = as_series(query)
        return distance.compute_many(a, PaddedBatch.of(items, a))
    return np.array([float(distance(query, item)) for item in items],
                    dtype=np.float64)


def pairwise_matrix(distance: Distance | Callable[[Any, Any], float],
                    items: Sequence[SeriesLike],
                    others: Sequence[SeriesLike] | None = None
                    ) -> np.ndarray:
    """Dense distance matrix: row ``i`` is ``one_vs_many(distance,
    items[i], others)``.

    With ``others``, a :class:`~repro.distance.base.Distance` computes
    the whole block through
    :meth:`~repro.distance.base.Distance.compute_matrix` — one
    reference-batched sweep for the metric EGED — over ``others``
    prepared once.  Plain callables loop per row with the ``(item,
    other)`` argument order preserved.  Without ``others``, the symmetric
    self-distance matrix of ``items``, one batched sweep per row of the
    upper triangle (mirrors :func:`repro.distance.base.pairwise_matrix`).
    """
    if others is None:
        n = len(items)
        out = np.zeros((n, n), dtype=np.float64)
        for i in range(n - 1):
            row = one_vs_many(distance, items[i], items[i + 1:])
            out[i, i + 1:] = row
            out[i + 1:, i] = row
        return out
    if not isinstance(distance, Distance):
        out = np.empty((len(items), len(others)), dtype=np.float64)
        for i, item in enumerate(items):
            out[i] = one_vs_many(distance, item, others)
        return out
    refs = [as_series(r) for r in items]
    batch = PaddedBatch.of(others, *refs)
    if not refs:
        return np.empty((0, len(batch)), dtype=np.float64)
    if OBS.enabled:
        OBS.count("distance.pairs_computed", len(refs) * len(batch))
    return distance.compute_matrix(refs, batch)
