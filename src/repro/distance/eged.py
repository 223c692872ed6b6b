"""Extended Graph Edit Distance (EGED) — Definition 9 and Theorem 2.

EGED measures the minimum cost of node edit operations (substitute, delete,
insert) transforming one Object Graph into another.  Because OGs are linear
temporal chains, the edit computation reduces to a dynamic program over the
two node-value sequences.

Two gap policies are provided, exactly as in the paper:

- **non-metric** (``gap="adaptive"``): the gap for node *i* is
  ``g_i = (v_{i-1} + v_i) / 2``, which handles local time shifting but
  breaks the triangle inequality.  This variant drives EM clustering
  (Section 4).
- **metric** (``gap=<constant>``): the gap is a fixed reference value
  (Theorem 2), making EGED a metric — this is ``EGED_M``, the index-key
  distance of the STRG-Index and the M-tree baseline.  With a constant gap
  the recursion coincides with ERP.

A third policy ``gap="dtw"`` (``g_i = v_{i-1}``) reproduces the paper's
remark that this choice degenerates to a DTW-style cost.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.distance.base import Distance
from repro.distance.erp import erp
from repro.errors import InvalidParameterError

GapSpec = Union[str, float, np.ndarray]

#: Gap policies accepted by :func:`eged`.
ADAPTIVE = "adaptive"
DTW_GAP = "dtw"


def _gap_values(seq: np.ndarray, mode: str) -> np.ndarray:
    """Gap reference values per alignment state of ``seq``.

    ``out[j]`` is the value a node of the *other* sequence is charged
    against when it is gapped while ``seq`` has consumed ``j`` nodes:

    - ``adaptive`` (Definition 9's ``g_i = (v_{i-1} + v_i) / 2``): the
      midpoint of the adjacent nodes of ``seq`` — local time shifting is
      cheap because a node falling "between" two similar nodes of the
      other trajectory pays only the interpolation residual;
    - ``dtw`` (``g_i = v_{i-1}``): the previously aligned node of ``seq``
      is repeated, exactly DTW's repeat semantics (the paper's remark that
      this choice degenerates to the DTW cost).

    Boundary states clamp to the first/last node.
    """
    m = seq.shape[0]
    out = np.empty((m + 1, seq.shape[1]), dtype=np.float64)
    out[0] = seq[0]
    if mode == ADAPTIVE:
        out[m] = seq[m - 1]
        if m > 1:
            out[1:m] = (seq[:-1] + seq[1:]) / 2.0
    else:
        out[1:] = seq
    return out


def _eged_dynamic(a: np.ndarray, b: np.ndarray, mode: str) -> float:
    """Edit DP with alignment-state-dependent gap costs (non-metric EGED).

    Reproduces the paper's worked example: for OG_r = {0}, OG_s = {1, 1},
    OG_t = {2, 2, 3} it yields EGED(r, t) = 7, EGED(r, s) = 2 and
    EGED(s, t) = 4, i.e. 7 > 2 + 4 — the triangle-inequality violation
    that motivates the metric specialization.

    Delegates to the vectorized batch kernel with a batch of one (no
    ``.tolist()`` round-trips, no Python-level inner loop); the test
    suite keeps an independent naive DP as the equivalence reference.
    """
    from repro.distance.batch import _chunked, _eged_kernel

    return float(_chunked(_eged_kernel, a, [b], mode)[0])


def eged(x, y, gap: GapSpec = ADAPTIVE) -> float:
    """Extended Graph Edit Distance between two Object Graphs.

    Parameters
    ----------
    x, y:
        Object Graphs, ``(n, d)`` arrays, or anything accepted by
        :func:`repro.distance.base.as_series`.
    gap:
        ``"adaptive"`` for the non-metric EGED of Definition 9
        (``g_i = (v_{i-1}+v_i)/2``), ``"dtw"`` for the DTW-degenerate
        policy (``g_i = v_{i-1}``), or a numeric constant / vector for the
        metric EGED_M of Theorem 2.

    Returns
    -------
    float
        The minimum node-edit cost.
    """
    from repro.distance.base import as_series, check_same_dim

    a = as_series(x)
    b = as_series(y)
    check_same_dim(a, b)
    if isinstance(gap, str):
        if gap not in (ADAPTIVE, DTW_GAP):
            raise InvalidParameterError(
                f"gap must be 'adaptive', 'dtw', or a constant; got {gap!r}"
            )
        return _eged_dynamic(a, b, gap)
    return erp(a, b, gap)


class EGED(Distance):
    """Non-metric EGED with the adaptive gap ``g_i = (v_{i-1}+v_i)/2``.

    Used as the clustering distance in Section 4; handles local time
    shifting but does not satisfy the triangle inequality (the paper's own
    counterexample is covered in the test suite).
    """

    is_metric = False

    def __init__(self, mode: str = ADAPTIVE):
        if mode not in (ADAPTIVE, DTW_GAP):
            raise InvalidParameterError(
                f"mode must be 'adaptive' or 'dtw', got {mode!r}"
            )
        self.mode = mode

    def compute(self, a: np.ndarray, b: np.ndarray) -> float:
        return _eged_dynamic(a, b, self.mode)

    def compute_many(self, query: np.ndarray,
                     batch: list[np.ndarray]) -> np.ndarray:
        from repro.distance.batch import batch_eged

        return batch_eged(query, batch, self.mode)

    @property
    def cache_token(self):
        return ("eged", self.mode)

    @property
    def name(self) -> str:
        return "EGED" if self.mode == ADAPTIVE else "EGED(dtw-gap)"


class MetricEGED(Distance):
    """Metric EGED (``EGED_M``) with a fixed constant gap (Theorem 2).

    The default gap ``0`` measures each OG against the origin of the
    attribute space; any fixed constant preserves the metric property.
    This is the key distance of the STRG-Index leaf level and of the
    M-tree baseline.
    """

    is_metric = True

    def __init__(self, gap: float = 0.0):
        self.gap = float(gap)

    def compute(self, a: np.ndarray, b: np.ndarray) -> float:
        return erp(a, b, self.gap)

    def compute_many(self, query: np.ndarray,
                     batch: list[np.ndarray]) -> np.ndarray:
        from repro.distance.batch import batch_erp

        return batch_erp(query, batch, self.gap)

    def compute_matrix(self, refs: list[np.ndarray],
                       batch: list[np.ndarray]) -> np.ndarray:
        from repro.distance.batch import batch_erp_matrix

        return batch_erp_matrix(refs, batch, self.gap)

    @property
    def cache_token(self):
        return ("erp", self.gap, None)

    @property
    def name(self) -> str:
        return f"EGED_M(g={self.gap:g})"
