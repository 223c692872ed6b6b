"""Centroid Object Graph synthesis.

Clusters of variable-length OGs need a representative "centroid OG"
(Section 5.2's ``OG_clus``).  Coordinate-wise averaging is undefined across
lengths, so members are first linearly resampled to a common target length
(the weighted median member length) and then averaged with the supplied
weights — a fast approximation of the Frechet mean under EGED that is
stable inside EM/KM/KHM update loops.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.distance.base import as_series, resample_stack
from repro.errors import EmptySequenceError, InvalidParameterError


def _weighted_median_length(lengths: np.ndarray, weights: np.ndarray) -> int:
    """Weighted median of member lengths (>= 1)."""
    order = np.argsort(lengths)
    sorted_lengths = lengths[order]
    cum = np.cumsum(weights[order])
    half = cum[-1] / 2.0
    idx = int(np.searchsorted(cum, half))
    idx = min(idx, len(sorted_lengths) - 1)
    return max(int(sorted_lengths[idx]), 1)


def weighted_mean_og(series: Sequence[np.ndarray],
                     weights: Sequence[float] | np.ndarray | None = None,
                     length: int | None = None) -> np.ndarray:
    """Weighted mean value series of a set of OGs.

    Parameters
    ----------
    series:
        Member value series (anything :func:`as_series` accepts).
    weights:
        Non-negative member weights (EM responsibilities); default uniform.
    length:
        Target length; defaults to the weighted median member length.

    Returns
    -------
    numpy.ndarray
        The ``(length, d)`` centroid series.
    """
    if len(series) == 0:
        raise EmptySequenceError("cannot average zero OGs")
    arrays = [as_series(s) for s in series]
    if weights is None:
        w = np.ones(len(arrays), dtype=np.float64)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape[0] != len(arrays):
            raise InvalidParameterError(
                f"{len(arrays)} series but {w.shape[0]} weights"
            )
        if np.any(w < 0):
            raise InvalidParameterError("weights must be non-negative")
    total = w.sum()
    if total <= 0:
        w = np.ones(len(arrays), dtype=np.float64)
        total = w.sum()
    lengths = np.array([a.shape[0] for a in arrays])
    if length is None:
        length = _weighted_median_length(lengths, w)
    # Resample the weighted members one stack per distinct length, then
    # sum them in member order over a leading zero slab: the additions
    # (and the sign of a zero) are those of ``acc += w_i * member_i``.
    keep = np.flatnonzero(w)
    terms = np.zeros((len(keep) + 1, length, arrays[0].shape[1]))
    for n in np.unique(lengths[keep]):
        at = np.flatnonzero(lengths[keep] == n)
        terms[1 + at] = resample_stack(
            np.stack([arrays[i] for i in keep[at]]), length)
    terms[1:] *= w[keep, None, None]
    return np.add.accumulate(terms, axis=0, out=terms)[-1] / total

