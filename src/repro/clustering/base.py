"""Shared clustering result container and helpers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.distance.base import Distance, as_series
from repro.distance.batch import supports_batch
from repro.distance.cache import cached_one_vs_many
from repro.errors import ClusteringError, InvalidParameterError


@dataclass
class ClusteringResult:
    """Output of any clustering algorithm in this package.

    Attributes
    ----------
    assignments:
        ``(M,)`` hard cluster index per input OG.
    centroids:
        One representative value series per cluster, each ``(n, d)``.
    responsibilities:
        ``(M, K)`` soft memberships (hard one-hot for K-Means).
    weights:
        ``(K,)`` mixture weights (uniform for non-probabilistic methods).
    sigmas:
        ``(K,)`` per-component scale (EM only; zeros otherwise).
    log_likelihood:
        Final data log-likelihood (EM; ``nan`` otherwise).
    classification_log_likelihood:
        Log-likelihood under each point's winning component only (no
        mixture-weight term) — the CEM/ICL-style score used for model
        selection (EM; ``nan`` otherwise).
    n_iterations:
        Iterations actually run.
    iteration_seconds:
        Wall-clock duration of each iteration (drives Figure 6(b)).
    converged:
        Whether the stopping criterion was met before the iteration cap.
    """

    assignments: np.ndarray
    centroids: list[np.ndarray]
    responsibilities: np.ndarray
    weights: np.ndarray
    sigmas: np.ndarray
    log_likelihood: float
    n_iterations: int
    iteration_seconds: list[float] = field(default_factory=list)
    converged: bool = False
    classification_log_likelihood: float = float("nan")

    @property
    def num_clusters(self) -> int:
        """Number of clusters ``K``."""
        return len(self.centroids)

    def cluster_members(self, k: int) -> np.ndarray:
        """Indices of OGs assigned to cluster ``k``."""
        return np.where(self.assignments == k)[0]


def validate_inputs(ogs: Sequence, k: int) -> list[np.ndarray]:
    """Normalize the input OGs to value series and validate ``K``."""
    if k < 1:
        raise InvalidParameterError(f"K must be >= 1, got {k}")
    if len(ogs) < k:
        raise ClusteringError(
            f"cannot form {k} clusters from {len(ogs)} OGs"
        )
    return [as_series(og) for og in ogs]


def distances_to_centroid(distance: Distance, series: list[np.ndarray],
                          centroid: np.ndarray) -> np.ndarray:
    """``(M,)`` distances from every OG to one centroid.

    Batch-capable distances (EGED/ERP/DTW/LCS — all symmetric) run one
    vectorized DP sweep through the memo cache, which is what makes the
    E-step of EM an O(K) sequence of NumPy kernels instead of O(K M)
    Python calls; other distances keep the per-pair ``(series, centroid)``
    call order so asymmetric user distances behave as before.
    """
    if supports_batch(distance):
        return cached_one_vs_many(distance, centroid, series)
    return np.array([distance.compute(s, centroid) for s in series],
                    dtype=np.float64)


def distance_matrix_to_centroids(distance: Distance, series: list[np.ndarray],
                                 centroids: list[np.ndarray]) -> np.ndarray:
    """``(M, K)`` matrix of distances from every OG to every centroid."""
    out = np.empty((len(series), len(centroids)), dtype=np.float64)
    for k, c in enumerate(centroids):
        out[:, k] = distances_to_centroid(distance, series, c)
    return out


def kmeanspp_init(series: list[np.ndarray], k: int, distance: Distance,
                  rng: np.random.Generator) -> list[np.ndarray]:
    """k-means++ seeding: spread initial centroids apart.

    Gives every algorithm (EM, KM, KHM) the same competitive start, so the
    Figure 5/6 comparisons measure the update rules, not the seeding.
    Because every seed centroid is a copy of an actual input series,
    these distances are OG-vs-OG pairs that the memo cache reuses across
    BIC's K-sweep and ``n_init`` restarts.
    """
    first = int(rng.integers(len(series)))
    centroids = [series[first].copy()]
    closest = distances_to_centroid(distance, series, centroids[0])
    for _ in range(1, k):
        weights = closest ** 2
        total = weights.sum()
        if total <= 0:
            idx = int(rng.integers(len(series)))
        else:
            idx = int(rng.choice(len(series), p=weights / total))
        centroids.append(series[idx].copy())
        new_d = distances_to_centroid(distance, series, centroids[-1])
        closest = np.minimum(closest, new_d)
    return centroids
