"""EM clustering with EGED — Section 4.1 (Equations 3-7).

The finite Gaussian mixture over OGs replaces the Mahalanobis term with the
EGED to the component mean, collapsing the density to one dimension
(Equation 3):

    p(Y_j | Theta) = sum_k  w_k / (sqrt(2 pi) sigma_k)
                            * exp(-EGED(Y_j, mu_k)^2 / (2 sigma_k^2))

which sidesteps the singular-covariance problem of variable-length OGs and
reduces the per-iteration complexity from O(d^2 K M) to O(K M).

Stabilization
-------------
A textbook EM on this model is unstable when K is large and clusters hold
few OGs: centroids are synthesized in *trajectory space* while densities
live in *distance space*, so small cross-cluster responsibilities drag
every centroid toward the global mean, sigma estimates absorb the huge
between-cluster distances, and fat components snowball until everything
merges.  The implementation therefore hardens the classical recipe
(all switchable via :class:`EMConfig`):

- a short Lloyd warm start after k-means++ seeding;
- a CEM-style M-step: each OG contributes its responsibility only to its
  maximum-posterior component (Celeux & Govaert's classification EM);
- per-component sigma clipped into ``[0.25, 1] x`` a pooled scale that is
  monotone non-increasing across iterations;
- mixture weights are estimated (Eq. 6) and reported, but by default do
  not feed back into the E-step posterior, cutting the rich-get-richer
  loop between component mass and component basin.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.clustering.base import (
    ClusteringResult,
    distance_matrix_to_centroids,
    kmeanspp_init,
    validate_inputs,
)
from repro.clustering.centroid import weighted_mean_og
from repro.distance.base import Distance
from repro.distance.batch import PaddedBatch
from repro.distance.eged import EGED
from repro.errors import ClusteringError, InvalidParameterError
from repro.observability import OBS

_LOG_2PI = float(np.log(2.0 * np.pi))
_MIN_SIGMA = 1e-3
_MIN_WEIGHT = 1e-8
_MIN_MASS = 1e-9


@dataclass
class EMConfig:
    """EM hyperparameters.

    ``weight_tolerance`` is the convergence threshold on the mixture
    weights (the paper stops "when w_k is converged for all k");
    ``warm_start_iterations`` Lloyd steps precede EM;
    ``weights_in_posterior`` re-enables the textbook E-step (useful for
    ablations; unstable for large K, see the module docstring).
    """

    n_clusters: int = 8
    max_iterations: int = 30
    weight_tolerance: float = 1e-4
    warm_start_iterations: int = 2
    weights_in_posterior: bool = False
    sigma_band: float = 0.25
    n_init: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_clusters < 1:
            raise InvalidParameterError(
                f"n_clusters must be >= 1, got {self.n_clusters}"
            )
        if self.max_iterations < 1:
            raise InvalidParameterError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.warm_start_iterations < 0:
            raise InvalidParameterError(
                "warm_start_iterations must be >= 0, "
                f"got {self.warm_start_iterations}"
            )
        if not 0.0 < self.sigma_band <= 1.0:
            raise InvalidParameterError(
                f"sigma_band must be in (0, 1], got {self.sigma_band}"
            )
        if self.n_init < 1:
            raise InvalidParameterError(
                f"n_init must be >= 1, got {self.n_init}"
            )


class EMClustering:
    """EM over OGs with a pluggable distance (EGED by default)."""

    def __init__(self, config: EMConfig | None = None,
                 distance: Distance | None = None):
        self.config = config or EMConfig()
        self.distance = distance or EGED()

    # -- model math ---------------------------------------------------------

    @staticmethod
    def _log_density(dist: np.ndarray, sigmas: np.ndarray) -> np.ndarray:
        """Per-component log densities of Eq. 3 for a distance matrix."""
        return (
            -0.5 * _LOG_2PI
            - np.log(sigmas)[None, :]
            - 0.5 * (dist / sigmas[None, :]) ** 2
        )

    @staticmethod
    def _log_likelihood(log_dens: np.ndarray, weights: np.ndarray) -> float:
        """Total data log-likelihood (Eq. 4), computed stably."""
        joint = log_dens + np.log(weights)[None, :]
        mx = joint.max(axis=1, keepdims=True)
        return float(np.sum(mx.squeeze(1) + np.log(
            np.sum(np.exp(joint - mx), axis=1)
        )))

    @staticmethod
    def _responsibilities(log_dens: np.ndarray,
                          weights: np.ndarray) -> np.ndarray:
        """E-step posteriors h_jk (Eq. 5), normalized in the log domain."""
        joint = log_dens + np.log(weights)[None, :]
        mx = joint.max(axis=1, keepdims=True)
        expd = np.exp(joint - mx)
        return expd / expd.sum(axis=1, keepdims=True)

    # -- initialization ------------------------------------------------------

    def _warm_start(self, series: list[np.ndarray], k: int,
                    rng: np.random.Generator
                    ) -> tuple[list[np.ndarray], np.ndarray]:
        """k-means++ seeding followed by a few Lloyd iterations.

        Returns the warmed centroids and the point-to-centroid distance
        matrix.  Empty clusters steal the worst-fit point.
        """
        centroids = kmeanspp_init(series, k, self.distance, rng)
        dist = distance_matrix_to_centroids(self.distance, series, centroids)
        m = len(series)
        for _ in range(self.config.warm_start_iterations):
            hard = np.argmin(dist, axis=1)
            for c in range(k):
                members = np.where(hard == c)[0]
                if members.size == 0:
                    worst = int(np.argmax(dist[np.arange(m), hard]))
                    hard[worst] = c
                    members = np.array([worst])
                centroids[c] = weighted_mean_og([series[i] for i in members])
            dist = distance_matrix_to_centroids(self.distance, series, centroids)
        return centroids, dist

    @staticmethod
    def _reseed_empty(centroids: list[np.ndarray], series: list[np.ndarray],
                      dist: np.ndarray, empty: np.ndarray) -> None:
        """Reseed empty components at *distinct* worst-fit OGs."""
        order = np.argsort(-dist.min(axis=1))
        taken = 0
        for c in np.where(empty)[0]:
            idx = int(order[min(taken, len(order) - 1)])
            centroids[c] = series[idx].copy()
            taken += 1

    # -- fitting --------------------------------------------------------------

    def fit(self, ogs: Sequence) -> ClusteringResult:
        """Run EM to convergence and return the clustering.

        With ``n_init > 1`` the whole procedure restarts from different
        seeds and the run with the best classification log-likelihood
        wins — k-means++ can seed on outlier trajectories, and restarts
        are the standard remedy.
        """
        cfg = self.config
        best: ClusteringResult | None = None
        for restart in range(cfg.n_init):
            with OBS.span("clustering.em.fit", k=cfg.n_clusters,
                          restart=restart) as sp:
                result = self._fit_once(ogs, cfg.seed + restart)
                sp.set(iterations=result.n_iterations,
                       converged=result.converged)
            if (best is None or result.classification_log_likelihood
                    > best.classification_log_likelihood):
                best = result
        assert best is not None
        return best

    def _fit_once(self, ogs: Sequence, seed: int) -> ClusteringResult:
        """One EM run from a single seed."""
        cfg = self.config
        # Every sweep of the fit is a centroid against these same series:
        # pad them, and hash them for the distance cache, once.
        series = PaddedBatch(validate_inputs(ogs, cfg.n_clusters))
        rng = np.random.default_rng(seed)
        k = cfg.n_clusters
        m = len(series)

        centroids, dist = self._warm_start(series, k, rng)
        weights = np.full(k, 1.0 / k)
        posterior_weights = np.full(k, 1.0 / k)
        sigma_cap = max(float(np.sqrt(np.mean(dist.min(axis=1) ** 2))),
                        _MIN_SIGMA)
        sigmas = np.full(k, sigma_cap)

        log_lik = -np.inf
        responsibilities = np.full((m, k), 1.0 / k)
        iteration_seconds: list[float] = []
        converged = False
        iteration = 0
        prev_winner = np.full(m, -1, dtype=np.int64)
        rows = np.arange(m)

        for iteration in range(1, cfg.max_iterations + 1):
            started = time.perf_counter()
            OBS.count("em.iterations")
            # E-step (Eq. 5).
            log_dens = self._log_density(dist, sigmas)
            responsibilities = self._responsibilities(log_dens, posterior_weights)
            winner = np.argmax(responsibilities, axis=1)
            # Mixture weights (Eq. 6) — always estimated and reported.
            mass = responsibilities.sum(axis=0)
            new_weights = np.maximum(mass / m, _MIN_WEIGHT)
            new_weights /= new_weights.sum()
            if cfg.weights_in_posterior:
                posterior_weights = new_weights
            # M-step: winner-restricted (CEM) centroid and sigma updates.
            restricted = np.zeros_like(responsibilities)
            restricted[rows, winner] = responsibilities[rows, winner]
            restricted_mass = restricted.sum(axis=0)
            empty = restricted_mass < _MIN_MASS
            for c in np.where(~empty)[0]:
                centroids[c] = weighted_mean_og(series, restricted[:, c])
            if np.any(empty):
                self._reseed_empty(centroids, series, dist, empty)
            dist = distance_matrix_to_centroids(self.distance, series, centroids)
            pooled = float(np.sqrt(
                np.sum(restricted * dist ** 2)
                / max(restricted.sum(), _MIN_MASS)
            ))
            sigma_cap = min(sigma_cap, max(pooled, _MIN_SIGMA))
            per_component = np.sqrt(
                np.sum(restricted * dist ** 2, axis=0)
                / np.maximum(restricted_mass, _MIN_MASS)
            )
            per_component[empty] = sigma_cap
            sigmas = np.clip(per_component, cfg.sigma_band * sigma_cap,
                             sigma_cap)

            weight_shift = float(np.max(np.abs(new_weights - weights)))
            weights = new_weights
            log_dens = self._log_density(dist, sigmas)
            log_lik = self._log_likelihood(log_dens, weights)
            iteration_seconds.append(time.perf_counter() - started)
            if (np.array_equal(winner, prev_winner)
                    or weight_shift < cfg.weight_tolerance):
                converged = True
                break
            prev_winner = winner

        if not np.isfinite(log_lik):
            raise ClusteringError("EM produced a non-finite log-likelihood")

        # Final assignment (Eq. 7).
        log_dens = self._log_density(dist, sigmas)
        responsibilities = self._responsibilities(log_dens, posterior_weights)
        assignments = np.argmax(responsibilities, axis=1)
        classification_ll = float(
            np.sum(log_dens[np.arange(m), assignments])
        )
        return ClusteringResult(
            assignments=assignments,
            centroids=centroids,
            responsibilities=responsibilities,
            weights=weights,
            sigmas=sigmas,
            log_likelihood=log_lik,
            n_iterations=iteration,
            iteration_seconds=iteration_seconds,
            converged=converged,
            classification_log_likelihood=classification_ll,
        )

    def predict(self, result: ClusteringResult, og) -> int:
        """Most probable component for a new OG (Eq. 7)."""
        from repro.distance.base import as_series
        from repro.distance.cache import cached_one_vs_many

        series = as_series(og)
        dist = cached_one_vs_many(self.distance, series, result.centroids)
        log_dens = self._log_density(dist[None, :], result.sigmas)
        post = self._responsibilities(log_dens, result.weights)
        return int(np.argmax(post[0]))
