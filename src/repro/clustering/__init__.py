"""Clustering of Object Graphs — Section 4 plus the baselines of Section 6.2.

- :mod:`repro.clustering.centroid` — centroid-OG synthesis (length-aware
  weighted averaging), used for cluster representatives (Section 5.2).
- :mod:`repro.clustering.em` — EM with the one-dimensional Gaussian
  mixture over EGED distances (Equations 3-7).
- :mod:`repro.clustering.kmeans` — K-Means generalized to arbitrary
  sequence distances.
- :mod:`repro.clustering.khm` — K-Harmonic Means (Hamerly & Elkan).
- :mod:`repro.clustering.bic` — Bayesian Information Criterion model
  selection (Equation 8, Section 4.2).
- :mod:`repro.clustering.evaluation` — clustering error rate (Eq. 11),
  distortion, and precision/recall for retrieval results.
"""

from repro.clustering.centroid import weighted_mean_og
from repro.clustering.base import ClusteringResult
from repro.clustering.em import EMClustering, EMConfig
from repro.clustering.kmeans import KMeansClustering, KMeansConfig
from repro.clustering.khm import KHMClustering, KHMConfig
from repro.clustering.bic import bic_score, bic_curve, select_num_clusters
from repro.clustering.evaluation import (
    clustering_error_rate,
    distortion,
    precision_recall,
)

__all__ = [
    "weighted_mean_og",
    "ClusteringResult",
    "EMClustering",
    "EMConfig",
    "KMeansClustering",
    "KMeansConfig",
    "KHMClustering",
    "KHMConfig",
    "bic_score",
    "bic_curve",
    "select_num_clusters",
    "clustering_error_rate",
    "distortion",
    "precision_recall",
]
