"""Tests for the EM configuration surface: textbook vs stabilized modes."""

import numpy as np

from repro.clustering.em import EMClustering, EMConfig
from repro.clustering.evaluation import clustering_error_rate
from repro.distance.base import FunctionDistance
from repro.distance.lp import lp_distance


def two_blob_ogs(n_per=8, rng=None):
    rng = rng or np.random.default_rng(0)
    ogs, labels = [], []
    for label, offset in ((0, 0.0), (1, 120.0)):
        for _ in range(n_per):
            length = int(rng.integers(6, 10))
            base = np.linspace(0, 10, length)[:, None]
            ogs.append(np.hstack([base + offset, base])
                       + rng.normal(0, 0.5, (length, 2)))
            labels.append(label)
    return ogs, labels


class TestTextbookMode:
    """The deviations of DESIGN.md §5.6 are all switchable off."""

    def test_weights_in_posterior_runs(self):
        ogs, labels = two_blob_ogs()
        em = EMClustering(EMConfig(n_clusters=2, weights_in_posterior=True))
        result = em.fit(ogs)
        assert clustering_error_rate(labels, result.assignments) == 0.0

    def test_no_warm_start_runs(self):
        ogs, labels = two_blob_ogs()
        em = EMClustering(EMConfig(n_clusters=2, warm_start_iterations=0))
        result = em.fit(ogs)
        assert clustering_error_rate(labels, result.assignments) == 0.0

    def test_full_sigma_band(self):
        ogs, _ = two_blob_ogs()
        em = EMClustering(EMConfig(n_clusters=2, sigma_band=1.0))
        result = em.fit(ogs)
        assert np.all(result.sigmas > 0)

    def test_fully_textbook_configuration(self):
        ogs, labels = two_blob_ogs()
        em = EMClustering(EMConfig(
            n_clusters=2, weights_in_posterior=True,
            warm_start_iterations=0, sigma_band=1.0,
        ))
        result = em.fit(ogs)
        # On two well-separated blobs even the fragile textbook recipe
        # must succeed.
        assert clustering_error_rate(labels, result.assignments) == 0.0


class TestCustomDistances:
    def test_function_distance_adapter(self):
        ogs, labels = two_blob_ogs()
        distance = FunctionDistance(
            lambda a, b: lp_distance(a, b, 2.0), name="resampled-L2"
        )
        assert distance.name == "resampled-L2"
        em = EMClustering(EMConfig(n_clusters=2), distance=distance)
        result = em.fit(ogs)
        assert clustering_error_rate(labels, result.assignments) == 0.0

    def test_distance_names(self):
        from repro.distance import (
            DTW, EGED, ERP, LCSDistance, LpDistance, MetricEGED,
        )
        names = {
            EGED().name, MetricEGED().name, DTW().name,
            LCSDistance().name, ERP().name, LpDistance().name,
        }
        assert len(names) == 6  # all distinct, human-readable identifiers


class TestDeterminism:
    def test_same_seed_same_result(self):
        ogs, _ = two_blob_ogs()
        a = EMClustering(EMConfig(n_clusters=2, seed=5)).fit(ogs)
        b = EMClustering(EMConfig(n_clusters=2, seed=5)).fit(ogs)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert a.log_likelihood == b.log_likelihood

    def test_iteration_seconds_positive(self):
        ogs, _ = two_blob_ogs(n_per=4)
        result = EMClustering(EMConfig(n_clusters=2)).fit(ogs)
        assert all(s >= 0 for s in result.iteration_seconds)
