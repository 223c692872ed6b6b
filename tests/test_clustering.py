"""Tests for EM / K-Means / KHM clustering and centroid synthesis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering import em as em_module
from repro.clustering.base import kmeanspp_init, validate_inputs
from repro.clustering.centroid import _weighted_median_length, weighted_mean_og
from repro.clustering.em import EMClustering, EMConfig
from repro.clustering.evaluation import clustering_error_rate
from repro.clustering.khm import KHMClustering, KHMConfig
from repro.clustering.kmeans import KMeansClustering, KMeansConfig
from repro.distance.base import as_series, resample_series
from repro.distance.eged import MetricEGED
from repro.errors import ClusteringError, EmptySequenceError, InvalidParameterError


def two_blob_ogs(n_per=8, separation=100.0, rng=None):
    """Two well-separated groups of short 2-D trajectories."""
    rng = rng or np.random.default_rng(0)
    ogs = []
    for label, offset in ((0, 0.0), (1, separation)):
        for _ in range(n_per):
            length = int(rng.integers(6, 12))
            base = np.linspace(0, 10, length)[:, None]
            values = np.hstack([base + offset, base]) + rng.normal(0, 0.5, (length, 2))
            ogs.append(values)
    labels = [0] * n_per + [1] * n_per
    return ogs, labels


class TestWeightedMeanOG:
    def test_uniform_mean_of_identical(self):
        series = [np.ones((5, 2)) for _ in range(3)]
        out = weighted_mean_og(series)
        np.testing.assert_allclose(out, np.ones((5, 2)))

    def test_weighted_pull(self):
        a = np.zeros((4, 1))
        b = np.ones((4, 1))
        out = weighted_mean_og([a, b], weights=[3.0, 1.0])
        np.testing.assert_allclose(out, np.full((4, 1), 0.25))

    def test_target_length_is_weighted_median(self):
        series = [np.zeros((4, 1)), np.zeros((4, 1)), np.zeros((10, 1))]
        assert weighted_mean_og(series).shape[0] == 4

    def test_explicit_length(self):
        series = [np.zeros((4, 1)), np.zeros((8, 1))]
        assert weighted_mean_og(series, length=6).shape == (6, 1)

    def test_zero_weights_fall_back_to_uniform(self):
        series = [np.zeros((3, 1)), np.ones((3, 1))]
        out = weighted_mean_og(series, weights=[0.0, 0.0])
        np.testing.assert_allclose(out, np.full((3, 1), 0.5))

    def test_empty_rejected(self):
        with pytest.raises(EmptySequenceError):
            weighted_mean_og([])

    def test_negative_weights_rejected(self):
        with pytest.raises(InvalidParameterError):
            weighted_mean_og([np.zeros((2, 1))], weights=[-1.0])

    def test_weight_count_mismatch(self):
        with pytest.raises(InvalidParameterError):
            weighted_mean_og([np.zeros((2, 1))], weights=[1.0, 2.0])


def looped_mean_og(series, weights=None, length=None):
    """``weighted_mean_og`` as one ``acc += w_i * member_i`` per member,
    the loop its vectorised form must match bit for bit."""
    arrays = [as_series(s) for s in series]
    w = (np.ones(len(arrays)) if weights is None
         else np.asarray(weights, dtype=np.float64))
    total = w.sum()
    if total <= 0:
        w = np.ones(len(arrays))
        total = w.sum()
    if length is None:
        length = _weighted_median_length(
            np.array([a.shape[0] for a in arrays]), w)
    acc = np.zeros((length, arrays[0].shape[1]))
    for a, wi in zip(arrays, w):
        if wi == 0.0:
            continue
        acc += wi * resample_series(a, length)
    return acc / total


class TestWeightedMeanBits:
    @given(seed=st.integers(0, 2**32 - 1), members=st.integers(1, 40),
           weights=st.sampled_from(["random", "with zeros", "uniform",
                                    "all zero"]),
           length=st.one_of(st.none(), st.integers(1, 20)))
    @settings(max_examples=150, deadline=None)
    def test_bits_equal_the_loop(self, seed, members, weights, length):
        rng = np.random.default_rng(seed)
        # Lengths 1-20 cover a member already at the target length and a
        # one-node member.
        series = [rng.normal(0, 50, (int(rng.integers(1, 21)), 2))
                  for _ in range(members)]
        w = {"random": rng.random(members),
             "with zeros": rng.random(members) * (rng.random(members) < .5),
             "uniform": None,
             "all zero": np.zeros(members)}[weights]
        want = looped_mean_og(series, w, length)
        got = weighted_mean_og(series, w, length)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_em_fit_is_unchanged(self, monkeypatch):
        ogs, _ = two_blob_ogs(n_per=20, rng=np.random.default_rng(4))
        config = EMConfig(n_clusters=3, seed=2)
        fitted = EMClustering(config).fit(ogs)
        monkeypatch.setattr(em_module, "weighted_mean_og", looped_mean_og)
        looped = EMClustering(config).fit(ogs)
        assert fitted.n_iterations == looped.n_iterations > 1
        assert len(fitted.centroids) == len(looped.centroids)
        for a, b in zip(fitted.centroids, looped.centroids):
            assert a.tobytes() == b.tobytes()


class TestBaseHelpers:
    def test_validate_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            validate_inputs([np.zeros((2, 1))], 0)

    def test_validate_rejects_too_few_points(self):
        with pytest.raises(ClusteringError):
            validate_inputs([np.zeros((2, 1))], 5)

    def test_kmeanspp_spreads_seeds(self):
        ogs, _ = two_blob_ogs()
        rng = np.random.default_rng(1)
        centroids = kmeanspp_init([np.asarray(o) for o in ogs], 2,
                                  MetricEGED(), rng)
        d = MetricEGED()
        assert d(centroids[0], centroids[1]) > 50.0


class TestEM:
    def test_two_blobs_perfect(self):
        ogs, labels = two_blob_ogs()
        result = EMClustering(EMConfig(n_clusters=2, seed=1)).fit(ogs)
        assert clustering_error_rate(labels, result.assignments) == 0.0

    def test_result_shapes(self):
        ogs, _ = two_blob_ogs()
        result = EMClustering(EMConfig(n_clusters=2)).fit(ogs)
        assert result.num_clusters == 2
        assert result.assignments.shape == (16,)
        assert result.responsibilities.shape == (16, 2)
        assert result.weights.shape == (2,)
        np.testing.assert_allclose(result.weights.sum(), 1.0)
        assert np.isfinite(result.log_likelihood)

    def test_responsibilities_rows_normalized(self):
        ogs, _ = two_blob_ogs()
        result = EMClustering(EMConfig(n_clusters=2)).fit(ogs)
        np.testing.assert_allclose(
            result.responsibilities.sum(axis=1), np.ones(16)
        )

    def test_k1_single_cluster(self):
        ogs, _ = two_blob_ogs(n_per=4)
        result = EMClustering(EMConfig(n_clusters=1)).fit(ogs)
        assert np.all(result.assignments == 0)
        assert np.isfinite(result.log_likelihood)

    def test_iteration_seconds_recorded(self):
        ogs, _ = two_blob_ogs(n_per=4)
        result = EMClustering(EMConfig(n_clusters=2)).fit(ogs)
        assert len(result.iteration_seconds) == result.n_iterations

    def test_predict_new_point(self):
        ogs, _ = two_blob_ogs()
        em = EMClustering(EMConfig(n_clusters=2, seed=1))
        result = em.fit(ogs)
        cluster_of_first = int(result.assignments[0])
        predicted = em.predict(result, ogs[1])
        assert predicted == cluster_of_first

    def test_higher_loglik_than_k1_when_structured(self):
        ogs, _ = two_blob_ogs()
        l1 = EMClustering(EMConfig(n_clusters=1)).fit(ogs).log_likelihood
        l2 = EMClustering(EMConfig(n_clusters=2)).fit(ogs).log_likelihood
        assert l2 > l1

    def test_invalid_config(self):
        with pytest.raises(InvalidParameterError):
            EMConfig(n_clusters=0)
        with pytest.raises(InvalidParameterError):
            EMConfig(max_iterations=0)
        with pytest.raises(InvalidParameterError):
            EMConfig(warm_start_iterations=-1)
        with pytest.raises(InvalidParameterError):
            EMConfig(sigma_band=0.0)
        with pytest.raises(InvalidParameterError):
            EMConfig(n_init=0)

    def test_restarts_never_hurt_fit_quality(self):
        ogs, _ = two_blob_ogs()
        single = EMClustering(EMConfig(n_clusters=2, seed=3)).fit(ogs)
        multi = EMClustering(EMConfig(n_clusters=2, seed=3, n_init=4)).fit(ogs)
        assert (multi.classification_log_likelihood
                >= single.classification_log_likelihood - 1e-9)

    def test_cluster_members(self):
        ogs, _ = two_blob_ogs()
        result = EMClustering(EMConfig(n_clusters=2)).fit(ogs)
        members = set()
        for c in range(2):
            members.update(result.cluster_members(c).tolist())
        assert members == set(range(16))


class TestKMeans:
    def test_two_blobs_perfect(self):
        ogs, labels = two_blob_ogs()
        result = KMeansClustering(KMeansConfig(n_clusters=2, seed=1)).fit(ogs)
        assert clustering_error_rate(labels, result.assignments) == 0.0

    def test_hard_responsibilities(self):
        ogs, _ = two_blob_ogs()
        result = KMeansClustering(KMeansConfig(n_clusters=2)).fit(ogs)
        assert set(np.unique(result.responsibilities)) <= {0.0, 1.0}

    def test_converges_to_fixed_point(self):
        ogs, _ = two_blob_ogs()
        result = KMeansClustering(KMeansConfig(n_clusters=2,
                                               max_iterations=30)).fit(ogs)
        assert result.converged

    def test_no_empty_clusters(self):
        ogs, _ = two_blob_ogs(n_per=3)
        result = KMeansClustering(KMeansConfig(n_clusters=4)).fit(ogs)
        assert len(np.unique(result.assignments)) == 4

    def test_custom_distance(self):
        ogs, labels = two_blob_ogs()
        result = KMeansClustering(
            KMeansConfig(n_clusters=2), distance=MetricEGED()
        ).fit(ogs)
        assert clustering_error_rate(labels, result.assignments) == 0.0

    def test_invalid_config(self):
        with pytest.raises(InvalidParameterError):
            KMeansConfig(n_clusters=0)
        with pytest.raises(InvalidParameterError):
            KMeansConfig(max_iterations=0)


class TestKHM:
    def test_two_blobs_perfect(self):
        ogs, labels = two_blob_ogs()
        result = KHMClustering(KHMConfig(n_clusters=2, seed=1)).fit(ogs)
        assert clustering_error_rate(labels, result.assignments) == 0.0

    def test_soft_memberships_normalized(self):
        ogs, _ = two_blob_ogs()
        result = KHMClustering(KHMConfig(n_clusters=2)).fit(ogs)
        np.testing.assert_allclose(
            result.responsibilities.sum(axis=1), np.ones(16), rtol=1e-6
        )

    def test_p_must_be_at_least_two(self):
        with pytest.raises(InvalidParameterError):
            KHMConfig(p=1.0)

    def test_performance_decreases(self):
        ogs, _ = two_blob_ogs()
        khm = KHMClustering(KHMConfig(n_clusters=2, max_iterations=10))
        result = khm.fit(ogs)
        assert result.n_iterations >= 1
        assert result.converged or result.n_iterations == 10
