"""Tests for the DTW / LCS / ERP / Lp baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distance.base import check_metric_axioms
from repro.distance.dtw import DTW, dtw
from repro.distance.erp import ERP, erp
from repro.distance.lcs import LCSDistance, lcs_distance, lcs_length
from repro.distance.lp import LpDistance, lp_distance
from repro.errors import InvalidParameterError

series_strategy = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    min_size=1, max_size=10,
).map(lambda xs: np.asarray(xs, dtype=np.float64).reshape(-1, 1))


class TestDTW:
    def test_identical_series_zero(self, rng):
        a = rng.normal(size=(10, 2))
        assert dtw(a, a) == pytest.approx(0.0)

    def test_known_value(self):
        a = np.array([[0.0], [1.0], [2.0]])
        b = np.array([[0.0], [2.0]])
        # Path: (0,0)->(1,1)->(2,1): 0 + 1 + 0 = 1.
        assert dtw(a, b) == pytest.approx(1.0)

    def test_symmetric(self, rng):
        a = rng.normal(size=(8, 2))
        b = rng.normal(size=(11, 2))
        assert dtw(a, b) == pytest.approx(dtw(b, a))

    def test_window_constrains(self, rng):
        a = rng.normal(size=(12, 1))
        b = rng.normal(size=(12, 1))
        assert dtw(a, b, window=1) >= dtw(a, b) - 1e-12

    def test_window_zero_is_lockstep(self):
        a = np.array([[0.0], [1.0], [2.0]])
        b = np.array([[1.0], [1.0], [1.0]])
        assert dtw(a, b, window=0) == pytest.approx(2.0)

    def test_negative_window_rejected(self):
        with pytest.raises(InvalidParameterError):
            dtw(np.ones((2, 1)), np.ones((2, 1)), window=-1)
        with pytest.raises(InvalidParameterError):
            DTW(window=-2)

    def test_time_shift_tolerance(self):
        # DTW absorbs a time shift that lock-step L2 cannot.
        a = np.array([[0.0], [0.0], [1.0], [2.0], [3.0]])
        b = np.array([[0.0], [1.0], [2.0], [3.0], [3.0]])
        assert dtw(a, b) < lp_distance(a, b, 2.0)

    def test_violates_triangle_inequality(self):
        # Classic counterexample (repeated elements are free under DTW):
        # d(a, c) = 3 but d(a, b) + d(b, c) = 1 + 0.
        a = np.array([[0.0]])
        b = np.array([[1.0]])
        c = np.array([[1.0], [1.0], [1.0]])
        assert dtw(a, c) > dtw(a, b) + dtw(b, c)

    @given(series_strategy, series_strategy)
    @settings(max_examples=50, deadline=None)
    def test_property_symmetry_nonneg(self, a, b):
        d1, d2 = dtw(a, b), dtw(b, a)
        assert d1 >= 0
        assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-9)


class TestLCS:
    def test_identical_full_match(self, rng):
        a = rng.normal(size=(8, 2))
        assert lcs_length(a, a, epsilon=0.0) == 8
        assert lcs_distance(a, a, epsilon=0.0) == pytest.approx(0.0)

    def test_disjoint_no_match(self):
        a = np.zeros((4, 1))
        b = np.full((4, 1), 100.0)
        assert lcs_length(a, b, epsilon=1.0) == 0
        assert lcs_distance(a, b, epsilon=1.0) == pytest.approx(1.0)

    def test_partial_subsequence(self):
        a = np.array([[1.0], [5.0], [2.0], [3.0]])
        b = np.array([[1.0], [2.0], [3.0]])
        assert lcs_length(a, b, epsilon=0.1) == 3

    def test_epsilon_widens_matching(self):
        a = np.array([[0.0], [10.0]])
        b = np.array([[0.4], [10.4]])
        assert lcs_length(a, b, epsilon=0.1) == 0
        assert lcs_length(a, b, epsilon=0.5) == 2

    def test_delta_restricts_displacement(self):
        a = np.array([[1.0], [0.0], [0.0], [0.0]])
        b = np.array([[0.0], [0.0], [0.0], [1.0]])
        with_delta = lcs_length(a, b, epsilon=0.1, delta=1)
        without = lcs_length(a, b, epsilon=0.1)
        assert with_delta <= without

    def test_distance_in_unit_interval(self, rng):
        a = rng.normal(size=(6, 2))
        b = rng.normal(size=(9, 2))
        d = lcs_distance(a, b)
        assert 0.0 <= d <= 1.0

    def test_invalid_parameters(self):
        a = np.ones((2, 1))
        with pytest.raises(InvalidParameterError):
            lcs_length(a, a, epsilon=-1.0)
        with pytest.raises(InvalidParameterError):
            lcs_length(a, a, delta=-1)
        with pytest.raises(InvalidParameterError):
            LCSDistance(epsilon=-0.5)

    @given(series_strategy, series_strategy)
    @settings(max_examples=50, deadline=None)
    def test_property_bounded_and_symmetric(self, a, b):
        d = lcs_distance(a, b, epsilon=1.0)
        assert 0.0 <= d <= 1.0
        assert d == pytest.approx(lcs_distance(b, a, epsilon=1.0))


class TestERP:
    def test_identical_zero(self, rng):
        a = rng.normal(size=(9, 2))
        assert erp(a, a) == pytest.approx(0.0)

    def test_known_value_scalar(self):
        # From the ERP paper's intuition: gaps charged against g = 0.
        a = np.array([[1.0], [2.0]])
        b = np.array([[1.0], [2.0], [3.0]])
        assert erp(a, b, gap=0.0) == pytest.approx(3.0)

    def test_metric_axioms(self, rng):
        points = [rng.normal(size=(int(rng.integers(1, 8)), 2)) for _ in range(6)]
        assert check_metric_axioms(ERP(), points) == []

    def test_vector_gap(self):
        a = np.array([[1.0, 1.0]])
        b = np.array([[1.0, 1.0], [4.0, 5.0]])
        assert erp(a, b, gap=np.array([0.0, 0.0])) == pytest.approx(np.hypot(4, 5))

    def test_gap_constant_affects_value(self, rng):
        a = rng.normal(size=(5, 1))
        b = rng.normal(size=(8, 1))
        assert erp(a, b, gap=0.0) != pytest.approx(erp(a, b, gap=100.0))

    @given(series_strategy, series_strategy, series_strategy)
    @settings(max_examples=40, deadline=None)
    def test_property_triangle(self, a, b, c):
        assert erp(a, c) <= erp(a, b) + erp(b, c) + 1e-7

    def test_band_upper_bounds_exact(self, rng):
        for _ in range(10):
            a = rng.normal(size=(int(rng.integers(4, 20)), 2))
            b = rng.normal(size=(int(rng.integers(4, 20)), 2))
            exact = erp(a, b)
            assert erp(a, b, band=2) >= exact - 1e-9
            assert erp(a, b, band=100) == pytest.approx(exact)

    def test_band_reflexive(self, rng):
        a = rng.normal(size=(12, 2))
        assert erp(a, a, band=1) == pytest.approx(0.0)

    def test_banded_erp_not_flagged_metric(self):
        assert not ERP(band=3).is_metric
        assert ERP().is_metric

    def test_negative_band_rejected(self):
        with pytest.raises(ValueError):
            erp(np.ones((2, 1)), np.ones((2, 1)), band=-1)


class TestLp:
    def test_euclidean_equal_length(self):
        a = np.zeros((2, 2))
        b = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert lp_distance(a, b, 2.0) == pytest.approx(5.0)

    def test_chebyshev(self):
        a = np.zeros((3, 1))
        b = np.array([[1.0], [7.0], [2.0]])
        assert lp_distance(a, b, np.inf) == pytest.approx(7.0)

    def test_manhattan(self):
        a = np.zeros((2, 1))
        b = np.array([[1.0], [2.0]])
        assert lp_distance(a, b, 1.0) == pytest.approx(3.0)

    def test_unequal_lengths_resampled(self, rng):
        a = rng.normal(size=(10, 2))
        b = rng.normal(size=(4, 2))
        assert np.isfinite(lp_distance(a, b))

    def test_invalid_p(self):
        with pytest.raises(InvalidParameterError):
            lp_distance(np.ones((2, 1)), np.ones((2, 1)), p=0.0)
        with pytest.raises(InvalidParameterError):
            LpDistance(p=-1.0)

    def test_name(self):
        assert LpDistance(2.0).name == "L2"
