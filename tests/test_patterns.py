"""Tests for the 48 motion patterns (Section 6.1 workload)."""

import numpy as np
import pytest

from repro.datasets.patterns import (
    ALL_PATTERNS,
    CANVAS,
    pattern_by_id,
)
from repro.errors import InvalidParameterError


class TestPatternInventory:
    def test_exactly_48_patterns(self):
        assert len(ALL_PATTERNS) == 48

    def test_category_counts_match_paper(self):
        # 12 vertical, 12 horizontal, 8 diagonal, 16 U-turn.
        counts = {}
        for p in ALL_PATTERNS:
            counts[p.category] = counts.get(p.category, 0) + 1
        assert counts == {
            "vertical": 12, "horizontal": 12, "diagonal": 8, "uturn": 16,
        }

    def test_ids_are_contiguous(self):
        assert sorted(p.pattern_id for p in ALL_PATTERNS) == list(range(48))

    def test_every_pattern_has_two_directions(self):
        # Each base shape appears as -fwd and -rev.
        names = {p.name for p in ALL_PATTERNS}
        for p in ALL_PATTERNS:
            base, _, suffix = p.name.rpartition("-")
            partner = f"{base}-rev" if suffix == "fwd" else f"{base}-fwd"
            assert partner in names

    def test_reverse_pattern_reverses_path(self):
        fwd = pattern_by_id(0)
        rev = pattern_by_id(1)
        path_f = fwd.generate(10)
        path_r = rev.generate(10)
        np.testing.assert_allclose(path_f, path_r[::-1], atol=1e-9)

    def test_multiple_object_sizes(self):
        sizes = {p.object_size for p in ALL_PATTERNS}
        assert len(sizes) >= 3

    def test_lookup_by_id(self):
        assert pattern_by_id(5).pattern_id == 5

    def test_lookup_invalid_id(self):
        with pytest.raises(InvalidParameterError):
            pattern_by_id(48)
        with pytest.raises(InvalidParameterError):
            pattern_by_id(-1)


class TestPatternGeneration:
    def test_requested_length(self):
        for length in (1, 2, 17, 64):
            assert pattern_by_id(0).generate(length).shape == (length, 2)

    def test_zero_length_rejected(self):
        with pytest.raises(InvalidParameterError):
            pattern_by_id(0).generate(0)

    def test_within_canvas(self):
        for p in ALL_PATTERNS:
            path = p.generate(40)
            assert np.all(path >= 0.0)
            assert np.all(path <= CANVAS)

    def test_endpoints_are_waypoints(self):
        for p in ALL_PATTERNS:
            path = p.generate(25)
            np.testing.assert_allclose(path[0], p.waypoints[0])
            np.testing.assert_allclose(path[-1], p.waypoints[-1])

    def test_constant_speed_sampling(self):
        p = pattern_by_id(0)  # straight vertical line
        path = p.generate(20)
        steps = np.linalg.norm(np.diff(path, axis=0), axis=1)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-6)

    def test_uturn_returns_near_start(self):
        uturns = [p for p in ALL_PATTERNS if p.category == "uturn"]
        for p in uturns:
            path = p.generate(30)
            out = np.linalg.norm(path[len(path) // 2] - path[0])
            back = np.linalg.norm(path[-1] - path[0])
            assert back < out  # comes back toward where it entered

    def test_sample_length_in_range(self, rng):
        p = pattern_by_id(3)
        for _ in range(20):
            length = p.sample_length(rng)
            assert p.length_range[0] <= length <= p.length_range[1]

    def test_distinct_patterns_have_distinct_paths(self):
        paths = [p.generate(16).tobytes() for p in ALL_PATTERNS]
        assert len(set(paths)) == 48
