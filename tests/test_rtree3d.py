"""Tests for the 3DR-tree baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexStateError, InvalidParameterError
from repro.graph.object_graph import ObjectGraph
from repro.rtree3d.mbr import MBR3
from repro.rtree3d.tree import RTree3D, RTree3DConfig


def make_og(x0, y0, x1, y1, start_frame=0, length=5):
    values = np.stack([
        np.linspace(x0, x1, length), np.linspace(y0, y1, length)
    ], axis=1)
    return ObjectGraph.from_values(values)


class TestMBR3:
    def test_of_trajectory(self):
        og = make_og(0, 5, 10, 15, length=4)
        box = MBR3.of_trajectory(og)
        assert box.mins == (0.0, 5.0, 0.0)
        assert box.maxs == (10.0, 15.0, 3.0)

    def test_invalid_bounds(self):
        with pytest.raises(InvalidParameterError):
            MBR3((1.0, 0.0, 0.0), (0.0, 1.0, 1.0))

    def test_volume_and_margin(self):
        box = MBR3((0.0, 0.0, 0.0), (2.0, 3.0, 4.0))
        assert box.volume() == 24.0

    def test_union(self):
        a = MBR3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        b = MBR3((2.0, 2.0, 2.0), (3.0, 3.0, 3.0))
        u = a.union(b)
        assert u.mins == (0.0, 0.0, 0.0)
        assert u.maxs == (3.0, 3.0, 3.0)

    def test_enlargement(self):
        a = MBR3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        b = MBR3((0.0, 0.0, 0.0), (2.0, 1.0, 1.0))
        assert a.enlargement(b) == pytest.approx(1.0)

    def test_intersects(self):
        a = MBR3((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
        b = MBR3((1.0, 1.0, 1.0), (3.0, 3.0, 3.0))
        c = MBR3((5.0, 5.0, 5.0), (6.0, 6.0, 6.0))
        assert a.intersects(b)
        assert not a.intersects(c)

    def test_touching_counts_as_intersecting(self):
        a = MBR3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        b = MBR3((1.0, 0.0, 0.0), (2.0, 1.0, 1.0))
        assert a.intersects(b)

    def test_contains(self):
        outer = MBR3((0.0, 0.0, 0.0), (10.0, 10.0, 10.0))
        inner = MBR3((1.0, 1.0, 1.0), (2.0, 2.0, 2.0))
        assert outer.contains(inner)
        assert not inner.contains(outer)

    def test_min_distance(self):
        a = MBR3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        b = MBR3((4.0, 5.0, 1.0), (6.0, 6.0, 2.0))
        assert a.min_distance(b) == pytest.approx(5.0)  # 3-4-5 in (x, y)
        assert a.min_distance(a) == 0.0


class TestRTree3D:
    def build(self, n=40, capacity=4, seed=0):
        rng = np.random.default_rng(seed)
        tree = RTree3D(RTree3DConfig(node_capacity=capacity))
        ogs = []
        for i in range(n):
            x = float(rng.uniform(0, 100))
            y = float(rng.uniform(0, 100))
            og = make_og(x, y, x + 10, y + 5, length=int(rng.integers(3, 8)))
            ogs.append(og)
            tree.insert(og, og.og_id)
        return tree, ogs

    def test_size_and_height(self):
        tree, _ = self.build()
        assert len(tree) == 40
        assert tree.height() >= 2

    def test_range_query_matches_brute_force(self):
        tree, ogs = self.build()
        box = MBR3((20.0, 20.0, 0.0), (60.0, 60.0, 10.0))
        hits = set(tree.range_query(box))
        expected = {
            og.og_id for og in ogs
            if MBR3.of_trajectory(og).intersects(box)
        }
        assert hits == expected

    def test_range_query_empty_region(self):
        tree, _ = self.build()
        box = MBR3((1000.0, 1000.0, 0.0), (1001.0, 1001.0, 1.0))
        assert tree.range_query(box) == []

    def test_knn_self_first(self):
        tree, ogs = self.build()
        hits = tree.knn(ogs[0], 1)
        assert hits[0][0] == 0.0

    def test_knn_matches_brute_force_distances(self):
        tree, ogs = self.build()
        query = ogs[5]
        hits = tree.knn(query, 8)
        qbox = MBR3.of_trajectory(query)
        brute = sorted(
            qbox.min_distance(MBR3.of_trajectory(og)) for og in ogs
        )[:8]
        assert [h[0] for h in hits] == pytest.approx(brute)

    def test_knn_invalid_k(self):
        tree, ogs = self.build(n=3)
        with pytest.raises(InvalidParameterError):
            tree.knn(ogs[0], 0)

    def test_empty_search_raises(self):
        with pytest.raises(IndexStateError):
            RTree3D().knn(make_og(0, 0, 1, 1), 1)

    def test_invalid_capacity(self):
        with pytest.raises(InvalidParameterError):
            RTree3DConfig(node_capacity=2)

    @given(seed=st.integers(0, 5000), k=st.integers(1, 6))
    @settings(max_examples=10, deadline=None)
    def test_property_knn_distances_sorted_and_correct(self, seed, k):
        tree, ogs = self.build(n=15, capacity=4, seed=seed)
        hits = tree.knn(ogs[0], k)
        dists = [h[0] for h in hits]
        assert dists == sorted(dists)
        qbox = MBR3.of_trajectory(ogs[0])
        brute = sorted(
            qbox.min_distance(MBR3.of_trajectory(og)) for og in ogs
        )[:k]
        assert dists == pytest.approx(brute)
