"""Tests for EGED_M lower bounds, index deletion and motion queries."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import STRGIndex, STRGIndexConfig
from repro.distance.bounds import eged_metric_lower_bound, gap_mass
from repro.distance.eged import MetricEGED
from repro.errors import IndexStateError
from repro.graph.object_graph import ObjectGraph
from repro.storage.database import VideoDatabase

series_strategy = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    min_size=1, max_size=10,
).map(lambda xs: np.asarray(xs, dtype=np.float64).reshape(-1, 1))


def blob_ogs(k=3, n_per=6, seed=0):
    rng = np.random.default_rng(seed)
    ogs = []
    for label in range(k):
        for _ in range(n_per):
            length = int(rng.integers(5, 10))
            base = np.linspace(0, 10, length)[:, None]
            values = np.hstack([base + label * 150.0, base])
            ogs.append(ObjectGraph.from_values(
                values + rng.normal(0, 0.5, values.shape), label=label
            ))
    return ogs


class TestLowerBound:
    def test_gap_mass_is_distance_to_empty_analogue(self):
        x = np.array([[3.0, 4.0], [0.0, 5.0]])
        assert gap_mass(x) == pytest.approx(10.0)

    def test_gap_mass_with_reference(self):
        x = np.array([[1.0]])
        assert gap_mass(x, gap=4.0) == pytest.approx(3.0)

    def test_bound_is_valid(self, rng):
        d = MetricEGED()
        for _ in range(20):
            a = rng.normal(size=(int(rng.integers(1, 12)), 2)) * 10
            b = rng.normal(size=(int(rng.integers(1, 12)), 2)) * 10
            assert eged_metric_lower_bound(a, b) <= d(a, b) + 1e-9

    @given(series_strategy, series_strategy)
    @settings(max_examples=60, deadline=None)
    def test_property_bound_never_exceeds_distance(self, a, b):
        assert eged_metric_lower_bound(a, b) <= MetricEGED()(a, b) + 1e-7

    def test_bound_with_nonzero_gap(self, rng):
        d = MetricEGED(gap=5.0)
        a = rng.normal(size=(6, 1))
        b = rng.normal(size=(9, 1))
        assert eged_metric_lower_bound(a, b, gap=5.0) <= d(a, b) + 1e-9


class TestIndexDeletion:
    def test_delete_removes_og(self):
        ogs = blob_ogs()
        index = STRGIndex(STRGIndexConfig(n_clusters=3))
        index.build(ogs)
        assert index.delete(ogs[0].og_id)
        assert len(index) == len(ogs) - 1
        hits = index.knn(ogs[0], len(ogs) - 1)
        assert ogs[0].og_id not in {og.og_id for _, og, _ in hits}

    def test_delete_missing_returns_false(self):
        ogs = blob_ogs(k=1, n_per=3)
        index = STRGIndex(STRGIndexConfig(n_clusters=1))
        index.build(ogs)
        assert not index.delete(999_999)

    def test_delete_last_member_drops_cluster(self):
        ogs = blob_ogs(k=2, n_per=1)
        index = STRGIndex(STRGIndexConfig(n_clusters=2))
        index.build(ogs)
        before = index.num_clusters()
        index.delete(ogs[0].og_id)
        assert index.num_clusters() == before - 1

    def test_delete_everything_empties_index(self):
        ogs = blob_ogs(k=1, n_per=2)
        index = STRGIndex(STRGIndexConfig(n_clusters=1))
        index.build(ogs)
        for og in ogs:
            assert index.delete(og.og_id)
        assert len(index) == 0
        with pytest.raises(IndexStateError):
            index.knn(ogs[0], 1)

    def test_search_exact_after_deletions(self):
        ogs = blob_ogs(k=3, n_per=6)
        index = STRGIndex(STRGIndexConfig(n_clusters=3))
        index.build(ogs)
        for og in ogs[::4]:
            index.delete(og.og_id)
        remaining = [og for i, og in enumerate(ogs) if i % 4 != 0]
        d = MetricEGED()
        hits = index.knn(remaining[0], 4)
        brute = sorted(d(remaining[0], og) for og in remaining)[:4]
        assert [h[0] for h in hits] == pytest.approx(brute)


class TestMotionQueries:
    def make_db(self):
        db = VideoDatabase()
        rightward = ObjectGraph.from_values(
            np.stack([np.linspace(0, 90, 10), np.full(10, 20.0)], axis=1)
        )
        leftward = ObjectGraph.from_values(
            np.stack([np.linspace(90, 0, 10), np.full(10, 60.0)], axis=1)
        )
        slow = ObjectGraph.from_values(
            np.stack([np.linspace(0, 5, 10), np.full(10, 90.0)], axis=1)
        )
        db.ingest_object_graphs([rightward, leftward, slow])
        return db, rightward, leftward, slow

    def test_direction_filter(self):
        db, rightward, leftward, _ = self.make_db()
        east = db.query_by_motion(direction=0.0)
        assert rightward in east
        assert leftward not in east

    def test_velocity_band(self):
        db, rightward, leftward, slow = self.make_db()
        fast = db.query_by_motion(min_velocity=2.0)
        assert slow not in fast
        assert rightward in fast
        crawl = db.query_by_motion(max_velocity=1.0)
        assert crawl == [slow]

    def test_region_filter(self):
        db, rightward, leftward, slow = self.make_db()
        top = db.query_by_motion(region=(0.0, 0.0, 100.0, 30.0))
        assert top == [rightward]

    def test_min_duration(self):
        db, *_ = self.make_db()
        assert db.query_by_motion(min_duration=11) == []
        assert len(db.query_by_motion(min_duration=10)) == 3

    def test_database_delete(self):
        db, rightward, *_ = self.make_db()
        assert db.delete(rightward.og_id)
        assert rightward not in db.query_by_motion()

    def test_empty_database_rejected(self):
        with pytest.raises(IndexStateError):
            VideoDatabase().query_by_motion()


class TestExpiry:
    def make_db(self):
        db = VideoDatabase()
        ogs = []
        for start in (0, 100, 200):
            values = np.stack([
                np.linspace(0, 50, 10), np.full(10, 20.0)
            ], axis=1)
            ogs.append(ObjectGraph.from_values(
                values, frames=np.arange(start, start + 10)
            ))
        db.ingest_object_graphs(ogs)
        return db, ogs

    def test_expire_removes_old_tracks(self):
        db, ogs = self.make_db()
        removed = db.expire_before(150)
        assert removed == 2
        remaining = {og.og_id for og in db.index.object_graphs()}
        assert remaining == {ogs[2].og_id}

    def test_expire_nothing(self):
        db, _ = self.make_db()
        assert db.expire_before(0) == 0
        assert db.stats()["ogs"] == 3

    def test_expire_everything(self):
        db, _ = self.make_db()
        assert db.expire_before(10_000) == 3
        assert len(db.index) == 0

    def test_search_correct_after_expiry(self):
        db, ogs = self.make_db()
        db.expire_before(150)
        hits = db.index.knn(ogs[2], 1)
        assert hits[0][1].og_id == ogs[2].og_id
