"""Tests for the fluent query layer."""

import math

import numpy as np
import pytest

from repro.errors import IndexStateError, InvalidParameterError
from repro.graph.object_graph import ObjectGraph
from repro.query import Query
from repro.storage.database import VideoDatabase


@pytest.fixture()
def db():
    database = VideoDatabase()
    ogs = []
    # Eastbound fast, westbound slow, northbound mid — distinct lanes.
    ogs.append(ObjectGraph.from_values(
        np.stack([np.linspace(0, 90, 10), np.full(10, 20.0)], axis=1),
        label=0,
    ))
    ogs.append(ObjectGraph.from_values(
        np.stack([np.linspace(90, 85, 10), np.full(10, 60.0)], axis=1),
        label=1,
    ))
    ogs.append(ObjectGraph.from_values(
        np.stack([np.full(20, 45.0), np.linspace(0, 80, 20)], axis=1),
        frames=np.arange(100, 120),
        label=2,
    ))
    database.ingest_object_graphs(ogs)
    return database, ogs


class TestPredicates:
    def test_heading(self, db):
        database, ogs = db
        hits = Query(database).heading(0.0).run()
        assert [r.og.label for r in hits] == [0]

    def test_velocity_band(self, db):
        database, ogs = db
        slow = Query(database).velocity(maximum=1.0).run()
        assert [r.og.label for r in slow] == [1]
        fast = Query(database).velocity(minimum=5.0).run()
        assert [r.og.label for r in fast] == [0]

    def test_duration(self, db):
        database, _ = db
        long_tracks = Query(database).duration(minimum=15).run()
        assert [r.og.label for r in long_tracks] == [2]

    def test_between_frames(self, db):
        database, _ = db
        late = Query(database).between_frames(100, 200).run()
        assert [r.og.label for r in late] == [2]
        early = Query(database).between_frames(0, 50).run()
        assert {r.og.label for r in early} == {0, 1}

    def test_chained_predicates_intersect(self, db):
        database, _ = db
        hits = (Query(database)
                .between_frames(0, 50)
                .velocity(minimum=5.0)
                .run())
        assert [r.og.label for r in hits] == [0]

    def test_custom_where(self, db):
        database, _ = db
        hits = Query(database).where(lambda og: og.label == 1).run()
        assert len(hits) == 1

    def test_count(self, db):
        database, _ = db
        assert Query(database).count() == 3
        assert Query(database).velocity(minimum=5.0).count() == 1


class TestRanking:
    def test_similar_to_orders_by_distance(self, db):
        database, ogs = db
        example = ogs[0].values + 1.0
        hits = Query(database).similar_to(example).run()
        assert hits[0].og.label == 0
        dists = [r.distance for r in hits]
        assert dists == sorted(dists)

    def test_limit(self, db):
        database, ogs = db
        hits = Query(database).similar_to(ogs[0]).limit(2).run()
        assert len(hits) == 2

    def test_unranked_results_have_no_distance(self, db):
        database, _ = db
        hits = Query(database).run()
        assert all(r.distance is None for r in hits)

    def test_predicates_apply_before_ranking(self, db):
        database, ogs = db
        hits = (Query(database)
                .similar_to(ogs[0])
                .heading(math.pi)  # westbound only
                .run())
        assert [r.og.label for r in hits] == [1]

    def test_custom_distance(self, db):
        from repro.distance.dtw import DTW

        database, ogs = db
        hits = Query(database).similar_to(ogs[0], distance=DTW()).run()
        assert hits[0].og.label == 0


class TestValidation:
    def test_empty_database_yields_no_results(self):
        # A database with no index yet is queryable — it just has no rows.
        assert Query(VideoDatabase()).run() == []
        assert Query(VideoDatabase()).count() == 0

    def test_unqueryable_source_rejected(self):
        with pytest.raises(IndexStateError):
            Query(object())

    def test_bare_index_accepted(self, db):
        database, ogs = db
        hits = Query(database.index).run()
        assert len(hits) == 3

    def test_limit_zero_yields_empty(self, db):
        database, ogs = db
        assert Query(database).limit(0).run() == []
        assert Query(database).similar_to(ogs[0]).limit(0).run() == []

    def test_negative_limit_rejected(self, db):
        database, _ = db
        with pytest.raises(InvalidParameterError):
            Query(database).limit(-1)

    def test_velocity_needs_bound(self, db):
        database, _ = db
        with pytest.raises(InvalidParameterError):
            Query(database).velocity()

    def test_duration_needs_bound(self, db):
        database, _ = db
        with pytest.raises(InvalidParameterError):
            Query(database).duration()

    def test_empty_interval_rejected(self, db):
        database, _ = db
        with pytest.raises(InvalidParameterError):
            Query(database).between_frames(10, 5)
