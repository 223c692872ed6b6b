"""Tests for the approximate search tier (repro.search).

Covers the sketch index itself (reference selection, reference columns,
candidate generation), the ``search_budget=`` plumbing through every
entry point (STRGIndex, ShardedIndex, VideoDatabase, Query,
QueryService), the k=0 / k>corpus contract, incremental sketch
maintenance under writes, snapshot persistence, and the pinned
recall/cost gate from ``docs/SEARCH.md``.

Each corpus is built once per module (or class): a test that reads it
shares the build, and one that writes — or builds a sketch tier on it —
gets its own ``clone()``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.observability as obs
from repro.core.index import STRGIndex, STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.base import CountingDistance
from repro.distance.batch import one_vs_many
from repro.distance.bounds import pivot_lower_bounds
from repro.distance.eged import MetricEGED
from repro.errors import IndexStateError, InvalidParameterError
from repro.graph.object_graph import ObjectGraph
from repro.observability import MetricsRegistry, Tracer
from repro.query import Query
from repro.search import SearchRequest, approx_knn
from repro.search import sketch as sketch_mod
from repro.serving import (
    LiveIndex,
    QueryService,
    ServiceConfig,
    ShardedIndex,
    ShardedIndexConfig,
)
from repro.storage.database import VideoDatabase
from repro.storage.serialize import index_to_arrays, read_references
from repro.storage.store import open_store
from tests import store_layout


def corpus(n=120, seed=0):
    return generate_synthetic_ogs(SyntheticConfig(num_ogs=n, seed=seed))


def ids(hits):
    return [og.og_id for _, og, _ in hits]


def built_index(ogs, metric=None):
    index = STRGIndex(STRGIndexConfig(), metric_distance=metric)
    index.build(ogs)
    return index


@pytest.fixture(scope="module")
def small_built():
    ogs = corpus(120, seed=7)
    return built_index(ogs), ogs


@pytest.fixture
def small(small_built):
    """The module's ``small`` corpus index, as a clone of its own."""
    index, ogs = small_built
    return index.clone(), ogs


class TestSketchConfig:
    """The sketch records no settings.  A sketch meta written through
    13.x records the settings of its day under ``config``, and one
    written through 17.x a signature bounding box; any stored reference
    set still gives valid bounds, so both are ignored — any recorded
    value, the ones the retired ``SketchConfig`` refused among them."""

    RECORDED_13X = {"num_pivots": 8, "sig_length": 16, "grid": 4,
                    "heading_sectors": 8, "vote_share": 0.25,
                    "pivot_sample_size": 256, "seed": 0, "block_rows": 4096}

    @staticmethod
    def meta(config):
        return json.dumps({"config": config, "bbox_lo": [0.0, 0.0],
                           "bbox_hi": [1.0, 1.0]})

    @staticmethod
    def read(meta):
        """A one-reference, two-row payload read under ``meta``."""
        columns = {"sketch_pivot_values": np.ones((3, 2)),
                   "sketch_pivot_offsets": np.array([0, 3]),
                   "sketch_pivot_dists": np.array([[1.0], [2.0]])}
        return read_references(columns, meta, 2)

    def test_defaults_valid(self):
        # Every 13.x store recorded the defaults of its day.
        pivots, dists = self.read(self.meta(self.RECORDED_13X))
        assert len(pivots) == 1 and dists.tolist() == [[1.0], [2.0]]
        assert dists.dtype == np.float32
        with pytest.raises(ValueError):
            self.read("{")

    @pytest.mark.parametrize("kwargs", [
        {"num_pivots": 0},
        {"sig_length": 0},
        {"grid": 0},
        {"heading_sectors": 0},
        {"vote_share": -0.1},
        {"vote_share": 1.5},
        {"pivot_sample_size": 0},
        {"block_rows": 0},
    ])
    def test_invalid_parameters(self, kwargs):
        pivots, dists = self.read(self.meta({**self.RECORDED_13X, **kwargs}))
        assert len(pivots) == 1 and dists.shape == (2, 1)


class TestPivotLowerBounds:
    """Triangle-inequality soundness: |d(q,p) - d(s,p)| <= d(q,s)."""

    def test_zero_pivots_gives_zeros(self):
        lbs = pivot_lower_bounds(np.zeros(0), np.zeros((5, 0)))
        assert lbs.shape == (5,)
        assert np.all(lbs == 0.0)

    @pytest.mark.parametrize("gap", [0.0, 5.0])
    def test_bound_never_exceeds_true_distance(self, gap, rng):
        d = MetricEGED(gap=gap)
        series = [rng.normal(size=(int(rng.integers(2, 12)), 2)) * 10
                  for _ in range(30)]
        pivots = series[:4]
        rest = series[4:]
        corpus_pd = np.stack(
            [one_vs_many(d, p, rest) for p in pivots], axis=1)
        query = rng.normal(size=(8, 2)) * 10
        query_pd = np.array([d(query, p) for p in pivots])
        lbs = pivot_lower_bounds(query_pd, corpus_pd)
        true = one_vs_many(d, query, rest)
        assert np.all(lbs <= true + 1e-6)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_no_true_neighbor_prunable(self, seed):
        """No true top-k neighbor ever has a lower bound above the true
        kth distance — the invariant rerank pruning relies on."""
        rng = np.random.default_rng(seed)
        d = MetricEGED()
        series = [rng.normal(size=(int(rng.integers(2, 9)), 2)) * 20
                  for _ in range(20)]
        pivots = series[:3]
        rest = series[3:]
        corpus_pd = np.stack(
            [one_vs_many(d, p, rest) for p in pivots], axis=1)
        query = rng.normal(size=(6, 2)) * 20
        query_pd = np.array([d(query, p) for p in pivots])
        lbs = pivot_lower_bounds(query_pd, corpus_pd)
        true = one_vs_many(d, query, rest)
        k = 5
        kth = np.sort(true)[k - 1]
        top = np.argsort(true)[:k]
        # A top-k member pruned by "lb > kth" would be a soundness bug.
        assert np.all(lbs[top] <= kth + 1e-6)


class TestSketchIndex:
    def test_build_shapes(self, small):
        index, ogs = small
        sketch = index.sketch_tier()
        assert len(sketch) == len(ogs)
        assert sketch.refs.shape == (len(ogs), len(sketch.pivots))
        assert sketch.refs.dtype == np.float32
        # Every centroid, then the greedy's top-up.
        centroids = [record.centroid for record in index.cluster_records()]
        assert len(sketch.pivots) == max(sketch_mod.MIN_REFERENCES,
                                         len(centroids))
        assert all(ref is centroid
                   for ref, centroid in zip(sketch.pivots, centroids))

    def test_sketch_tier_cached(self, small):
        index, _ = small
        assert index.sketch_tier() is index.sketch_tier()

    def test_signature_deterministic(self, small):
        """Two tiers of one index store the same references and rows."""
        index, _ = small
        first, second = index.clone().sketch_tier(), index.sketch_tier()
        assert first is not second
        assert all(np.array_equal(a, b)
                   for a, b in zip(first.pivots, second.pivots, strict=True))
        assert first.refs.tobytes() == second.refs.tobytes()
        assert np.all(first.refs >= 0)

    def test_meta_round_trip(self, small):
        """A snapshot stores the marker ``"{}"`` beside the columns, and
        reads back the references and rows the records carry."""
        index, _ = small
        sketch = index.sketch_tier()
        arrays, meta = index_to_arrays(index)
        assert json.loads(meta["sketch_meta"]) == {}
        pivots, dists = read_references(arrays, meta["sketch_meta"],
                                        len(index))
        assert all(np.array_equal(a, b)
                   for a, b in zip(pivots, sketch.pivots, strict=True))
        assert dists.tobytes() == np.ascontiguousarray(sketch.refs).tobytes()

    def test_remove_keeps_alignment(self, small):
        index, ogs = small
        before = len(index.sketch_tier())
        victim = index.record_of(ogs[5].og_id).row
        assert index.delete_row(victim) is not None
        sketch = index.sketch_tier()
        assert len(sketch) == before - 1
        assert victim not in set(sketch.row_ids.tolist())
        assert sketch.refs.shape[0] == len(sketch)


class TestApproxKnn:
    def test_default_path_unchanged(self, small):
        """Without search_budget the exact path runs and no sketch is
        ever built — the default is bit-identical to before."""
        _, ogs = small
        # A first build under MIN_FIT_OGS holds no set.
        index = built_index(ogs[:sketch_mod.MIN_FIT_OGS - 1])
        hits = index.knn(ogs[0], 10)
        assert index._references is None
        assert hits[0][1].og_id == ogs[0].og_id

    def test_large_budget_degenerates_to_exact(self, small):
        index, ogs = small
        exact = index.knn(ogs[3], 10)
        budgeted = index.knn(ogs[3], 10, search_budget=10 * len(ogs))
        assert [(d, og.og_id) for d, og, _ in exact] \
            == [(d, og.og_id) for d, og, _ in budgeted]

    def test_budget_validation(self, small):
        index, ogs = small
        with pytest.raises(InvalidParameterError):
            index.knn(ogs[0], 5, search_budget=0)
        with pytest.raises(InvalidParameterError):
            index.knn(ogs[0], 5, search_budget=-3)

    def test_k_edge_cases(self, small):
        index, ogs = small
        assert index.knn(ogs[0], 0) == []
        assert index.knn(ogs[0], 0, search_budget=10) == []
        assert len(index.knn(ogs[0], 10_000)) == len(ogs)
        assert len(index.knn(ogs[0], 10_000, search_budget=30)) == len(ogs)
        with pytest.raises(InvalidParameterError):
            index.knn(ogs[0], -1)

    def test_results_sorted_and_self_first(self, small):
        index, ogs = small
        hits = index.knn(ogs[9], 10, search_budget=40)
        dists = [d for d, _, _ in hits]
        assert dists == sorted(dists)
        assert hits[0][1].og_id == ogs[9].og_id
        assert hits[0][0] == 0.0

    def test_pinned_recall_and_cost(self):
        """The docs/SEARCH.md gate at smoke scale: >=90% recall@10 while
        spending <=10% of the corpus size in exact distance evaluations
        (pivot distances included)."""
        ogs = corpus(800, seed=6)
        counting = CountingDistance(MetricEGED())
        index = built_index(ogs, metric=counting)
        index.sketch_tier()  # build outside the measured window
        recalls = []
        budget = len(ogs) // 10
        for q in (ogs[5], ogs[111], ogs[412]):
            exact = set(ids(index.knn(q, 10)))
            counting.reset()
            hits = index.knn(q, 10, search_budget=budget)
            assert counting.calls <= budget
            recalls.append(len(exact & set(ids(hits))) / 10)
        assert sum(recalls) / len(recalls) >= 0.9

    def test_counters_emitted(self, small):
        index, ogs = small
        obs.configure(enabled=True, registry=MetricsRegistry(),
                      tracer=Tracer())
        try:
            index.knn(ogs[0], 5, search_budget=30)
            snap = obs.metrics()
            assert snap.get("search.knn_queries", 0) >= 1
            assert snap.get("search.candidates_generated", 0) >= 1
            assert snap.get("search.distances_computed", 0) >= 1
            assert "search.distances_saved" in snap
        finally:
            obs.configure(enabled=False, registry=MetricsRegistry(),
                          tracer=Tracer())

    def test_approx_knn_direct_validation(self, small):
        index, ogs = small
        sketch = index.sketch_tier()
        assert approx_knn([sketch], index.metric_distance,
                          SearchRequest.knn(ogs[0], 0, search_budget=10)) == []
        with pytest.raises(InvalidParameterError):
            approx_knn([sketch], index.metric_distance,
                       SearchRequest.knn(ogs[0], 5, search_budget=0))


class TestSketchMaintenance:
    def test_insert_appends_row(self, small):
        index, ogs = small
        index.sketch_tier()
        extra = corpus(5, seed=42)
        rows = [index.insert(og) for og in extra]
        sketch = index.sketch_tier()
        assert len(sketch) == len(ogs) + len(extra)
        # The maintained row must equal a from-scratch recomputation.
        row = np.where(sketch.row_ids == rows[0])[0][0]
        series = np.asarray(extra[0].values, dtype=np.float64)
        expect_pd = np.array([index.metric_distance(series, p)
                              for p in sketch.pivots])
        assert np.allclose(sketch.refs[row], expect_pd)

    def test_delete_drops_row(self, small):
        index, ogs = small
        index.sketch_tier()
        removed = index.delete(ogs[4].og_id)
        assert removed.og is ogs[4]
        sketch = index.sketch_tier()
        assert removed.row not in set(sketch.row_ids.tolist())
        hits = index.knn(ogs[0], 10, search_budget=40)
        assert ogs[4].og_id not in ids(hits)

    def test_recall_survives_interleaved_writes_and_compaction(self):
        ogs = corpus(240, seed=3)
        live = LiveIndex(built_index(ogs[:160]))
        live.snapshot.index.sketch_tier()
        q = ogs[1]
        for batch in (ogs[160:200], ogs[200:240]):
            live.bulk_insert(batch)
            live.compact()
        exact = set(ids(live.knn(q, 10)))
        approx = set(ids(live.knn(q, 10, search_budget=80)))
        assert len(exact & approx) / 10 >= 0.9

    def test_database_incremental_ingest(self):
        ogs = corpus(150, seed=5)
        db = VideoDatabase()
        db.ingest_object_graphs(ogs[:100])
        db.knn(ogs[0].values, k=5, search_budget=30)  # builds the sketch
        db.ingest_object_graphs(ogs[100:])
        exact = {h.og.og_id for h in db.knn(ogs[0].values, k=10)}
        approx = {h.og.og_id
                  for h in db.knn(ogs[0].values, k=10, search_budget=50)}
        assert len(exact & approx) / 10 >= 0.9


class TestSketchPersistence:
    def test_round_trip_preserves_budgeted_results(self, small, tmp_path):
        index, ogs = small
        q = ogs[3]
        before = index.knn(q, 8, search_budget=30)
        store = open_store(tmp_path / "index")
        store.write_index(index)
        loaded = store.load_index()
        assert loaded.shards[0]._references is not None  # from the store
        after = loaded.knn(q, 8, search_budget=30)
        # og_ids are re-minted on load; compare by distance ordering.
        assert [d for d, _, _ in before] \
            == pytest.approx([d for d, _, _ in after])

    def test_old_archive_without_sketch_falls_back(self, small, tmp_path):
        index, ogs = small
        # Written with its reference columns left out, as before its
        # first tier.
        store = open_store(tmp_path / "plain")
        store.write_index(store_layout.without_references(index))
        (loaded,) = store.load_index().shards
        assert loaded._references is None
        hits = loaded.knn(ogs[0], 8, search_budget=30)  # lazy rebuild
        assert len(hits) == 8
        assert loaded._references is not None


class TestShardedBudget:
    @pytest.fixture(scope="class")
    def sharded(self):
        ogs = corpus(240, seed=3)
        index = ShardedIndex(ShardedIndexConfig(num_shards=3))
        index.build(ogs)
        return index, ogs

    def test_budget_split_recall(self, sharded):
        index, ogs = sharded
        q = ogs[11]
        exact = set(ids(index.knn(q, 10)))
        approx = set(ids(index.knn(q, 10, search_budget=72)))
        assert len(exact & approx) / 10 >= 0.9

    def test_detailed_carries_budget(self, sharded):
        index, ogs = sharded
        result = index.search(SearchRequest.knn(
            ogs[0], 5, search_budget=60, degrade=True))
        assert len(result.hits) == 5
        assert not result.degraded


class TestServiceBudget:
    def test_service_forwards_budget(self):
        ogs = corpus(120, seed=8)
        live = LiveIndex(built_index(ogs))
        with QueryService(live, ServiceConfig(workers=1)) as service:
            exact = service.knn(ogs[2], 10)
            approx = service.knn(ogs[2], 10, search_budget=60)
            overlap = {og.og_id for _, og, _ in exact.hits} \
                & {og.og_id for _, og, _ in approx.hits}
            assert len(overlap) / 10 >= 0.9


class TestQueryBudget:
    def test_budgeted_query_matches_exact_with_big_budget(self, small):
        index, ogs = small
        exact = Query(index).similar_to(ogs[0]).limit(5).run()
        budgeted = (Query(index).similar_to(ogs[0]).limit(5)
                    .budget(10 * len(ogs)).run())
        assert [r.og.og_id for r in exact] == [r.og.og_id for r in budgeted]

    def test_budget_applies_predicates_after_ranking(self, small):
        index, ogs = small
        results = (Query(index).similar_to(ogs[0]).limit(10)
                   .budget(40).where(lambda og: og.og_id != ogs[0].og_id)
                   .run())
        assert all(r.og.og_id != ogs[0].og_id for r in results)
        assert len(results) <= 10

    def test_budget_requires_ranking_and_limit(self, small):
        index, ogs = small
        with pytest.raises(InvalidParameterError):
            Query(index).limit(5).budget(10).run()
        with pytest.raises(InvalidParameterError):
            Query(index).similar_to(ogs[0]).budget(10).run()
        with pytest.raises(InvalidParameterError):
            (Query(index).similar_to(ogs[0], distance=MetricEGED())
             .limit(5).budget(10).run())
        with pytest.raises(InvalidParameterError):
            Query(index).similar_to(ogs[0]).limit(5).budget(0)


class TestDatabaseBudget:
    def test_knn_contract(self):
        ogs = corpus(150, seed=5)
        db = VideoDatabase()
        db.ingest_object_graphs(ogs)
        q = ogs[2].values
        assert db.knn(q, k=0) == []
        assert len(db.knn(q, k=999)) == len(ogs)
        assert len(db.knn(q, k=999, search_budget=40)) == len(ogs)
        exact = {h.og.og_id for h in db.knn(q, k=8)}
        approx = {h.og.og_id for h in db.knn(q, k=8, search_budget=40)}
        assert len(exact & approx) / 8 >= 0.875

    def test_empty_database_k0(self):
        db = VideoDatabase()
        assert db.knn(np.zeros((4, 2)), k=0) == []
        with pytest.raises(IndexStateError):
            db.knn(np.zeros((4, 2)), k=1)


class TestSingleOgSketch:
    def test_tiny_corpus(self):
        og = ObjectGraph.from_values(np.linspace(0, 5, 8)[:, None])
        index = STRGIndex(STRGIndexConfig())
        index.build([og])
        hits = index.knn(og, 3, search_budget=5)
        assert len(hits) == 1
        assert hits[0][0] == 0.0
