"""``PaddedBatch``: one preparation, many sweeps — and nothing moves.

A prepared batch must be indistinguishable from the list it was built
from (bit for bit, for every batched kernel), the build stages that
reuse one must store exactly the numbers a batch-of-one call on plain
arrays returns — the sketch's reference columns too, whatever the mix
of series lengths — and the vectorised resample must reproduce the
per-series ``np.interp`` arithmetic it replaced.

The batch-of-one oracle is platform-independent where a committed hash
would not be: the kernels are bit-invariant to batch composition, while
EM's ``exp``/``log`` differ by an ulp across numpy SIMD builds.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.base import CountingDistance, as_series, resample_stack
from repro.distance.batch import PaddedBatch, one_vs_many
from repro.distance.cache import DistanceCache, set_default_cache
from repro.distance.dtw import DTW
from repro.distance.eged import EGED, MetricEGED
from repro.distance.erp import ERP
from repro.distance.lcs import LCSDistance
from repro.errors import DimensionMismatchError
from repro.graph.object_graph import ObjectGraph
from repro.search import sketch as sketch_mod
from repro.search.sketch import SketchIndex
from repro.serving.sharding import ShardedIndex, ShardedIndexConfig

KERNELS = [EGED("adaptive"), EGED("dtw"), MetricEGED(0.5), ERP(gap=1.0),
           DTW(), LCSDistance(epsilon=1.0)]


def series_of(n: int):
    """One ``(n, 2)`` series."""
    node = st.lists(st.floats(-50, 50, allow_nan=False, width=32),
                    min_size=2, max_size=2)
    return st.lists(node, min_size=n, max_size=n).map(
        lambda rows: np.array(rows, float))


#: Lists of series with mixed lengths, 1 included; the empty list too.
series_lists = st.lists(st.integers(1, 9).flatmap(series_of), max_size=12)


# -- the unit ---------------------------------------------------------------

class TestPaddedBatch:
    @settings(max_examples=40, deadline=None)
    @given(items=series_lists,
           queries=st.tuples(series_of(1), series_of(4), series_of(11)))
    def test_prepared_equals_list_bit_for_bit(self, items, queries):
        """One batch, queries of three different lengths, every kernel."""
        batch = PaddedBatch(items)
        assert len(batch) == len(items)
        for distance in KERNELS:
            for q in queries:
                got = one_vs_many(distance, q, batch)
                assert got.shape == (len(items),)
                assert np.array_equal(got, one_vs_many(distance, q, items))

    def test_empty_batch(self):
        batch = PaddedBatch([])
        assert len(batch) == 0 and batch.chunks == []
        for distance in KERNELS:
            assert one_vs_many(distance, np.zeros((3, 2)), batch).shape == (0,)

    def test_sequence_of_normalized_series_in_input_order(self):
        ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=7, seed=3))
        batch = PaddedBatch(ogs)
        assert [s.shape for s in batch] == [og.values.shape for og in ogs]
        assert np.array_equal(batch[2], as_series(ogs[2]))
        flat = PaddedBatch([[1.0, 2.0, 3.0]])       # 1-D -> (3, 1)
        assert flat[0].shape == (3, 1)

    def test_wrong_dimension_still_raises(self):
        good = [np.zeros((3, 2)), np.zeros((5, 2))]
        with pytest.raises(DimensionMismatchError):
            PaddedBatch(good + [np.zeros((4, 3))])
        with pytest.raises(DimensionMismatchError):
            one_vs_many(MetricEGED(), np.zeros((4, 2)),
                        good + [np.zeros((4, 3))])
        for distance in (MetricEGED(), EGED(), ERP(band=2)):
            with pytest.raises(DimensionMismatchError):
                one_vs_many(distance, np.zeros((4, 3)), PaddedBatch(good))

    def test_counting_distance_counts_pairs_per_sweep(self):
        rng = np.random.default_rng(9)
        batch = PaddedBatch([rng.normal(size=(4, 2)) for _ in range(11)])
        counter = CountingDistance(MetricEGED())
        for expected in (11, 22, 33):
            one_vs_many(counter, rng.normal(size=(5, 2)), batch)
            assert counter.calls == expected

    def test_cache_hashes_a_batch_once(self, monkeypatch):
        import repro.distance.batch as batch_module

        hashed = []
        digest = batch_module.series_digest
        monkeypatch.setattr(
            batch_module, "series_digest",
            lambda s: hashed.append(1) or digest(s))
        rng = np.random.default_rng(13)
        items = [rng.normal(size=(5, 2)) for _ in range(9)]
        queries = [rng.normal(size=(4, 2)) for _ in range(3)]
        batch = PaddedBatch(items)
        cache = DistanceCache()
        cold = [cache.one_vs_many(EGED(), q, batch) for q in queries]
        warm = [cache.one_vs_many(EGED(), q, batch) for q in queries]
        assert len(hashed) == len(items)
        assert (cache.stats.misses, cache.stats.hits) == (27, 27)
        for q, a, b in zip(queries, cold, warm):
            assert np.array_equal(a, b)
            assert np.array_equal(a, one_vs_many(EGED(), q, items))


# -- reference columns and resampling -------------------------------------

def reference_resample(a: np.ndarray, length: int) -> np.ndarray:
    """``resample_series`` as it was: two ``np.linspace`` and one
    ``np.interp`` per column and series."""
    if a.shape[0] == length:
        return a
    if a.shape[0] == 1:
        return np.repeat(a, length, axis=0)
    src = np.linspace(0.0, 1.0, a.shape[0])
    dst = np.linspace(0.0, 1.0, length)
    return np.stack([np.interp(dst, src, a[:, k])
                     for k in range(a.shape[1])], axis=1)


class TestSignatures:
    """The sketch's per-OG reference columns (they replaced the
    quantized signatures): batch-of-one kernel calls, rounded to
    float32, for any mix of lengths and dimensions."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_length_groups_match_per_series_interp(self, dim, monkeypatch):
        monkeypatch.setattr(sketch_mod, "MIN_REFERENCES", 2)
        rng = np.random.default_rng(17 + dim)
        series = [rng.normal(size=(n, dim)) * 40
                  for n in range(1, 41) for _ in range(3)]
        order = rng.permutation(len(series))
        series = [series[int(i)] for i in order]
        metric = MetricEGED()
        sketch = SketchIndex()
        sketch.add(metric,                  # fits the references
                   [ObjectGraph.from_values(s) for s in series[:12]])
        sketch.add(metric, [ObjectGraph.from_values(s) for s in series[12:]])
        assert len(sketch.pivots) == 2
        want = np.array([[one(metric, ref, s) for ref in sketch.pivots]
                         for s in series], dtype=np.float32)
        assert sketch.pivot_dists.dtype == np.float32
        assert np.array_equal(sketch.pivot_dists, want)

    def test_degenerate_bbox_and_unfitted_sketch(self, monkeypatch):
        monkeypatch.setattr(sketch_mod, "MIN_REFERENCES", 1)
        flat = [np.full((n, 2), 3.0) for n in (1, 2, 5, 16, 23)]
        sketch = SketchIndex()
        assert sketch.pivots == [] and sketch.pivot_dists.shape == (0, 0)
        # An unfitted sketch fits on its first add; with no centroid
        # the greedy starts at the sample's first member.
        sketch.add(MetricEGED(), [ObjectGraph.from_values(s) for s in flat])
        assert len(sketch.pivots) == 1
        assert np.array_equal(sketch.pivots[0], flat[0])
        assert sketch.pivot_dists[:, 0].tolist() == [
            np.float32(one(MetricEGED(), flat[0], s)) for s in flat]
        # Series that all coincide stop the greedy at one reference.
        monkeypatch.setattr(sketch_mod, "MIN_REFERENCES", 16)
        same = SketchIndex.build(
            MetricEGED(), [ObjectGraph.from_values(flat[2])
                           for _ in range(6)])
        assert len(same.pivots) == 1
        assert same.pivot_dists.tolist() == [[0.0]] * 6

    def test_resample_stack_is_np_interp(self):
        rng = np.random.default_rng(23)
        for length in (1, 2, 16, 33):
            for n in range(1, 41):
                stack = rng.normal(size=(4, n, 2)) * 1e3
                got = resample_stack(stack, length)
                for g in range(4):
                    want = reference_resample(stack[g], length)
                    assert np.array_equal(got[g], want), (n, length)


# -- the build stages against a batch-of-one oracle ---------------------------

N_OGS = 600
SAMPLE = 96


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_ogs(SyntheticConfig(num_ogs=N_OGS, seed=11))


def build_sharded(ogs) -> ShardedIndex:
    """The benchmark's build recipe at smoke scale, on a cold cache."""
    previous = set_default_cache(DistanceCache())
    try:
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=2, placement="affine",
            index=STRGIndexConfig(n_clusters=8, cluster_sample_size=SAMPLE)))
        index.build(ogs, clip_refs=[f"og-{i}" for i in range(len(ogs))])
        return index
    finally:
        set_default_cache(previous)


@pytest.fixture(scope="module")
def built(corpus):
    index = build_sharded(corpus)
    for shard in index.shards:
        shard.sketch_tier()
    return index


def one(metric, first, second) -> float:
    """Batch-of-one kernel call on plain arrays: the oracle."""
    return float(one_vs_many(metric, first, [as_series(second)])[0])


class TestStoredColumnsAgainstOracle:
    def test_leaf_keys(self, built, corpus):
        metric = built.metric_distance
        for shard in built.shards:
            records = shard.cluster_records()
            ids = {r.og.og_id for rec in records for r in rec.leaf}
            members = [og for og in corpus if og.og_id in ids]
            # STRGIndex._build draws its EM sample like this; the OGs
            # outside it were keyed by the nearest centroid.
            sampled = {members[int(i)].og_id for i in
                       np.random.default_rng(shard.config.seed).choice(
                           len(members), size=SAMPLE, replace=False)}
            checked = 0
            for record in records:
                assert list(record.leaf.keys) == sorted(record.leaf.keys)
                for leaf in record.leaf:
                    if leaf.og.og_id in sampled:
                        assert leaf.key == one(metric, record.centroid,
                                               leaf.og)
                        continue
                    to_all = {id(other): one(metric, other.centroid, leaf.og)
                              for other in records}
                    assert leaf.key == to_all[id(record)]
                    assert leaf.key == min(to_all.values())
                    checked += 1
            assert checked == len(members) - SAMPLE

    def test_sketch_rows(self, built):
        metric = built.metric_distance
        # The one reference set: both shards' 8 centroids.
        centroids = [record.centroid for shard in built.shards
                     for record in shard.cluster_records()]
        pivots = built.shards[0].sketch_tier().pivots
        assert len(pivots) == len(centroids) == 16
        assert all(ref is centroid
                   for ref, centroid in zip(pivots, centroids))
        for shard in built.shards:
            sketch = shard.sketch_tier()
            assert len(sketch) == len(shard) and sketch.pivots is pivots
            records = list(shard.leaf_records())
            for row in range(len(sketch)):
                og, _ = sketch.row_record(row)
                series = as_series(og)
                assert og is records[row].og
                assert sketch.row_ids[row] == records[row].row
                assert list(sketch.refs[row]) == [
                    np.float32(one(metric, pivot, series))
                    for pivot in sketch.pivots]

    def test_shard_bounds(self, built):
        metric = built.metric_distance
        for shard in built.shards:
            pivots = shard.sketch_tier().pivots
            shard._cluster_views(None)
            views = shard._views
            assert views.mutations == shard.mutations
            for record in shard.cluster_records():
                view = views.by_record[id(record)]
                # The leaf keys (distances to the centroid), and one
                # float32 column per reference, read from the sketch's
                # stored rows.  The centroid is a reference, so a query
                # reads its key distance from the reference sweep.
                assert view.pivots is pivots
                assert pivots[view.reference] is record.centroid
                assert views.keys[view.start:view.stop].tolist() \
                    == list(record.leaf.keys)
                assert view.refs.shape == (len(record.leaf), 16)
                for leaf, row in zip(record.leaf, view.refs):
                    assert list(row) == [np.float32(one(metric, pivot,
                                                        leaf.og))
                                         for pivot in pivots]

    def test_no_batch_outlives_its_stage(self, built):
        for shard in built.shards:
            assert b"PaddedBatch" not in pickle.dumps(shard)
            assert b"PaddedBatch" not in pickle.dumps(shard.sketch_tier())
            views = shard._cluster_views(None)
            assert b"PaddedBatch" not in pickle.dumps(
                (shard._views.mutations, views))
        assert not any(isinstance(v, PaddedBatch)
                       for v in vars(built).values())
