"""Tests for the STRG-Index (Algorithms 2-3, Sections 5.1-5.5)."""

import numpy as np
import pytest

from repro.core.index import STRGIndex, STRGIndexConfig
from repro.core.nodes import LeafNode, LeafRecord
from repro.core.size import index_size_bytes, strg_raw_size_bytes
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.base import CountingDistance
from repro.distance.batch import pairwise_matrix
from repro.distance.eged import MetricEGED
from repro.errors import IndexStateError, InvalidParameterError
from repro.graph.attributes import NodeAttributes
from repro.graph.decomposition import BackgroundGraph
from repro.graph.object_graph import ObjectGraph
from repro.graph.rag import RegionAdjacencyGraph


def blob_ogs(k=4, n_per=8, separation=150.0, seed=0):
    rng = np.random.default_rng(seed)
    ogs = []
    for label in range(k):
        for _ in range(n_per):
            length = int(rng.integers(6, 12))
            base = np.linspace(0, 10, length)[:, None]
            values = np.hstack([base + label * separation, base])
            ogs.append(ObjectGraph.from_values(
                values + rng.normal(0, 0.5, values.shape), label=label
            ))
    return ogs


def make_background(color):
    rag = RegionAdjacencyGraph()
    rag.add_node(0, NodeAttributes(size=1000, color=color,
                                   centroid=(50.0, 50.0)))
    return BackgroundGraph(rag, frame_count=10)


class TestLeafNode:
    def test_sorted_insertion(self):
        leaf = LeafNode()
        for key in (3.0, 1.0, 2.0):
            leaf.insert(LeafRecord(key, ObjectGraph.from_values([[0.0]])))
        assert leaf.keys == [1.0, 2.0, 3.0]


class TestBuild:
    @pytest.mark.parametrize("sample", [None, 64])
    def test_repeated_labels_file_like_unique_ones(self, sample):
        """EM's cluster goes by input position: a build whose input
        repeats og_ids files every OG — membership, keys and rows — as
        the same build with unique labels does."""
        ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=200, seed=8))
        config = STRGIndexConfig(n_clusters=6, em_iterations=4,
                                 cluster_sample_size=sample)

        def filed(index):
            return [[(r.key, r.row, r.og.values.tobytes())
                     for r in record.leaf]
                    for record in index.cluster_records()]

        unique = STRGIndex(config)
        assert unique.build(ogs) == [unique.record_of(og.og_id).row
                                     for og in ogs]
        twins = [ObjectGraph(values=og.values, og_id=ogs[i - i % 2].og_id)
                 for i, og in enumerate(ogs)]
        repeated = STRGIndex(config)
        repeated.build(twins)
        assert filed(repeated) == filed(unique)
        assert sorted(r.row for r in repeated.leaf_records()) \
            == list(range(len(ogs)))

    def test_build_structure(self):
        ogs = blob_ogs(k=4)
        index = STRGIndex(STRGIndexConfig(n_clusters=4))
        index.build(ogs)
        stats = index.stats()
        assert stats["root_records"] == 1
        assert stats["cluster_records"] == 4
        assert stats["leaf_records"] == len(ogs)

    def test_build_with_bic_selection(self):
        ogs = blob_ogs(k=3, n_per=8)
        index = STRGIndex(STRGIndexConfig(n_clusters=None, k_max=6))
        index.build(ogs)
        assert index.num_clusters() == 3

    def test_clusters_are_pure_on_separated_data(self):
        ogs = blob_ogs(k=4)
        index = STRGIndex(STRGIndexConfig(n_clusters=4))
        index.build(ogs)
        for record in index.root[0].cluster_node:
            labels = {r.og.label for r in record.leaf}
            assert len(labels) == 1

    def test_leaf_keys_are_metric_distances(self):
        ogs = blob_ogs(k=2)
        index = STRGIndex(STRGIndexConfig(n_clusters=2))
        index.build(ogs)
        d = MetricEGED()
        for record in index.root[0].cluster_node:
            for leaf_record in record.leaf:
                expected = d(leaf_record.og, record.centroid)
                assert leaf_record.key == pytest.approx(expected)

    def test_empty_build_rejected(self):
        with pytest.raises(IndexStateError):
            STRGIndex().build([])

    def test_clip_refs_attached(self):
        ogs = blob_ogs(k=2, n_per=3)
        refs = [f"clip-{i}" for i in range(len(ogs))]
        index = STRGIndex(STRGIndexConfig(n_clusters=2))
        index.build(ogs, clip_refs=refs)
        stored = {r.clip_ref
                  for rec in index.root[0].cluster_node for r in rec.leaf}
        assert stored == set(refs)

    def test_clip_ref_length_mismatch(self):
        ogs = blob_ogs(k=2, n_per=3)
        with pytest.raises(InvalidParameterError):
            STRGIndex(STRGIndexConfig(n_clusters=2)).build(ogs, clip_refs=["x"])


class TestKnn:
    def build_index(self, k=4):
        ogs = blob_ogs(k=k)
        index = STRGIndex(STRGIndexConfig(n_clusters=k))
        index.build(ogs)
        return index, ogs

    def test_matches_brute_force(self):
        index, ogs = self.build_index()
        d = MetricEGED()
        for q in (ogs[0], ogs[13], ogs[-1]):
            hits = index.knn(q, 5)
            brute = sorted(d(q, og) for og in ogs)[:5]
            assert [h[0] for h in hits] == pytest.approx(brute)

    def test_same_cluster_results(self):
        index, ogs = self.build_index()
        hits = index.knn(ogs[0], 5)
        assert all(og.label == ogs[0].label for _, og, _ in hits)

    def test_k_larger_than_data(self):
        index, ogs = self.build_index(k=2)
        hits = index.knn(ogs[0], 1000)
        assert len(hits) == len(ogs)

    def test_invalid_k(self):
        index, ogs = self.build_index(k=2)
        # k=0 is a legal no-op; only negative k is invalid.
        assert index.knn(ogs[0], 0) == []
        with pytest.raises(InvalidParameterError):
            index.knn(ogs[0], -1)

    def test_empty_index_rejected(self):
        with pytest.raises(IndexStateError):
            STRGIndex().knn(ObjectGraph.from_values([[0.0]]), 1)

    def test_saves_distance_computations(self):
        ogs = blob_ogs(k=6, n_per=15)
        counter = CountingDistance(MetricEGED())
        index = STRGIndex(STRGIndexConfig(n_clusters=6),
                          metric_distance=counter)
        index.build(ogs)
        counter.reset()
        index.knn(ogs[0], 5)
        assert counter.calls < len(ogs)

    def test_query_by_raw_array(self):
        index, ogs = self.build_index()
        hits = index.knn(ogs[0].values, 3)
        assert len(hits) == 3

    def test_results_sorted(self):
        index, ogs = self.build_index()
        hits = index.knn(ogs[2], 8)
        dists = [h[0] for h in hits]
        assert dists == sorted(dists)


class TestNProbeSearch:
    def test_nprobe_one_stays_in_best_cluster(self):
        ogs = blob_ogs(k=4)
        index = STRGIndex(STRGIndexConfig(n_clusters=4))
        index.build(ogs)
        hits = index.knn(ogs[0], 5, n_probe=1)
        assert len(hits) == 5
        assert all(og.label == ogs[0].label for _, og, _ in hits)

    def test_nprobe_full_equals_exact(self):
        ogs = blob_ogs(k=3)
        index = STRGIndex(STRGIndexConfig(n_clusters=3))
        index.build(ogs)
        exact = index.knn(ogs[1], 6)
        probed = index.knn(ogs[1], 6, n_probe=3)
        assert [h[0] for h in probed] == pytest.approx([h[0] for h in exact])

    def test_nprobe_reduces_distance_calls(self):
        ogs = blob_ogs(k=6, n_per=12)
        counter = CountingDistance(MetricEGED())
        index = STRGIndex(STRGIndexConfig(n_clusters=6),
                          metric_distance=counter)
        index.build(ogs)
        counter.reset()
        index.knn(ogs[0], 5)
        exact_calls = counter.calls
        counter.reset()
        index.knn(ogs[0], 5, n_probe=1)
        assert counter.calls <= exact_calls

    def test_invalid_nprobe(self):
        ogs = blob_ogs(k=2, n_per=3)
        index = STRGIndex(STRGIndexConfig(n_clusters=2))
        index.build(ogs)
        with pytest.raises(InvalidParameterError):
            index.knn(ogs[0], 2, n_probe=0)


class TestSampledBuild:
    def test_sampled_build_indexes_everything(self):
        ogs = blob_ogs(k=3, n_per=10)
        index = STRGIndex(STRGIndexConfig(n_clusters=3,
                                          cluster_sample_size=12))
        index.build(ogs)
        assert len(index) == len(ogs)

    def test_sampled_build_knn_still_exact(self):
        ogs = blob_ogs(k=3, n_per=10)
        index = STRGIndex(STRGIndexConfig(n_clusters=3,
                                          cluster_sample_size=12))
        index.build(ogs)
        d = MetricEGED()
        hits = index.knn(ogs[0], 5)
        brute = sorted(d(ogs[0], og) for og in ogs)[:5]
        assert [h[0] for h in hits] == pytest.approx(brute)

    def test_sample_larger_than_data_is_full_build(self):
        ogs = blob_ogs(k=2, n_per=4)
        index = STRGIndex(STRGIndexConfig(n_clusters=2,
                                          cluster_sample_size=1000))
        index.build(ogs)
        assert len(index) == len(ogs)

    def test_invalid_sample_size(self):
        with pytest.raises(InvalidParameterError):
            STRGIndexConfig(cluster_sample_size=1)


class TestRangeQuery:
    def test_matches_brute_force(self):
        ogs = blob_ogs(k=3)
        index = STRGIndex(STRGIndexConfig(n_clusters=3))
        index.build(ogs)
        d = MetricEGED()
        radius = 40.0
        hits = index.range_query(ogs[0], radius)
        expected = {og.og_id for og in ogs if d(ogs[0], og) <= radius}
        assert {og.og_id for _, og, _ in hits} == expected

    def test_invalid_radius(self):
        ogs = blob_ogs(k=2, n_per=3)
        index = STRGIndex(STRGIndexConfig(n_clusters=2))
        index.build(ogs)
        with pytest.raises(InvalidParameterError):
            index.range_query(ogs[0], -1.0)


class TestInsertAndSplit:
    def test_insert_grows_index(self):
        ogs = blob_ogs(k=2, n_per=4)
        index = STRGIndex(STRGIndexConfig(n_clusters=2))
        index.build(ogs[:-1])
        index.insert(ogs[-1])
        assert len(index) == len(ogs)

    def test_insert_into_empty_builds(self):
        index = STRGIndex(STRGIndexConfig(n_clusters=1))
        index.insert(ObjectGraph.from_values([[0.0, 0.0]]))
        assert len(index) == 1

    def test_bic_split_on_bimodal_leaf(self):
        # One cluster is force-fed two distinct blobs; on overflow the BIC
        # test must split it (Section 5.3).
        index = STRGIndex(STRGIndexConfig(n_clusters=1, leaf_capacity=10))
        seed_ogs = blob_ogs(k=1, n_per=4, seed=1)
        index.build(seed_ogs)
        rng = np.random.default_rng(2)
        for i in range(12):
            offset = 0.0 if i % 2 == 0 else 400.0
            base = np.linspace(0, 10, 8)[:, None]
            values = np.hstack([base + offset, base])
            index.insert(ObjectGraph.from_values(
                values + rng.normal(0, 0.5, values.shape)
            ))
        assert index.num_clusters() >= 2

    def test_unimodal_leaf_not_split(self):
        index = STRGIndex(STRGIndexConfig(n_clusters=1, leaf_capacity=8))
        rng = np.random.default_rng(3)
        base = np.linspace(0, 10, 8)[:, None]
        for _ in range(14):
            values = np.hstack([base, base])
            index.insert(ObjectGraph.from_values(
                values + rng.normal(0, 0.4, values.shape)
            ))
        assert index.num_clusters() == 1

    def test_knn_correct_after_inserts(self):
        ogs = blob_ogs(k=3, n_per=6)
        index = STRGIndex(STRGIndexConfig(n_clusters=3, leaf_capacity=6))
        index.build(ogs[:9])
        for og in ogs[9:]:
            index.insert(og)
        d = MetricEGED()
        hits = index.knn(ogs[0], 4)
        brute = sorted(d(ogs[0], og) for og in ogs)[:4]
        assert [h[0] for h in hits] == pytest.approx(brute)


def assert_refs_hold(index) -> None:
    """Every leaf record's ``refs`` row is its OG's float32 distance to
    each reference series of the index."""
    records = list(index.leaf_records())
    want = pairwise_matrix(index.metric_distance, index._references,
                           [record.og for record in records]).T
    for record, row in zip(records, want.astype(np.float32)):
        assert record.refs.dtype == np.float32
        assert record.refs.tobytes() == row.tobytes()


class TestDeleteWithRepeatedIds:
    def test_tree_and_sketch_drop_the_same_object(self):
        """A delete by og_id drops one leaf; its reference row goes with
        that very OG, not with the first row carrying the id."""
        ogs = blob_ogs(k=4, n_per=40)
        ogs = [ogs[i] for i in np.random.default_rng(0).permutation(160)]
        victims, strangers = ogs[:120], ogs[120:]
        index = STRGIndex(STRGIndexConfig(n_clusters=4, em_iterations=4))
        index.build(victims)
        index.sketch_tier()
        pairs = list(zip(victims[::3], strangers))
        for victim, stranger in pairs:
            stranger.og_id = victim.og_id
            index.insert(stranger)
        for victim, stranger in pairs:
            assert index.delete(victim.og_id)
            leaves = {id(og) for og in index.object_graphs()}
            table = index.sketch_tier()
            assert {id(table.row_record(row)[0])
                    for row in range(len(table))} == leaves
            hits = index.knn(stranger, 1, search_budget=60)
            assert all(id(og) in leaves for _, og, _ in hits)
        assert len(index) == len(index.sketch_tier()) == 120
        assert_refs_hold(index)


class TestBackgroundRouting:
    def test_similar_background_shares_root(self):
        ogs = blob_ogs(k=2, n_per=4)
        bg = make_background((100.0, 100.0, 100.0))
        index = STRGIndex(STRGIndexConfig(n_clusters=2))
        index.build(ogs, background=bg)
        similar = make_background((105.0, 100.0, 100.0))
        index.insert(ogs[0], background=similar)
        assert len(index.root) == 1

    def test_dissimilar_background_new_root(self):
        ogs = blob_ogs(k=2, n_per=4)
        bg = make_background((100.0, 100.0, 100.0))
        index = STRGIndex(STRGIndexConfig(n_clusters=2))
        index.build(ogs, background=bg)
        different = make_background((250.0, 0.0, 0.0))
        index.insert(ogs[0], background=different)
        assert len(index.root) == 2

    def test_query_with_background_restricts_search(self):
        ogs_a = blob_ogs(k=2, n_per=4, seed=0)
        ogs_b = blob_ogs(k=2, n_per=4, seed=5)
        bg_a = make_background((100.0, 100.0, 100.0))
        bg_b = make_background((250.0, 0.0, 0.0))
        index = STRGIndex(STRGIndexConfig(n_clusters=2))
        index.build(ogs_a, background=bg_a)
        index.build(ogs_b, background=bg_b)
        hits = index.knn(ogs_a[0], 3, background=bg_a)
        hit_ids = {og.og_id for _, og, _ in hits}
        assert hit_ids <= {og.og_id for og in ogs_a}


class TestSizeAccounting:
    def test_index_smaller_than_raw_strg(self):
        # Eq. 9 vs Eq. 10: N x size(BG) dominates the raw STRG.
        ogs = blob_ogs(k=2, n_per=6)
        bg = make_background((100.0, 100.0, 100.0))
        index = STRGIndex(STRGIndexConfig(n_clusters=2))
        index.build(ogs, background=bg)
        num_frames = 10_000
        raw = strg_raw_size_bytes(ogs, bg, num_frames)
        compressed = index_size_bytes(index)
        assert compressed * 10 < raw

    def test_raw_size_accepts_byte_count(self):
        ogs = blob_ogs(k=1, n_per=2)
        assert strg_raw_size_bytes(ogs, 48, 100) == (
            sum(og.size_bytes() for og in ogs) + 4800
        )

    def test_invalid_frames(self):
        with pytest.raises(InvalidParameterError):
            strg_raw_size_bytes([], 48, 0)

    def test_index_size_includes_centroids(self):
        ogs = blob_ogs(k=2, n_per=4)
        index = STRGIndex(STRGIndexConfig(n_clusters=2))
        index.build(ogs)
        og_bytes = sum(og.size_bytes() for og in ogs)
        assert index_size_bytes(index) > og_bytes


class TestConfigValidation:
    def test_invalid_leaf_capacity(self):
        with pytest.raises(InvalidParameterError):
            STRGIndexConfig(leaf_capacity=1)

    def test_invalid_bg_threshold(self):
        with pytest.raises(InvalidParameterError):
            STRGIndexConfig(bg_similarity_threshold=2.0)
