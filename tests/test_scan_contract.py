"""One copy of Algorithm 3 (``repro.core.scan``), pinned from both sides.

- A ``ShardedIndex`` over one shard *is* that ``STRGIndex``: same hits,
  same order, same float distances — for ``knn``, ``range_query``
  (radius 0 on an indexed OG included) and with a background — under
  hash and affine placement (placement pivots only place).  Under
  ``CountingDistance`` the hash-placed shard spends exactly the
  evaluations the index does: same routine, same views.
- At window 1 the best-first scan spends on the ``bench_fig7`` corpus
  the evaluations recorded when it replaced the cluster-order walk, and
  never more than that walk did (Fig. 7(b): 281.4 / 358.53 / 460.8 /
  547.8).
- Every shard prunes with its own sketch pivot table: at 1, 2 and 4
  shards, under either placement, whether the sketch was built, attached
  the way a store attaches it, or loaded with the shard (eagerly or
  memory-mapped), exact k-NN and range answers equal a brute-force
  ranking through inserts, deletes, a BIC split and a same-id stranger
  (a loaded index is written and loaded again while the stranger shares
  its victim's og_id).  A loaded shard's views cost one evaluation per
  centroid and pivot.
- Stores written by 4.0.0 still carry the three window settings this
  routine replaced; both loaders drop them.
"""

import dataclasses
import json
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability as obs
from repro.core.index import STRGIndex, STRGIndexConfig
from repro.core.scan import knn_scan
from repro.datasets.patterns import ALL_PATTERNS
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.base import CountingDistance, as_series
from repro.distance.batch import one_vs_many
from repro.distance.eged import EGED, MetricEGED
from repro.graph.object_graph import ObjectGraph
from repro.search.request import SearchRequest
from repro.search.sketch import approx_knn, sketch_from_meta
from repro.serving import LiveIndex, ShardedIndex, ShardedIndexConfig
from repro.storage.serialize import leaf_ogs
from repro.storage.store import open_store
from test_index_properties import random_ogs
from test_strg_index import make_background
from tests import store_layout

PLACEMENTS = ["hash", "affine"]


def one_shard(index: STRGIndex, placement: str, ogs) -> ShardedIndex:
    """``index`` served as the only shard of a sharded index.  Placement
    pivots only place, so affine takes any two members."""
    pivots = [ogs[0].values, ogs[-1].values] if placement == "affine" \
        else None
    return ShardedIndex.from_shards([index], {"placement": placement},
                                    pivots)


def flat(hits):
    return [(d, og.og_id, ref) for d, og, ref in hits]


class TestOneShardIsTheIndex:
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12),
           radius=st.floats(0.0, 400.0))
    @settings(max_examples=25, deadline=None)
    def test_knn_and_range(self, placement, seed, k, radius):
        rng = np.random.default_rng(seed)
        ogs = random_ogs(rng, 40)
        index = STRGIndex(STRGIndexConfig(n_clusters=4, em_iterations=4,
                                          seed=seed))
        index.build(ogs[:36], clip_refs=list(range(36)))
        for og in ogs[36:39]:
            index.insert(og)
        sharded = one_shard(index, placement, ogs)
        outsider, member = ogs[39], ogs[int(rng.integers(0, 39))]
        for query in (outsider, member):
            assert flat(sharded.knn(query, k)) == flat(index.knn(query, k))
            assert (flat(sharded.range_query(query, radius))
                    == flat(index.range_query(query, radius)))
        # Radius 0 still finds the indexed OG itself: its stored key was
        # computed centroid-first, the query's key query-first.
        itself = flat(index.range_query(member, 0.0))
        assert (0.0, member.og_id) in [(d, og_id) for d, og_id, _ in itself]
        assert flat(sharded.range_query(member, 0.0)) == itself
        # Exact reads build no sketch: both layers scanned on keys alone.
        assert index._sketches is None

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 8),
           radius=st.floats(0.0, 400.0))
    @settings(max_examples=15, deadline=None)
    def test_with_a_background(self, placement, seed, k, radius):
        rng = np.random.default_rng(seed)
        ogs = random_ogs(rng, 41)
        red, blue = make_background((255, 0, 0)), make_background((0, 0, 255))
        index = STRGIndex(STRGIndexConfig(n_clusters=3, em_iterations=4,
                                          seed=seed))
        index.build(ogs[:20], background=red)
        index.build(ogs[20:40], background=blue)
        assert len(index.root) == 2
        sharded = one_shard(index, placement, ogs)
        for background in (red, blue, None):
            routed = index.knn(ogs[40], k, background=background)
            assert flat(sharded.knn(ogs[40], k, background=background)) \
                == flat(routed)
            assert (flat(sharded.range_query(ogs[40], radius,
                                             background=background))
                    == flat(index.range_query(ogs[40], radius,
                                              background=background)))
        in_red = {og.og_id for og in ogs[:20]}
        assert all(og.og_id in in_red
                   for _, og, _ in index.knn(ogs[40], k, background=red))

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12),
           radius=st.floats(0.0, 400.0))
    @settings(max_examples=15, deadline=None)
    def test_hash_shard_spends_the_same_evaluations(self, seed, k, radius):
        rng = np.random.default_rng(seed)
        ogs = random_ogs(rng, 49)
        counter = CountingDistance(MetricEGED())
        index = STRGIndex(STRGIndexConfig(n_clusters=4, em_iterations=4,
                                          seed=seed),
                          metric_distance=counter)
        index.build(ogs[:48])
        # The pivot table both layers prune with, and the views over it,
        # are built before counting: a query of either layer reuses them.
        index.sketch_tier()
        index._cluster_views(None)
        sharded = one_shard(index, "hash", ogs)
        for ask in (lambda layer: layer.knn(ogs[48], k),
                    lambda layer: layer.range_query(ogs[48], radius)):
            counter.reset()
            ask(index)
            spent = counter.calls
            counter.reset()
            ask(sharded)
            assert counter.calls == spent > 0


    @pytest.mark.parametrize("placement", PLACEMENTS)
    def test_one_shard_places_nothing(self, tmp_path, placement):
        """One shard fits no pivot and evaluates none: a build plus
        inserts spends the ``STRGIndex``'s evaluations and stores its
        columns, and so does an insert into ``from_shards([index])``."""
        ogs = random_ogs(np.random.default_rng(3), 40)
        config = STRGIndexConfig(n_clusters=4, em_iterations=4)
        mono_counter = CountingDistance(MetricEGED())
        mono = STRGIndex(config, metric_distance=mono_counter)
        mono.build(ogs[:32], clip_refs=list(range(32)))
        for i, og in enumerate(ogs[32:36], 32):
            mono.insert(og, None, i)
        counter = CountingDistance(MetricEGED())
        sharded = ShardedIndex(ShardedIndexConfig(
            num_shards=1, placement=placement, index=config),
            metric_distance=counter)
        assert [shard for shard, _ in sharded.build(
            ogs[:32], clip_refs=list(range(32)))] == [0] * 32
        assert [sharded.insert(og, None, i)[0]
                for i, og in enumerate(ogs[32:36], 32)] == [0] * 4
        assert sharded.pivots is None
        assert counter.calls == mono_counter.calls > 0
        open_store(tmp_path / "mono").write_index(mono)
        open_store(tmp_path / "sharded").write_index(sharded)
        assert store_layout.column_digests(tmp_path / "sharded") \
            == store_layout.column_digests(tmp_path / "mono")
        # An index over shards built elsewhere fits nothing either.
        wrapped = ShardedIndex.from_shards([mono], {"placement": placement})
        spent = mono_counter.calls
        mono_counter.reset()
        assert [wrapped.insert(og)[0] for og in ogs[36:]] == [0] * 4
        assert wrapped.pivots is None
        twin = STRGIndex(config, metric_distance=counter)
        twin.build(ogs[:32], clip_refs=list(range(32)))
        for i, og in enumerate(ogs[32:36], 32):
            twin.insert(og, None, i)
        counter.reset()
        for og in ogs[36:]:
            twin.insert(og)
        assert mono_counter.calls == counter.calls > 0 and spent > 0

    @pytest.mark.parametrize("how", ["built", "loaded", "mmap",
                                     "out-of-core"])
    @pytest.mark.parametrize("budget", ["below N", "at least N"])
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 10))
    @settings(max_examples=4, deadline=None)
    def test_budgeted_reads(self, how, budget, seed, k):
        """A budgeted read of the one-shard index — built, loaded from a
        store (eagerly or mapped) or answered out of core from the
        store's sketch columns — is the ``STRGIndex``'s: same hits, same
        evaluations."""
        rng = np.random.default_rng(seed)
        ogs = random_ogs(rng, 44)
        index = STRGIndex(STRGIndexConfig(n_clusters=4, em_iterations=4,
                                          seed=seed))
        index.build(ogs[:40], clip_refs=list(range(40)))
        index.sketch_tier()
        search_budget = 12 if budget == "below N" else 40 + seed % 7
        with tempfile.TemporaryDirectory() as workdir:
            store = open_store(f"{workdir}/corpus")
            store.write_index(index)
            if how == "built":
                served = ShardedIndex.of(index)
            elif how in ("loaded", "mmap"):
                served = store.load_index(mmap=how == "mmap")
                assert served.num_shards == 1
            else:
                parts = store.load_sketch(mmap=True)
                assert len(parts) == 1
                served = None

            def ask(layer, query):
                if layer is None:
                    request = SearchRequest.knn(query, k,
                                                search_budget=search_budget)
                    return approx_knn(parts, parts[0].replay_distance,
                                      request)
                return layer.knn(query, k, search_budget=search_budget)

            for query in ogs[40:]:
                spent = []
                hits = []
                for layer in (index, served):
                    obs.configure(enabled=True, reset_state=True)
                    try:
                        found = ask(layer, query)
                        spent.append(obs.metrics().get(
                            "distance.pairs_computed", 0))
                    finally:
                        obs.configure(enabled=False, reset_state=True)
                    hits.append([(d, ref) for d, _, ref in found])
                assert hits[1] == hits[0]
                assert spent[1] == spent[0] > 0


SKETCHES = ["built", "attached", "loaded", "mmap"]


def sketched(index: ShardedIndex, how: str, attach_lazy_sketch, workdir: str
             ) -> ShardedIndex:
    """``index`` with a sketch tier on every non-empty shard, as ``how``
    names: built in place, swapped for a store-style attached one, or
    written to a store under ``workdir`` and loaded back with the
    shards."""
    for shard in index.shards:
        if len(shard):
            shard.sketch_tier()
            if how == "attached":
                attach_lazy_sketch(shard)
    if how in ("loaded", "mmap"):
        store = open_store(f"{workdir}/corpus")
        store.write_index(index)
        index = store.load_index(mmap=how == "mmap")
        assert all(shard._sketches is not None
                   for shard in index.shards if len(shard))
    return index


def brute(query, members) -> list[tuple[float, int]]:
    """Every member as ``(distance, og_id)``, nearest first."""
    dists = one_vs_many(MetricEGED(), as_series(query),
                        [as_series(og) for og in members])
    return sorted(zip(dists.tolist(), [og.og_id for og in members]))


def ranked(hits) -> list[tuple[float, int]]:
    return [(d, og.og_id) for d, og, _ in hits]


def deleting(index: ShardedIndex, og_id: int) -> None:
    """Delete by id; exactly one object holding it leaves the index."""
    before = {id(og): og for og in index.object_graphs()}
    assert index.delete(og_id)
    after = {id(og) for og in index.object_graphs()}
    (gone,) = set(before) - after
    assert before[gone].og_id == og_id


def answers_exactly(index: ShardedIndex, queries, k: int,
                    radius: float) -> None:
    """Exact k-NN and range answers equal the brute-force ranking."""
    members = list(index.object_graphs())
    for query in queries:
        truth = brute(query, members)
        assert ranked(index.knn(query, k)) == truth[:k]
        assert ranked(index.range_query(query, radius)) == [
            hit for hit in truth if hit[0] <= radius]


class TestPivotTablePruning:
    @pytest.mark.parametrize("how", SKETCHES)
    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("shards", [1, 2, 4])
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12),
           radius=st.floats(0.0, 400.0))
    @settings(max_examples=3, deadline=None)
    def test_exact_answers_through_writes(self, shards, placement, how,
                                          attach_lazy_sketch, seed, k,
                                          radius):
        rng = np.random.default_rng(seed)
        ogs = random_ogs(rng, 64, n_blobs=6)
        # One cluster per shard over several blobs: a leaf past capacity
        # splits on its next insert.
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=shards, placement=placement, seed=seed,
            index=STRGIndexConfig(n_clusters=1, leaf_capacity=8,
                                  em_iterations=4, seed=seed)))
        index.build(ogs[:48])
        with tempfile.TemporaryDirectory() as workdir:
            index = sketched(index, how, attach_lazy_sketch, workdir)
            for og in ogs[48:60]:
                index.insert(og)
            assert index.num_clusters() > len(
                [shard for shard in index.shards if len(shard)])
            members = list(index.object_graphs())
            victim = members[int(rng.integers(len(members)))]
            # A stranger from another blob under the victim's og_id: a
            # pivot row matched by id instead of identity misbounds it.
            stranger = ObjectGraph.from_values(next(
                og for og in ogs[62:] if og.label != victim.label).values)
            stranger.og_id = victim.og_id
            index.insert(stranger)
            if how in ("loaded", "mmap"):
                # Written while the stranger shares the victim's og_id:
                # each object must come back with its own stored row.
                index = sketched(index, how, attach_lazy_sketch,
                                 f"{workdir}/again")
                members = [og for og in index.object_graphs()
                           if not np.array_equal(og.values, stranger.values)]
                (victim,) = [og for og in members
                             if np.array_equal(og.values, victim.values)]
            queries = (ogs[60], ogs[61], stranger, victim)
            answers_exactly(index, queries, k, radius)
            for pick in rng.choice(len(members), size=4, replace=False):
                if members[int(pick)] is not victim:
                    deleting(index, members[int(pick)].og_id)
            deleting(index, victim.og_id)
            answers_exactly(index, queries, k, radius)
        # Every view pruned with its shard's pivot table, none on keys
        # alone.
        for shard in index.shards:
            if len(shard):
                pivots = shard._sketches.pivots
                assert all(view.pivots is pivots
                           and view.refs.shape[1] == 1 + len(pivots)
                           for view in shard._cluster_views(None))

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("shards", [1, 2])
    def test_stranger_through_store_appends(self, tmp_path, shards,
                                            placement):
        """The same-id stranger through a store-attached ``LiveIndex``:
        its insert and the delete of its label are appends, and the
        store's replay drops the OG the live index dropped."""
        rng = np.random.default_rng(7)
        ogs = random_ogs(rng, 64, n_blobs=6)
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=shards, placement=placement,
            index=STRGIndexConfig(n_clusters=2, leaf_capacity=8,
                                  em_iterations=4)))
        index.build(ogs[:48], clip_refs=list(range(48)))
        for shard in index.shards:
            shard.sketch_tier()
        live = LiveIndex(index)
        store = open_store(tmp_path / "corpus")
        live.attach_store(store)
        for victim in ogs[3:48:9]:
            stranger = ObjectGraph.from_values(next(
                og for og in ogs[48:] if og.label != victim.label).values)
            stranger.og_id = victim.og_id
            live.insert(stranger, clip_ref=f"stranger-{victim.og_id}")
            live.compact()
            before = {id(og): og for og in live.snapshot.index
                      .object_graphs()}
            live.delete(victim.og_id)
            live.compact()
            (gone,) = set(before) - {
                id(og) for og in live.snapshot.index.object_graphs()}
            assert before[gone].og_id == victim.og_id
        store.join_merges()
        assert len(store_layout.segments(store)) > shards
        served = live.snapshot.index
        reopened = open_store(store.path).load_index()

        def kept(index):
            return sorted((og.values.tobytes(), ref)
                          for og, ref in leaf_ogs(index))

        assert kept(reopened) == kept(served)
        queries = ogs[60:]
        answers_exactly(reopened, queries, 5, 150.0)
        for query in queries:
            assert [(d, ref) for d, _, ref in reopened.knn(query, 5)] \
                == [(d, ref) for d, _, ref in served.knn(query, 5)]

    def test_loaded_views_cost_no_evaluations(self, tmp_path):
        """A view build reads the stored pivot rows and evaluates
        nothing: there is no per-cluster bound to sweep for."""
        ogs = random_ogs(np.random.default_rng(9), 96)
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=2, placement="affine",
            index=STRGIndexConfig(n_clusters=3, em_iterations=4)))
        index.build(ogs)
        for shard in index.shards:
            shard.sketch_tier()
        store = open_store(tmp_path / "corpus")
        store.write_index(index)
        obs.configure(enabled=True, reset_state=True)
        try:
            loaded = store.load_index()
            assert obs.metrics().get("distance.pairs_computed", 0) == 0
            for shard in loaded.shards:
                shard._cluster_views(None)
                assert len(shard._views.pivots) > 0
                assert shard._views.pivots is shard._sketches.pivots
            assert obs.metrics().get("distance.pairs_computed", 0) == 0
        finally:
            obs.configure(enabled=False, reset_state=True)


class TestNProbe:
    """``n_probe`` scans the nearest clusters across every live shard,
    picked by one ``repro.core.scan.probe`` for both index kinds."""

    K = 80

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(3)
        ogs = random_ogs(rng, 301, n_blobs=8)
        mono = STRGIndex(STRGIndexConfig(n_clusters=8, em_iterations=4,
                                         seed=3))
        mono.build(ogs[:300])
        sharded = ShardedIndex(ShardedIndexConfig(
            num_shards=2, placement="hash", seed=3,
            index=STRGIndexConfig(n_clusters=8, em_iterations=4, seed=3)))
        sharded.build(ogs[:300])
        return mono, sharded, ogs[300]

    @pytest.mark.parametrize("n_probe", [1, 3])
    def test_one_shard_is_the_index(self, corpus, n_probe):
        mono, _, query = corpus
        request = SearchRequest.knn(query, self.K, n_probe=n_probe)
        probed = flat(mono.search(request).hits)
        assert probed != flat(mono.knn(query, self.K))
        assert flat(ShardedIndex.of(mono).search(request).hits) == probed

    def test_one_probe_stays_in_the_nearest_cluster(self, corpus):
        _, sharded, query = corpus
        views = [view for shard in sharded.shards
                 for view in shard._cluster_views(None)]
        assert len({id(view) for view in views}) > 8   # clusters of both
        dists = one_vs_many(sharded.cluster_distance, query,
                            [view.centroid for view in views])
        nearest = views[int(np.argmin(dists))]
        members = [record.og for record in nearest.records]
        hits = sharded.search(SearchRequest.knn(query, self.K,
                                                n_probe=1)).hits
        assert {og.og_id for _, og, _ in hits} <= \
            {og.og_id for og in members}
        assert [og.og_id for _, og, _ in hits] == [
            og_id for _, og_id in brute(query, members)[:self.K]]

    def test_probing_every_cluster_is_exact(self, corpus):
        _, sharded, query = corpus
        exact = flat(sharded.knn(query, self.K))
        for n_probe in (sharded.num_clusters(), sharded.num_clusters() + 5):
            assert flat(sharded.search(SearchRequest.knn(
                query, self.K, n_probe=n_probe)).hits) == exact

    def test_worker_pool_refuses_n_probe(self, corpus, tmp_path):
        from repro.errors import InvalidParameterError
        from repro.serving.workers import WorkerPool

        _, sharded, query = corpus
        store = open_store(tmp_path / "pool")
        store.write_index(sharded)
        pool = WorkerPool(store.path)   # never started: no worker runs
        with pytest.raises(InvalidParameterError, match="n_probe"):
            pool.search(SearchRequest.knn(query, 5, n_probe=1))


def fig7_corpus(num: int, seed: int):
    """``benchmarks/bench_fig7_indexing_power.py::_make_ogs``: 24 evenly
    spread patterns at bench-friendly lengths, 10 % noise."""
    step = len(ALL_PATTERNS) / 24
    patterns = [dataclasses.replace(ALL_PATTERNS[int(i * step)],
                                    length_range=(10, 20))
                for i in range(24)]
    return generate_synthetic_ogs(SyntheticConfig(
        num_ogs=num, noise_fraction=0.10, seed=seed, patterns=patterns))


#: Evaluations per query of the deleted cluster-by-cluster walk at
#: window 1 (k = 5, 10, 20, 30), recorded when it was deleted: the
#: best-first order may never spend more.
CLUSTER_ORDER_WALK = [281.4, 358.5333, 460.8, 547.8]


def test_window_one_best_first_of_fig7b():
    """Evaluations per query of the best-first scan at window 1 on the
    ``bench_fig7`` corpus, recorded when it replaced the cluster-order
    walk, and at or under that walk at every k."""
    counter = CountingDistance(MetricEGED())
    index = STRGIndex(
        STRGIndexConfig(n_clusters=24, em_iterations=5,
                        cluster_sample_size=120, seed=0),
        metric_distance=counter, cluster_distance=EGED())
    index.build(fig7_corpus(1200, seed=3))
    queries = fig7_corpus(15, seed=97)
    views = index._cluster_views(None)
    per_query = []
    for k in (5, 10, 20, 30):
        counter.reset()
        walked = [knn_scan(counter, query.values, views, k, window=1)
                  for query in queries]
        per_query.append(counter.calls / len(queries))
        for query, hits in zip(queries, walked):
            assert flat(hits) == flat(index.knn(query, k))
    assert per_query == pytest.approx([275.4667, 350.4667, 456.9333,
                                       544.3333], abs=1e-3)
    assert all(new <= old for new, old in zip(per_query, CLUSTER_ORDER_WALK))


class TestSettingsOfFourPointZeroStillLoad:
    def test_from_shards_drops_the_window_settings(self):
        ogs = random_ogs(np.random.default_rng(5), 16)
        index = STRGIndex(STRGIndexConfig(n_clusters=2, em_iterations=3))
        index.build(ogs)
        written_by_4_0 = {
            "num_shards": 1, "placement": "hash", "coarse_sample_size": 64,
            "coarse_iterations": 10, "balance_factor": 1.5, "seed": 3,
            "eval_batch": 16, "prune_slack": 1e-7,
        }
        sharded = ShardedIndex.from_shards([index], written_by_4_0)
        assert sharded.serving_config() == {
            "num_shards": 1, "placement": "hash", "seed": 3}
        assert flat(sharded.knn(ogs[0], 3)) == flat(index.knn(ogs[0], 3))

    def test_sketch_meta_drops_rerank_batch(self):
        # A 4.0.0 meta: the rerank batch, and no block size yet.
        config = {"num_pivots": 8, "sig_length": 16, "grid": 4,
                  "heading_sectors": 8, "vote_share": 0.25,
                  "pivot_sample_size": 256, "seed": 0, "rerank_batch": 16}
        sketch = sketch_from_meta(json.dumps(
            {"config": config, "bbox_lo": [0.0, 0.0],
             "bbox_hi": [4.0, 2.0]}))
        assert list(sketch.bbox[1]) == [4.0, 2.0]
