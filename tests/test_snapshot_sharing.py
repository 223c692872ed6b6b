"""What a ``LiveIndex`` commit copies and what it shares.

``compact()`` works on ``index.clone()``, a structure-sharing copy.  The
contract checked here, by object identity and by exact counts (no
timing): every container a write mutates in place belongs to exactly one
snapshot; everything else — leaf records, OGs, centroids, a shard no
write reached and its scan cache — is the same object in both.
"""

from __future__ import annotations

import copy

import pytest

from repro import observability as obs
from repro.core.index import STRGIndex, STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.observability import MetricsRegistry, Tracer
from repro.serving import LiveIndex, ShardedIndex, ShardedIndexConfig

#: No leaf of the 96-OG indexes overflows, so no commit here re-keys a
#: leaf by splitting it (the split case has its own test).
NO_SPLIT = STRGIndexConfig(n_clusters=4, leaf_capacity=128)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_ogs(SyntheticConfig(num_ogs=144, seed=0))


@pytest.fixture
def no_deepcopy(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("compact() reached copy.deepcopy")

    monkeypatch.setattr(copy, "deepcopy", refuse)


def _mono(ogs, config=NO_SPLIT):
    index = STRGIndex(config)
    index.build(ogs, clip_refs=[{"row": i} for i in range(len(ogs))])
    index.sketch_tier()
    return index


def _sharded(ogs, placement):
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=2, placement=placement, index=NO_SPLIT))
    index.build(ogs)
    for shard in index.shards:
        shard.sketch_tier()
    return index


def _two_commits(live, corpus):
    """Publish two snapshots; the second commit inserts one OG and
    deletes another, and the first left a tombstone mask behind."""
    live.delete(corpus[3].og_id)
    before = live.compact().index
    live.insert(corpus[100], clip_ref={"row": 100})
    live.delete(corpus[5].og_id)
    after = live.compact().index
    return before, after


def _assert_tree_forked(before: STRGIndex, after: STRGIndex,
                        deleted: set[int]) -> None:
    """Own spine and sketch state, shared records, for one index pair."""
    assert after is not before
    assert after.root is not before.root
    shared = {}
    for root_a, root_b in zip(before.root, after.root, strict=True):
        assert root_b is not root_a
        assert root_b.background is root_a.background
        node_a, node_b = root_a.cluster_node, root_b.cluster_node
        assert node_b is not node_a and node_b.records is not node_a.records
        for rec_a, rec_b in zip(node_a.records, node_b.records, strict=True):
            assert rec_b is not rec_a and rec_b.leaf is not rec_a.leaf
            assert rec_b.centroid is rec_a.centroid
            assert rec_b.leaf.records is not rec_a.leaf.records
            assert rec_b.leaf.keys is not rec_a.leaf.keys
            shared.update((r.og.og_id, r) for r in rec_a.leaf)
    survivors = [r for root in after.root for rec in root.cluster_node
                 for r in rec.leaf if r.og.og_id in shared]
    assert len(survivors) == len(shared) - len(deleted & set(shared))
    for record in survivors:
        assert record is shared[record.og.og_id]

    sk_a, sk_b = before._sketches, after._sketches
    assert sk_b is not sk_a and sk_b._rows is not sk_a._rows
    assert sk_b._dead is not None and sk_b._dead is not sk_a._dead
    assert sk_b.pivots is sk_a.pivots
    assert sk_b._rows._records is not sk_a._rows._records
    assert sk_b._ids is sk_a._ids        # the base: never copied


class TestMonolithic:
    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_commit_forks_spine_and_shares_records(
            self, corpus, lazy, attach_lazy_sketch, no_deepcopy):
        index = _mono(corpus[:96])
        if lazy:
            attach_lazy_sketch(index)
        before, after = _two_commits(LiveIndex(index), corpus)
        assert len(before) == 95 and len(after) == 95
        assert before.frozen and after.frozen
        _assert_tree_forked(before, after, {corpus[5].og_id})

    def test_split_leaves_the_published_tree_alone(self, corpus,
                                                   no_deepcopy):
        # Leaves of 36 and 50 against a capacity of 24: inserts into
        # them re-run the BIC test, and this batch splits one.
        index = _mono(corpus[:128], STRGIndexConfig(
            n_clusters=4, leaf_capacity=24, em_iterations=6))
        live = LiveIndex(index)
        before = live.snapshot.index
        shape = [(id(r), len(r.leaf)) for r in before.cluster_records()]
        live.bulk_insert(corpus[128:144])
        after = live.compact().index
        assert after.num_clusters() > before.num_clusters() == 4
        assert [(id(r), len(r.leaf))
                for r in before.cluster_records()] == shape
        assert len(before) == 128 and len(after) == 144

    def test_clone_of_a_mutable_index_is_independent(self, corpus):
        index = _mono(corpus[:32])
        dup = index.clone()
        dup.insert(corpus[40])
        index.delete(corpus[0].og_id)
        assert (len(index), len(dup)) == (31, 33)
        assert len(index.sketch_tier()) == 31
        assert len(dup.sketch_tier()) == 33


class TestSharded:
    @pytest.mark.parametrize("lazy", [False, True], ids=["eager", "lazy"])
    def test_commit_clones_only_the_written_shard(
            self, corpus, lazy, attach_lazy_sketch, no_deepcopy):
        # Hash placement: og_id parity names the shard, so the test can
        # aim both writes of the second commit at one shard.
        index = _sharded(corpus[:96], "hash")
        if lazy:
            for shard in index.shards:
                attach_lazy_sketch(shard)
        parity = corpus[100].og_id % 2
        same = [og for og in corpus[:96] if og.og_id % 2 == parity]
        live = LiveIndex(index)
        live.delete(same[0].og_id)
        before = live.compact().index
        before.knn(corpus[0], 3)        # builds every shard's scan views
        views = [shard._views for shard in before.shards]
        live.insert(corpus[100])
        live.delete(same[1].og_id)
        after = live.compact().index
        after.knn(corpus[0], 3)

        assert after is not before and after.shards is not before.shards
        assert after.shards[1 - parity] is before.shards[1 - parity]
        assert after.shards[1 - parity]._views is views[1 - parity]
        assert after.shards[parity]._views is not views[parity]
        assert before.shards[parity]._views is views[parity]
        assert all(shard.frozen for shard in after.shards)
        _assert_tree_forked(before.shards[parity], after.shards[parity],
                            {same[1].og_id})
        assert len(before) == 95 and len(after) == 95

    def test_clone_of_a_mutable_index_is_independent(self, corpus):
        # Unfrozen shards could still change under a sharing copy, so
        # they are cloned up front — and the scan caches, keyed by the
        # original's record identities, must not pass for the clone's.
        index = _sharded(corpus[:96], "affine")
        dup = index.clone()
        assert all(a is not b for a, b in zip(index.shards, dup.shards))
        victim = next(index.shards[1].object_graphs())
        assert index.delete(victim.og_id)
        assert (len(index), len(dup)) == (95, 96)
        for shard in dup.shards:
            shard._cluster_views(None)
            assert ({id(r) for r in shard.cluster_records()}
                    == set(shard._views.by_record))

    def test_delete_finds_its_shard_without_cloning_the_others(self, corpus):
        index = _sharded(corpus[:96], "affine").freeze()
        victim = next(index.shards[1].object_graphs())
        dup = index.clone()
        assert dup.shards[0] is index.shards[0]
        assert dup.delete(victim.og_id)
        assert not dup.delete(victim.og_id)
        assert dup.shards[0] is index.shards[0]
        assert dup.shards[1] is not index.shards[1]
        assert dup.shards[0].mutations == index.shards[0].mutations
        assert (len(index), len(dup)) == (96, 95)

    def test_one_insert_commit_sweeps_one_shard(self, corpus):
        """The commit's distance work is bounded by the written shard.

        Placement (one pair per placement pivot), the insert's centroid
        keys and its sketch row; then the next read rebuilds the scan
        views of the written shard only, at no evaluation — member rows
        come from the sketch table.
        """
        index = _sharded(corpus[:96], "affine")
        live = LiveIndex(index)
        before = live.snapshot.index
        before.knn(corpus[0], 3)        # builds every shard's scan views
        views = [shard._views for shard in before.shards]
        obs.configure(enabled=True, registry=MetricsRegistry(),
                      tracer=Tracer())
        try:
            live.insert(corpus[100])
            after = live.compact().index
            commit = obs.metrics()["distance.pairs_computed"]
            for shard in after.shards:
                shard._cluster_views(None)
            rebuild = obs.metrics()["distance.pairs_computed"] - commit
        finally:
            obs.configure(enabled=False, registry=MetricsRegistry(),
                          tracer=Tracer())
        (written,) = [s for s in range(2)
                      if after.shards[s] is not before.shards[s]]
        shard = after.shards[written]
        sketch_pivots = len(shard.sketch_tier().pivots)
        assert commit == (len(before.pivots) + shard.num_clusters()
                          + sketch_pivots)
        assert rebuild == 0
        assert after.shards[1 - written]._views is views[1 - written]
        assert shard._views is not views[written]
