"""One distance sweep per build.

A first build of at least ``MIN_FIT_OGS`` OGs fits the corpus's
reference set after every shard's EM, and each shard measures its batch
once against every centroid of the corpus: the own-centroid columns are
the leaf keys, the reference columns the records' float32 ``refs`` rows.
What it stores must be what the lazy tier stored: the set
``corpus_references`` fits over the built tree and the rows
``reference_rows`` sweeps over it, bit for bit, whether every centroid
is a reference, the set needs the farthest-point top-up, a cluster ends
empty or two centroids coincide.  The build spends the sweep, the
placement and the top-up fit, and nothing else; a smaller first build
holds no set and fits it lazily, as before.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import observability as obs
from repro.clustering.em import EMClustering
from repro.core.index import STRGIndex, STRGIndexConfig, corpus_references
from repro.datasets.patterns import ALL_PATTERNS
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.batch import one_vs_many
from repro.distance.eged import MetricEGED
from repro.search.sketch import (
    MIN_FIT_OGS,
    MIN_REFERENCES,
    PIVOT_SAMPLE_SIZE,
    reference_rows,
)
from repro.serving.sharding import ShardedIndex, ShardedIndexConfig


def corpus(num: int, seed: int = 5, patterns: int = 16):
    return generate_synthetic_ogs(SyntheticConfig(
        num_ogs=num, noise_fraction=0.10, seed=seed,
        patterns=ALL_PATTERNS[:patterns]))


def shards_of(index) -> list[STRGIndex]:
    return index.shards if isinstance(index, ShardedIndex) else [index]


def refitted(shards: list[STRGIndex]) -> list[np.ndarray]:
    """``corpus_references`` over the built tree, as the lazy tier fits
    it: on copies that hold no set."""
    bare = [copy.copy(shard) for shard in shards]
    for shard in bare:
        shard._references = None
    return corpus_references(bare)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def assert_lazy_tier_equal(index) -> list[np.ndarray]:
    """Every shard holds the refitted set, every record its reference
    row as ``reference_rows`` sweeps it over the leaf order, and every
    key is the metric distance to its own centroid, bit for bit."""
    shards = shards_of(index)
    want = refitted(shards)
    metric = shards[0].metric_distance
    for shard in shards:
        assert len(shard._references) == len(want)
        assert all(same_bits(got, ref)
                   for got, ref in zip(shard._references, want))
        records = list(shard.leaf_records())
        if not records:
            continue
        _, rows = reference_rows(metric, want,
                                 [record.og for record in records])
        assert same_bits(np.stack([record.refs for record in records]), rows)
        for cluster in shard.cluster_records():
            keys = one_vs_many(metric, cluster.centroid,
                               [record.og for record in cluster.leaf])
            assert same_bits(np.array(cluster.leaf.keys), keys)
    return want


def patch_clustering(monkeypatch, edit):
    """Run ``edit`` on every build's EM stage result."""
    real = STRGIndex._cluster
    monkeypatch.setattr(STRGIndex, "_cluster",
                        lambda self, ogs: edit(real(self, ogs)))


# -- (a) the set, the keys and the rows ------------------------------------


def test_two_affine_shards_take_their_sixteen_centroids():
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=2, placement="affine",
        index=STRGIndexConfig(n_clusters=8, em_iterations=4,
                              cluster_sample_size=64)))
    index.build(corpus(300), clip_refs=list(range(300)))
    refs = assert_lazy_tier_equal(index)
    centroids = [record.centroid for shard in index.shards
                 for record in shard.cluster_records()]
    assert len(refs) == len(centroids) == 16
    assert all(same_bits(r, c) for r, c in zip(refs, centroids))
    assert index.shards[0]._references is index.shards[1]._references
    # Fitted at build: the tier refiles nothing.
    records = list(index.shards[0].leaf_records())
    index.shards[0].sketch_tier()
    assert all(a is b for a, b in
               zip(records, index.shards[0].leaf_records()))


def test_monolithic_build_tops_the_centroids_up():
    """More members than the greedy samples: the sample is drawn from
    the leaf order, as the lazy tier drew it."""
    index = STRGIndex(STRGIndexConfig(n_clusters=4, em_iterations=4,
                                      cluster_sample_size=40))
    index.build(corpus(PIVOT_SAMPLE_SIZE + 60, patterns=8))
    refs = assert_lazy_tier_equal(index)
    assert index.num_clusters() < len(refs) == MIN_REFERENCES


def test_a_cluster_that_ends_empty_is_no_reference(monkeypatch):
    """A centroid no OG is filed under has no cluster record and no
    reference column."""
    def far_centroid(plan):
        return plan._replace(centroids=[*plan.centroids,
                                        plan.centroids[0] + 1e4])

    patch_clustering(monkeypatch, far_centroid)
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=2, placement="affine",
        index=STRGIndexConfig(n_clusters=4, em_iterations=4,
                              cluster_sample_size=40)))
    index.build(corpus(160))
    assert index.num_clusters() == 8
    refs = assert_lazy_tier_equal(index)
    assert not any(np.abs(ref).max() > 1e3 for ref in refs)


def test_duplicate_centroids_are_one_reference(monkeypatch):
    """Two non-empty clusters on one centroid: both keep their records,
    the set holds the centroid once."""
    def split_first(plan):
        members = [j for j, c in enumerate(plan.cluster_of) if c == 0]
        moved = list(plan.cluster_of)
        for j in members[::2]:
            moved[j] = len(plan.centroids)
        return plan._replace(
            cluster_of=moved,
            centroids=[*plan.centroids, plan.centroids[0].copy()])

    patch_clustering(monkeypatch, split_first)
    index = STRGIndex(STRGIndexConfig(n_clusters=5, em_iterations=4))
    index.build(corpus(100, patterns=8))
    assert index.num_clusters() == 6
    refs = assert_lazy_tier_equal(index)
    assert len(refs) == MIN_REFERENCES
    assert sum(same_bits(ref, index.cluster_records()[0].centroid)
               for ref in refs) == 1


def test_a_tie_goes_to_the_first_centroid(monkeypatch):
    """An OG outside EM's sample joins its nearest centroid, the first
    on a tie: a copy of a centroid appended after it draws no OG."""
    patch_clustering(monkeypatch, lambda plan: plan._replace(
        centroids=[*plan.centroids, plan.centroids[0].copy()]))
    index = STRGIndex(STRGIndexConfig(n_clusters=4, em_iterations=4,
                                      cluster_sample_size=40))
    index.build(corpus(160, patterns=8))
    assert index.num_clusters() == 4
    assert_lazy_tier_equal(index)


def test_a_later_build_sweeps_the_set_it_holds():
    """A new root in an index holding a set fills its rows against that
    set, which stays as it was."""
    ogs = corpus(140, patterns=8)
    index = STRGIndex(STRGIndexConfig(n_clusters=4, em_iterations=4))
    index.build(ogs[:100])
    held = index._references
    index.build(ogs[100:], background=None)
    assert index._references is held and len(index.root) == 2
    records = list(index.leaf_records())
    _, rows = reference_rows(index.metric_distance, held,
                             [record.og for record in records])
    assert same_bits(np.stack([record.refs for record in records]), rows)


# -- (b) what a build spends -------------------------------------------------


def build_pairs(monkeypatch, build) -> int:
    """``distance.pairs_computed`` of ``build()`` outside its EM fits
    (the clustering stage's own sweeps)."""
    em = []
    fit = EMClustering.fit

    def counted_fit(self, ogs):
        before = obs.metrics().get("distance.pairs_computed", 0)
        result = fit(self, ogs)
        em.append(obs.metrics().get("distance.pairs_computed", 0) - before)
        return result

    monkeypatch.setattr(EMClustering, "fit", counted_fit)
    obs.configure(enabled=True, reset_state=True)
    try:
        build()
        return obs.metrics()["distance.pairs_computed"] - sum(em)
    finally:
        obs.configure(enabled=False, reset_state=True)


def test_a_sharded_build_spends_its_sweep_and_its_placement(monkeypatch):
    ogs = corpus(300)
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=2, placement="affine",
        index=STRGIndexConfig(n_clusters=8, em_iterations=4,
                              cluster_sample_size=64)))
    pairs = build_pairs(monkeypatch, lambda: index.build(ogs))
    assert len(index.shards[0]._references) == 16
    # Every OG against the 16 centroids, and against the 2 pivots.
    assert pairs == len(ogs) * 16 + len(ogs) * 2


def test_a_topped_up_build_spends_its_sweep_and_the_fit(monkeypatch):
    ogs = corpus(300, patterns=8)
    index = STRGIndex(STRGIndexConfig(n_clusters=6, em_iterations=4,
                                      cluster_sample_size=64))
    pairs = build_pairs(monkeypatch, lambda: index.build(ogs))
    k = index.num_clusters()
    assert k == 6
    top = MIN_REFERENCES - k
    sample = min(len(ogs), PIVOT_SAMPLE_SIZE)
    # The sweep over the centroids and the top-up block, then the fit:
    # the centroids over the leaf-order sample, and one greedy sweep
    # per top-up reference.
    assert pairs == len(ogs) * (k + top) + k * sample + top * sample


# -- (c) a first build under the threshold -----------------------------------


@pytest.mark.parametrize("shards", [None, 2])
def test_a_small_first_build_holds_no_set_and_fits_it_lazily(shards):
    ogs = corpus(5)
    config = STRGIndexConfig(n_clusters=2, em_iterations=4)
    index = (STRGIndex(config) if shards is None else ShardedIndex(
        ShardedIndexConfig(num_shards=shards, placement="hash",
                           index=config)))
    index.build(ogs)
    parts = shards_of(index)
    assert all(part._references is None for part in parts)
    assert all(record.refs is None for part in parts
               for record in part.leaf_records())
    for part in parts:
        part.sketch_tier(index.reference_set if shards else None)
    assert_lazy_tier_equal(index)


def test_the_threshold_is_the_first_build_size():
    ogs = corpus(MIN_FIT_OGS)
    below = STRGIndex(STRGIndexConfig(n_clusters=2, em_iterations=3))
    below.build(ogs[:-1])
    at = STRGIndex(STRGIndexConfig(n_clusters=2, em_iterations=3))
    at.build(ogs)
    assert below._references is None
    assert at._references is not None
    # Inserts into a tierless index keep it tierless.
    below.insert(ogs[-1])
    assert below._references is None


def test_an_empty_shard_takes_the_fitted_set():
    """Hash placement may leave a shard empty; it still holds the set,
    so an OG inserted there later gets its row."""
    ogs = [og for og in corpus(200) if og.og_id % 4 != 3][:60]
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=4, placement="hash",
        index=STRGIndexConfig(n_clusters=2, em_iterations=3)),
        metric_distance=MetricEGED())
    index.build(ogs)
    assert len(index.shards[3]) == 0
    assert all(shard._references is index.shards[0]._references
               for shard in index.shards)
    stranger = next(og for og in corpus(40, seed=9) if og.og_id % 4 == 3)
    shard, row = index.insert(stranger)
    assert shard == 3
    (record,) = index.shards[3].leaf_records()
    assert record.refs is not None and record.row == row
