"""The best-first exact scan (``repro.core.scan``) against brute force.

- Exact k-NN through ``ShardedIndex.search`` equals a brute-force top-k
  by ``(distance, og_id)`` over the clusters the request scans: 1, 2 and
  4 shards, hash and affine placement, k in {1, 10, 30}, no
  ``prune_bound``, the exact k-th distance or a looser valid bound,
  ``n_probe`` None, 1 or every cluster, with and without a background
  routing the query to one root.
- ``leaf_scans`` counts the clusters with at least one evaluated member
  and ``clusters_pruned`` the rest of the clusters handed to the scan.
- The evaluations of a fixed 2-shard affine corpus at k = 10 are pinned.
"""

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability as obs
from repro.core import scan
from repro.core.index import STRGIndexConfig
from repro.distance.base import as_series
from repro.distance.batch import one_vs_many
from repro.distance.eged import MetricEGED
from repro.search.request import SearchRequest
from repro.serving import ShardedIndex, ShardedIndexConfig
from test_index_properties import random_ogs
from test_strg_index import make_background

RED, BLUE = make_background((255, 0, 0)), make_background((0, 0, 255))


@functools.lru_cache(maxsize=None)
def built(shards: int, placement: str):
    """A sketched index over two backgrounds, held-out queries and the
    og_ids built under ``RED``."""
    ogs = random_ogs(np.random.default_rng(shards), 136, n_blobs=6)
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=shards, placement=placement, seed=1,
        index=STRGIndexConfig(n_clusters=3, em_iterations=4, seed=1)))
    index.build(ogs[:64], background=RED)
    index.build(ogs[64:128], background=BLUE)
    for shard in index.shards:
        if len(shard):
            shard.sketch_tier()
    return index, ogs[128:], {og.og_id for og in ogs[:64]}


def scanned_views(index: ShardedIndex, query, background, n_probe):
    """The cluster views a request hands the scan, picked independently
    of ``ShardedIndex._gather``."""
    views = [view for shard in index.shards if len(shard)
             for view in shard._cluster_views(background)]
    if n_probe is None:
        return views
    dists = one_vs_many(index.cluster_distance, query,
                        [view.centroid for view in views])
    return [views[i] for i in np.argsort(dists, kind="stable")[:n_probe]]


def truth(query, views) -> list[tuple[float, int]]:
    members = [record.og for view in views for record in view.records]
    dists = one_vs_many(MetricEGED(), as_series(query),
                        [as_series(og) for og in members])
    return sorted(zip(dists.tolist(), [og.og_id for og in members]))


@pytest.mark.parametrize("placement", ["hash", "affine"])
@pytest.mark.parametrize("shards", [1, 2, 4])
@given(pick=st.integers(0, 7), k=st.sampled_from([1, 10, 30]),
       bound=st.sampled_from([None, "exact", "looser"]),
       n_probe=st.sampled_from([None, 1, "all"]),
       background=st.sampled_from([None, "red"]))
@settings(max_examples=20, deadline=None)
def test_hits_are_brute_force_and_counters_add_up(shards, placement, pick,
                                                  k, bound, n_probe,
                                                  background):
    index, queries, red = built(shards, placement)
    query = queries[pick]
    background = RED if background == "red" else None
    if n_probe == "all":
        n_probe = index.num_clusters()
    views = scanned_views(index, query, background, n_probe)
    want = truth(query, views)[:k]
    prune_bound = None
    if bound is not None and len(want) == k:
        prune_bound = want[-1][0] * (1.0 if bound == "exact" else 1.5) + (
            0.0 if bound == "exact" else 1.0)
    cluster_of = {id(record.og): i for i, view in enumerate(views)
                  for record in view.records}
    touched: set[int] = set()
    evaluate = scan.evaluate_windowed

    def spy(distance, series, order, lbs, best, window, series_at,
            record_at, external=float("inf"), first=None):
        done = evaluate(distance, series, order, lbs, best, window,
                        series_at, record_at, external, first)
        touched.update(cluster_of[id(record_at(at)[0])]
                       for at in order[:done].tolist())
        return done

    obs.configure(enabled=True, reset_state=True)
    try:
        with mock.patch.object(scan, "evaluate_windowed", spy):
            hits = index.search(SearchRequest.knn(
                query, k, background=background, n_probe=n_probe,
                prune_bound=prune_bound)).hits
        counted = obs.metrics()
    finally:
        obs.configure(enabled=False, reset_state=True)
    assert [(d, og.og_id) for d, og, _ in hits] == want
    assert counted.get("serving.leaf_scans", 0) == len(touched) > 0
    assert (counted.get("serving.leaf_scans", 0)
            + counted.get("serving.clusters_pruned", 0)) == len(views)
    if background is RED:
        assert {og.og_id for _, og, _ in hits} <= red


#: Exact evaluations per query, 12 queries at k = 10 over a fixed
#: 2-shard affine corpus (references, centroids and members together).
#: The cluster-order walk this scan replaced spent 57.75 here, the
#: scan with 8 farthest-point pivots per shard 56.0, and the scan on an
#: unseeded 32-wide window 48.0.
CLUSTER_ORDER_WALK = 57.75
PER_SHARD_PIVOTS = 56.0
UNSEEDED_WINDOW = 48.0
PINNED_EVALUATIONS = 37.0833


def test_two_affine_shards_at_k10_are_pinned():
    ogs = random_ogs(np.random.default_rng(11), 252, n_blobs=6)
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=2, placement="affine", seed=0,
        index=STRGIndexConfig(n_clusters=4, em_iterations=4, seed=0)))
    index.build(ogs[:240])
    for shard in index.shards:
        shard.sketch_tier()
        shard._cluster_views(None)
    obs.configure(enabled=True, reset_state=True)
    try:
        for query in ogs[240:]:
            index.knn(query, 10)
        spent = obs.metrics()["distance.pairs_computed"] / 12
    finally:
        obs.configure(enabled=False, reset_state=True)
    assert spent == pytest.approx(PINNED_EVALUATIONS, abs=1e-3)
    assert spent <= UNSEEDED_WINDOW <= PER_SHARD_PIVOTS <= CLUSTER_ORDER_WALK
