"""One budgeted rerank over every shard's shortlist.

A budgeted k-NN over a sharded corpus splits the budget into per-shard
shares (``split_budget``); each shard's sketch shortlists its own rows
under its share, and :func:`~repro.search.sketch.approx_knn` reranks the
merged shortlists best-first under one k-th best distance.  Checked over
{1, 2, 4 shards} x {hash, affine} x {built, mmap-loaded, out of core}:

- the hits are the exact top-k, by ``(distance, og_id)``, of the union
  of every part's ``candidates()`` at its share, evaluated by brute
  force;
- the exact evaluations never exceed a rerank per part, each under its
  own k-th bound (the split rerank this one replaced, copied below);
- seeding the first window with 2k candidates keeps the hits of the
  fixed-window loop (copied below) at no more evaluations, with and
  without an outside bound;
- a fixed 2-shard fixture spends a recorded number of evaluations, so
  splitting the rerank again fails here;
- a query counts ``search.knn_queries`` and opens ``search.approx_knn``
  once, however many parts it reranks.
"""

from __future__ import annotations

import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import observability as obs
from repro.core.index import STRGIndexConfig
from repro.core import scan
from repro.core.scan import RERANK_WINDOW, evaluate_windowed, slack_at
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.batch import one_vs_many
from repro.search.request import SearchRequest, TopK, split_budget
from repro.search.sketch import NUM_PIVOTS
from repro.serving import ShardedIndex, ShardedIndexConfig
from repro.storage.store import open_store

N = 240
BUDGETS = {"below k + P": lambda k: k + NUM_PIVOTS - 1,
           "200": lambda k: 200,
           "N + P": lambda k: N + NUM_PIVOTS}
QUERIES = generate_synthetic_ogs(SyntheticConfig(num_ogs=12, seed=404))


def sharded(shards: int, placement: str, ogs) -> ShardedIndex:
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=shards, placement=placement,
        index=STRGIndexConfig(n_clusters=4, em_iterations=4, seed=0)))
    index.build(ogs, clip_refs=[f"clip-{i}" for i in range(len(ogs))])
    for shard in index.shards:
        if len(shard):
            shard.sketch_tier()
    return index


@pytest.fixture(scope="module", params=[
    (shards, placement) for shards in (1, 2, 4)
    for placement in ("hash", "affine")], ids=lambda p: f"{p[0]}-{p[1]}")
def corpus(request, tmp_path_factory):
    shards, placement = request.param
    ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=N, seed=31))
    index = sharded(shards, placement, ogs)
    path = open_store(tmp_path_factory.mktemp("rerank") / "corpus"
                      ).write_index(index)
    return index, path


def layer_and_parts(index, path, how):
    """``(answer(query, k, budget) -> hits, parts, part sizes, distance)``
    of one read path; ``parts`` are the sketches it reranks."""
    if how == "ooc":
        db = repro.open_database(path, create=False)
        parts = open_store(path).load_sketch(mmap=True)

        def answer(query, k, budget):
            hits = db.knn(query, k, search_budget=budget)
            assert not db.index_loaded
            return [(h.distance, h.og, h.clip_ref) for h in hits]

        return answer, parts, [len(p) for p in parts], \
            parts[0].replay_distance
    if how == "mmap":
        index = open_store(path).load_index(mmap=True)

    def answer(query, k, budget):
        return index.knn(query, k, search_budget=budget)

    live = [shard for shard in index.shards if len(shard)]
    return answer, [shard.sketch_tier() for shard in live], \
        index.shard_sizes(), index.metric_distance


def live_shares(budget, sizes, k):
    return [share for share, size in zip(split_budget(budget, sizes, k),
                                         sizes) if size]


def union_oracle(parts, shares, distance, series, k):
    """Brute-force top-k over every part's shortlist at its share."""
    found = []
    for part, share in zip(parts, shares):
        idx, _, _ = part.candidates(distance, series, share, k)
        dists = one_vs_many(distance, series,
                            [part.row_series(i) for i in idx])
        for i, d in zip(idx, dists):
            og, ref = part.row_record(i)
            found.append((float(d), og.og_id, ref))
    found.sort(key=lambda hit: hit[:2])
    return found[:k]


def per_part_cost(parts, shares, distance, series, k):
    """Evaluations of a rerank per part, each under its own k-th bound —
    the split rerank a sharded budgeted query ran before one rerank."""
    spent = 0
    for part, share in zip(parts, shares):
        idx, lbs, pivot_evals = part.candidates(distance, series, share, k)
        order = np.lexsort((part.row_ids_at(idx), lbs))
        shortlist = list(zip(lbs[order].tolist(), idx[order].tolist()))
        spent += pivot_evals + evaluate_windowed(
            distance, series, shortlist, TopK(k), RERANK_WINDOW,
            lambda c: part.row_series(c[1]),
            lambda c: part.row_record(c[1]))
    return spent


def counted(fn):
    """``(fn(), distance.pairs_computed)`` with observability on."""
    obs.configure(enabled=True, reset_state=True)
    try:
        result = fn()
        return result, obs.metrics().get("distance.pairs_computed", 0)
    finally:
        obs.configure(enabled=False, reset_state=True)


@pytest.mark.parametrize("how", ["built", "mmap", "ooc"])
@given(budget=st.sampled_from(sorted(BUDGETS)), k=st.sampled_from([1, 10]),
       query=st.integers(0, len(QUERIES) - 1))
@settings(max_examples=12, deadline=None)
def test_one_rerank_is_the_top_k_of_the_union(corpus, how, budget, k,
                                              query):
    index, path = corpus
    answer, parts, sizes, distance = layer_and_parts(index, path, how)
    budget = BUDGETS[budget](k)
    q = QUERIES[query]
    answer(q, k, budget)            # first read: attach sketches, rows
    hits, spent = counted(lambda: answer(q, k, budget))
    series = SearchRequest.knn(q, k).series
    shares = live_shares(budget, sizes, k)
    assert [(d, og.og_id, ref) for d, og, ref in hits] \
        == union_oracle(parts, shares, distance, series, k)
    assert 0 < spent <= per_part_cost(parts, shares, distance, series, k)


def fixed_windows(distance, series, candidates, best, window, series_of,
                  record_of, external=math.inf):
    """The rerank loop before its first window was seeded: every sweep
    takes up to ``window`` candidates, re-cut against the k-th bound."""
    start = 0
    while start < len(candidates):
        bound = min(best.bound, external)
        limit = bound + slack_at(bound)
        stop = start
        end = min(len(candidates), start + window)
        while stop < end and candidates[stop][0] <= limit:
            stop += 1
        if stop == start:
            break
        chunk = candidates[start:stop]
        dists = one_vs_many(distance, series, [series_of(c) for c in chunk])
        for candidate, d in zip(chunk, dists):
            best.offer(float(d), *record_of(candidate))
        start = stop
    return start


@given(budget=st.sampled_from(sorted(BUDGETS)), k=st.sampled_from([1, 10, 30]),
       query=st.integers(0, len(QUERIES) - 1),
       external=st.sampled_from([None, 1.0, 1.5]))
@settings(max_examples=15, deadline=None)
def test_seeded_rerank_keeps_the_hits_at_no_more_evaluations(
        corpus, budget, k, query, external):
    """The shortlist ``approx_knn`` reranks, seeded with a first sweep
    of 2k, against the fixed-window loop: the same hits, never more
    evaluations — with no outside bound, and with one at (or above) the
    shortlist's true k-th distance."""
    index, _ = corpus
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return evaluate_windowed(*args, **kwargs)

    with mock.patch.object(scan, "evaluate_windowed", spy):
        index.knn(QUERIES[query], k, search_budget=BUDGETS[budget](k))
    (distance, series, shortlist, _, window, series_of, record_of), \
        kwargs = calls[0]
    assert kwargs == {"first": 2 * k}
    bound = math.inf
    if external is not None:
        exact = TopK(k)
        fixed_windows(distance, series, shortlist, exact, window,
                      series_of, record_of)
        bound = exact.bound * external
    runs = []
    for loop, extra in ((fixed_windows, {}),
                        (evaluate_windowed, {"first": 2 * k})):
        best = TopK(k)
        spent = loop(distance, series, shortlist, best, window, series_of,
                     record_of, bound, **extra)
        runs.append((spent, [(d, og.og_id, ref) for d, og, ref in best.hits]))
    (fixed, fixed_hits), (seeded, seeded_hits) = runs
    assert seeded_hits == fixed_hits
    assert seeded <= fixed


def test_two_shard_rerank_spends_the_recorded_evaluations():
    """A fixed 2-shard corpus and 12 queries at k = 10, budget 200: the
    one rerank spends the recorded evaluations, well under the 1865 a
    rerank per shard spends on the same shortlists (recorded with the
    per-shard rerank), and under the 1076 it spent before its first
    window was seeded with 2k candidates."""
    ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=N, seed=31))
    index = sharded(2, "hash", ogs)
    parts = [shard.sketch_tier() for shard in index.shards]
    shares = split_budget(200, index.shard_sizes(), 10)
    one = split = 0
    for q in QUERIES:
        _, spent = counted(lambda: index.knn(q, 10, search_budget=200))
        one += spent
        split += per_part_cost(parts, shares, index.metric_distance,
                               SearchRequest.knn(q, 10).series, 10)
    assert one <= 1076
    assert (one, split) == (964, 1865)


def test_a_query_counts_once_over_every_part():
    ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=80, seed=7))
    index = sharded(2, "hash", ogs)
    query = QUERIES[0]
    series = SearchRequest.knn(query, 5).series
    shares = split_budget(30, index.shard_sizes(), 5)
    shortlisted = sum(
        len(shard.sketch_tier().candidates(index.metric_distance, series,
                                           share, 5)[0])
        for shard, share in zip(index.shards, shares))
    obs.configure(enabled=True, reset_state=True)
    try:
        index.knn(query, 5, search_budget=30)
        metrics = obs.metrics()
        spans = [json.loads(line)["name"]
                 for line in obs.tracer().to_jsonl().splitlines()]
    finally:
        obs.configure(enabled=False, reset_state=True)
    assert metrics["search.knn_queries"] == 1
    assert spans.count("search.approx_knn") == 1
    assert metrics["search.candidates_generated"] == shortlisted
    assert metrics["search.candidates_pruned"] \
        == shortlisted - (metrics["search.distances_computed"]
                          - 2 * NUM_PIVOTS)
