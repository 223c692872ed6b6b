"""One budgeted rerank over every shard's shortlist.

A budgeted k-NN over a sharded corpus sweeps the shards' one reference
set once and splits the rest of the budget into per-shard shares
(``split_budget``); each shard's sketch shortlists its own rows under
its share, and :func:`~repro.search.sketch.approx_knn` reranks the
merged shortlists best-first under one k-th best distance.  Checked
over {1, 2, 4 shards} x {hash, affine} x {built, mmap-loaded, out of
core}:

- the hits are the exact top-k, by ``(distance, og_id)``, of the union
  of every part's ``candidates()`` at its share, evaluated by brute
  force;
- the exact evaluations never exceed a rerank per part, each under its
  own k-th bound and sweeping the references itself (the split rerank
  this one replaced, copied below);
- the one best-first loop, fed an exact scan's candidates or the
  shortlists, keeps the hits of a window-1 walk, and its first window,
  seeded with 2k candidates, spends no more evaluations than the
  fixed-window loop (copied below), with and without an outside bound;
- the float32 reference columns never bound a row above its true
  distance, a budget of N + R (R references) answers exactly, every
  reopen answers like the index that wrote the store, and a query
  evaluates each reference once;
- a fixed 2-shard fixture spends a recorded number of evaluations, so
  splitting the rerank again fails here;
- a query counts ``search.knn_queries`` and opens ``search.approx_knn``
  once, however many parts it reranks, and dedupes their reference
  sets once.
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
from repro.core.scan import WINDOW, best_first, evaluate_windowed, slack_at
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.batch import one_vs_many
from repro.distance.bounds import distinct_reference_sets
from repro.search.request import SearchRequest, TopK, split_budget
from repro.search import sketch
from repro.search.sketch import MIN_REFERENCES
from repro.serving import ShardedIndex, ShardedIndexConfig
from repro.storage.store import open_store

N = 240
#: Evaluations of :func:`test_two_shard_rerank_spends_the_recorded_evaluations`:
#: the one rerank, and a rerank per shard on the same shortlists.
PINNED_ONE, PINNED_SPLIT = 903, 2044
BUDGETS = {"below k + R": lambda k: k + MIN_REFERENCES - 1,
           "200": lambda k: 200,
           "N + R": lambda k: N + MIN_REFERENCES}
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


def reference_count(parts):
    """Evaluations a query spends sweeping the references of ``parts``:
    each distinct set once."""
    sets, _ = distinct_reference_sets([part.pivots for part in parts])
    return sum(len(refs) for refs in sets)


def live_shares(budget, parts, sizes, k):
    """Each live part's share of what the reference sweep leaves."""
    left = max(0, budget - reference_count(parts))
    return [share for share, size in zip(split_budget(left, sizes, k),
                                         sizes) if size]


def union_oracle(parts, shares, distance, series, k):
    """Brute-force top-k over every part's shortlist at its share;
    each shortlist must come in ``(bound, row id)`` order."""
    found = []
    for part, share in zip(parts, shares):
        idx, lbs = part.candidates(distance, series, share, k)
        assert (np.lexsort((part.row_ids[idx], lbs))
                == np.arange(len(idx))).all()
        dists = one_vs_many(distance, series,
                            [part.row_series(i) for i in idx])
        for i, d in zip(idx, dists):
            og, ref = part.row_record(i)
            found.append((float(d), og.og_id, ref))
    found.sort(key=lambda hit: hit[:2])
    return found[:k]


def per_part_cost(parts, shares, distance, series, k):
    """Evaluations of a rerank per part, each under its own k-th bound
    and sweeping its references itself — the split rerank a sharded
    budgeted query ran before one rerank."""
    spent = 0
    for part, share in zip(parts, shares):
        idx, lbs = part.candidates(distance, series, share, k)
        order = np.lexsort((part.row_ids[idx], lbs))
        spent += len(part.pivots) + evaluate_windowed(
            distance, series, order, lbs, TopK(k), WINDOW,
            lambda at: part.row_series(idx[at]),
            lambda at: part.row_record(idx[at]))
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
    shares = live_shares(budget, parts, sizes, k)
    assert [(d, og.og_id, ref) for d, og, ref in hits] \
        == union_oracle(parts, shares, distance, series, k)
    assert 0 < spent <= per_part_cost(parts, shares, distance, series, k)


def fixed_windows(distance, series, order, lbs, best, window, series_at,
                  record_at, external=math.inf):
    """The rerank loop before its first window was seeded: every sweep
    takes up to ``window`` candidates, re-cut against the k-th bound."""
    start = 0
    while start < len(order):
        bound = min(best.bound, external)
        limit = bound + slack_at(bound)
        stop = start
        end = min(len(order), start + window)
        while stop < end and lbs[order[stop]] <= limit:
            stop += 1
        if stop == start:
            break
        chunk = order[start:stop].tolist()
        dists = one_vs_many(distance, series, [series_at(at) for at in chunk])
        for at, d in zip(chunk, dists):
            best.offer(float(d), *record_at(at))
        start = stop
    return start


@given(budget=st.sampled_from([None, *sorted(BUDGETS)]),
       k=st.sampled_from([1, 10, 30]),
       query=st.integers(0, len(QUERIES) - 1),
       external=st.sampled_from([None, 1.0, 1.5]))
@settings(max_examples=15, deadline=None)
def test_seeded_rerank_keeps_the_hits_at_no_more_evaluations(
        corpus, budget, k, query, external):
    """The candidates the one best-first loop takes — an exact scan's
    (``budget`` None) or a budgeted query's shortlists: its default
    schedule finds the hits of a window-1 best-first walk bit for bit,
    and never evaluates more than the unseeded fixed-window loop at the
    same window — with no outside bound, and with one at (or above)
    the true k-th distance."""
    index, _ = corpus
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return best_first(*args, **kwargs)

    with mock.patch.object(scan, "best_first", spy):
        index.knn(QUERIES[query], k, search_budget=None if budget is None
                  else BUDGETS[budget](k))
    (distance, series, lbs, _, series_at, record_at), kwargs = calls[0]
    assert kwargs.get("window", WINDOW) == WINDOW

    def portable(hits):
        return [(d, og.og_id, ref) for d, og, ref in hits]

    walk, _ = best_first(distance, series, lbs, k, series_at, record_at,
                         window=1)
    bound = math.inf
    if external is not None and len(walk) == k:
        bound = walk[-1][0] * external
    hits, evaluated = best_first(distance, series, lbs, k, series_at,
                                 record_at, external=bound)
    order = np.lexsort((np.arange(len(lbs)), lbs))
    fixed = TopK(k)
    spent = fixed_windows(distance, series, order, lbs, fixed, WINDOW,
                          series_at, record_at, bound)
    assert portable(hits) == portable(walk) == portable(fixed.hits)
    assert len(evaluated) <= spent


@pytest.mark.parametrize("how", ["built", "eager", "mmap", "ooc"])
@given(k=st.sampled_from([1, 10, 30]),
       query=st.integers(0, len(QUERIES) - 1))
@settings(max_examples=6, deadline=None)
def test_one_reference_sweep_bounds_and_answers_alike(corpus, how, k,
                                                      query):
    """The one reference channel, on every read path: each part's
    float32 bound never exceeds the true distance, a budget of N + R
    answers exactly, budgeted hits equal the built index's, and a
    query evaluates each of the R references once plus the candidates
    its rerank evaluated."""
    index, path = corpus
    q = QUERIES[query]
    if how == "eager":
        loaded = open_store(path).load_index(mmap=False)
        parts = [shard.sketch_tier() for shard in loaded.shards
                 if len(shard)]
        distance = loaded.metric_distance

        def answer(query, k, budget):
            return loaded.knn(query, k, search_budget=budget)
    else:
        answer, parts, _, distance = layer_and_parts(index, path, how)
    refs = reference_count(parts)
    assert refs == len(parts[0].pivots) >= MIN_REFERENCES
    series = SearchRequest.knn(q, k).series
    for part in parts:
        idx, lbs = part.candidates(distance, series, len(part), k)
        true = one_vs_many(distance, series,
                           [part.row_series(i) for i in idx])
        assert len(idx) == len(part) and np.all(lbs <= true)

    def portable(hits):
        return [(d, ref) for d, _, ref in hits]

    covering, exact = answer(q, k, N + refs), index.knn(q, k)
    assert portable(covering) == portable(exact)
    if how == "built":          # the same OGs: their og_ids too
        assert [og.og_id for _, og, _ in covering] \
            == [og.og_id for _, og, _ in exact]
    answer(q, k, 200)           # first read: attach sketches, rows
    evaluated = []

    def spy(*args, **kwargs):
        evaluated.append(evaluate_windowed(*args, **kwargs))
        return evaluated[-1]

    with mock.patch.object(scan, "evaluate_windowed", spy):
        hits, spent = counted(lambda: answer(q, k, 200))
    assert portable(hits) == portable(index.knn(q, k, search_budget=200))
    # Each part's share of the 200 - R left rounds up.
    assert spent == refs + sum(evaluated) <= 200 + len(parts) - 1


def test_two_shard_rerank_spends_the_recorded_evaluations():
    """A fixed 2-shard corpus and 12 queries at k = 10, budget 200: the
    one rerank spends the recorded evaluations, well under what a
    rerank per shard spends on the same shortlists, and under the 964
    it spent with 8 farthest-point pivots per shard and the vote
    channel (and the 1076 before its first window was seeded with 2k
    candidates)."""
    ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=N, seed=31))
    index = sharded(2, "hash", ogs)
    parts = [shard.sketch_tier() for shard in index.shards]
    shares = live_shares(200, parts, index.shard_sizes(), 10)
    one = split = 0
    for q in QUERIES:
        _, spent = counted(lambda: index.knn(q, 10, search_budget=200))
        one += spent
        split += per_part_cost(parts, shares, index.metric_distance,
                               SearchRequest.knn(q, 10).series, 10)
    assert one <= 964 <= 1076
    assert (one, split) == (PINNED_ONE, PINNED_SPLIT)


def test_a_query_counts_once_over_every_part():
    ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=80, seed=7))
    index = sharded(2, "hash", ogs)
    query = QUERIES[0]
    series = SearchRequest.knn(query, 5).series
    parts = [shard.sketch_tier() for shard in index.shards]
    shares = live_shares(30, parts, index.shard_sizes(), 5)
    shortlisted = sum(
        len(part.candidates(index.metric_distance, series, share, 5)[0])
        for part, share in zip(parts, shares))
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
                          - reference_count(parts))


def test_equal_reference_sets_are_swept_once():
    """Reference sets are compared by content, not by the list that
    holds them: a shard tier holding an equal copy of its sibling's
    set costs no exact or budgeted query an evaluation more, and
    answers alike."""
    ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=80, seed=7))
    shared, copied = sharded(2, "hash", ogs), sharded(2, "hash", ogs)
    tier = copied.shards[1].sketch_tier()
    tier.pivots = [ref.copy() for ref in tier.pivots]
    assert tier.pivots is not copied.shards[0].sketch_tier().pivots

    def run(index):
        return [(d, ref) for q in QUERIES[:4]
                for hits in (index.knn(q, 5),
                             index.knn(q, 5, search_budget=40))
                for d, _, ref in hits]

    assert counted(lambda: run(copied)) == counted(lambda: run(shared))


def test_a_budgeted_query_dedupes_the_reference_sets_once():
    """The dedupe that sweeps the parts' references also gives the
    count the budget split charges: one call per budgeted query."""
    ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=80, seed=7))
    index = sharded(2, "hash", ogs)
    calls = []

    def spy(sets):
        calls.append(len(sets))
        return distinct_reference_sets(sets)

    with mock.patch.object(sketch, "distinct_reference_sets", spy), \
            mock.patch.object(scan, "distinct_reference_sets", spy):
        index.knn(QUERIES[0], 5, search_budget=30)
    assert calls == [2]
