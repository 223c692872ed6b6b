"""Snapshot isolation under structural sharing, as a property.

A ``LiveIndex`` commit shares most of the published index with the next
one (``index.clone()``).  Whatever sequence of writes follows, a snapshot
a reader still holds must keep answering exactly as it did when it was
published, and the newest snapshot must equal an index that received the
same writes without any sharing.  The oracles are deep copies made here,
in the test: nothing under ``src/`` deep-copies any more.
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.index import STRGIndex, STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.serving import LiveIndex, ShardedIndex, ShardedIndexConfig

K = 3
BUDGET = 24
#: Every tree starts with leaves over this capacity (the monolithic one
#: with leaves of 36 and 50), so inserts into them re-run the BIC split
#: test, and in both shapes the first batches split one.  Few EM
#: iterations: the test pays for two fits per such insert, twice.
CONFIG = STRGIndexConfig(n_clusters=4, leaf_capacity=24, em_iterations=6)
BASE = {"mono": 128, "sharded": 160}
EXTRA = 24
#: Deletes in one ``purge``: a run of the largest tree's leaf order.
PURGE = 64

OPS = st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 4)),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    st.tuples(st.just("purge"), st.just(PURGE)),
    st.tuples(st.just("compact"), st.just(0)),
)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_ogs(SyntheticConfig(
        num_ogs=BASE["sharded"] + EXTRA, seed=0))


@pytest.fixture(scope="module")
def query():
    return generate_synthetic_ogs(SyntheticConfig(num_ogs=1, seed=99))[0]


@pytest.fixture(scope="module", params=[
    (shape, when) for shape in ("mono", "sharded")
    for when in ("eager", "late")], ids="-".join)
def seed_index(request, corpus):
    """A built index, never mutated: every example starts from a deep
    copy.  ``eager``: it holds its reference rows; ``late``: the first
    observation attaches them to the published (frozen) snapshot."""
    shape, when = request.param
    ogs = corpus[:BASE[shape]]
    refs = [{"row": i} for i in range(len(ogs))]
    if shape == "mono":
        index = STRGIndex(CONFIG)
        index.build(ogs, clip_refs=refs)
        trees = [index]
    else:
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=2, placement="affine", index=CONFIG))
        index.build(ogs, clip_refs=refs)
        trees = index.shards
    if when == "eager":
        for tree in trees:
            tree.sketch_tier()
    return index, corpus[-EXTRA:]


def _trees(index) -> list[STRGIndex]:
    return index.shards if isinstance(index, ShardedIndex) else [index]


def _deep(index):
    """A mutable deep copy sharing nothing with ``index``."""
    if isinstance(index, ShardedIndex):   # owns a lock: copy the shards
        dup = ShardedIndex.from_shards(
            copy.deepcopy(index.shards), index.serving_config(),
            index.pivots)
    else:
        dup = copy.deepcopy(index)
    for tree in _trees(dup):
        tree.frozen = False
    return dup


def _observe(index, query, radius) -> tuple:
    """Everything a reader can see, down to the float bits."""
    def sig(hits):
        return [(d, og.og_id, ref) for d, og, ref in hits]

    # The budgeted read first: it attaches a late tier over the index's
    # one reference set.
    budgeted = sig(index.knn(query, K, search_budget=BUDGET))
    return (
        len(index),
        [(r.key, r.og.og_id, r.clip_ref) for tree in _trees(index)
         for cluster in tree.cluster_records() for r in cluster.leaf],
        [(tree.sketch_tier().row_ids.tolist(),
          tree.sketch_tier().refs.tobytes()) for tree in _trees(index)],
        sig(index.knn(query, K)),
        budgeted,
        sig(index.range_query(query, radius)),
    )


@settings(max_examples=3, deadline=None)
@given(before=st.lists(OPS, max_size=3),
       after=st.lists(OPS, min_size=1, max_size=5))
# A split, then a purge of many rows, then inserts — all past the held
# snapshot.
@example(before=[("insert", 4), ("delete", 7)],
         after=[("insert", 4), ("compact", 0),
                ("purge", PURGE), ("insert", 4)])
def test_held_snapshot_never_changes(seed_index, query, before, after):
    seed, fresh = seed_index
    live = LiveIndex(_deep(seed))
    shadow = _deep(seed)                  # same writes, no sharing
    fresh = list(fresh)
    radius = shadow.knn(query, 2)[-1][0]

    def apply(ops) -> None:
        for op, arg in ops:
            if op == "insert":
                for _ in range(min(arg, len(fresh))):
                    og = fresh.pop()
                    ref = {"new": og.og_id}
                    live.insert(og, clip_ref=ref)
                    shadow.insert(og, clip_ref=ref)
            elif op == "compact":
                live.compact()
            else:
                # Victims come from the largest tree.
                pool = list(max(_trees(shadow), key=len).object_graphs())
                count = 1 if op == "delete" else arg
                if len(pool) <= count:
                    continue
                start = arg % (len(pool) - count + 1)
                for og in pool[start:start + count]:
                    live.delete(og.og_id)
                    assert shadow.delete(og.og_id)

    apply(before)
    held = live.compact()
    oracle = _deep(held.index)
    published = _observe(held.index, query, radius)
    # A late tier is fitted on the state the held snapshot publishes:
    # the unshared copy takes its own at the same point.
    shadow.knn(query, K, search_budget=BUDGET)

    apply(after)
    newest = live.compact()

    assert held.index.frozen and newest.index.frozen
    assert _observe(held.index, query, radius) == published
    assert _observe(oracle, query, radius) == published
    assert (_observe(newest.index, query, radius)
            == _observe(shadow, query, radius))
