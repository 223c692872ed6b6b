"""One row table per in-RAM index, through the write path.

Every leaf record carries its float32 distance to each reference series
of its index (``LeafRecord.refs``); the exact scan and the budgeted read
both read the table ``ScanViews`` stacks from those rows.  Over random
insert / delete / split / ``LiveIndex.compact`` / checkpoint sequences,
at 1 and 2 shards:

- every record's ``refs`` equals ``float32(pairwise_matrix(references,
  [og]))``;
- budgeted hits *and* evaluation counts of the live index equal those
  of its store reloaded eagerly, reloaded memory-mapped, and answered
  out of core by ``open_database(..., mmap="auto").knn``;
- a budget of N + R (R references) answers exactly;
- exact hits equal a brute-force ranking, live and reloaded.

And the stored reference columns of a fixed 2-shard corpus are pinned
by SHA-256, so a change that moves a stored bit fails here.
"""

from __future__ import annotations

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import observability as obs
from repro.core.index import STRGIndex, STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.base import as_series
from repro.distance.batch import one_vs_many, pairwise_matrix
from repro.distance.eged import MetricEGED
from repro.search.sketch import MIN_FIT_OGS
from repro.serving import LiveIndex, ShardedIndex, ShardedIndexConfig
from repro.storage.store import open_store
from tests import store_layout

K = 5
BASE = 48
#: Small leaves: inserts re-run the BIC split test, and some split.
CONFIG = STRGIndexConfig(n_clusters=2, leaf_capacity=12, em_iterations=4)
POOL = generate_synthetic_ogs(SyntheticConfig(num_ogs=BASE + 24, seed=17))
QUERIES = generate_synthetic_ogs(SyntheticConfig(num_ogs=2, seed=71))

OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 6)),
    st.tuples(st.just("delete"), st.integers(0, 10_000)),
    st.tuples(st.just("compact"), st.just(0)),
    st.tuples(st.just("checkpoint"), st.just(0)),
), min_size=1, max_size=6)


def built(shards: int):
    refs = [f"og-{i}" for i in range(BASE)]
    if shards == 1:
        index = STRGIndex(CONFIG)
        index.build(POOL[:BASE], clip_refs=refs)
        trees = [index]
    else:
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=shards, placement="affine", index=CONFIG))
        index.build(POOL[:BASE], clip_refs=refs)
        trees = index.shards
    for tree in trees:
        tree.sketch_tier()
    return index


def trees(index) -> list[STRGIndex]:
    return ShardedIndex.of(index).shards


def counted(fn):
    """``(fn(), distance.pairs_computed)`` with observability on."""
    obs.configure(enabled=True, reset_state=True)
    try:
        result = fn()
        return result, obs.metrics().get("distance.pairs_computed", 0)
    finally:
        obs.configure(enabled=False, reset_state=True)


def portable(hits) -> list[tuple[float, str]]:
    return [(float(h.distance), h.clip_ref) if hasattr(h, "clip_ref")
            else (float(h[0]), h[2]) for h in hits]


def assert_refs_hold(index) -> None:
    for tree in trees(index):
        records = list(tree.leaf_records())
        if not records:
            continue
        want = pairwise_matrix(tree.metric_distance, tree._references,
                               [record.og for record in records]).T
        for record, row in zip(records, want.astype(np.float32)):
            assert record.refs.dtype == np.float32
            assert record.refs.tobytes() == row.tobytes()


@pytest.mark.parametrize("shards", [1, 2])
@given(ops=OPS)
@settings(max_examples=4, deadline=None)
def test_write_path_keeps_one_table(shards, ops):
    live = LiveIndex(built(shards))
    fresh = list(POOL[BASE:])
    with tempfile.TemporaryDirectory() as workdir:
        store = open_store(f"{workdir}/live")
        live.attach_store(store)
        for op, arg in ops:
            if op == "insert":
                for _ in range(min(arg, len(fresh))):
                    og = fresh.pop()
                    live.insert(og, clip_ref=f"new-{og.og_id}")
            elif op == "delete":
                members = list(live.snapshot.index.object_graphs())
                live.delete(members[arg % len(members)].og_id)
            elif op == "compact":
                live.compact()
            else:       # a checkpoint folds the store into fresh bases
                live.compact()
                store.join_merges()
                store.merge()
        index = live.compact().index
        store.join_merges()
        assert_refs_hold(index)

        refs = len(trees(index)[0]._references)
        reloads = {
            "eager": open_store(store.path).load_index(mmap=False),
            "mmap": open_store(store.path).load_index(mmap=True),
        }
        db = repro.open_database(store.path, create=False, mmap="auto")
        layers = {"live": live.knn, **{name: loaded.knn for name, loaded
                                       in reloads.items()},
                  "out of core": db.knn}
        members = list(index.object_graphs())
        for query in QUERIES:
            for budget in (20, 40, len(index) + refs):
                answers = {}
                for name, knn in layers.items():
                    knn(query, K, search_budget=budget)   # attach, replay
                    hits, spent = counted(
                        lambda: knn(query, K, search_budget=budget))
                    answers[name] = (portable(hits), spent)
                assert len(set(map(repr, answers.values()))) == 1, answers
            truth = sorted(zip(
                one_vs_many(MetricEGED(), as_series(query),
                            [as_series(og) for og in members]).tolist(),
                [og.og_id for og in members]))[:K]
            exact = live.knn(query, K)
            assert [(d, og.og_id) for d, og, _ in exact] == truth
            # The N + R budget is the exact scan.
            assert answers["live"][0] == portable(exact)
            for loaded in reloads.values():
                assert portable(loaded.knn(query, K)) == portable(exact)
        assert not db.index_loaded


#: SHA-256 of the reference columns
#: :func:`test_stored_reference_columns_are_pinned` writes, shard by
#: shard, as 19.0.0 stored them.
PINNED_COLUMNS = {
    "seg-000000:sketch_pivot_dists":
        "ed8c70fdf8607d750ceb9406ed9b6c5352ee541ff0bbefd2bf9238cce6fb2e7c",
    "seg-000000:sketch_pivot_values":
        "a947684b389d60e66a23239cd289bd66797b794d1d2d577274508d68a8d29c54",
    "seg-000001:sketch_pivot_dists":
        "e39eecf446b4b6180f0e10f4bfea49e6ba7b89a5ce7c322bfb921c4bc50985df",
    "seg-000001:sketch_pivot_values":
        "a947684b389d60e66a23239cd289bd66797b794d1d2d577274508d68a8d29c54",
}


def test_stored_reference_columns_are_pinned(tmp_path):
    """A fixed 2-shard corpus stores the reference columns it stored
    before the rows moved onto the leaf records, bit for bit."""
    ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=160, seed=5))
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=2, placement="affine",
        index=STRGIndexConfig(n_clusters=4, em_iterations=6)))
    index.build(ogs, clip_refs=[f"og-{i}" for i in range(len(ogs))])
    for shard in index.shards:
        shard.sketch_tier()
    for og in generate_synthetic_ogs(SyntheticConfig(num_ogs=8, seed=6)):
        index.insert(og)
    index.delete(ogs[3].og_id)
    path = open_store(tmp_path / "pinned").write_index(index)
    digests = {name: digest for name, digest
               in store_layout.column_digests(path).items()
               if "sketch_pivot_dists" in name
               or "sketch_pivot_values" in name}
    assert digests == PINNED_COLUMNS


def test_pack_reads_references_before_the_leaf_walk(monkeypatch):
    """A budgeted read may attach the references to a published
    snapshot while a checkpoint packs it.  Attached between the leaf
    walk and the pack, the pack stores no reference columns (the rows
    it collected carry none) instead of failing on them."""
    from repro.storage import serialize

    # A first build under MIN_FIT_OGS holds no set, nor do its inserts.
    index = STRGIndex(CONFIG)
    first = MIN_FIT_OGS - 1
    index.build(POOL[:first], clip_refs=[f"og-{i}" for i in range(first)])
    for i in range(first, BASE):
        index.insert(POOL[i], clip_ref=f"og-{i}")
    assert index._references is None
    pack_ragged = serialize._pack_ragged
    attached = []

    def attach_then_pack(series):
        # The first call packs the centroids: after the leaf walk,
        # before the reference columns.
        if not attached:
            attached.append(index.sketch_tier())
        return pack_ragged(series)

    monkeypatch.setattr(serialize, "_pack_ragged", attach_then_pack)
    arrays, meta = serialize.index_to_arrays(index)
    assert attached and index._references
    assert meta["sketch_meta"] is None
    assert not any(name.startswith("sketch_") for name in arrays)
    # The next pack stores every row.
    arrays, meta = serialize.index_to_arrays(index)
    assert meta["sketch_meta"] == "{}"
    assert arrays["sketch_pivot_dists"].shape == (BASE,
                                                  len(index._references))
