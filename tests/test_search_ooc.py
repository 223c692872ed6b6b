"""Out-of-core approximate search (one-pass candidates + store-streamed
sketch).

The load-bearing claims, each enforced bit-exactly (floats compared
with ``==``, orders compared as lists):

- a sketch's one-pass candidates equal the global ``(bound, row id)``
  lexsort shortlist wherever its rows split between the store's base
  and the owned tail (property-tested at 1, 7, 64, n base rows);
- ``knn(search_budget=N)`` is bit-identical between in-RAM and mmap
  sketch modes at every layer — SketchIndex, ColumnarStore.load_sketch,
  VideoDatabase (sketch-only path, tree never built, monolithic and
  2/4-shard stores under both placements), ShardedIndex at 1/2/4
  shards, and the PR 9 worker pool;
- a store whose deltas insert and delete rows opens as the table built
  from its survivors, measuring only the delta inserts still live, and
  a delta deleting a row that is not live is refused;
- the row-addressed reader returns the same records the materialized
  index holds, without loading whole segments.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index import STRGIndex, STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.base import as_series
from repro.distance.batch import one_vs_many
from repro.distance.bounds import pivot_lower_bounds
from repro.distance.eged import MetricEGED
from repro.errors import IndexCorruptionError, InvalidParameterError
from repro.graph.object_graph import ObjectGraph
from repro.search import SearchRequest, SketchIndex, approx_knn
from repro.search import sketch as sketch_mod
from repro.serving import ShardedIndex, ShardedIndexConfig
from repro.storage.columnar import ColumnarStore
from repro.storage.database import VideoDatabase
from repro.storage.serialize import leaf_ogs
from tests import store_layout


def budgeted_knn(sketch, distance, query, k, budget):
    return approx_knn([sketch], distance,
                      SearchRequest.knn(query, k, search_budget=budget))


def corpus(n=120, seed=0):
    return generate_synthetic_ogs(SyntheticConfig(num_ogs=n, seed=seed))


def built_sketch(ogs, distance):
    refs = [f"clip-{i}" for i in range(len(ogs))]
    return SketchIndex.build(distance, ogs, refs)


def hit_sig(hits):
    """Process-portable hit signature: exact distances + clip refs."""
    return [(float(d), ref) for d, _og, ref in hits]


def db_sig(hits):
    return [(float(h.distance), h.clip_ref) for h in hits]


def monolithic_candidates(sketch, distance, series, budget, k):
    """One global lexsort over the held rows: the oracle the one-pass
    scan must match position for position."""
    row_ids = np.asarray(sketch.row_ids)
    qd = one_vs_many(distance, series, sketch.pivots)
    lbs = pivot_lower_bounds(qd, sketch.pivot_dists)
    rows = np.lexsort((row_ids, lbs))[:max(k, budget)]
    return rows, lbs[rows]


def split_at(sketch, distance, ogs, base_rows):
    """The rows of ``sketch`` again, the first ``base_rows`` the base the
    way a store opens its base segment and the rest added to the
    tail."""
    records = sketch_mod.SketchRows()
    records.add(sketch.row_ids[:base_rows],
                [sketch.row_record(at) for at in range(base_rows)])
    split = SketchIndex(sketch.pivots, sketch.pivot_dists[:base_rows],
                        rows=records)
    split.add(distance, ogs[base_rows:],
              [f"clip-{i}" for i in range(base_rows, len(ogs))],
              sketch.row_ids[base_rows:])
    return split


class TestBlockedScanParity:
    @pytest.mark.parametrize("base_rows", [1, 7, 64, None])
    def test_matches_monolithic_oracle(self, base_rows):
        distance = MetricEGED(1.0)
        ogs = corpus(90, seed=3)
        sketch = built_sketch(ogs, distance)
        n = len(sketch)
        split = split_at(sketch, distance, ogs,
                         n if base_rows is None else base_rows)
        assert split.pivot_dists.tolist() == sketch.pivot_dists.tolist()
        for q in corpus(4, seed=91):
            series = as_series(q)
            for budget, k in ((20, 5), (45, 3), (n + 100, 5), (8, 7)):
                got = split.candidates(distance, series, budget, k)
                want = monolithic_candidates(sketch, distance, series,
                                             budget, k)
                assert np.array_equal(got[0], want[0])
                assert got[1].tolist() == want[1].tolist()

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10**6), budget=st.integers(1, 200))
    def test_property_block_size_invariance(self, seed, budget):
        """Any base/tail split, and any reference count, shortlists what
        the global lexsort does."""
        distance = MetricEGED(1.0)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        ogs = corpus(n, seed=seed % 997)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sketch_mod, "MIN_REFERENCES",
                          int(rng.integers(1, 5)))
            sketch = built_sketch(ogs, distance)
        series = as_series(corpus(1, seed=seed % 991)[0])
        results = []
        for base in (1, 7, 64, len(sketch)):
            split = split_at(sketch, distance, ogs, min(base, len(sketch)))
            idx, lbs = split.candidates(distance, series, budget, 5)
            results.append((idx.tolist(), lbs.tolist()))
        oracle = monolithic_candidates(sketch, distance, series, budget, 5)
        assert all(r == results[0] for r in results[1:])
        assert results[0] == (oracle[0].tolist(), oracle[1].tolist())


def store_with_sketch(tmp_path, ogs, name="corpus", shards=None,
                      placement="affine", sketched=None):
    """Columnar snapshot whose sketch tier was built before saving
    (``sketched``: on these shards only)."""
    if shards is None:
        index = STRGIndex(STRGIndexConfig(n_clusters=4))
    else:
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=shards, placement=placement,
            index=STRGIndexConfig(n_clusters=4)))
    refs = [f"clip-{i}" for i in range(len(ogs))]
    if sketched is None:
        index.build(ogs, clip_refs=refs)
        index.knn(ogs[0], 3, search_budget=24)  # builds + persists the sketch
    else:
        # A first build under MIN_FIT_OGS holds no set, nor do its
        # inserts: only the listed shards fit one.
        first = sketch_mod.MIN_FIT_OGS - 1
        index.build(ogs[:first], clip_refs=refs[:first])
        for og, ref in zip(ogs[first:], refs[first:]):
            index.insert(og, clip_ref=ref)
    for s in sketched or ():
        index.shards[s].sketch_tier()
    store = ColumnarStore(tmp_path / name)
    store.write_index(index)
    return store, index


class TestStoreAttachedSketch:
    def test_load_sketch_matches_materialized_index(self, tmp_path):
        ogs = corpus(100, seed=11)
        store, index = store_with_sketch(tmp_path, ogs)
        [sketch] = store.load_sketch(mmap=True)
        assert len(sketch) == len(ogs)
        for q in corpus(4, seed=19):
            ooc = budgeted_knn(sketch, sketch.replay_distance, q, 5, 30)
            assert hit_sig(ooc) == hit_sig(index.knn(q, 5, search_budget=30))

    def test_mmap_and_ram_sketches_bit_identical(self, tmp_path):
        ogs = corpus(100, seed=11)
        store, _ = store_with_sketch(tmp_path, ogs)
        [mm] = store.load_sketch(mmap=True)
        [ram] = store.load_sketch(mmap=False)
        assert np.array_equal(mm.pivot_dists, ram.pivot_dists)
        assert mm.pivot_dists.dtype == np.float32
        for q in corpus(3, seed=23):
            assert hit_sig(budgeted_knn(mm, mm.replay_distance, q, 5, 28)) \
                == hit_sig(budgeted_knn(ram, ram.replay_distance, q, 5, 28))

    def test_delta_replay_and_tombstones(self, tmp_path):
        """Deleted base rows leave the table (one fixed live mask), the
        delta inserts join it."""
        from repro.serving.snapshot import _BufferedWrite

        ogs = corpus(60, seed=31)
        store, index = store_with_sketch(tmp_path, ogs, name="delta")
        extra = corpus(8, seed=41)
        writes = [_BufferedWrite("insert", og=og, clip_ref=f"x-{i}")
                  for i, og in enumerate(extra)]
        writes.append(_BufferedWrite("delete", og_id=ogs[5].og_id))
        writes.append(_BufferedWrite("delete", og_id=ogs[20].og_id))
        assert store.append(store_layout.applied(index, writes)) is not None
        dead = {write.row for write in writes if write.op == "delete"}
        [sketch] = store.load_sketch(mmap=True)
        assert len(sketch) == len(index)
        assert sketch.row_ids.tolist() == [
            row for row in range(len(ogs) + len(extra)) if row not in dead]
        for q in extra[:2] + ogs[:2]:
            assert hit_sig(budgeted_knn(sketch, sketch.replay_distance,
                                      q, 5, 30)) \
                == hit_sig(index.knn(q, 5, search_budget=30))

    @pytest.mark.parametrize("form", ["load_sketch", "load_index"])
    def test_live_adds_go_to_tail_not_mmap_base(self, tmp_path, form):
        """Adds never copy the mapped rows: a store-attached sketch's
        delta inserts go to its tail, a tree-loaded index's inserts to
        new records, and the stored rows stay views of the mapped
        column."""
        import mmap as mmap_mod

        def mapped(rows):
            while getattr(rows, "base", None) is not None:
                rows = rows.base
            return isinstance(rows, (np.memmap, mmap_mod.mmap))

        from repro.serving.snapshot import _BufferedWrite

        ogs = corpus(40, seed=51)
        store, index = store_with_sketch(tmp_path, ogs, name="tail")
        extra, refs = corpus(3, seed=52), ["a", "b", "c"]
        if form == "load_sketch":
            store.append(store_layout.applied(index, [
                _BufferedWrite("insert", og=og, clip_ref=ref)
                for og, ref in zip(extra, refs)]))
            [sketch] = store.load_sketch(mmap=True)
            base = sketch._base

            def search(q, k, budget):
                return budgeted_knn(sketch, sketch.replay_distance, q, k,
                                    budget)
        else:
            index = store.load_index(mmap=True)
            shard = index.shards[0]
            for og, ref in zip(extra, refs):
                index.insert(og, None, ref)
            stored = [r.refs for r in shard.leaf_records()
                      if r.row < len(ogs)]
            assert len(stored) == len(ogs) and all(map(mapped, stored))
            base = stored[0]
            sketch = shard.sketch_tier()

            def search(q, k, budget):
                return index.knn(q, k, search_budget=budget)
        assert mapped(base)
        assert len(sketch) == len(ogs) + 3
        got = search(extra[0], 1, len(sketch) + 20)
        assert got[0][2] == "a"

    def test_bad_sketch_columns_follow_each_readers_policy(self, tmp_path,
                                                          caplog):
        """One reader of the ``sketch_*`` columns, two policies: a tree
        load warns and fits the references again, ``load_sketch``
        raises."""
        ogs = corpus(40, seed=53)
        store, index = store_with_sketch(tmp_path, ogs, name="bad")
        def split_rows(header):           # same bytes, twice the rows
            spec = next(c for c in header["columns"]
                        if c["name"] == "sketch_pivot_dists")
            rows, width = spec["shape"]
            assert width % 2 == 0
            spec["shape"] = [rows * 2, width // 2]
        store_layout.rewrite_segment(tmp_path / "bad.strg", 0, split_rows)
        with pytest.raises(IndexCorruptionError, match="sketch tier"):
            store.load_sketch()
        with caplog.at_level("WARNING"):
            loaded = store.load_index(mmap=True)
        assert loaded.shards[0]._references is None
        assert "unreadable sketch payload" in caplog.text
        q = corpus(1, seed=54)[0]
        assert hit_sig(loaded.knn(q, 5, search_budget=30)) \
            == hit_sig(index.knn(q, 5, search_budget=30))

    #: The sketch settings a 13.x store recorded in its sketch meta.
    RECORDED_13X = {"num_pivots": 8, "sig_length": 16, "grid": 4,
                    "heading_sectors": 8, "vote_share": 0.25,
                    "pivot_sample_size": 256, "seed": 0, "block_rows": 4096}

    @pytest.mark.parametrize("setting, value", [
        (None, None), ("num_pivots", 3)])
    def test_recorded_sketch_settings_must_be_the_constants(
            self, tmp_path, caplog, setting, value):
        """A sketch meta that recorded 13.x settings — the constants of
        that version or any other value — and a signature bounding box
        reads like a fresh one: both are ignored, the references and
        rows come from the columns.  (A reference count that does not
        match the distance columns' width is malformed:
        ``test_bad_sketch_columns_follow_each_readers_policy``.)"""
        ogs = corpus(40, seed=57)
        store, index = store_with_sketch(tmp_path, ogs, name="s")
        recorded = dict(self.RECORDED_13X)
        if setting is not None:
            recorded[setting] = value

        def record(header):
            meta = json.loads(header["meta"]["sketch_meta"])
            header["meta"]["sketch_meta"] = json.dumps(
                {**meta, "config": recorded, "bbox_lo": [0.0, 0.0],
                 "bbox_hi": [1.0, 1.0]})
        store_layout.rewrite_segment(tmp_path / "s.strg", 0, record)
        queries = corpus(3, seed=58)
        [sketch] = store.load_sketch()
        with caplog.at_level("WARNING"):
            loaded = store.load_index(mmap=True)
        assert loaded.shards[0]._references is not None
        assert "unreadable sketch payload" not in caplog.text
        for q in queries:
            want = hit_sig(index.knn(q, 5, search_budget=30))
            assert hit_sig(budgeted_knn(sketch, sketch.replay_distance,
                                        q, 5, 30)) == want
            assert hit_sig(loaded.knn(q, 5, search_budget=30)) == want

    def test_store_without_sketch_returns_none(self, tmp_path):
        index = STRGIndex(STRGIndexConfig(n_clusters=3))
        # A first build under MIN_FIT_OGS, no budgeted query: no sketch.
        index.build(corpus(sketch_mod.MIN_FIT_OGS - 1, seed=61))
        store = ColumnarStore(tmp_path / "bare")
        store.write_index(index)
        assert store.load_sketch() is None

    def test_sharded_store_reads_per_shard(self, tmp_path):
        """Rows are numbered per shard, each shard read from the one log;
        the sketch tier is one attached sketch per shard over its store
        rows, og_ids numbered through."""
        ogs = corpus(40, seed=71)
        store, index = store_with_sketch(tmp_path, ogs, name="sh", shards=2)
        sizes = index.shard_sizes()
        for shard, size in enumerate(sizes):
            reader = store.row_reader(shard=shard)
            assert len(reader) == size
            assert [reader.record(row)[1] for row in range(size)] \
                == [ref for _, ref in leaf_ogs(index.shards[shard])]
        with pytest.raises(InvalidParameterError):
            store.row_reader(shard=2)
        sketches = store.load_sketch()
        assert [len(s) for s in sketches] == index.shard_sizes()
        assert [s.row_ids.tolist() for s in sketches] \
            == [list(range(size)) for size in sizes]
        assert sketches[1].row_record(0)[0].og_id \
            == sketches[0].row_record(0)[0].og_id + len(sketches[0])


def deleting_store(tmp_path, name="deletes"):
    """A 60-row store with a sketch, then two deltas: 8 inserts, then the
    deletes of 3 of those inserts and of 2 base rows."""
    from repro.serving.snapshot import _BufferedWrite

    ogs = corpus(60, seed=31)
    store, index = store_with_sketch(tmp_path, ogs, name=name)
    extra = corpus(8, seed=41)
    store.append(store_layout.applied(index, [
        _BufferedWrite("insert", og=og, clip_ref=f"x-{i}")
        for i, og in enumerate(extra)]))
    store.append(store_layout.applied(index, [
        _BufferedWrite("delete", og_id=og.og_id)
        for og in (extra[1], extra[4], extra[7], ogs[5], ogs[20])]))
    return store


class TestStoreDeletes:
    def test_deletes_equal_a_table_built_from_the_survivors(self,
                                                            tmp_path):
        """A store whose deltas insert rows and then delete some of them,
        base rows too, opens as the table built from its survivors
        alone, position for position, and answers alike."""
        store = deleting_store(tmp_path)
        [opened] = store.load_sketch(mmap=True)
        distance = opened.replay_distance
        records = [opened.row_record(at) for at in range(len(opened))]
        built = SketchIndex.build(
            distance, [og for og, _ in records],
            [ref for _, ref in records], opened.row_ids,
            references=opened.pivots)
        assert len(opened) == 60 + 8 - 5
        assert opened.row_ids.tolist() == built.row_ids.tolist()
        assert opened.pivot_dists.tolist() == built.pivot_dists.tolist()
        for q in corpus(3, seed=77):
            got = budgeted_knn(opened, distance, q, 5, 40)
            want = budgeted_knn(built, distance, q, 5, 40)
            assert hit_sig(got) == hit_sig(want)
            assert [og.og_id for _, og, _ in got] \
                == [og.og_id for _, og, _ in want]

    def test_open_measures_only_the_live_delta_inserts(self, tmp_path):
        """The open evaluates (live delta inserts x references) pairs —
        an insert deleted before the open costs nothing — and the table
        answers budgeted reads with the hits and the counts of
        ``load_index(mmap=True)``."""
        store = deleting_store(tmp_path)
        opened = []
        spent = pairs_computed(
            lambda _: opened.extend(store.load_sketch(mmap=True)), [None])
        [sketch] = opened
        assert spent == (8 - 3) * len(sketch.pivots)
        loaded = store.load_index(mmap=True)

        def ooc(q):
            return budgeted_knn(sketch, sketch.replay_distance, q, 5, 30)

        def tree(q):
            return loaded.knn(q, 5, search_budget=30)

        queries = corpus(4, seed=79)
        for q in queries:
            assert hit_sig(ooc(q)) == hit_sig(tree(q))
        assert pairs_computed(ooc, queries) == pairs_computed(tree, queries)

    def test_a_delta_deleting_a_dead_or_unknown_row_is_corrupt(self,
                                                               tmp_path):
        """Delta ops that delete a row the store does not hold live —
        one they already deleted, one past its rows — or that leave
        other rows dead than the log names make both readers raise."""
        from repro.serving.snapshot import _BufferedWrite

        ogs = corpus(30, seed=81)
        for case in ("twice", "unknown", "other"):
            store, index = store_with_sketch(tmp_path, ogs, name=case)
            [write] = store_layout.applied(
                index, [_BufferedWrite("delete", og_id=ogs[3].og_id)])
            store.append([write])
            ops = {"twice": [["d", write.row], ["d", write.row]],
                   "unknown": [["d", 10**6]],
                   "other": [["d", (write.row + 1) % len(ogs)]]}[case]

            def rewrite(header):
                header["meta"]["ops"] = ops
            store_layout.rewrite_segment(store, 1, rewrite)
            reopened = ColumnarStore(store.path)
            with pytest.raises(IndexCorruptionError):
                reopened.load_sketch()
            with pytest.raises(IndexCorruptionError):
                reopened.load_index()


class TestRowReader:
    def test_records_match_materialized_index(self, tmp_path):
        ogs = corpus(50, seed=91)
        store, index = store_with_sketch(tmp_path, ogs, name="rows")
        reader = store.row_reader(mmap=True)
        assert len(reader) == len(ogs)
        by_row = [og for og, _ in leaf_ogs(index)]      # the written rows
        first = store.row_labels().first(0)
        for row in (0, 1, 17, len(ogs) - 1):
            og, ref = reader.record(row)
            assert og.og_id == first + row
            orig = by_row[row]
            assert np.array_equal(og.values, orig.values)
            assert np.array_equal(reader.series(row), as_series(orig))
            assert ref == f"clip-{ogs.index(orig)}"

    def test_series_is_zero_copy_mmap_slice(self, tmp_path):
        import mmap as mmap_mod

        ogs = corpus(30, seed=92)
        store, _ = store_with_sketch(tmp_path, ogs, name="zc")
        series = store.row_reader(mmap=True).series(3)
        base = series
        while getattr(base, "base", None) is not None:
            base = base.base
        assert isinstance(base, (np.memmap, mmap_mod.mmap))

    def test_bounds_and_alive_mask(self, tmp_path):
        from repro.serving.snapshot import _BufferedWrite

        ogs = corpus(20, seed=93)
        store, index = store_with_sketch(tmp_path, ogs, name="alive")
        store.append(store_layout.applied(
            index, [_BufferedWrite("delete", og_id=ogs[4].og_id)]))
        reader = store.row_reader()
        with pytest.raises(InvalidParameterError):
            reader.record(-1)
        with pytest.raises(InvalidParameterError):
            reader.record(len(ogs))
        mask = reader.alive_mask()
        assert mask.sum() == len(ogs) - 1
        dead_row = int(np.flatnonzero(~mask)[0])
        assert not reader.is_alive(dead_row)
        assert reader.is_alive(int(np.flatnonzero(mask)[0]))

    def test_lazy_rows_lru_caches_records(self, tmp_path, monkeypatch):
        ogs = corpus(25, seed=94)
        store, _ = store_with_sketch(tmp_path, ogs, name="lru")
        monkeypatch.setattr(sketch_mod, "ROW_CACHE_SIZE", 2)
        rows = sketch_mod.SketchRows(store.row_reader())
        first = rows.record(0)
        assert rows.record(0) is first          # cache hit
        rows.record(1), rows.record(2)          # evicts row 0
        assert rows.record(0) is not first      # refetched, equal content
        assert np.array_equal(rows.record(0)[0].values, first[0].values)


#: Store shapes the database must answer out of core: ``(shards,
#: placement)``, ``None`` = monolithic.
STORE_SHAPES = [(1, "affine"), (2, "affine"), (2, "hash"),
                (4, "affine"), (4, "hash")]


def pairs_computed(fn, queries):
    """``distance.pairs_computed`` (the paper's cost unit, §6.3) spent
    by ``fn`` over ``queries``."""
    from repro import observability

    observability.configure(enabled=True, reset_state=True)
    try:
        for q in queries:
            fn(q)
        return observability.metrics().get("distance.pairs_computed", 0)
    finally:
        observability.configure(enabled=False, reset_state=True)


def twins(values):
    """Two OGs with the same trajectory; the one minted first (smaller
    og_id) is hash-placed on shard 1 of 2, the other on shard 0."""
    first = ObjectGraph.from_values(values)
    if first.og_id % 2 == 0:
        first = ObjectGraph.from_values(values)
    return first, ObjectGraph.from_values(values)


class TestDatabaseOutOfCore:
    def make_db(self, tmp_path, n=90, budgeted=True, shards=1,
                placement="affine"):
        ogs = corpus(n, seed=13)
        db = VideoDatabase(shards=shards, placement=placement)
        if budgeted:
            db.ingest_object_graphs(ogs)
            db.knn(ogs[0], 3, search_budget=24)  # persistable sketch
        else:
            # A first batch under MIN_FIT_OGS holds no set; the next
            # batch is inserted into it.
            first = sketch_mod.MIN_FIT_OGS - 1
            db.ingest_object_graphs(ogs[:first])
            db.ingest_object_graphs(ogs[first:])
        db.save(tmp_path / "db")
        return db, ogs

    def test_budgeted_knn_never_builds_the_tree(self, tmp_path):
        import repro

        db, ogs = self.make_db(tmp_path)
        want = [db_sig(db.knn(q, 5, search_budget=30)) for q in ogs[:4]]
        opened = repro.open_database(tmp_path / "db", create=False)
        assert not opened.index_loaded
        got = [db_sig(opened.knn(q, 5, search_budget=30)) for q in ogs[:4]]
        assert not opened.index_loaded
        assert got == want
        # Exact queries still materialize; budgeted queries then route
        # through the index and keep answering identically.
        exact = db_sig(opened.knn(ogs[0], 5))
        assert opened.index_loaded
        assert exact == db_sig(db.knn(ogs[0], 5))
        assert db_sig(opened.knn(ogs[1], 5, search_budget=30)) == want[1]

    @pytest.mark.parametrize("shards,placement", STORE_SHAPES)
    def test_any_store_shape_answers_out_of_core(self, tmp_path, shards,
                                                 placement):
        import repro

        db, ogs = self.make_db(tmp_path, shards=shards, placement=placement)
        queries = corpus(4, seed=19) + ogs[:2]
        opened = repro.open_database(tmp_path / "db", create=False)
        loaded = ColumnarStore(tmp_path / "db").load_index(mmap=True)
        for q in queries:
            hits = opened.knn(q, 5, search_budget=30)
            assert db_sig(hits) == db_sig(db.knn(q, 5, search_budget=30))
            assert db_sig(hits) == hit_sig(
                loaded.knn(q, 5, search_budget=30))
            assert len({h.og.og_id for h in hits}) == len(hits) == 5
        # Same candidates, same evaluations: the paper's cost unit
        # cannot tell the two paths apart.
        assert pairs_computed(
            lambda q: opened.knn(q, 5, search_budget=30), queries) \
            == pairs_computed(
                lambda q: loaded.knn(q, 5, search_budget=30), queries)
        # A budget covering every part's rows and references is exact.
        generous = len(ogs) * (1 + sketch_mod.MIN_REFERENCES)
        for q in queries[:3]:
            assert db_sig(opened.knn(q, 5, search_budget=generous)) \
                == db_sig(db.knn(q, 5))
        assert not opened.index_loaded

    def test_cold_open_parses_each_base_header_once(self, tmp_path,
                                                    monkeypatch):
        """The header the sketch attach verified is the one the row
        reader's first fetch reads: a lazy open plus one budgeted k-NN
        of a 2-shard store parses each base segment header once."""
        import repro

        _, ogs = self.make_db(tmp_path, shards=2, placement="hash")
        want = hit_sig(ColumnarStore(tmp_path / "db").load_index(
            mmap=True).knn(ogs[0], 5, search_budget=30))
        parsed = []
        header = ColumnarStore._header

        def counted(store, entry):
            parsed.append(entry["seg"])
            return header(store, entry)

        monkeypatch.setattr(ColumnarStore, "_header", counted)
        opened = repro.open_database(tmp_path / "db", create=False)
        got = db_sig(opened.knn(ogs[0], 5, search_budget=30))
        assert not opened.index_loaded
        assert len(parsed) == len(set(parsed)) == 2
        assert got == want

    def test_cross_shard_tie_resolves_shard_then_row(self, tmp_path):
        """The same trajectory stored in two shards: an exact tie in
        distance, broken by og_id — which out of core is shard-then-row,
        the order the materialized index mints ids in."""
        import repro

        first, second = twins(corpus(1, seed=97)[0].values)
        ogs = corpus(30, seed=98) + [first, second]
        store, _ = store_with_sketch(tmp_path, ogs, name="tie", shards=2,
                                     placement="hash")
        first_ref, second_ref = "clip-30", "clip-31"
        opened = repro.open_database(store.path, create=False)
        hits = opened.knn(first, 4, search_budget=40)
        assert not opened.index_loaded
        assert [h.distance for h in hits[:2]] == [0.0, 0.0]
        # ``second`` went to shard 0, so it outranks its older twin.
        assert [h.clip_ref for h in hits[:2]] == [second_ref, first_ref]
        assert hits[0].og.og_id < hits[1].og.og_id
        assert hits[0].og != hits[1].og
        assert db_sig(hits) == hit_sig(
            store.load_index(mmap=True).knn(first, 4, search_budget=40))

    def test_empty_shard_is_skipped(self, tmp_path):
        import repro

        even = [og for og in corpus(80, seed=99) if og.og_id % 2 == 0]
        store, index = store_with_sketch(tmp_path, even, name="gap",
                                         shards=2, placement="hash")
        assert index.shard_sizes() == [len(even), 0]
        assert [len(s) for s in store.load_sketch()] == [len(even)]
        opened = repro.open_database(store.path, create=False)
        for q in corpus(3, seed=100):
            assert db_sig(opened.knn(q, 5, search_budget=30)) \
                == hit_sig(index.knn(q, 5, search_budget=30))
        assert not opened.index_loaded

    def test_shard_without_sketch_falls_back(self, tmp_path):
        import repro

        ogs = corpus(60, seed=101)
        store, index = store_with_sketch(tmp_path, ogs, name="half",
                                         shards=2, sketched=[0])
        assert store.load_sketch() is None
        opened = repro.open_database(store.path, create=False)
        got = db_sig(opened.knn(ogs[0], 5, search_budget=30))
        assert opened.index_loaded  # fell back to materialization
        assert got == hit_sig(index.knn(ogs[0], 5, search_budget=30))

    def test_snapshot_without_sketch_falls_back(self, tmp_path):
        import repro

        db, ogs = self.make_db(tmp_path, budgeted=False)
        opened = repro.open_database(tmp_path / "db", create=False)
        assert not opened.index_loaded
        got = db_sig(opened.knn(ogs[0], 5, search_budget=30))
        assert opened.index_loaded  # fell back to materialization
        assert got == db_sig(db.knn(ogs[0], 5, search_budget=30))

    def test_mmap_never_stays_in_ram(self, tmp_path):
        import repro

        db, ogs = self.make_db(tmp_path)
        opened = repro.open_database(tmp_path / "db", create=False,
                                     mmap=False)
        assert opened.index_loaded  # eager load, no OOC path
        assert db_sig(opened.knn(ogs[0], 5, search_budget=30)) \
            == db_sig(db.knn(ogs[0], 5, search_budget=30))


class TestShardedMmapParity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_mmap_vs_ram_bit_identity(self, tmp_path, shards):
        ogs = corpus(80, seed=17)
        store, index = store_with_sketch(
            tmp_path, ogs, name=f"s{shards}",
            shards=None if shards == 1 else shards)
        mm = store.load_index(mmap=True)
        ram = store.load_index(mmap=False)
        for q in corpus(3, seed=29):
            live = hit_sig(index.knn(q, 5, search_budget=26))
            assert hit_sig(mm.knn(q, 5, search_budget=26)) == live
            assert hit_sig(ram.knn(q, 5, search_budget=26)) == live


class TestWorkerPoolOutOfCore:
    def test_mmap_pool_matches_in_ram_pool(self, tmp_path):
        from repro.serving import WorkerPool, WorkerPoolConfig

        ogs = corpus(48, seed=37)
        store, index = store_with_sketch(tmp_path, ogs, name="pool",
                                         shards=2)
        queries = corpus(2, seed=43)
        want = [hit_sig(index.knn(q, 4, search_budget=22)) for q in queries]

        def pool_sig(mmap):
            cfg = WorkerPoolConfig(workers=2, mmap=mmap)
            with WorkerPool(store.path, cfg) as pool:
                return [[(float(h.distance), h.clip_ref)
                         for h in pool.knn(q, 4, search_budget=22).hits]
                        for q in queries]

        assert pool_sig(True) == want
        assert pool_sig(False) == want


class TestCliMmapFlag:
    def test_query_mmap_modes(self, tmp_path, capsys):
        from repro.cli import main
        from repro.datasets.patterns import pattern_by_id

        db = VideoDatabase()
        ogs = corpus(60, seed=47)
        db.ingest_object_graphs(ogs)
        db.knn(pattern_by_id(0).generate(32), 3, search_budget=24)
        db.save(tmp_path / "db")
        path = str(tmp_path / "db.strg")

        def hit_lines(out):
            # og_ids are process-local labels, so compare the portable
            # fields: distance and clip ref.
            return [(line.split()[0], line.split()[-1])
                    for line in out.splitlines() if "d=" in line]

        assert main(["query", path, "-k", "3", "--search-budget", "24",
                     "--mmap", "auto"]) == 0
        ooc = capsys.readouterr().out
        assert "out-of-core" in ooc
        assert main(["query", path, "-k", "3", "--search-budget", "24",
                     "--mmap", "never"]) == 0
        eager = capsys.readouterr().out
        assert "out-of-core" not in eager
        assert hit_lines(ooc) == hit_lines(eager)
