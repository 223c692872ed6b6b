"""Columnar memory-mapped store and the ``open_store`` facade
(docs/STORAGE.md): round trips, mmap bit-identity, incremental append
+ replay, tombstones and merges, torn-write recovery, the one-format
contract, the 10.x importer and the refusal of every older layout, and
the wiring through ``LiveIndex`` / ``IngestService`` / the CLI."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.index import STRGIndex, STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.base import CountingDistance
from repro.distance.eged import EGED, MetricEGED
from repro.errors import (
    IndexCorruptionError,
    InvalidParameterError,
    StorageError,
)
from repro.graph.object_graph import ObjectGraph
from repro.resilience import FaultInjector, injected
from repro.serving.sharding import ShardedIndex, ShardedIndexConfig
from repro.serving.snapshot import LiveIndex, _BufferedWrite
from repro.storage.columnar import ColumnarStore, is_columnar_store
from repro.storage.serialize import index_to_arrays
from repro.storage.store import convert, open_store
from tests import store_layout

#: The release every refusal of a 2.x archive or a 9.x store names.
RETIRED = "15.0.0 (commit a97a69f)"
#: 10.x stores (columnar format version 2), written by the last src/
#: that could: a monolithic store with three delta segments and two
#: deletes, and a 2-shard store of nested sub-stores.
LEGACY_V2 = Path(__file__).parent / "data" / "legacy_v2_strg"


def stub_archive(path):
    """A stand-in 2.x NPZ archive: detection reads names only."""
    path.write_bytes(b"")
    return path


def stub_v1_store(path):
    """A stand-in 9.x store: a directory holding only ``manifest.json``."""
    path.mkdir(parents=True)
    (path / "manifest.json").write_bytes(b"")
    return path


def blob_ogs(k=3, n_per=5, seed=0, length_range=(5, 10)):
    rng = np.random.default_rng(seed)
    ogs = []
    for label in range(k):
        for _ in range(n_per):
            length = int(rng.integers(*length_range))
            base = np.linspace(0, 10, length)[:, None]
            values = np.hstack([base + label * 150.0, base])
            ogs.append(ObjectGraph.from_values(
                values + rng.normal(0, 0.5, values.shape), label=label
            ))
    return ogs


def build_index(ogs=None, n_clusters=3, refs=True):
    ogs = blob_ogs() if ogs is None else ogs
    index = STRGIndex(STRGIndexConfig(n_clusters=n_clusters))
    index.build(ogs, clip_refs=[f"clip-{i}" for i in range(len(ogs))]
                if refs else None)
    return index, ogs


def knn_signature(index, queries, k=5):
    """Distances + refs of k-NN hits (og_ids are process-local)."""
    out = []
    for q in queries:
        out.append([(d, ref) for d, _, ref in index.knn(q, k)])
    return out


class TestColumnarRoundTrip:
    def test_write_load_bit_identical(self, tmp_path):
        index, ogs = build_index()
        store = ColumnarStore(tmp_path / "corpus")
        store.write_index(index)
        assert store.path.endswith(".strg")
        for mmap in (False, True):
            loaded = ColumnarStore(store.path).load_index(mmap=mmap)
            assert loaded.num_shards == 1
            assert loaded.shards[0].stats() == index.stats()
            assert knn_signature(loaded, ogs[:4]) \
                == knn_signature(index, ogs[:4])

    def test_mmap_slices_stay_on_disk(self, tmp_path):
        index, ogs = build_index()
        store = ColumnarStore(tmp_path / "corpus")
        store.write_index(index)
        loaded = store.load_index(mmap=True)
        first = next(loaded.object_graphs())
        assert isinstance(first.values.base, np.memmap) \
            or isinstance(first.values, np.memmap)

    def test_stored_columns_identical_to_built_index(self, tmp_path):
        index, _ = build_index()
        store = ColumnarStore(tmp_path / "a")
        store.write_index(index)
        before, meta_a = index_to_arrays(index)
        after, meta_c = index_to_arrays(store.load_index().shards[0])
        assert sorted(before) == sorted(after)
        for key, column in before.items():
            np.testing.assert_array_equal(after[key], column,
                                          err_msg=key)
        assert meta_a["refs"] == meta_c["refs"]
        assert meta_a["num_roots"] == meta_c["num_roots"]

    def test_sketches_survive(self, tmp_path):
        index, ogs = build_index()
        index.sketch_tier()  # force the approximate tier to exist
        store = ColumnarStore(tmp_path / "sk")
        store.write_index(index)
        loaded = store.load_index()
        assert loaded.shards[0]._sketches is not None
        want = index.knn(ogs[0], 3, search_budget=8)
        got = loaded.knn(ogs[0], 3, search_budget=8)
        assert [d for d, _, _ in want] == [d for d, _, _ in got]

    def test_empty_index_round_trips(self, tmp_path):
        index = STRGIndex(STRGIndexConfig(n_clusters=None, k_max=4))
        store = ColumnarStore(tmp_path / "empty")
        store.write_index(index)
        assert len(store.load_index()) == 0


class TestStoredMetric:
    """A store records the metric behind its keys and pivot distances
    (a ``MetricEGED`` gap, read through a counting wrapper), reloads
    with that metric, and refuses a metric it cannot name."""

    @pytest.mark.parametrize("counted", [False, True])
    def test_a_gapped_metric_reloads_with_identical_hits(self, tmp_path,
                                                         counted):
        ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=200, seed=3))
        metric = MetricEGED(5.0)
        index = STRGIndex(STRGIndexConfig(n_clusters=4),
                          metric_distance=(CountingDistance(metric)
                                           if counted else metric))
        index.build(ogs, clip_refs=[f"og-{i}" for i in range(len(ogs))])
        index.sketch_tier()
        store = open_store(tmp_path / "gap")
        store.write_index(index)
        loaded = store.load_index(mmap=True)
        assert loaded.metric_distance.gap == 5.0

        def hits(found):
            return [(float(d), ref) for d, _, ref in found]
        for q in (ogs[7], ogs[55], ogs[120]):
            assert hits(loaded.knn(q, 5)) == hits(index.knn(q, 5))
            assert hits(loaded.knn(q, 5, search_budget=40)) \
                == hits(index.knn(q, 5, search_budget=40))
        [sketch] = store.load_sketch()
        assert sketch.replay_distance.gap == 5.0

    @pytest.mark.parametrize("shards", [1, 2])
    def test_a_metric_the_store_cannot_name_is_refused(self, tmp_path,
                                                       shards):
        ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=60, seed=3))
        config = STRGIndexConfig(n_clusters=3)
        if shards == 1:
            index = STRGIndex(config, metric_distance=EGED())
        else:
            index = ShardedIndex(ShardedIndexConfig(
                num_shards=2, placement="hash", index=config),
                metric_distance=EGED())
        index.build(ogs)
        store = open_store(tmp_path / "eged")
        with pytest.raises(InvalidParameterError, match="MetricEGED"):
            store.write_index(index)
        assert not store.exists()


class TestShardedColumnar:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_mmap_vs_ram_bit_identical(self, tmp_path, shards):
        ogs = blob_ogs(k=4, n_per=4)
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=shards, index=STRGIndexConfig(n_clusters=2)))
        index.build(ogs)
        store = ColumnarStore(tmp_path / f"s{shards}")
        store.write_index(index)
        ram = store.load_index(mmap=False)
        mapped = store.load_index(mmap=True)
        assert knn_signature(ram, ogs[:4]) == knn_signature(index, ogs[:4])
        assert knn_signature(mapped, ogs[:4]) == knn_signature(ram, ogs[:4])
        want = [(d, ref) for d, _, ref in index.range_query(ogs[0], 30.0)]
        assert [(d, ref) for d, _, ref in mapped.range_query(ogs[0], 30.0)] \
            == want

    def test_sharded_store_appends_per_shard(self, tmp_path):
        ogs = blob_ogs(k=2, n_per=3)
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=2, index=STRGIndexConfig(n_clusters=2)))
        index.build(ogs)
        store = ColumnarStore(tmp_path / "sharded")
        store.write_index(index)
        victim = next(index.shards[1].object_graphs()).og_id
        (name,) = store.append(store_layout.applied(
            index, [_BufferedWrite("delete", og_id=victim)]))
        assert store_layout.segments(store)[-1] == dict(
            store_layout.segments(store)[-1], seg=name, shard=1,
            kind="delta")
        assert store.manifest()["rows_dead"] == 1
        loaded = ColumnarStore(store.path).load_index()
        assert loaded.shard_sizes() == index.shard_sizes()
        assert knn_signature(loaded, ogs[:3]) == knn_signature(index, ogs[:3])


class TestRowLabels:
    def test_every_read_labels_a_row_alike(self, tmp_path):
        """A 2-shard store with a delta insert and a dead row: the five
        read paths give every live row one label, and no label is an
        og_id minted in the process before or after the reads."""
        ogs = blob_ogs(k=2, n_per=6, seed=4)
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=2, placement="hash",
            index=STRGIndexConfig(n_clusters=2)))
        index.build(ogs, clip_refs=[f"og-{i}" for i in range(len(ogs))])
        for shard in index.shards:
            shard.sketch_tier()
        writer = ColumnarStore(tmp_path / "labels")
        writer.write_index(index)
        extra = ObjectGraph.from_values([[3.0, 1.0], [4.0, 2.0]])
        writer.append(store_layout.applied(index, [
            _BufferedWrite("insert", og=extra, clip_ref="extra"),
            _BufferedWrite("delete", og_id=ogs[0].og_id)]))
        minted = {og.og_id for og in ogs} | {extra.og_id}
        store = ColumnarStore(writer.path)

        def tree(shard, number):
            return {(number, record.row): record.og.og_id
                    for record in shard.leaf_records()}

        reads = []
        for mmap in (False, True):
            loaded = store.load_index(mmap=mmap)
            reads.append({key: label for number, shard
                          in enumerate(loaded.shards)
                          for key, label in tree(shard, number).items()})
        reads.append({key: label for number in range(2)
                      for key, label in tree(store.load_shard(number),
                                             number).items()})
        sketch, rows = {}, {}
        for number, part in enumerate(store.load_sketch()):
            reader = store.row_reader(shard=number)
            every = np.arange(len(reader))
            assert part.row_ids_at(every).tolist() == every.tolist()
            for row in every[reader.alive_mask()].tolist():
                sketch[(number, row)] = part.row_record(row)[0].og_id
                rows[(number, row)] = reader.record(row)[0].og_id
        reads += [sketch, rows]
        assert len(reads[0]) == len(ogs)
        assert all(read == reads[0] for read in reads[1:])
        labels = set(reads[0].values())
        assert len(labels) == len(ogs)
        minted.add(ObjectGraph.from_values([[0.0, 0.0]]).og_id)
        assert not labels & minted
        assert reads[0] == {key: store.row_labels().first(key[0]) + key[1]
                            for key in reads[0]}


class TestAppendAndReplay:
    def test_appended_deltas_replay_bit_identical(self, tmp_path):
        index, ogs = build_index()
        store = ColumnarStore(tmp_path / "delta")
        store.write_index(index)
        extra = blob_ogs(k=1, n_per=4, seed=9)
        writes = [_BufferedWrite("insert", og=og, clip_ref=f"x-{i}")
                  for i, og in enumerate(extra)]
        victim = ogs[2].og_id
        writes.append(_BufferedWrite("delete", og_id=victim))
        assert store.append(store_layout.applied(index, writes)) is not None
        loaded = store.load_index()
        queries = extra[:2] + ogs[:2]
        assert knn_signature(loaded, queries) \
            == knn_signature(index, queries)
        assert len(loaded) == len(index)

    def test_delete_of_unknown_og_is_noop(self, tmp_path):
        index, _ = build_index()
        store = ColumnarStore(tmp_path / "noop")
        store.write_index(index)
        assert store.append(store_layout.applied(
            index, [_BufferedWrite("delete", og_id=10**9)])) is None
        assert len(store.load_index()) == len(index)

    def test_append_requires_binding(self, tmp_path):
        index, _ = build_index()
        ColumnarStore(tmp_path / "b").write_index(index)
        fresh = ColumnarStore(tmp_path / "b")  # same dir, no row map
        with pytest.raises(StorageError, match="not.*bound|bound"):
            fresh.append([_BufferedWrite("delete", og_id=0, row=0)])

    def test_checkpoint_appends_when_bound(self, tmp_path):
        index, _ = build_index()
        store = ColumnarStore(tmp_path / "ck")
        store.checkpoint(index)  # first: full write
        one = len(store_layout.segments(store))
        og = ObjectGraph.from_values([[0.0, 0.0], [1.0, 1.0]])
        store.checkpoint(index, store_layout.applied(index, [
            _BufferedWrite("insert", og=og, clip_ref="late")]))
        segments = store_layout.segments(store)
        assert len(segments) == one + 1
        assert segments[-1]["kind"] == "delta"
        assert len(store.load_index()) == len(index)


class TestMerge:
    def test_dead_rows_trigger_and_merge_folds(self, tmp_path):
        index, ogs = build_index()
        store = ColumnarStore(tmp_path / "merge")
        store.write_index(index)
        store.append(store_layout.applied(index, [
            _BufferedWrite("delete", og_id=og.og_id)
            for og in ogs[: len(ogs) // 2]]))
        assert store.needs_merge()
        assert store.merge(index)
        manifest = store.manifest()
        assert len(manifest["segments"]) == 1
        assert manifest["rows_dead"] == 0
        survivors = ogs[len(ogs) // 2:]
        assert knn_signature(store.load_index(), survivors[:3]) \
            == knn_signature(index, survivors[:3])

    def test_offline_merge_preserves_live_bindings(self, tmp_path):
        index, ogs = build_index()
        store = ColumnarStore(tmp_path / "fold")
        store.write_index(index)
        store.append(store_layout.applied(
            index, [_BufferedWrite("delete", og_id=ogs[0].og_id)]))
        assert store.merge(index=None)  # fold committed state offline
        # The live row binding must survive the fold: later deletes
        # through the same store still hit the right rows.
        store.append(store_layout.applied(
            index, [_BufferedWrite("delete", og_id=ogs[1].og_id)]))
        assert len(store.load_index()) == len(index)

    def test_incremental_append_moves_o_delta_bytes(self, tmp_path):
        index, _ = build_index(blob_ogs(k=4, n_per=8, seed=3))
        store = ColumnarStore(tmp_path / "odelta")
        store.write_index(index)
        base_bytes = sum(seg["bytes"]
                         for seg in store_layout.segments(store))
        og = ObjectGraph.from_values([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        (name,) = store.append(store_layout.applied(
            index, [_BufferedWrite("insert", og=og, clip_ref="tiny")]))
        delta = next(s for s in store_layout.segments(store)
                     if s["seg"] == name)
        assert delta["bytes"] < base_bytes / 5


class TestCorruptionDetection:
    def make_store(self, tmp_path):
        index, ogs = build_index()
        store = ColumnarStore(tmp_path / "c")
        store.write_index(index)
        return store, index, ogs

    def test_truncated_segment_raises_typed_error(self, tmp_path):
        store, _, _ = self.make_store(tmp_path)
        store_layout.truncate_segment(store)
        with pytest.raises(IndexCorruptionError) as err:
            ColumnarStore(store.path).load_index()
        assert err.value.details

    def test_corrupt_manifest_raises_typed_error(self, tmp_path):
        store, _, _ = self.make_store(tmp_path)
        store_layout.log_path(store).write_text(
            '{"format": "strg-columnar", "truncated\n')
        with pytest.raises(IndexCorruptionError):
            ColumnarStore(store.path).load_index()

    def test_flipped_segment_byte_fails_verify(self, tmp_path):
        store, _, _ = self.make_store(tmp_path)
        store_layout.flip_column_byte(store, "og_values")
        with pytest.raises(IndexCorruptionError):
            ColumnarStore(store.path).verify()

    def test_row_count_mismatch_detected(self, tmp_path):
        store, _, _ = self.make_store(tmp_path)

        def one_more_row(records):
            records[0]["segments"][0]["rows"] += 1
        store_layout.edit_log(store, one_more_row)
        with pytest.raises(IndexCorruptionError):
            ColumnarStore(store.path).load_index()

    def test_crash_mid_append_keeps_previous_state(self, tmp_path):
        store, index, ogs = self.make_store(tmp_path)
        before = knn_signature(store.load_index(), ogs[:3])
        store.write_index(index)  # rebind after the load above
        og = ObjectGraph.from_values([[5.0, 5.0], [6.0, 6.0]])
        injector = FaultInjector().inject("storage.append", rate=1.0)
        with injected(injector):
            with pytest.raises((StorageError, OSError)):
                store.append(store_layout.applied(index, [
                    _BufferedWrite("insert", og=og, clip_ref="lost")]))
        assert injector.fired["storage.append"] == 1
        # The log record never landed: the store reopens at the
        # pre-append state, ignoring the orphaned segment file.
        reopened = ColumnarStore(store.path)
        assert knn_signature(reopened.load_index(), ogs[:3]) == before
        reopened.verify()

    def test_torn_append_write_detected_on_load(self, tmp_path):
        store, index, ogs = self.make_store(tmp_path)
        og = ObjectGraph.from_values([[5.0, 5.0], [6.0, 6.0]])
        injector = FaultInjector().inject(
            "storage.append", kind="truncate", rate=1.0)
        with injected(injector):
            store.append(store_layout.applied(
                index, [_BufferedWrite("insert", og=og, clip_ref="x")]))
        with pytest.raises(IndexCorruptionError):
            ColumnarStore(store.path).load_index()

    def test_empty_store_dir_is_corruption_not_missing(self, tmp_path):
        # A .strg directory without a committed log is an
        # interrupted first write, not a store that never existed.
        empty = tmp_path / "empty.strg"
        empty.mkdir()
        assert not is_columnar_store(empty)
        store = open_store(empty)
        assert not store.exists()
        with pytest.raises(IndexCorruptionError) as err:
            store.load_index()
        details = err.value.details
        assert details["path"] == store.path
        assert details["missing"] == "manifest.jsonl"
        assert details["contents"] == []

    def test_partially_written_dir_lists_contents(self, tmp_path):
        partial = tmp_path / "partial.strg"
        partial.mkdir()
        (partial / "seg-000000.seg").write_bytes(b"STRGSEG2-but-torn")
        with pytest.raises(IndexCorruptionError) as err:
            open_store(partial).manifest()
        details = err.value.details
        assert details["missing"] == "manifest.jsonl"
        assert details["contents"] == ["seg-000000.seg"]

    def test_manifest_missing_keys_detected(self, tmp_path):
        store, _, _ = self.make_store(tmp_path)

        def drop_keys(records):
            del records[0]["segments"][0]["seg"]
            del records[0]["segments"][0]["rows"]
        store_layout.edit_log(store, drop_keys)
        with pytest.raises(IndexCorruptionError) as err:
            ColumnarStore(store.path).load_index()
        details = err.value.details
        assert sorted(details["missing"]) == ["rows", "seg"]
        assert "partially written" in str(err.value)

    def test_wrong_format_version_detected(self, tmp_path):
        store, _, _ = self.make_store(tmp_path)

        def bump(records):
            records[0]["format_version"] = 999
        store_layout.edit_log(store, bump)
        with pytest.raises(IndexCorruptionError) as err:
            ColumnarStore(store.path).load_index()
        assert err.value.details["version"] == 999


class TestFacade:
    """The one-format contract of ``open_store`` and its callers."""

    def test_fresh_paths_resolve_by_suffix(self, tmp_path):
        # Suffix-less, .strg and existing-directory spellings: one store.
        index, _ = build_index()
        store = open_store(tmp_path / "new")
        assert isinstance(store, ColumnarStore)
        assert store.path == str(tmp_path / "new.strg")
        assert open_store(tmp_path / "new.strg").path == store.path
        store.write_index(index)
        (tmp_path / "new.strg").rename(tmp_path / "renamed")
        assert open_store(tmp_path / "renamed").path \
            == str(tmp_path / "renamed")
        assert open_store(tmp_path / "renamed").exists()

    def test_unknown_format_rejected(self, tmp_path):
        from repro.serving.ingest import IngestServiceConfig

        for bad in ("parquet", "npz", "auto"):
            with pytest.raises(InvalidParameterError, match="columnar"):
                open_store(tmp_path / "x", format=bad)
            with pytest.raises(InvalidParameterError, match="columnar"):
                IngestServiceConfig(store_format=bad)
        assert isinstance(open_store(tmp_path / "x", format="columnar"),
                          ColumnarStore)
        assert IngestServiceConfig().store_format == "columnar"

    @pytest.mark.parametrize("spelling", ["corpus.npz", "corpus"])
    def test_archive_never_looks_empty(self, tmp_path, capsys, spelling):
        """Every entry point beside a 2.x archive, ``convert`` included,
        raises naming the release that converts it — none binds an
        empty store next to it or writes anything."""
        import repro
        from repro.cli import main
        from repro.serving.ingest import IngestService
        from repro.serving.workers import WorkerPool
        from repro.storage.database import VideoDatabase

        stub_archive(tmp_path / "corpus.npz")
        path = tmp_path / spelling
        db = VideoDatabase()
        db.ingest_object_graphs(blob_ogs())
        entry_points = [
            lambda: open_store(path),
            lambda: repro.open_database(path),
            lambda: db.save(path),
            lambda: VideoDatabase.load(path),
            lambda: WorkerPool(path),
            lambda: convert(path),
            lambda: convert(path, tmp_path / "out"),
        ]
        for call in entry_points:
            with pytest.raises(StorageError) as err:
                call()
            assert "strg-index convert" in str(err.value)
            assert RETIRED in str(err.value)
        for command in (["query", str(path)], ["convert", str(path)]):
            assert main(command) == 3
            assert RETIRED in capsys.readouterr().err
        # A 2.x state dir (index.npz checkpoint) is not "no snapshot".
        state = tmp_path / "state"
        state.mkdir()
        stub_archive(state / "index.npz")
        live = LiveIndex(build_index()[0])
        for call in (lambda: IngestService(live, state_dir=state),
                     lambda: IngestService.recover(state),
                     # takes a state dir since 9.0
                     lambda: VideoDatabase.recover(state)):
            with pytest.raises(StorageError, match=re.escape(RETIRED)):
                call()
        assert sorted(os.listdir(tmp_path)) == ["corpus.npz", "state"]
        assert os.listdir(state) == ["index.npz"]

    def test_converted_store_shadows_the_archive(self, tmp_path):
        import repro

        stub_archive(tmp_path / "mono.npz")
        index, _ = build_index()
        ColumnarStore(tmp_path / "mono.strg").write_index(index)
        opened = repro.open_database(tmp_path / "mono", create=False)
        assert opened.path == str(tmp_path / "mono.strg")
        assert opened.stats()["ogs"] == len(index)

    def test_convert_rejects_identical_paths(self, tmp_path):
        archive = stub_archive(tmp_path / "mono.npz")
        with pytest.raises(InvalidParameterError):
            convert(archive, archive)
        assert sorted(os.listdir(tmp_path)) == ["mono.npz"]

    def test_convert_missing_source_raises(self, tmp_path):
        with pytest.raises(StorageError):
            convert(tmp_path / "ghost.npz")
        index, _ = build_index()
        ColumnarStore(tmp_path / "col").write_index(index)
        with pytest.raises(StorageError, match="no 10.x store"):
            convert(tmp_path / "col.strg")   # stores are not a source

    def test_default_state_dir_checkpoints_append(self, tmp_path):
        """A default ``IngestService(state_dir=...)`` checkpoints as
        appended segments: one full write, then O(delta)."""
        from repro import observability
        from repro.serving.ingest import IngestService
        from tests.test_ingest_service import (
            _StubPipeline,
            fast_config,
            make_clip,
        )

        live = LiveIndex(STRGIndex(STRGIndexConfig(n_clusters=None,
                                                   k_max=8)))
        observability.configure(enabled=True, reset_state=True)
        try:
            with IngestService(live, _StubPipeline(),
                               state_dir=tmp_path / "state",
                               config=fast_config(checkpoint_every=1)
                               ) as service:
                for i, name in enumerate("abcd"):
                    service.submit(make_clip(name, shade=17 * i),
                                   job_id=f"job-{name}")
                    service.drain(timeout=60.0)
            counters = observability.metrics()
        finally:
            observability.configure(enabled=False, reset_state=True)
        assert service.snapshot_path == str(tmp_path / "state" / "index.strg")
        assert counters["storage.columnar.writes"] == 1
        assert counters["storage.columnar.appends"] == 3


class TestConvertV1:
    """9.x (format version 1) stores are refused everywhere, ``convert``
    included, naming the release that converts them."""

    @staticmethod
    def answers(index, expected, **kwargs):
        return [[[d, ref] for d, _, ref in
                 index.knn(np.asarray(query), expected["k"], **kwargs)]
                for query in expected["queries"]]

    def test_every_other_entry_point_refuses_v1(self, tmp_path, capsys):
        import repro
        from repro.cli import main
        from repro.serving.ingest import IngestService
        from repro.serving.workers import WorkerPool
        from repro.storage.database import VideoDatabase

        source = stub_v1_store(tmp_path / "mono.strg")
        hint = f"strg-index convert {source}"
        for call in (lambda: open_store(source),
                     lambda: open_store(tmp_path / "mono"),
                     lambda: repro.open_database(source, create=False),
                     lambda: VideoDatabase.load(source),
                     lambda: WorkerPool(source),
                     lambda: convert(source),
                     lambda: convert(source, tmp_path / "out"),
                     lambda: ColumnarStore(source).load_index(),
                     lambda: ColumnarStore(source).write_index(
                         build_index()[0])):
            with pytest.raises(StorageError) as err:
                call()
            assert hint in str(err.value)
            assert RETIRED in str(err.value)
        for command in (["query", str(source)], ["convert", str(source)]):
            assert main(command) == 3
            assert RETIRED in capsys.readouterr().err
        state = tmp_path / "state"
        stub_v1_store(state / "index.strg")
        with pytest.raises(StorageError, match=re.escape(RETIRED)):
            IngestService(LiveIndex(build_index()[0]), state_dir=state)
        with pytest.raises(StorageError, match=re.escape(RETIRED)):
            IngestService.recover(state)
        assert sorted(os.listdir(tmp_path)) == ["mono.strg", "state"]
        assert os.listdir(source) == ["manifest.json"]
        assert os.listdir(state) == ["index.strg"]


class TestConvertV2:
    """``convert`` re-records 10.x (format version 2) logs into one log
    over flat segment files, each copied byte for byte."""

    @pytest.fixture(scope="class")
    def expected(self):
        with open(LEGACY_V2 / "expected.json", encoding="utf-8") as fh:
            return json.load(fh)

    @staticmethod
    def v2_copy(tmp_path, name):
        shutil.copytree(LEGACY_V2 / f"{name}.strg", tmp_path / f"{name}.strg")
        return tmp_path / f"{name}.strg"

    @staticmethod
    def seg_digests(root) -> list[str]:
        return sorted(hashlib.sha256(path.read_bytes()).hexdigest()
                      for path in Path(root).rglob("*.seg"))

    @pytest.mark.parametrize("name", ["mono", "sharded"])
    @pytest.mark.parametrize("in_place", [True, False],
                             ids=["in-place", "to-dest"])
    def test_converted_answers_match_recorded(self, tmp_path, expected,
                                              name, in_place):
        source = self.v2_copy(tmp_path, name)
        dest = None if in_place else tmp_path / "out"
        store = convert(source, dest)
        assert store.describe()["shards"] == (2 if name == "sharded" else 1)
        assert store_layout.log_records(store)[0]["format_version"] == 3
        for mmap in (True, False):
            index = open_store(store.path).load_index(mmap=mmap)
            assert len(index) == expected["num_ogs"][name]
            assert TestConvertV1.answers(index, expected) \
                == expected["answers"][name]
            assert TestConvertV1.answers(
                index, expected, search_budget=expected["search_budget"]) \
                == expected["budgeted"][name]
        # One flat directory: the log and the segment files.
        names = sorted(os.listdir(store.path))
        assert names[0] == "manifest.jsonl"
        assert all(n.endswith(".seg") for n in names[1:])
        if not in_place:
            assert (source / "shard-0" if name == "sharded"
                    else source / "seg-000003.seg").exists()

    def test_segments_copied_byte_for_byte(self, tmp_path):
        for name in ("mono", "sharded"):
            source = self.v2_copy(tmp_path, name)
            before = self.seg_digests(source)
            store = convert(source, tmp_path / f"{name}-out")
            assert self.seg_digests(store.path) == before
        mono = ColumnarStore(tmp_path / "mono-out")
        assert [(seg["shard"], seg["kind"])
                for seg in store_layout.segments(mono)] \
            == [(0, "base")] + [(0, "delta")] * 3
        assert mono.manifest()["rows_dead"] == 2
        sharded = ColumnarStore(tmp_path / "sharded-out")
        assert [(seg["shard"], seg["kind"])
                for seg in store_layout.segments(sharded)] \
            == [(0, "base"), (1, "base"), (None, "pivots")]

    def test_damaged_segment_raises_before_commit(self, tmp_path):
        source = self.v2_copy(tmp_path, "sharded")
        victim = source / "shard-1" / "seg-000000.seg"
        blob = bytearray(victim.read_bytes())
        blob[-3] ^= 0xFF
        victim.write_bytes(bytes(blob))
        with pytest.raises(IndexCorruptionError, match="checksum"):
            convert(source)
        assert store_layout.log_records(source)[0]["format_version"] == 2
        assert (source / "shard-0" / "manifest.jsonl").is_file()

    def test_every_other_entry_point_refuses_v2(self, tmp_path):
        import repro
        from repro.serving.ingest import IngestService
        from repro.serving.workers import WorkerPool
        from repro.storage.database import VideoDatabase

        for name in ("mono", "sharded"):
            source = self.v2_copy(tmp_path, name)
            hint = f"strg-index convert {source}"
            for call in (lambda: open_store(source),
                         lambda: repro.open_database(source, create=False),
                         lambda: VideoDatabase.load(source),
                         lambda: WorkerPool(source),
                         lambda: ColumnarStore(source).load_index(),
                         lambda: ColumnarStore(source).load_sketch(),
                         lambda: ColumnarStore(source).write_index(
                             build_index()[0])):
                with pytest.raises(StorageError) as err:
                    call()
                assert not isinstance(err.value, IndexCorruptionError)
                assert hint in str(err.value)
            state = tmp_path / f"state-{name}"
            shutil.copytree(source, state / "index.strg")
            with pytest.raises(StorageError, match="strg-index convert"):
                IngestService(LiveIndex(build_index()[0]), state_dir=state)
            with pytest.raises(StorageError, match="strg-index convert"):
                IngestService.recover(state)
            assert store_layout.log_records(source)[0]["format_version"] \
                == 2

    def test_cli_refuses_converts_then_queries(self, tmp_path, capsys):
        from repro.cli import main

        source = self.v2_copy(tmp_path, "sharded")
        assert main(["query", str(source)]) == 3
        assert f"strg-index convert {source}" in capsys.readouterr().err
        assert main(["convert", str(source)]) == 0
        assert "verified" in capsys.readouterr().out
        assert main(["query", str(source), "-k", "3"]) == 0
        assert capsys.readouterr().out.count("d=") == 3


class TestLiveIndexPersistence:
    def make_live(self, tmp_path):
        index, ogs = build_index()
        live = LiveIndex(index)
        store = open_store(tmp_path / "live")
        live.attach_store(store)
        return live, store, ogs

    def test_compactions_append_and_reload(self, tmp_path):
        live, store, ogs = self.make_live(tmp_path)
        extra = blob_ogs(k=1, n_per=3, seed=7)
        live.bulk_insert(extra, clip_refs=["p", "q", "r"])
        live.compact()
        live.delete(next(live.snapshot.index.object_graphs()).og_id)
        live.compact()
        store.join_merges()
        loaded = ColumnarStore(store.path).load_index()
        assert len(loaded) == len(live.snapshot.index)
        assert knn_signature(loaded, extra[:2]) \
            == knn_signature(live.snapshot.index, extra[:2])

    def test_persist_failure_degrades_then_resyncs(self, tmp_path):
        from repro import observability

        live, store, ogs = self.make_live(tmp_path)
        lost = blob_ogs(k=1, n_per=1, seed=11)[0]
        injector = FaultInjector().inject("storage.append", rate=1.0)
        with injected(injector):
            live.insert(lost, clip_ref="lost")
            live.compact()  # persistence fails; serving unaffected
        assert injector.fired["storage.append"] == 1
        assert knn_signature(live.snapshot.index, [lost], k=1) \
            == [[(0.0, "lost")]]
        observability.configure(enabled=True, reset_state=True)
        try:
            live.insert(blob_ogs(k=1, n_per=1, seed=12)[0], clip_ref="back")
            live.compact()  # the unbound store resyncs with a full write
            writes = observability.metrics().get("storage.columnar.writes")
        finally:
            observability.configure(enabled=False, reset_state=True)
        assert writes == 1
        store.join_merges()
        loaded = ColumnarStore(store.path).load_index()
        assert len(loaded) == len(live.snapshot.index) == len(ogs) + 2
        queries = [lost] + ogs[:3]
        assert knn_signature(loaded, queries) \
            == knn_signature(live.snapshot.index, queries)


class TestIngestServiceColumnar:
    def make_service(self, tmp_path, **overrides):
        from tests.test_ingest_service import (
            _StubPipeline,
            fast_config,
        )

        live = LiveIndex(STRGIndex(STRGIndexConfig(n_clusters=None,
                                                   k_max=8)))
        from repro.serving.ingest import IngestService

        config = fast_config(**overrides)
        return IngestService(live, _StubPipeline(),
                             state_dir=tmp_path / "state", config=config)

    def test_checkpoints_land_in_columnar_store(self, tmp_path):
        from tests.test_ingest_service import make_clip

        service = self.make_service(tmp_path)
        with service:
            for i, name in enumerate("abc"):
                service.submit(make_clip(name, shade=17 * i),
                               job_id=f"job-{name}")
            service.drain(timeout=60.0)
        assert service.snapshot_path.endswith(".strg")
        assert is_columnar_store(service.snapshot_path)
        loaded = ColumnarStore(service.snapshot_path).load_index()
        assert len(loaded) == 3
        # After the first full checkpoint, later ones append deltas.
        assert any(seg["kind"] == "delta"
                   for seg in store_layout.segments(service.snapshot_path))

    def test_recover_from_columnar_state_dir(self, tmp_path):
        from tests.test_ingest_service import _StubPipeline, make_clip

        from repro.serving.ingest import IngestService

        service = self.make_service(tmp_path, checkpoint_every=None)
        with service:
            service.submit(make_clip("durable"), job_id="job-durable")
            service.drain(timeout=30.0)
            service.checkpoint()
            service.submit(make_clip("tail", shade=5), job_id="job-tail")
            service.drain(timeout=30.0)
            expected = len(service.live)

        recovered = IngestService.recover(
            tmp_path / "state", pipeline=_StubPipeline(),
            config=service.config)
        with recovered:
            report = recovered.recovery
            assert report.snapshot_loaded
            assert report.snapshot_path.endswith(".strg")
            assert report.completed_jobs == ["job-durable"]
            assert report.replayed_jobs == ["job-tail"]
            recovered.drain(timeout=30.0)
            assert len(recovered.live) == expected
            # Post-recovery checkpoints append to the recovered store.
            recovered.checkpoint()
        loaded = ColumnarStore(report.snapshot_path).load_index()
        assert len(loaded) == expected


class TestDatabaseIntegration:
    def build_db(self, tmp_path):
        from repro.storage.database import VideoDatabase

        db = VideoDatabase()
        ogs = blob_ogs()
        db.ingest_object_graphs(ogs)
        db.save(tmp_path / "db")
        return db, ogs

    def test_save_format_columnar_and_lazy_open(self, tmp_path):
        import repro

        db, ogs = self.build_db(tmp_path)
        assert db.path.endswith(".strg")
        opened = repro.open_database(tmp_path / "db", create=False)
        assert not opened.index_loaded  # mmap="auto" defers the build
        want = knn_signature(db.index, ogs[:3])
        got = [[(hit.distance, hit.clip_ref) for hit in opened.knn(q, 5)]
               for q in ogs[:3]]
        assert got == want
        assert opened.index_loaded

    def test_mmap_false_open_stays_eager_and_identical(self, tmp_path):
        import repro

        db, ogs = self.build_db(tmp_path)
        opened = repro.open_database(tmp_path / "db", create=False,
                                     mmap=False)
        assert opened.index_loaded
        first = next(opened.index.object_graphs())
        assert not isinstance(first.values, np.memmap) \
            and not isinstance(first.values.base, np.memmap)
        got = [[(hit.distance, hit.clip_ref) for hit in opened.knn(q, 5)]
               for q in ogs[:3]]
        assert got == knn_signature(db.index, ogs[:3])

    def test_cli_convert_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        src = str(TestConvertV2.v2_copy(tmp_path, "mono"))
        assert main(["query", src, "-k", "2"]) == 3
        assert "strg-index convert" in capsys.readouterr().err
        assert main(["convert", src, str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "columnar" in out
        dest = str(tmp_path / "out.strg")
        assert is_columnar_store(dest)
        assert main(["query", dest, "-k", "2"]) == 0
        assert main(["convert", str(tmp_path / "missing.npz")]) == 3
