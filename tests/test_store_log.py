"""The log-structured commit of the columnar store (docs/STORAGE.md):
what one append costs — on one shard and on two — the order its writes
become durable in, and the integrity checks over segment columns and
log records."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest

from repro import observability
from repro.core.index import STRGIndexConfig
from repro.errors import IndexCorruptionError
from repro.graph.attributes import NodeAttributes
from repro.graph.decomposition import BackgroundGraph
from repro.graph.object_graph import ObjectGraph
from repro.graph.rag import RegionAdjacencyGraph
from repro.serving.ingest import IngestService, IngestServiceConfig
from repro.serving.sharding import ShardedIndex, ShardedIndexConfig
from repro.serving.snapshot import LiveIndex, _BufferedWrite
from repro.storage.columnar import ColumnarStore
from repro.storage.store import open_store
from tests import store_layout
from tests.test_columnar import blob_ogs, build_index, knn_signature


def one_og(i: int) -> ObjectGraph:
    """Same shape every time: appends of these are byte-for-byte alike
    but for their values."""
    base = np.linspace(0.0, 10.0, 6)[:, None]
    return ObjectGraph.from_values(np.hstack([base + i, base - i]))


def sketched_store(tmp_path, name="s"):
    index, ogs = build_index(blob_ogs(k=3, n_per=6, seed=5))
    index.sketch_tier()
    store = open_store(tmp_path / name)
    store.write_index(index)
    return store, index, ogs


def append_one(store, index, i: int, ref: str | None = None) -> str:
    (name,) = store.append(store_layout.applied(index, [_BufferedWrite(
        "insert", og=one_og(i), clip_ref=ref or f"r-{i:03d}")]))
    return name


def two_shards() -> ShardedIndex:
    """A built 2-shard index placing by og_id parity, so OGs minted one
    after the other land in different shards."""
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=2, placement="hash", index=STRGIndexConfig(n_clusters=2)))
    ogs = blob_ogs(k=2, n_per=6, seed=4)
    index.build(ogs, clip_refs=[f"seed-{i}" for i in range(len(ogs))])
    return index


def fd_path(fd: int) -> str:
    return os.readlink(f"/proc/self/fd/{fd}")


@pytest.fixture
def durable_ops(monkeypatch):
    """Record every fsync (by path) and rename, in order."""
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc/self/fd to name fsync'd descriptors")
    events: list[tuple[str, str]] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        events.append(("fsync", fd_path(fd)))
        return real_fsync(fd)

    def replace(src, dst, *args, **kwargs):
        events.append(("replace", os.path.realpath(dst)))
        return real_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    return events


class TestAppendCost:
    def test_one_insert_commit_is_one_file_and_three_fsyncs(
            self, tmp_path, durable_ops):
        live = LiveIndex(build_index()[0])
        store = open_store(tmp_path / "live")
        live.attach_store(store)
        before = set(os.listdir(store.path))
        durable_ops.clear()
        live.insert(one_og(1), clip_ref="one")
        live.compact()
        store.join_merges()
        created = set(os.listdir(store.path)) - before
        assert created == {"seg-000001.seg"}
        assert [kind for kind, _ in durable_ops] == ["fsync"] * 3

    def test_one_insert_commit_on_two_shards(self, tmp_path, durable_ops):
        live = LiveIndex(two_shards())
        store = open_store(tmp_path / "live")
        live.attach_store(store)
        records = len(store_layout.log_records(store))
        before = set(os.listdir(store.path))
        durable_ops.clear()
        live.insert(one_og(1), clip_ref="one")
        live.compact()
        store.join_merges()
        assert len(set(os.listdir(store.path)) - before) == 1
        assert [kind for kind, _ in durable_ops] == ["fsync"] * 3
        assert len(store_layout.log_records(store)) == records + 1

    def test_commit_on_both_shards_is_two_files_and_four_fsyncs(
            self, tmp_path, durable_ops):
        live = LiveIndex(two_shards())
        store = open_store(tmp_path / "live")
        live.attach_store(store)
        root = os.path.realpath(store.path)
        before = set(os.listdir(store.path))
        durable_ops.clear()
        live.bulk_insert([one_og(1), one_og(2)], clip_refs=["a", "b"])
        live.compact()
        store.join_merges()
        created = sorted(set(os.listdir(store.path)) - before)
        assert len(created) == 2
        assert durable_ops == [
            ("fsync", os.path.join(root, created[0])),
            ("fsync", os.path.join(root, created[1])),
            ("fsync", root),
            ("fsync", os.path.join(root, "manifest.jsonl")),
        ]
        last = store_layout.log_records(store)[-1]
        assert [entry["shard"] for entry in last["segments"]] == [0, 1]
        loaded = ColumnarStore(store.path).load_index()
        assert loaded.shard_sizes() == live.snapshot.index.shard_sizes()
        assert knn_signature(loaded, [one_og(1), one_og(2)]) \
            == knn_signature(live.snapshot.index, [one_og(1), one_og(2)])

    def test_two_shard_checkpoint_appends(self, tmp_path, durable_ops):
        service = IngestService(
            LiveIndex(two_shards()), state_dir=tmp_path / "state",
            config=IngestServiceConfig(checkpoint_every=None))
        service.checkpoint()                     # the first: in full
        root = os.path.realpath(service.snapshot_path)
        before = set(os.listdir(root))
        durable_ops.clear()
        service.write([one_og(1)])
        service.checkpoint()
        service.shutdown()
        (created,) = set(os.listdir(root)) - before
        assert [path for _, path in durable_ops
                if path.startswith(root)] == [
            os.path.join(root, created), root,
            os.path.join(root, "manifest.jsonl")]

    def test_attached_store_is_written_once(self, tmp_path):
        live = LiveIndex(two_shards())
        store = open_store(tmp_path / "live")
        observability.configure(enabled=True, reset_state=True)
        try:
            live.attach_store(store)
            for i in range(1, 6):
                live.bulk_insert([one_og(2 * i), one_og(2 * i + 1)],
                                 clip_refs=[f"a{i}", f"b{i}"])
                live.compact()
                live.delete(next(live.snapshot.index.object_graphs()).og_id)
                live.compact()
            store.join_merges()
            counts = observability.metrics()
        finally:
            observability.configure(enabled=False, reset_state=True)
        assert counts["storage.columnar.writes"] == 1
        assert counts["storage.columnar.appends"] == 10
        loaded = ColumnarStore(store.path).load_index()
        assert knn_signature(loaded, [one_og(3), one_og(8)]) \
            == knn_signature(live.snapshot.index, [one_og(3), one_og(8)])

    def test_append_order_is_segment_directory_log(self, tmp_path,
                                                   durable_ops):
        store, index, _ = sketched_store(tmp_path)
        root = os.path.realpath(store.path)
        durable_ops.clear()
        name = append_one(store, index, 1)
        assert durable_ops == [
            ("fsync", os.path.join(root, name + ".seg")),
            ("fsync", root),
            ("fsync", os.path.join(root, "manifest.jsonl")),
        ]

    def test_full_write_order_is_temp_rename_directory(self, tmp_path,
                                                       durable_ops):
        store, index, _ = sketched_store(tmp_path)
        root = os.path.realpath(store.path)
        durable_ops.clear()
        store.write_index(index)           # a rewrite: the merge path
        (segment, directory, temp, rename, last) = durable_ops
        assert segment == ("fsync", os.path.join(root, "seg-000001.seg"))
        assert directory == ("fsync", root)
        assert temp[0] == "fsync" and temp[1].endswith(".tmp") \
            and os.path.dirname(temp[1]) == root
        assert rename == ("replace", os.path.join(root, "manifest.jsonl"))
        assert last == ("fsync", root)

    def test_log_growth_does_not_depend_on_earlier_appends(self, tmp_path):
        store, index, _ = sketched_store(tmp_path)
        log = store_layout.log_path(store)
        growth = []
        for i in range(1, 51):
            size = log.stat().st_size
            append_one(store, index, i)
            growth.append(log.stat().st_size - size)
        assert growth[0] == growth[49] < 200
        assert len(set(growth)) == 1
        # The committed log replays to the index that wrote it.
        loaded = ColumnarStore(store.path).load_index()
        assert knn_signature(loaded, [one_og(7)]) \
            == knn_signature(index, [one_og(7)])


    def test_append_follows_a_replaced_log(self, tmp_path):
        """A full write by another store object replaces the log under
        an open append handle; the next append must land in the new
        log, not in the unlinked old file."""
        store, index, _ = sketched_store(tmp_path)
        append_one(store, index, 1)                  # opens the handle
        other = ColumnarStore(store.path)
        other.write_index(index)                     # replaces the log
        rebound = store.load_index()
        name = append_one(store, rebound, 2)
        assert store_layout.segments(store)[-1]["seg"] == name
        assert len(ColumnarStore(store.path).load_index()) == len(rebound)


class TestIntegrity:
    @pytest.fixture
    def store_with_delta(self, tmp_path):
        store, index, ogs = sketched_store(tmp_path, "pristine")
        rag = RegionAdjacencyGraph()
        rag.add_node(0, NodeAttributes(500, (10.0, 20.0, 30.0), (5.0, 6.0)))
        rag.add_node(1, NodeAttributes(300, (200.0, 0.0, 0.0), (20.0, 6.0)))
        rag.add_edge(0, 1)
        background = BackgroundGraph(rag, frame_count=40)
        store.append(store_layout.applied(index, [
            _BufferedWrite("insert", og=one_og(3), background=background,
                           clip_ref="with-bg"),
            _BufferedWrite("delete", og_id=ogs[0].og_id)]))
        return store

    @pytest.mark.parametrize("segment", [0, 1], ids=["base", "delta"])
    def test_verify_names_every_flipped_column(self, tmp_path,
                                               store_with_delta, segment):
        columns = [name for name in
                   store_layout.column_names(store_with_delta, segment)
                   if store_layout.column_span(store_with_delta, name,
                                               segment)[2] > 0]
        assert len(columns) >= (10 if segment == 0 else 4)
        seg = store_layout.segments(store_with_delta)[segment]["seg"]
        for column in columns:
            copy = tmp_path / f"flip-{column}.strg"
            shutil.copytree(store_with_delta.path, copy)
            store_layout.flip_column_byte(copy, column, segment)
            with pytest.raises(IndexCorruptionError) as err:
                ColumnarStore(copy).verify()
            assert err.value.details["segment"] == seg
            assert err.value.details["column"] == column
            assert column in str(err.value) and seg in str(err.value)
        ColumnarStore(store_with_delta.path).verify()

    def test_flipped_middle_record_is_corruption(self, tmp_path):
        store, index, _ = sketched_store(tmp_path)
        append_one(store, index, 1)
        append_one(store, index, 2)
        log = store_layout.log_path(store)
        blob = bytearray(log.read_bytes())
        lines = blob.splitlines(keepends=True)
        middle = len(lines[0]) + len(lines[1]) // 2
        blob[middle] ^= 0x01
        log.write_bytes(bytes(blob))
        with pytest.raises(IndexCorruptionError) as err:
            ColumnarStore(store.path).load_index()
        assert err.value.details["record"] == 2

    def test_torn_final_line_opens_at_previous_commit(self, tmp_path):
        store, index, _ = sketched_store(tmp_path)
        append_one(store, index, 1)
        at_first = len(index)
        append_one(store, index, 2)
        log = store_layout.log_path(store)
        blob = log.read_bytes()
        log.write_bytes(blob[:len(blob) - 20])      # the newline is gone
        reopened = ColumnarStore(store.path)
        assert len(reopened.load_index()) == at_first
        assert reopened.manifest()["version"] \
            == store_layout.log_records(store)[1]["sum"]
        # The next writer cuts the torn tail before its own record.
        name = append_one(reopened, reopened.load_index(), 9, "r-009")
        assert store_layout.log_path(store).read_bytes().endswith(b"\n")
        assert [seg["seg"] for seg in store_layout.segments(store)][-1] \
            == name
        assert len(ColumnarStore(store.path).load_index()) == at_first + 1
        ColumnarStore(store.path).verify()
