"""Tests for index persistence, the 2.x archive reader's integrity
checks, and the VideoDatabase facade."""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.core.index import STRGIndex, STRGIndexConfig
from repro.errors import IndexCorruptionError, IndexStateError, StorageError
from repro.graph.object_graph import ObjectGraph
from repro.storage.database import VideoDatabase
from repro.storage.serialize import FORMAT_VERSION
from repro.storage.serialize import load_index as load_archive
from repro.storage.store import open_store

LEGACY = Path(__file__).parent / "data" / "legacy_npz"


def save_index(path, index):
    open_store(path).write_index(index)


def load_index(path):
    """The one shard a store written from an ``STRGIndex`` holds."""
    (shard,) = open_store(path).load_index().shards
    return shard


def blob_ogs(k=3, n_per=5, seed=0):
    rng = np.random.default_rng(seed)
    ogs = []
    for label in range(k):
        for _ in range(n_per):
            length = int(rng.integers(5, 10))
            base = np.linspace(0, 10, length)[:, None]
            values = np.hstack([base + label * 150.0, base])
            ogs.append(ObjectGraph.from_values(
                values + rng.normal(0, 0.5, values.shape), label=label
            ))
    return ogs


class TestObjectGraphSerialization:
    """OG payloads (values, frames, labels) through the store's
    row-addressed reader — no tree involved."""

    def test_roundtrip(self, tmp_path):
        from repro.storage.serialize import leaf_ogs

        index = STRGIndex(STRGIndexConfig(n_clusters=3))
        index.build(blob_ogs())
        save_index(tmp_path / "ogs", index)
        reader = open_store(tmp_path / "ogs").row_reader(mmap=False)
        stored = [og for og, _ in leaf_ogs(index)]   # the row order
        assert len(reader) == len(stored)
        for row, orig in enumerate(stored):
            back, _ = reader.record(row)
            np.testing.assert_allclose(back.values, orig.values)
            np.testing.assert_array_equal(back.frames, orig.frames)
            assert back.label == orig.label

    def test_unlabeled_roundtrip(self, tmp_path):
        index = STRGIndex(STRGIndexConfig(n_clusters=None, k_max=4))
        index.insert(ObjectGraph.from_values([[1.0, 2.0]]))
        save_index(tmp_path / "ogs", index)
        og, _ = open_store(tmp_path / "ogs").row_reader().record(0)
        assert og.label is None

    def test_empty_set(self, tmp_path):
        index = STRGIndex(STRGIndexConfig(n_clusters=None, k_max=4))
        save_index(tmp_path / "empty", index)
        assert len(open_store(tmp_path / "empty").row_reader()) == 0
        assert list(load_index(tmp_path / "empty").object_graphs()) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            open_store(tmp_path / "nope").row_reader()


class TestIndexSerialization:
    def test_roundtrip_structure(self, tmp_path):
        ogs = blob_ogs()
        index = STRGIndex(STRGIndexConfig(n_clusters=3))
        index.build(ogs, clip_refs=[f"c{i}" for i in range(len(ogs))])
        path = tmp_path / "index"
        save_index(path, index)
        loaded = load_index(path)
        assert loaded.stats() == index.stats()

    def test_roundtrip_search_identical(self, tmp_path):
        ogs = blob_ogs()
        index = STRGIndex(STRGIndexConfig(n_clusters=3))
        index.build(ogs)
        path = tmp_path / "index"
        save_index(path, index)
        loaded = load_index(path)
        orig_hits = index.knn(ogs[0], 5)
        back_hits = loaded.knn(ogs[0], 5)
        assert [h[0] for h in back_hits] == pytest.approx(
            [h[0] for h in orig_hits]
        )

    def test_clip_refs_survive(self, tmp_path):
        ogs = blob_ogs(k=1, n_per=3)
        index = STRGIndex(STRGIndexConfig(n_clusters=1))
        index.build(ogs, clip_refs=["a", "b", "c"])
        path = tmp_path / "index"
        save_index(path, index)
        loaded = load_index(path)
        refs = {r.clip_ref
                for rec in loaded.root[0].cluster_node for r in rec.leaf}
        assert refs == {"a", "b", "c"}

    def test_config_survives(self, tmp_path):
        index = STRGIndex(STRGIndexConfig(n_clusters=2, leaf_capacity=17))
        index.build(blob_ogs(k=2, n_per=3))
        path = tmp_path / "index"
        save_index(path, index)
        assert load_index(path).config.leaf_capacity == 17

    def test_backgrounds_survive(self, tmp_path):
        from repro.graph.attributes import NodeAttributes
        from repro.graph.decomposition import BackgroundGraph
        from repro.graph.rag import RegionAdjacencyGraph

        rag = RegionAdjacencyGraph()
        rag.add_node(0, NodeAttributes(500, (10.0, 20.0, 30.0), (5.0, 6.0)))
        rag.add_node(1, NodeAttributes(300, (200.0, 0.0, 0.0), (20.0, 6.0)))
        rag.add_edge(0, 1)
        bg = BackgroundGraph(rag, frame_count=40)
        index = STRGIndex(STRGIndexConfig(n_clusters=2))
        index.build(blob_ogs(k=2, n_per=3), background=bg)
        path = tmp_path / "index"
        save_index(path, index)
        loaded = load_index(path)
        restored = loaded.root[0].background
        assert restored is not None
        assert restored.frame_count == 40
        assert len(restored) == 2
        assert restored.rag.number_of_edges() == 1
        # Background routing still works after the roundtrip.
        assert restored.similarity(bg) == pytest.approx(1.0)

    def test_mixed_none_and_real_backgrounds(self, tmp_path):
        from repro.graph.attributes import NodeAttributes
        from repro.graph.decomposition import BackgroundGraph
        from repro.graph.rag import RegionAdjacencyGraph

        rag = RegionAdjacencyGraph()
        rag.add_node(0, NodeAttributes(100, (1.0, 2.0, 3.0), (0.0, 0.0)))
        bg = BackgroundGraph(rag, frame_count=7)
        index = STRGIndex(STRGIndexConfig(n_clusters=1))
        index.build(blob_ogs(k=1, n_per=3, seed=1))          # no background
        index.build(blob_ogs(k=1, n_per=3, seed=2), background=bg)
        path = tmp_path / "index"
        save_index(path, index)
        loaded = load_index(path)
        assert loaded.root[0].background is None
        assert loaded.root[1].background is not None
        assert loaded.root[1].background.frame_count == 7


class TestCorruptionDetection:
    """2.x archives must fail loudly in the importer's reader, never
    load silently wrong (the columnar store's own drills live in
    ``test_columnar.py::TestCorruptionDetection``)."""

    def _saved_index(self, tmp_path, name="index.npz"):
        path = tmp_path / name
        shutil.copy(LEGACY / "mono.npz", path)
        return path

    def test_truncated_npz_raises_typed_error(self, tmp_path):
        path = self._saved_index(tmp_path)
        size = path.stat().st_size
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        with pytest.raises(IndexCorruptionError) as excinfo:
            load_archive(path)
        assert excinfo.value.details["path"].endswith("index.npz")

    @pytest.mark.parametrize("position", [0.1, 0.2, 0.3, 0.4, 0.5,
                                          0.6, 0.7, 0.8, 0.9])
    def test_flipped_byte_never_loads_silently_wrong(self, tmp_path, position):
        # Some offsets land in benign zip metadata (timestamps, attrs):
        # those loads may succeed, but then MUST return the exact index.
        # Payload flips must raise the typed corruption error.
        path = self._saved_index(tmp_path)
        reference = load_archive(path)
        size = path.stat().st_size
        offset = int(size * position)
        with open(path, "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))
        try:
            loaded = load_archive(path)
        except IndexCorruptionError:
            return
        assert loaded.stats() == reference.stats()
        for og_ref, og_new in zip(reference.object_graphs(),
                                  loaded.object_graphs()):
            np.testing.assert_array_equal(og_ref.values, og_new.values)

    def test_wrong_version_header_raises(self, tmp_path):
        path = self._saved_index(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files}
        arrays["__format_version__"] = np.int64(FORMAT_VERSION + 99)
        np.savez_compressed(path, **arrays)
        with pytest.raises(IndexCorruptionError, match="version"):
            load_archive(path)

    def test_checksum_survives_clean_roundtrip(self, tmp_path):
        # The integrity header must not interfere with normal loads.
        path = self._saved_index(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            assert "__checksum__" in data.files
            assert int(data["__format_version__"]) == FORMAT_VERSION
        assert len(load_archive(path)) == 36

    def test_legacy_archive_without_header_still_loads(self, tmp_path):
        # Pre-resilience (v1) archives carry no header keys.
        path = self._saved_index(tmp_path)
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: np.array(data[name]) for name in data.files
                      if not name.startswith("__")}
        np.savez_compressed(path, **arrays)
        index = load_archive(path)
        assert len(index) == 36


class TestPathHandling:
    def test_suffixless_index_roundtrip(self, tmp_path):
        index = STRGIndex(STRGIndexConfig(n_clusters=2))
        index.build(blob_ogs(k=2, n_per=3))
        stem = tmp_path / "nested" / "idx"
        stem.parent.mkdir()
        save_index(stem, index)
        assert (tmp_path / "nested" / "idx.strg").is_dir()
        assert load_index(stem).stats() == index.stats()

    def test_error_messages_use_normalized_path(self, tmp_path):
        with pytest.raises(StorageError, match=r"missing\.strg"):
            load_index(tmp_path / "missing")


class TestVideoDatabase:
    def test_ingest_and_query(self, tiny_video):
        db = VideoDatabase()
        n = db.ingest(tiny_video)
        assert n >= 1
        stats = db.stats()
        assert stats["ogs"] == n
        assert stats["raw_strg_bytes"] > stats["index_bytes"]

    def test_knn_by_trajectory(self, tiny_video):
        db = VideoDatabase()
        db.ingest(tiny_video)
        trajectory = np.stack([
            np.linspace(5, 90, 12), np.full(12, 40.0)
        ], axis=1)
        hits = db.knn(trajectory, k=1)
        assert len(hits) == 1
        assert hits[0].distance >= 0.0

    def test_query_clip(self, tiny_video):
        db = VideoDatabase()
        db.ingest(tiny_video)
        hits = db.query_clip(tiny_video.slice(0, 8), k=2)
        assert hits
        assert hits[0].distance <= hits[-1].distance

    def test_empty_query_rejected(self):
        db = VideoDatabase()
        with pytest.raises(IndexStateError):
            db.knn(np.zeros((3, 2)))

    def test_ingest_object_graphs(self):
        db = VideoDatabase()
        assert db.ingest_object_graphs(blob_ogs(k=2, n_per=3)) == 6
        assert db.stats()["ogs"] == 6

    def test_ingest_empty_og_list(self):
        db = VideoDatabase()
        assert db.ingest_object_graphs([]) == 0

    def test_save_load(self, tmp_path):
        db = VideoDatabase()
        db.ingest_object_graphs(blob_ogs())
        path = tmp_path / "db.strg"
        db.save(path)
        restored = VideoDatabase.load(path)
        assert restored.stats()["ogs"] == db.stats()["ogs"]

    def test_save_empty_rejected(self, tmp_path):
        with pytest.raises(IndexStateError):
            VideoDatabase().save(tmp_path / "x.strg")

    def test_ingest_with_shot_parsing(self, tiny_video):
        # Concatenate two scenes: the tiny video and an inverted-color
        # copy.  With shot parsing each scene is its own segment and the
        # distinct backgrounds occupy separate root records.
        inverted = 255 - tiny_video.frames
        frames = np.concatenate([tiny_video.frames, inverted])
        from repro.video.frames import VideoSegment

        video = VideoSegment(frames, name="two-scenes")
        db = VideoDatabase()
        n = db.ingest(video, parse_shots=True)
        assert n >= 2
        assert db.stats()["backgrounds"] == 2
