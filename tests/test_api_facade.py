"""The unified public surface: ``open_database``, uniform ``Query`` sources.

These tests pin the PR-3 API contract: one front door
(``repro.open_database``), one query builder that accepts a database, a
bare index or a pipeline, and a top-level ``__all__`` that is sorted and
complete.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.index import STRGIndex, STRGIndexConfig
from repro.errors import InvalidParameterError, StorageError
from repro.query import Query
from repro.storage.database import VideoDatabase


@pytest.fixture(scope="module")
def populated(tmp_path_factory, tiny_video):
    """A database with one ingested segment, saved to disk."""
    path = tmp_path_factory.mktemp("facade") / "corpus.strg"
    db = repro.open_database(path)
    db.ingest(tiny_video)
    db.save()
    return path, db


class TestOpenDatabase:
    def test_none_gives_unbound_empty_database(self):
        db = repro.open_database()
        assert isinstance(db, VideoDatabase)
        assert db.path is None
        assert db.stats()["ogs"] == 0

    def test_fresh_path_binds_for_later_save(self, tmp_path, tiny_video):
        db = repro.open_database(tmp_path / "new")
        assert db.path == str(tmp_path / "new.strg")
        db.ingest(tiny_video)
        db.save()                       # no argument: uses the bound path
        assert (tmp_path / "new.strg").is_dir()

    def test_round_trip(self, populated):
        path, original = populated
        reopened = repro.open_database(path)
        assert reopened.path == str(path)
        assert reopened.stats()["ogs"] == original.stats()["ogs"]
        example = next(original.index.object_graphs())
        got = [h.distance for h in reopened.knn(example, k=3)]
        want = [h.distance for h in original.knn(example, k=3)]
        assert got == pytest.approx(want)

    def test_missing_with_create_false_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            repro.open_database(tmp_path / "absent", create=False)

    def test_kwargs_forwarded(self):
        db = repro.open_database(fault_policy="fail-fast")
        assert db.fault_policy.value == "fail-fast"

    def test_unbound_save_requires_path(self):
        db = repro.open_database()
        with pytest.raises(StorageError):
            db.save()

    @pytest.mark.parametrize("mmap", ["false", "no", 1, None])
    def test_mmap_is_true_false_or_auto(self, populated, tmp_path, mmap):
        """Any other value raises instead of being coerced ("false" is
        truthy and used to map the store)."""
        path, _ = populated
        for call in (lambda: repro.open_database(path, mmap=mmap),
                     lambda: repro.open_database(tmp_path / "x", mmap=mmap),
                     lambda: VideoDatabase.load(path, mmap=mmap)):
            with pytest.raises(InvalidParameterError, match="mmap"):
                call()
        assert repro.open_database(path, mmap=False).index_loaded
        assert not repro.open_database(path, mmap="auto").index_loaded


class TestUniformQuerySources:
    def test_db_query_matches_explicit_query(self, populated):
        _, db = populated
        assert isinstance(db.query(), Query)
        via_method = [r.og.og_id for r in db.query().run()]
        via_class = [r.og.og_id for r in Query(db).run()]
        assert via_method == via_class and via_method

    def test_db_knn_matches_index_knn(self, populated):
        _, db = populated
        example = next(db.index.object_graphs())
        from_db = [(h.og.og_id, h.distance) for h in db.knn(example, k=3)]
        from_index = [(og.og_id, d)
                      for d, og, _ in db.index.knn(example, k=3)]
        assert from_db == from_index

    def test_knn_accepts_raw_trajectory(self, populated):
        _, db = populated
        walk = np.stack([np.linspace(5, 90, 12), np.full(12, 40.0)], axis=1)
        hits = db.knn(walk, k=2)
        assert len(hits) == 2
        assert hits[0].distance <= hits[1].distance

    def test_bare_index_is_queryable(self, small_og_set):
        index = STRGIndex(STRGIndexConfig(n_clusters=3))
        index.build(small_og_set)
        results = Query(index).limit(4).run()
        assert len(results) == 4

    def test_pipeline_is_queryable(self, tiny_video):
        from repro.pipeline import VideoPipeline

        pipeline = VideoPipeline()
        assert Query(pipeline).run() == []      # nothing processed yet
        pipeline.process(tiny_video)
        assert pipeline.index is not None
        assert Query(pipeline).count() == len(
            list(pipeline.index.object_graphs())
        )


class TestBlessedSurface:
    def test_all_is_sorted_and_complete(self):
        assert list(repro.__all__) == sorted(repro.__all__)
        for name in ("open_database", "observability", "Query",
                     "QueryResult", "STRGIndexConfig", "VideoDatabase"):
            assert name in repro.__all__, name

    def test_all_names_resolve_without_warnings(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in repro.__all__:
                assert getattr(repro, name) is not None, name
