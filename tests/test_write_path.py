"""The one write path: ``VideoDatabase`` ingests through
``IngestService`` over a ``LiveIndex`` (docs/RESILIENCE.md).

- A kill at every write point of the journal protocol recovers exactly
  once, through ``IngestService.recover`` and ``VideoDatabase.recover``.
- A ``LiveIndex`` compaction into an empty index is the same ``build``
  the index would get without one, column for column.
- A delete by og_id (a label that may repeat) drops one row, and the
  store, a reopened index and a fresh process agree on which.
- A batch that empties the index before it inserts is a build in the
  store too.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.index import STRGIndex, STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.pipeline import PipelineConfig, VideoPipeline
from repro.resilience import FaultInjector, RetryPolicy, injected
from repro.serving.ingest import IngestService, IngestServiceConfig
from repro.serving.sharding import ShardedIndex, ShardedIndexConfig
from repro.serving.snapshot import LiveIndex
from repro.storage.database import VideoDatabase
from repro.storage.serialize import leaf_ogs
from repro.storage.store import open_store
from tests import store_layout
from tests.test_resilience import tiny_segment


class SimulatedCrash(BaseException):
    """A kill: no ``except`` clause of the library catches it."""


CLIPS = [tiny_segment(i) for i in range(4)]
POISON = CLIPS[1].name          # quarantined on its one attempt
CHECKPOINT_BEFORE = 2           # the checkpoint runs before CLIPS[2]

#: Where to kill, as (injection point, ordinal).  Journal records land
#: in this order: seg-000 QUEUED RUNNING INDEXED (0-2), seg-001 QUEUED
#: RUNNING QUARANTINED (3-5), checkpoint (6), seg-002 QUEUED RUNNING
#: INDEXED (7-9), seg-003 (10-12).  A journal kill fires before the
#: record is written.
KILL_POINTS = {
    "QUEUED": ("ingest.journal", 7),
    "RUNNING": ("ingest.journal", 8),
    "INDEXED": ("ingest.journal", 9),
    "checkpoint": ("ingest.journal", 6),
    "ingest.commit": ("ingest.commit", 1),    # seg-002's commit
    "storage.write": ("storage.write", 0),    # the checkpoint's manifest
}


def _injector(kill: tuple[str, int] | None) -> FaultInjector:
    injector = FaultInjector().inject("ingest.process", at={1})  # POISON
    if kill is not None:
        point, ordinal = kill
        injector.inject(point, at={ordinal}, error=SimulatedCrash)
    return injector


def _contents(index) -> list[tuple[str, bytes]]:
    """Every indexed OG as (clip name, trajectory bytes), duplicates
    kept: og ids are process-local, so a re-run clip mints new ones."""
    return sorted((ref["video"], og.values.tobytes())
                  for og, ref in leaf_ogs(index))


def _drive(ingest, checkpoint, kill) -> bool:
    """Ingest every clip, checkpointing once; ``True`` if killed."""
    with injected(_injector(kill)):
        try:
            for i, clip in enumerate(CLIPS):
                if i == CHECKPOINT_BEFORE:
                    checkpoint()
                ingest(clip)
        except SimulatedCrash:
            return True
    return False


def _service_config() -> IngestServiceConfig:
    return IngestServiceConfig(retry_policy=RetryPolicy(max_attempts=1),
                               checkpoint_every=None)


def _job_id(clip) -> str:
    return f"job-{clip.name}"


def _service_run(state: Path, kill) -> tuple[IngestService, bool]:
    service = IngestService(
        LiveIndex(STRGIndex(PipelineConfig().index)), VideoPipeline(),
        state_dir=state, config=_service_config())
    killed = _drive(lambda clip: service.run(clip, job_id=_job_id(clip)),
                    service.checkpoint, kill)
    service.shutdown()
    return service, killed


def _db_run(state: Path, kill) -> tuple[VideoDatabase, bool]:
    db = VideoDatabase(fault_policy="skip-and-quarantine", state_dir=state)
    killed = _drive(db.ingest, db.save, kill)
    return db, killed


class TestCrashPoints:
    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        service, killed = _service_run(
            tmp_path_factory.mktemp("clean") / "state", None)
        assert not killed
        assert [q.segment for q in service.quarantine] == [POISON]
        return _contents(service.live.snapshot.index)

    @pytest.mark.parametrize("where", sorted(KILL_POINTS))
    def test_ingest_service_recovers_exactly_once(self, tmp_path, clean,
                                                  where):
        state = tmp_path / "state"
        _, killed = _service_run(state, KILL_POINTS[where])
        assert killed
        recovered = IngestService.recover(state, pipeline=VideoPipeline(),
                                          config=_service_config())
        report = recovered.recovery
        assert report.quarantined_jobs == [_job_id(CLIPS[1])]
        # The client re-sends every clip it has no quarantine verdict
        # for; what the state dir already holds is an idempotent no-op.
        for clip in CLIPS:
            if _job_id(clip) not in report.quarantined_jobs:
                recovered.run(clip, job_id=_job_id(clip))
        assert _contents(recovered.live.snapshot.index) == clean
        assert [q.segment for q in recovered.quarantine] == [POISON]
        recovered.shutdown()

    @pytest.mark.parametrize("where", sorted(KILL_POINTS))
    def test_database_recovers_exactly_once(self, tmp_path, clean, where):
        state = tmp_path / "state"
        _, killed = _db_run(state, KILL_POINTS[where])
        assert killed
        recovered = VideoDatabase.recover(state,
                                          fault_policy="skip-and-quarantine")
        assert len(recovered.recovery.quarantined_jobs) == 1
        # The caller re-ingests only what is neither indexed nor
        # quarantined after recovery.
        done = {ref["video"] for _, ref in leaf_ogs(recovered.index)}
        done |= {q.segment for q in recovered.quarantine}
        for clip in CLIPS:
            if clip.name not in done:
                recovered.ingest(clip)
        assert _contents(recovered.index) == clean
        assert [q.segment for q in recovered.quarantine] == [POISON]


def _plain_contents(clips) -> list[tuple[str, bytes]]:
    db = VideoDatabase()
    db.ingest_many(clips)
    return _contents(db.index)


class TestJobFailures:
    def test_unwritten_indexed_record_commits_once(self, tmp_path):
        # An OSError is retryable, but only the attempts retry: the
        # commit ran, so the clip must not be indexed a second time.
        state = tmp_path / "state"
        db = VideoDatabase(state_dir=state)            # retry-then-skip
        failing = FaultInjector().inject("ingest.journal", at={2})
        with injected(failing):                        # job-000000 INDEXED
            with pytest.raises(OSError):
                db.ingest(CLIPS[0])
            for clip in CLIPS[1:]:
                assert db.ingest(clip) >= 1
        assert failing.fired["ingest.journal"] == 1
        assert _contents(db.index) == _plain_contents(CLIPS)
        assert db.health()["quarantined"] == 0
        db.save()
        # The checkpoint's clip refs make the unjournaled job durable.
        recovered = VideoDatabase.recover(state)
        assert recovered.recovery.replayed_jobs == []
        assert _contents(recovered.index) == _plain_contents(CLIPS)

    def test_replay_goes_on_past_a_failing_job(self, tmp_path):
        state = tmp_path / "state"
        service = IngestService(
            LiveIndex(STRGIndex(PipelineConfig().index)), VideoPipeline(),
            state_dir=state, config=_service_config())
        # Both jobs die after their RUNNING record: both replay.
        with injected(FaultInjector().inject(
                "ingest.process", at={0, 1}, error=SimulatedCrash)):
            for clip in CLIPS[:2]:
                with pytest.raises(SimulatedCrash):
                    service.run(clip, job_id=_job_id(clip))
        service.shutdown()
        # The first replay hits a bug (not bad input): run re-raises it.
        with injected(FaultInjector().inject(
                "ingest.process", at={0}, error=TypeError)):
            recovered = IngestService.recover(state,
                                              config=_service_config())
        jobs = [_job_id(clip) for clip in CLIPS[:2]]
        assert recovered.recovery.replayed_jobs == jobs
        assert recovered.recovery.quarantined_jobs == jobs[:1]
        assert _contents(recovered.live.snapshot.index) \
            == _plain_contents(CLIPS[1:2])
        recovered.checkpoint()
        recovered.shutdown()
        again = IngestService.recover(state, config=_service_config())
        assert again.recovery.replayed_jobs == []
        assert again.recovery.quarantined_jobs == jobs[:1]

    def test_ingest_service_keeps_the_databases_bookkeeping(self, tmp_path):
        db = VideoDatabase(fault_policy="skip-and-quarantine",
                           state_dir=tmp_path / "state")
        with injected(FaultInjector().inject("ingest.process", at={1})):
            db.ingest_many(CLIPS[:2])
        with db.ingest_service() as service:
            assert db.state_dir == service.state_dir
            assert [q.segment for q in db.quarantine] == [POISON]
            assert db.health()["quarantined"] == 1
            assert service.health()["indexed_jobs"] == 1
            db.ingest(CLIPS[2])
            db.save()                                  # a checkpoint
        assert Path(open_store(tmp_path / "state" / "index").path).is_dir()
        records = (tmp_path / "state" / "ingest.journal").read_text()
        assert '"job": "job-000002"' in records
        assert '"event": "checkpoint"' in records


def _store_digest(path) -> dict[str, str]:
    root = Path(open_store(path).path)
    files = {str(f.relative_to(root)): hashlib.sha256(f.read_bytes())
             .hexdigest() for f in sorted(root.rglob("*")) if f.is_file()}
    return dict(files, **store_layout.column_digests(root))


class TestFirstCompactionIsABuild:
    @pytest.mark.parametrize("shards", [None, 2])
    def test_compaction_into_empty_index_equals_build(self, tmp_path,
                                                      small_og_set, shards):
        config = PipelineConfig().index

        def empty():
            if shards is None:
                return STRGIndex(config)
            return ShardedIndex(ShardedIndexConfig(
                num_shards=shards, placement="affine", index=config))

        ogs = small_og_set
        refs = [{"video": f"v{i // 4}", "og": og.og_id}
                for i, og in enumerate(ogs)]
        built = empty()
        built.build(ogs, None, refs)
        live = LiveIndex(empty())
        live.bulk_insert(ogs, None, refs)
        live.compact()
        open_store(tmp_path / "built").write_index(built)
        open_store(tmp_path / "live").write_index(live.snapshot.index)
        digest = _store_digest(tmp_path / "built")
        assert len(digest) > 10
        assert _store_digest(tmp_path / "live") == digest


def _sharded(shards: int, placement: str = "hash") -> ShardedIndex:
    return ShardedIndex(ShardedIndexConfig(
        num_shards=shards, placement=placement,
        index=STRGIndexConfig(n_clusters=4, em_iterations=4)))


def _by_shard(index) -> list[list[bytes]]:
    """Every shard's OGs as sorted trajectory bytes (og ids are labels a
    reload gives anew; the trajectories name the OGs)."""
    return [sorted(og.values.tobytes() for og in shard.object_graphs())
            for shard in ShardedIndex.of(index).shards]


def _leaves(index) -> list[list[list[bytes]]]:
    """Every shard's leaves as sorted lists of trajectory bytes, sorted."""
    return [sorted(sorted(r.og.values.tobytes() for r in record.leaf)
                   for record in shard.cluster_records())
            for shard in ShardedIndex.of(index).shards]


class TestEmptyingBatchIsABuild:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_delete_everything_then_insert_matches_the_store(self, tmp_path,
                                                             shards):
        """A compaction that deletes every OG of a store-bound index and
        then inserts *builds* the inserts into the emptied index; the
        store files them in the same leaves with the same columns."""
        ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=90, seed=13))
        config = STRGIndexConfig(n_clusters=3, em_iterations=4)
        index = (STRGIndex(config) if shards == 1 else ShardedIndex(
            ShardedIndexConfig(num_shards=shards, placement="hash",
                               index=config)))
        index.build(ogs[:40], clip_refs=[f"og-{i}" for i in range(40)])
        live = LiveIndex(index)
        live.attach_store(open_store(tmp_path / "corpus"))
        for og in ogs[:40]:
            live.delete(og.og_id)
        live.bulk_insert(ogs[40:], None,
                         [f"og-{i}" for i in range(40, len(ogs))])
        live.compact()
        served = live.snapshot.index
        reopened = open_store(tmp_path / "corpus").load_index()
        assert len(reopened) == len(served) == 50
        assert _leaves(reopened) == _leaves(served)
        open_store(tmp_path / "served").write_index(served)
        open_store(tmp_path / "reopened").write_index(reopened)
        assert store_layout.column_digests(tmp_path / "reopened") \
            == store_layout.column_digests(tmp_path / "served")


class TestDeletesByRow:
    """A delete is resolved once, by the index, to a row; the store, the
    sketch and a reopened index drop that row and no other."""

    @pytest.mark.parametrize("shards", [1, 2])
    def test_same_label_deletes_match_the_checkpoint(self, tmp_path,
                                                     shards):
        """OGs inserted under the labels of indexed OGs, then deleted by
        label through ``IngestService`` checkpoints (full write, append,
        append): the live index and the reopened store hold the same
        OGs."""
        ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=120, seed=3))
        index = _sharded(shards)
        index.build(ogs[:100], clip_refs=[f"og-{i}" for i in range(100)])
        service = IngestService(LiveIndex(index),
                                state_dir=tmp_path / "state")
        service.checkpoint()
        labelled = ogs[:100:5]
        for twin, og in zip(ogs[100:], labelled):
            twin.og_id = og.og_id
        service.write(ogs[100:])
        service.checkpoint()
        assert service.write(deletes=[og.og_id for og in labelled]) == 20
        service.checkpoint()
        live = service.live.snapshot.index
        stored = open_store(service.snapshot_path).load_index()
        assert len(live) == len(stored) == 100
        assert _by_shard(stored) == _by_shard(live)

    @pytest.mark.parametrize("shards", [1, 2])
    def test_out_of_core_hit_deletes_that_og(self, tmp_path, shards):
        """In a fresh process, a hit of a lazy mmap open's out-of-core
        budgeted query, deleted by its og_id, removes that OG and only
        that OG from the materialized index."""
        ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=200, seed=5))
        index = _sharded(shards)
        index.build(ogs, clip_refs=[f"og-{i}" for i in range(len(ogs))])
        for shard in index.shards:
            shard.sketch_tier()
        path = open_store(tmp_path / "corpus").write_index(index)
        target = ogs[91]
        np.save(tmp_path / "query.npy", target.values)
        script = textwrap.dedent(f"""
            import json, numpy as np, repro
            db = repro.open_database({path!r}, mmap=True)
            query = np.load({str(tmp_path / "query.npy")!r})
            (hit,) = db.knn(query, 1, search_budget=50)
            loaded = db.index_loaded
            deleted = db.delete(hit.og.og_id)
            print(json.dumps({{
                "distance": hit.distance, "ref": hit.clip_ref,
                "lazy": not loaded, "deleted": deleted,
                "left": sorted(og.values.tobytes().hex()
                               for og in db.index.object_graphs())}}))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(repro.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        got = json.loads(out.stdout.splitlines()[-1])
        assert got["distance"] == 0.0 and got["ref"] == "og-91"
        assert got["lazy"] and got["deleted"]
        assert got["left"] == sorted(og.values.tobytes().hex()
                                     for og in ogs if og is not target)
