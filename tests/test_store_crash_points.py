"""A kill at every write point of a store append (docs/RESILIENCE.md,
*Commit protocol and its crash points*).

An append writes one segment file per written shard, fsyncs each and
then the directory, then appends one log record.  Each point below is
killed through ``FaultInjector`` — for a ``LiveIndex.attach_store``
store, an ``IngestService`` checkpoint store, and a 2-shard
``LiveIndex`` store whose commit writes both shards (plus a kill inside
a full write of both).  Reopening must give a committed prefix — both
shards' deltas or neither — the next commit must resync, and
``IngestService.recover`` must index every clip exactly once.
"""

from __future__ import annotations

import pytest

from repro.core.index import STRGIndex, STRGIndexConfig
from repro.pipeline import PipelineConfig, VideoPipeline
from repro.resilience import FaultInjector, injected
from repro.serving.ingest import IngestService
from repro.serving.sharding import ShardedIndex, ShardedIndexConfig
from repro.serving.snapshot import LiveIndex
from repro.storage.serialize import leaf_ogs
from repro.storage.store import open_store
from tests import store_layout
from tests.test_columnar import blob_ogs, build_index
from tests.test_write_path import (
    CLIPS,
    POISON,
    SimulatedCrash,
    _contents,
    _job_id,
    _service_config,
)

#: Kill points of one append, as (injection point, ordinal within the
#: append, options).  ``storage.log`` is consulted twice per append: the
#: torn-write check (ordinal 0), then the kill after the record (1).
KILLS = {
    "segment write": ("storage.segment", 0,
                      dict(kind="truncate", truncate_to=0.0)),
    "truncated segment": ("storage.segment", 0,
                          dict(kind="truncate", truncate_to=0.5)),
    "before the log append": ("storage.append", 0, {}),
    "torn log record": ("storage.log", 0,
                        dict(kind="truncate", truncate_to=0.5)),
    "after the log append": ("storage.log", 1, {}),
}
#: Kill points of an append that writes both shards of a 2-shard store:
#: each segment write, the one directory fsync, the log record.
SHARDED_KILLS = {
    "first segment write": ("storage.segment", 0,
                            dict(kind="truncate", truncate_to=0.0)),
    "second segment write": ("storage.segment", 1,
                             dict(kind="truncate", truncate_to=0.0)),
    "truncated second segment": ("storage.segment", 1,
                                 dict(kind="truncate", truncate_to=0.5)),
    "directory fsync": ("storage.sync", 0, {}),
    "before the log append": ("storage.append", 0, {}),
    "torn log record": ("storage.log", 0,
                        dict(kind="truncate", truncate_to=0.5)),
    "after the log append": ("storage.log", 1, {}),
}
#: Kill points inside a full write of a 2-shard store: each base
#: segment, the directory fsync before the log, the log replacement.
FULL_WRITE_KILLS = {
    "first base segment": ("storage.segment", 0,
                           dict(kind="truncate", truncate_to=0.0)),
    "second base segment": ("storage.segment", 1,
                            dict(kind="truncate", truncate_to=0.5)),
    "directory fsync": ("storage.sync", 0, {}),
    "log replacement": ("storage.write", 0, {}),
}
#: Only a kill after the record leaves the append committed.
COMMITTED = {"after the log append"}


def killer(where: str, kills: dict = KILLS) -> FaultInjector:
    point, ordinal, options = kills[where]
    return FaultInjector().inject(point, at={ordinal}, error=SimulatedCrash,
                                  **options)


def rows(index) -> list[tuple[str, bytes]]:
    return sorted((str(ref), og.values.tobytes())
                  for og, ref in leaf_ogs(index))


class TestLiveIndexStore:
    @pytest.mark.parametrize("where", sorted(KILLS))
    def test_kill_reopens_to_a_prefix_and_resyncs(self, tmp_path, where):
        index, _ = build_index()
        live = LiveIndex(index)
        store = open_store(tmp_path / "live")
        live.attach_store(store)
        extra = blob_ogs(k=1, n_per=3, seed=21)
        live.insert(extra[0], clip_ref="first")
        live.compact()
        before = rows(live.snapshot.index)
        live.insert(extra[1], clip_ref="killed")
        with injected(killer(where)):
            with pytest.raises(SimulatedCrash):
                live.compact()
        after = rows(live.snapshot.index)
        del live, store                       # the process is gone

        reopened = open_store(tmp_path / "live")
        recovered = reopened.load_index()
        assert rows(recovered) == (after if where in COMMITTED else before)
        # The next process commits on top of what is there.
        live = LiveIndex(recovered)
        live.attach_store(reopened, write=False)
        live.insert(extra[2], clip_ref="next")
        live.compact()
        assert reopened.needs_merge() is False
        final = open_store(tmp_path / "live")
        final.verify()
        assert rows(final.load_index()) == rows(live.snapshot.index)
        assert [seg["kind"] for seg in store_layout.segments(final)] \
            == ["base", "delta", "delta"] + (["delta"] if where in COMMITTED
                                              else [])
        assert store_layout.log_path(final).read_bytes().endswith(b"\n")


def two_shard_live(path) -> tuple[LiveIndex, object]:
    """A 2-shard live index placing by og_id parity — so OGs minted one
    after the other land in different shards — over an attached store."""
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=2, placement="hash", index=STRGIndexConfig(n_clusters=2)))
    ogs = blob_ogs(k=2, n_per=6, seed=4)
    index.build(ogs, clip_refs=[f"seed-{i}" for i in range(len(ogs))])
    live = LiveIndex(index)
    store = open_store(path)
    live.attach_store(store)
    return live, store


def shards_per_record(path) -> list[list[int]]:
    return [[entry["shard"] for entry in record["segments"]]
            for record in store_layout.log_records(path)[1:]]


class TestShardedLiveIndexStore:
    @pytest.mark.parametrize("where", sorted(SHARDED_KILLS))
    def test_kill_keeps_both_shards_or_neither(self, tmp_path, where):
        live, store = two_shard_live(tmp_path / "live")
        extra = blob_ogs(k=1, n_per=6, seed=22)
        live.bulk_insert(extra[:2], clip_refs=["a0", "a1"])
        live.compact()
        before = rows(live.snapshot.index)
        live.bulk_insert(extra[2:4], clip_refs=["k0", "k1"])
        with injected(killer(where, SHARDED_KILLS)):
            with pytest.raises(SimulatedCrash):
                live.compact()
        after = rows(live.snapshot.index)
        del live, store                       # the process is gone

        reopened = open_store(tmp_path / "live")
        recovered = reopened.load_index()
        committed = where in COMMITTED
        assert rows(recovered) == (after if committed else before)
        assert shards_per_record(reopened) == [[0, 1]] * (1 + committed)
        # The next process commits on top of what is there.
        live = LiveIndex(recovered)
        live.attach_store(reopened, write=False)
        live.bulk_insert(extra[4:], clip_refs=["n0", "n1"])
        live.compact()
        final = open_store(tmp_path / "live")
        final.verify()
        assert rows(final.load_index()) == rows(live.snapshot.index)
        assert shards_per_record(final) == [[0, 1]] * (2 + committed)
        assert store_layout.log_path(final).read_bytes().endswith(b"\n")

    @pytest.mark.parametrize("where", sorted(FULL_WRITE_KILLS))
    def test_kill_inside_a_full_write(self, tmp_path, where):
        live, store = two_shard_live(tmp_path / "live")
        extra = blob_ogs(k=1, n_per=4, seed=23)
        live.bulk_insert(extra[:2], clip_refs=["a0", "a1"])
        live.compact()
        before = rows(live.snapshot.index)
        with injected(killer(where, FULL_WRITE_KILLS)):
            with pytest.raises(SimulatedCrash):
                store.merge()
        assert rows(open_store(tmp_path / "live").load_index()) == before
        assert shards_per_record(tmp_path / "live") == [[0, 1]]
        # The failed write unbound the store: the next commit resyncs it
        # with a full write of both shards.
        live.bulk_insert(extra[2:], clip_refs=["n0", "n1"])
        live.compact()
        store.join_merges()
        final = open_store(tmp_path / "live")
        final.verify()
        assert rows(final.load_index()) == rows(live.snapshot.index)
        assert shards_per_record(final) == []
        assert final.manifest()["num_shards"] == 2


class TestIngestServiceStore:
    @pytest.fixture(scope="class")
    def clean(self, tmp_path_factory):
        service = self._drive(tmp_path_factory.mktemp("clean") / "state",
                              None)
        assert [q.segment for q in service.quarantine] == [POISON]
        return _contents(service.live.snapshot.index)

    @staticmethod
    def _drive(state, where):
        """Index every clip; checkpoint in full after the first two and
        as an append after the third — the append ``where`` kills."""
        service = IngestService(
            LiveIndex(STRGIndex(PipelineConfig().index)), VideoPipeline(),
            state_dir=state, config=_service_config())
        with injected(FaultInjector().inject("ingest.process", at={1})):
            for clip in CLIPS[:2]:
                service.run(clip, job_id=_job_id(clip))
        service.checkpoint()
        service.run(CLIPS[2], job_id=_job_id(CLIPS[2]))
        if where is None:
            service.checkpoint()
        else:
            with injected(killer(where)):
                with pytest.raises(SimulatedCrash):
                    service.checkpoint()
            return service
        service.run(CLIPS[3], job_id=_job_id(CLIPS[3]))
        service.checkpoint()
        service.shutdown()
        return service

    @pytest.mark.parametrize("where", sorted(KILLS))
    def test_recover_is_exactly_once(self, tmp_path, clean, where):
        state = tmp_path / "state"
        killed = self._drive(state, where)
        held = _contents(killed.live.snapshot.index)
        killed.shutdown()
        snapshot = open_store(state / "index")
        committed = {CLIPS[0].name} | (
            {CLIPS[2].name} if where in COMMITTED else set())
        assert {name for name, _ in _contents(snapshot.load_index())} \
            == committed
        assert committed <= {name for name, _ in held}

        recovered = IngestService.recover(state, pipeline=VideoPipeline(),
                                          config=_service_config())
        report = recovered.recovery
        assert report.snapshot_loaded
        assert report.quarantined_jobs == [_job_id(CLIPS[1])]
        for clip in CLIPS:
            if _job_id(clip) not in report.quarantined_jobs:
                recovered.run(clip, job_id=_job_id(clip))
        assert _contents(recovered.live.snapshot.index) == clean
        recovered.checkpoint()                # the next commit resyncs
        recovered.shutdown()
        final = open_store(state / "index")
        final.verify()
        assert _contents(final.load_index()) == clean
