"""Fault injection, retry policies, graceful degradation and recovery.

Covers the ``repro.resilience`` package end to end: deterministic retry
schedules, scripted/probabilistic fault injection, quarantine under each
``FaultPolicy``, drop-tolerance escalation, crash-safe snapshots and
journal-driven recovery — including the paper-scale acceptance scenario
(50-segment batch at a 5% injected fault rate).
"""

import json
import os

import numpy as np
import pytest

from repro.errors import (
    CorruptSegmentError,
    IndexCorruptionError,
    IngestDegradedError,
    RecoveryError,
    SegmentationError,
    StorageError,
)
from repro.resilience import (
    FaultInjector,
    FaultPolicy,
    RetryPolicy,
    call_with_retry,
    injected,
    read_journal,
    replay_jobs,
)
from repro.storage.database import VideoDatabase
from repro.storage.store import open_store
from repro.video.synthesize import (
    Actor,
    BackgroundSpec,
    SceneRenderer,
    linear_trajectory,
    make_vehicle,
)
from tests import store_layout

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay=0.0)


def load_index(path):
    return open_store(path).load_index()


def damage(path, how):
    """Truncate the store's base segment, or flip one byte of its
    trajectories."""
    if how == "truncate":
        store_layout.truncate_segment(path, keep=100)
    else:
        store_layout.flip_column_byte(path, "og_values")


def tiny_segment(i: int, num_frames: int = 6):
    """A very small rendered segment with one deterministic mover."""
    background = BackgroundSpec(width=48, height=36, base_color=(90, 90, 90))
    y = 10.0 + (i % 4) * 6.0
    scene = SceneRenderer(background, [
        Actor(linear_trajectory((4.0, y), (44.0, y), num_frames),
              make_vehicle((200, 40, 40))),
    ])
    return scene.render(num_frames, name=f"seg-{i:03d}")


def blob_ogs(k=2, n_per=4, seed=0):
    from repro.graph.object_graph import ObjectGraph

    rng = np.random.default_rng(seed)
    ogs = []
    for label in range(k):
        for _ in range(n_per):
            base = np.linspace(0, 10, 8)[:, None]
            values = np.hstack([base + label * 120.0, base])
            ogs.append(ObjectGraph.from_values(
                values + rng.normal(0, 0.4, values.shape), label=label
            ))
    return ogs


class TestRetryPolicy:
    def test_backoff_schedule_is_capped_exponential(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0, multiplier=2.0,
                             max_delay=5.0, jitter=0.0)
        assert list(policy.delays()) == [1.0, 2.0, 4.0, 5.0]

    def test_jittered_schedule_deterministic_under_seed(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, jitter=0.5,
                             seed=42)
        first = list(policy.delays())
        second = list(policy.delays())
        assert first == second
        assert any(a != b for a, b in zip(
            first, RetryPolicy(max_attempts=6, base_delay=0.1, jitter=0.5,
                               seed=43).delays()
        ))

    def test_succeeds_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError("transient")
            return "ok"

        slept = []
        result = call_with_retry(flaky, RetryPolicy(max_attempts=4,
                                                    base_delay=0.25),
                                 sleep=slept.append)
        assert result == "ok"
        assert calls["n"] == 3
        assert slept == [0.25, 0.5]

    def test_exhausts_and_raises_original(self):
        def always():
            raise SegmentationError("persistent")

        with pytest.raises(SegmentationError, match="persistent"):
            call_with_retry(always, FAST_RETRY, sleep=lambda _: None)

    def test_non_retryable_propagates_immediately(self):
        calls = {"n": 0}

        def boom():
            calls["n"] += 1
            raise TypeError("bug")

        with pytest.raises(TypeError):
            call_with_retry(boom, FAST_RETRY, retryable=(OSError,))
        assert calls["n"] == 1

    def test_on_retry_callback_counts(self):
        seen = []

        def always():
            raise OSError("x")

        with pytest.raises(OSError):
            call_with_retry(always, RetryPolicy(max_attempts=4,
                                                base_delay=0.0),
                            on_retry=lambda a, e, d: seen.append(a),
                            sleep=lambda _: None)
        assert seen == [1, 2, 3]

    def test_total_timeout_stops_retrying(self):
        clock = {"t": 0.0}

        def tick():
            clock["t"] += 10.0
            raise OSError("slow")

        with pytest.raises(OSError):
            call_with_retry(tick, RetryPolicy(max_attempts=10, base_delay=0.0,
                                              total_timeout=15.0),
                            sleep=lambda _: None,
                            clock=lambda: clock["t"])
        # First attempt at t=10 (within deadline) retries; second at t=20
        # exceeds the 15s deadline and stops.
        assert clock["t"] == 20.0

    def test_invalid_policy_rejected(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InvalidParameterError):
            RetryPolicy(jitter=2.0)


class TestFaultInjector:
    def test_scripted_ordinals_fire_exactly(self):
        injector = FaultInjector()
        injector.inject("tracking", at={1})
        injector.check("tracking")                 # ordinal 0: clean
        with pytest.raises(CorruptSegmentError):
            injector.check("tracking")             # ordinal 1: fires
        injector.check("tracking")                 # ordinal 2: clean
        assert injector.counts["tracking"] == 3
        assert injector.fired["tracking"] == 1

    def test_rate_one_always_fires_with_point_default_error(self):
        injector = FaultInjector().inject("segmentation", rate=1.0)
        with pytest.raises(SegmentationError):
            injector.check("segmentation")
        injector2 = FaultInjector().inject("storage.write", rate=1.0)
        with pytest.raises(OSError):
            injector2.check("storage.write")

    def test_seeded_rate_is_deterministic(self):
        def decisions(seed):
            injector = FaultInjector(seed=seed)
            injector.inject("decomposition", rate=0.3)
            fired = []
            for _ in range(50):
                try:
                    injector.check("decomposition")
                    fired.append(False)
                except CorruptSegmentError:
                    fired.append(True)
            return fired

        assert decisions(7) == decisions(7)
        assert decisions(7) != decisions(8)

    def test_corrupt_transform_and_context(self):
        injector = FaultInjector().inject("segmentation", kind="corrupt",
                                          rate=1.0)
        assert injector.transform("segmentation", np.zeros((2, 2, 3))) is None

    def test_custom_error_class(self):
        injector = FaultInjector().inject("tracking", at={0},
                                          error=RuntimeError)
        with pytest.raises(RuntimeError):
            injector.check("tracking")

    def test_unknown_point_rejected(self):
        from repro.errors import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            FaultInjector().inject("nonexistent", rate=1.0)

    def test_injected_context_restores(self):
        from repro.resilience import active

        injector = FaultInjector()
        assert active() is None
        with injected(injector) as handle:
            assert handle is injector
            assert active() is injector
        assert active() is None


class TestFaultPolicies:
    def test_fail_fast_propagates(self):
        db = VideoDatabase(fault_policy=FaultPolicy.FAIL_FAST)
        with injected(FaultInjector().inject("segmentation", rate=1.0)):
            with pytest.raises(SegmentationError):
                db.ingest(tiny_segment(0))
        # The failed job is journaled as quarantined before the error
        # propagates, so recovery never re-runs it.
        assert db.health()["quarantined"] == 1
        assert db.health()["last_error"]["error_type"] == "SegmentationError"

    def test_skip_quarantines_and_continues(self):
        db = VideoDatabase(fault_policy="skip-and-quarantine")
        injector = FaultInjector().inject("decomposition", at={0})
        with injected(injector):
            assert db.ingest(tiny_segment(0)) == 0
            assert db.ingest(tiny_segment(1)) >= 1
        health = db.health()
        assert health["quarantined"] == 1
        assert health["quarantined_segments"] == ["seg-000"]
        assert health["segments_ingested"] == 1
        assert db.quarantine[0].error_type == "CorruptSegmentError"
        assert db.quarantine[0].details["segment"] == "seg-000"

    def test_retry_then_skip_heals_transient_fault(self):
        db = VideoDatabase(retry_policy=FAST_RETRY)  # default policy
        # Fault only on the segment's first decomposition attempt.
        injector = FaultInjector().inject("decomposition", at={0})
        with injected(injector):
            assert db.ingest(tiny_segment(0)) >= 1
        health = db.health()
        assert health["quarantined"] == 0
        assert health["retries"] == 1

    def test_retry_then_skip_quarantines_persistent_fault(self):
        db = VideoDatabase(retry_policy=FAST_RETRY)
        injector = FaultInjector().inject("tracking", rate=1.0)
        with injected(injector):
            assert db.ingest(tiny_segment(0)) == 0
        health = db.health()
        assert health["quarantined"] == 1
        assert health["retries"] == FAST_RETRY.max_attempts - 1
        assert db.quarantine[0].attempts == FAST_RETRY.max_attempts

    def test_corrupt_frame_is_quarantined(self):
        db = VideoDatabase(fault_policy="skip-and-quarantine")
        injector = FaultInjector().inject("segmentation", kind="corrupt",
                                          at={0})
        with injected(injector):
            assert db.ingest(tiny_segment(0)) == 0
        assert db.quarantine[0].error_type == "CorruptSegmentError"
        assert db.quarantine[0].details["frame"] == 0

    def test_programming_errors_never_quarantined(self):
        db = VideoDatabase(fault_policy="skip-and-quarantine")
        injector = FaultInjector().inject("decomposition", rate=1.0,
                                          error=TypeError)
        with injected(injector):
            with pytest.raises(TypeError):
                db.ingest(tiny_segment(0))

    def test_drop_tolerance_escalates(self):
        db = VideoDatabase(fault_policy="skip-and-quarantine",
                           drop_tolerance=0.4, drop_grace=3)
        injector = FaultInjector().inject("decomposition", at={1, 2})
        with injected(injector):
            assert db.ingest(tiny_segment(0)) >= 1     # ok
            assert db.ingest(tiny_segment(1)) == 0     # 1/2 quarantined
            with pytest.raises(IngestDegradedError) as excinfo:
                db.ingest(tiny_segment(2))             # 2/3 > 0.4 -> boom
        assert excinfo.value.details["quarantined"] == 2
        assert excinfo.value.details["processed"] == 3

    def test_ingest_many_reports(self):
        db = VideoDatabase(fault_policy="skip-and-quarantine")
        injector = FaultInjector().inject("decomposition", at={1})
        with injected(injector):
            report = db.ingest_many([tiny_segment(i) for i in range(4)])
        assert report["segments"] == 3
        assert report["quarantined"] == 1
        assert report["ogs"] >= 3


class TestAcceptance50Segments:
    """The headline scenario: 50 segments at a 5% injected fault rate."""

    RATE = 0.05
    N = 50

    def test_batch_completes_and_knn_matches_no_fault_run(self):
        segments = [tiny_segment(i) for i in range(self.N)]
        db = VideoDatabase(fault_policy="skip-and-quarantine")
        injector = FaultInjector(seed=2005)
        injector.inject("decomposition", rate=self.RATE)
        with injected(injector):
            report = db.ingest_many(segments)
        health = db.health()
        assert report["segments"] + report["quarantined"] == self.N
        assert health["quarantined"] == injector.fired["decomposition"]
        assert health["quarantined"] >= 1          # seed 2005 does fire
        quarantined = set(health["quarantined_segments"])

        # A clean run over exactly the surviving subset must answer
        # k-NN queries identically.
        survivors = [s for s in segments if s.name not in quarantined]
        clean = VideoDatabase(fault_policy="fail-fast")
        clean.ingest_many(survivors)
        assert clean.stats()["ogs"] == db.stats()["ogs"]
        query = np.stack([np.linspace(4, 44, 6), np.full(6, 16.0)], axis=1)
        hits_faulted = db.knn(query, k=5)
        hits_clean = clean.knn(query, k=5)
        assert len(hits_faulted) == len(hits_clean)
        assert [h.distance for h in hits_faulted] == pytest.approx(
            [h.distance for h in hits_clean]
        )
        assert ([h.clip_ref["video"] for h in hits_faulted]
                == [h.clip_ref["video"] for h in hits_clean])


class TestCrashSafePersistence:
    def test_interrupted_save_keeps_previous_snapshot(self, tmp_path):
        path = tmp_path / "index.strg"
        db = VideoDatabase()
        db.ingest_object_graphs(blob_ogs(seed=1))
        db.save(path)
        before = load_index(path).stats()

        db.ingest_object_graphs(blob_ogs(seed=2), source="more")
        with injected(FaultInjector().inject("storage.write", rate=1.0)):
            with pytest.raises(StorageError):
                db.save(path)
        # Previous complete snapshot is untouched.
        assert load_index(path).stats() == before
        # And no temp litter is left next to it.
        assert os.listdir(tmp_path) == ["index.strg"]
        assert not [name for name in os.listdir(path)
                    if name.endswith(".tmp")]

    def test_interrupted_first_save_leaves_nothing(self, tmp_path):
        path = tmp_path / "index.strg"
        db = VideoDatabase()
        db.ingest_object_graphs(blob_ogs())
        with injected(FaultInjector().inject("storage.write", rate=1.0)):
            with pytest.raises(StorageError):
                db.save(path)
        # Nothing committed: no manifest, so nothing is openable.
        assert not open_store(path).exists()
        with pytest.raises(StorageError):
            load_index(path)

    def test_torn_write_detected_on_load(self, tmp_path):
        path = tmp_path / "index.strg"
        db = VideoDatabase()
        db.ingest_object_graphs(blob_ogs())
        injector = FaultInjector().inject("storage.write", kind="truncate",
                                          rate=1.0, truncate_to=0.5)
        with injected(injector):
            db.save(path)
        with pytest.raises(IndexCorruptionError):
            load_index(path)

    def test_injected_read_failure(self, tmp_path):
        path = tmp_path / "index.strg"
        db = VideoDatabase()
        db.ingest_object_graphs(blob_ogs())
        db.save(path)
        with injected(FaultInjector().inject("storage.read", rate=1.0)):
            with pytest.raises(OSError):
                load_index(path)


class TestJournalAndRecovery:
    """``VideoDatabase(state_dir=)`` journals every segment as an ingest
    job; ``VideoDatabase.recover`` replays the jobs its snapshot lacks."""

    def _build(self, tmp_path, n_before=2, n_after=1, quarantine_last=False):
        state = tmp_path / "state"
        db = VideoDatabase(fault_policy="skip-and-quarantine",
                           state_dir=state)
        i = 0
        for _ in range(n_before):
            db.ingest(tiny_segment(i))
            i += 1
        db.save()                     # checkpoint: state/index.strg
        for _ in range(n_after):
            db.ingest(tiny_segment(i))
            i += 1
        if quarantine_last:
            with injected(FaultInjector().inject("decomposition", rate=1.0)):
                db.ingest(tiny_segment(i))
        return state, db

    def test_journal_records_segments_and_checkpoints(self, tmp_path):
        state, _ = self._build(tmp_path, quarantine_last=True)
        records, truncated = read_journal(state / "ingest.journal")
        assert not truncated
        events = [r.get("state", r["event"]) for r in records]
        assert events == ["QUEUED", "RUNNING", "INDEXED"] * 2 \
            + ["checkpoint"] + ["QUEUED", "RUNNING", "INDEXED"] \
            + ["QUEUED", "RUNNING", "QUARANTINED"]
        assert records[6]["ogs"] == len(load_index(state / "index.strg"))
        assert records[-1]["clip"] == "seg-003"
        assert records[-1]["error"] == "CorruptSegmentError"

    def test_recover_reports_pending_after_checkpoint(self, tmp_path):
        state, db = self._build(tmp_path, n_before=2, n_after=2)
        with pytest.raises(StorageError, match="recover"):
            VideoDatabase(state_dir=state)   # a journal is resumed, not reused
        recovered = VideoDatabase.recover(state)
        report = recovered.recovery
        assert report.snapshot_loaded
        assert report.snapshot_ogs == len(load_index(state / "index.strg"))
        assert report.completed_jobs == ["job-000000", "job-000001"]
        assert report.replayed_jobs == ["job-000002", "job-000003"]
        assert not report.journal_truncated
        # Replayed before recover() returned: nothing to re-ingest.
        assert len(recovered.index) == len(db.index)
        # The recovered database keeps journaling to the same file.
        recovered.ingest(tiny_segment(9))
        records, _ = read_journal(report.journal_path)
        assert records[-1]["clip"] == "seg-009"
        assert records[-1]["job"] == "job-000004"

    def test_recover_with_no_pending(self, tmp_path):
        state, _ = self._build(tmp_path, n_before=2, n_after=0)
        report = VideoDatabase.recover(state).recovery
        assert report.replayed_jobs == []

    def test_recover_tolerates_torn_journal_tail(self, tmp_path):
        state, _ = self._build(tmp_path, n_before=1, n_after=1)
        with open(state / "ingest.journal", "a", encoding="utf-8") as fh:
            fh.write('{"event": "job", "job": "torn')  # kill mid-append
        recovered = VideoDatabase.recover(state)
        assert recovered.recovery.journal_truncated
        assert recovered.recovery.replayed_jobs == ["job-000001"]

    def test_recover_from_corrupt_snapshot_replays_everything(self, tmp_path):
        state, db = self._build(tmp_path, n_before=2, n_after=1)
        damage(state / "index.strg", "truncate")
        recovered = VideoDatabase.recover(state)
        report = recovered.recovery
        assert not report.snapshot_loaded
        assert "IndexCorruptionError" in report.snapshot_error
        assert report.replayed_jobs == ["job-000000", "job-000001",
                                        "job-000002"]
        assert len(recovered.index) == len(db.index)

    def test_recover_never_trusts_a_bit_rotted_snapshot(self, tmp_path):
        # Sizes still match, so the O(1) open would serve the damaged
        # trajectories; recovery re-hashes (store.verify()) first.
        state, _ = self._build(tmp_path, n_before=2, n_after=1)
        damage(state / "index.strg", "flip")
        assert len(load_index(state / "index.strg")) > 0  # the open cannot tell
        report = VideoDatabase.recover(state).recovery
        assert not report.snapshot_loaded
        assert "checksum mismatch" in report.snapshot_error
        assert report.replayed_jobs == ["job-000000", "job-000001",
                                        "job-000002"]

    def test_recover_nothing_raises(self, tmp_path):
        with pytest.raises(RecoveryError) as excinfo:
            VideoDatabase.recover(tmp_path / "void")
        assert excinfo.value.details["path"].endswith("void")

    def test_replay_pending_resets_at_checkpoint(self):
        def job(name, state):
            return {"event": "job", "job": name, "state": state}

        replay = replay_jobs([
            job("a", "INDEXED"),
            {"event": "checkpoint", "path": "x.strg"},
            job("b", "INDEXED"),
            job("c", "QUARANTINED"),
        ])
        assert replay.completed == ["a"]
        assert [info["job"] for info in replay.pending] == ["b"]
        assert [info["job"] for info in replay.quarantined] == ["c"]

    def test_read_journal_missing_file(self, tmp_path):
        assert read_journal(tmp_path / "none.jsonl") == ([], False)

    def test_journal_lines_are_valid_json(self, tmp_path):
        state, _ = self._build(tmp_path)
        with open(state / "ingest.journal", encoding="utf-8") as fh:
            for line in fh:
                assert isinstance(json.loads(line), dict)


class TestPathNormalization:
    def test_npz_path_appends_suffix_once(self, tmp_path):
        # The archive beside a suffix-less path is <path>.npz, and a
        # path already ending in .npz names itself.
        (tmp_path / "index.npz").write_bytes(b"")
        for spelling in ("index", "index.npz"):
            with pytest.raises(StorageError) as err:
                open_store(tmp_path / spelling)
            assert f"{tmp_path / 'index.npz'} is a 2.x" in str(err.value)

    def test_suffixless_save_load_roundtrip(self, tmp_path):
        db = VideoDatabase()
        db.ingest_object_graphs(blob_ogs())
        stem = tmp_path / "snapshot"         # no .strg suffix
        db.save(stem)
        assert (tmp_path / "snapshot.strg").is_dir()
        restored = VideoDatabase.load(stem)
        assert restored.stats()["ogs"] == db.stats()["ogs"]
