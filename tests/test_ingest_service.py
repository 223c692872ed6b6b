"""Streaming ingest service: backpressure, retries, timeouts, scaling,
journaled crash recovery (docs/STREAMING.md)."""

from __future__ import annotations

import json
import os
import shutil
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import (
    IngestOverloadError,
    IngestTimeoutError,
    InvalidParameterError,
    ServiceStoppedError,
)
from repro.graph.object_graph import ObjectGraph
from repro.pipeline import ClipResult, PipelineConfig, VideoPipeline
from repro.resilience import FaultInjector, injected, replay_jobs
from repro.resilience.retry import RetryPolicy
from repro.serving.ingest import (
    IngestService,
    IngestServiceConfig,
    JobState,
)
from repro.serving.snapshot import LiveIndex
from repro.storage.serialize import leaf_ogs
from repro.video.frames import VideoSegment
from repro.video.segmentation import GridSegmenter
from repro.video.synthesize import (
    Actor,
    BackgroundSpec,
    SceneRenderer,
    linear_trajectory,
    make_vehicle,
)
from tests import store_layout


def fast_config(**overrides) -> IngestServiceConfig:
    defaults = dict(
        queue_depth=8,
        retry_policy=RetryPolicy(max_attempts=2, base_delay=0.001, seed=0),
        checkpoint_every=1,
        watchdog_interval=0.01,
    )
    defaults.update(overrides)
    return IngestServiceConfig(**defaults)


def make_clip(name: str, shade: int = 0, frames: int = 4) -> VideoSegment:
    """A tiny deterministic clip whose content encodes ``shade``."""
    data = np.full((frames, 8, 8, 3), 40 + (shade % 100), dtype=np.uint8)
    for t in range(frames):
        data[t, t % 8, :, 0] = 200  # a moving stripe, unique per frame
    return VideoSegment(data, name=name)


def render_clip(name: str, x0: float = 5.0, frames: int = 6) -> VideoSegment:
    """A rendered clip the *real* pipeline extracts one vehicle from."""
    background = BackgroundSpec(width=64, height=48,
                                base_color=(100, 100, 100))
    scene = SceneRenderer(background)
    scene.add_actor(Actor(
        linear_trajectory((x0, 24.0), (x0 + 36.0, 24.0), frames),
        make_vehicle((200, 40, 40)),
    ))
    return scene.render(frames, name=name)


def real_pipeline() -> VideoPipeline:
    return VideoPipeline(PipelineConfig(
        segmenter=GridSegmenter(min_region_size=10)))


class _StubPipeline:
    """Deterministic, content-derived stand-in for the extraction
    pipeline: one OG per clip, values a function of the frame bytes."""

    def __init__(self, delay: float = 0.0, gate: threading.Event | None = None):
        self.delay = delay
        self.gate = gate
        self.entered = threading.Event()  # a worker reached process_clip
        self.processed: list[str] = []

    def process_clip(self, video: VideoSegment, **kwargs) -> ClipResult:
        self.entered.set()
        if self.gate is not None:
            assert self.gate.wait(10.0), "test never opened the gate"
        if self.delay:
            time.sleep(self.delay)
        means = [float(video.frame(t).mean()) for t in range(video.num_frames)]
        og = ObjectGraph.from_values(
            [[t, m] for t, m in enumerate(means)], source=video.name)
        self.processed.append(video.name)
        return ClipResult(
            decomposition=SimpleNamespace(object_graphs=[og], background=None),
            refs=[{"video": video.name, "og": og.og_id}],
        )


def make_service(tmp_path=None, pipeline=None, **overrides) -> IngestService:
    from repro.core.index import STRGIndex, STRGIndexConfig

    live = LiveIndex(STRGIndex(STRGIndexConfig(n_clusters=None, k_max=8)))
    return IngestService(
        live, pipeline or _StubPipeline(),
        state_dir=None if tmp_path is None else tmp_path / "state",
        config=fast_config(**overrides),
    )


def hit_names(live: LiveIndex, query: ObjectGraph, k: int) -> list[str]:
    return [ref["video"] for _, _, ref in live.knn(query, k)]


class TestSubmitAndIndex:
    def test_upload_becomes_queryable(self, tmp_path):
        with make_service(tmp_path) as service:
            jobs = [service.submit(make_clip(f"c{i}", shade=7 * i))
                    for i in range(3)]
            states = [service.wait(job, timeout=30.0) for job in jobs]
            assert states == [JobState.INDEXED] * 3
            assert all(job.og_ids for job in jobs)
            assert all(job.freshness is not None and job.freshness >= 0
                       for job in jobs)
            # Every ingested clip must be findable through the live index.
            probe = ObjectGraph.from_values(
                [[t, 40.0] for t in range(4)])
            assert set(hit_names(service.live, probe, 3)) == {
                "c0", "c1", "c2"}
            health = service.health()
            assert health["indexed_jobs"] == 3
            assert health["quarantined"] == 0
            assert health["snapshot_version"] > 1
            assert health["freshness_lag"] is not None

    def test_in_memory_service_works_without_state_dir(self):
        with make_service() as service:
            job = service.submit(make_clip("mem"))
            assert service.wait(job, timeout=30.0) is JobState.INDEXED
            assert service.health()["journal"] is None

    def test_job_ids_and_status(self, tmp_path):
        with make_service(tmp_path) as service:
            job = service.submit(make_clip("named"), job_id="my-job")
            assert job.job_id == "my-job"
            assert service.job_status("my-job") is job
            assert service.job_status("missing") is None
            service.wait("my-job", timeout=30.0)
            with pytest.raises(InvalidParameterError):
                service.wait("missing")

    @pytest.mark.parametrize("job_id", [
        "../../escaped", "a/b", ".hidden", "", "x" * 129, {"a": 1}, 7])
    def test_job_id_rule(self, tmp_path, job_id):
        """A client's job id names its spool file: anything but 1-128
        characters from ``[A-Za-z0-9._-]`` not starting with ``.`` is
        refused before anything is spooled or journaled."""
        with make_service(tmp_path / "a") as service:
            with pytest.raises(InvalidParameterError, match="job_id"):
                service.run(make_clip("bad"), job_id=job_id)
            with pytest.raises(InvalidParameterError, match="job_id"):
                service.submit(make_clip("bad"), job_id=job_id)
            assert service.health()["indexed_jobs"] == 0
        assert list(tmp_path.rglob("*.npz")) == []
        with make_service(tmp_path / "b") as service:
            job = service.run(make_clip("ok"), job_id="A-z_0." + "9" * 122)
            assert job.state is JobState.INDEXED

    def test_completed_resubmission_is_noop(self, tmp_path):
        with make_service(tmp_path) as service:
            job = service.submit(make_clip("once"), job_id="dup")
            service.wait(job, timeout=30.0)
            before = len(service.live)
            again = service.submit(make_clip("once"), job_id="dup")
            assert again.state is JobState.INDEXED
            service.drain(timeout=30.0)
            assert len(service.live) == before  # never indexed twice

    def test_stopped_service_rejects(self, tmp_path):
        service = make_service(tmp_path)
        service.shutdown()
        with pytest.raises(ServiceStoppedError):
            service.submit(make_clip("late"))
        service.shutdown()  # idempotent

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            IngestServiceConfig(queue_depth=0)
        with pytest.raises(InvalidParameterError):
            IngestServiceConfig(min_workers=0)
        with pytest.raises(InvalidParameterError):
            IngestServiceConfig(min_workers=3, max_workers=2)
        with pytest.raises(InvalidParameterError):
            IngestServiceConfig(job_timeout=0.0)
        with pytest.raises(InvalidParameterError):
            IngestServiceConfig(checkpoint_every=0)
        with pytest.raises(InvalidParameterError):
            IngestServiceConfig(retry_budget=-1)
        with pytest.raises(InvalidParameterError):
            IngestServiceConfig(watchdog_interval=0.0)


class TestAdmissionControl:
    def test_overload_rejects_when_queue_full(self):
        gate = threading.Event()
        stub = _StubPipeline(gate=gate)
        service = make_service(pipeline=stub, queue_depth=2, max_workers=1)
        submitted = []
        try:
            submitted.append(service.submit(make_clip("q0")))
            assert stub.entered.wait(10.0)  # worker holds q0, queue empty
            submitted.append(service.submit(make_clip("q1")))
            submitted.append(service.submit(make_clip("q2")))  # queue full
            with pytest.raises(IngestOverloadError):
                service.submit(make_clip("overflow"))
        finally:
            gate.set()
            for job in submitted:
                service.wait(job, timeout=30.0)
            service.shutdown()

    def test_backpressure_blocks_until_space(self):
        gate = threading.Event()
        stub = _StubPipeline(gate=gate)
        service = make_service(pipeline=stub, queue_depth=1, max_workers=1)
        try:
            first = service.submit(make_clip("a"))
            assert stub.entered.wait(10.0)  # worker holds it, queue empty
            second = service.submit(make_clip("b"))  # fills the queue
            admitted = []

            def blocked_submit():
                admitted.append(service.submit(
                    make_clip("c"), backpressure=True, timeout=30.0))

            thread = threading.Thread(target=blocked_submit)
            thread.start()
            thread.join(0.1)
            assert thread.is_alive()  # genuinely blocked, not rejected
            gate.set()  # workers drain; space frees; submit completes
            thread.join(30.0)
            assert not thread.is_alive() and len(admitted) == 1
            for job in (first, second, admitted[0]):
                assert service.wait(job, timeout=30.0) is JobState.INDEXED
        finally:
            gate.set()
            service.shutdown()

    def test_drain_waits_for_a_dequeued_job(self):
        """A job taken off the queue is in flight at once: drain() must
        not return in between (widened here by a slow slot release)."""
        service = make_service()
        release = service._release_slot

        def slow_release():
            release()
            time.sleep(0.3)

        service._release_slot = slow_release
        try:
            job = service.submit(make_clip("late-start"))
            assert service.drain(timeout=30.0)
            assert job.state is JobState.INDEXED
        finally:
            service.shutdown()

    def test_backpressure_timeout_raises_overload(self):
        gate = threading.Event()
        stub = _StubPipeline(gate=gate)
        service = make_service(pipeline=stub, queue_depth=1, max_workers=1)
        try:
            service.submit(make_clip("a"))
            assert stub.entered.wait(10.0)
            service.submit(make_clip("b"))
            with pytest.raises(IngestOverloadError):
                service.submit(make_clip("c"), backpressure=True,
                               timeout=0.05)
        finally:
            gate.set()
            service.shutdown()


class TestFaultHandling:
    def test_transient_fault_retried_then_indexed(self, tmp_path):
        injector = FaultInjector().inject("ingest.process", at={0})
        with injected(injector):
            with make_service(tmp_path, pipeline=real_pipeline()) as service:
                job = service.submit(render_clip("flaky"))
                assert service.wait(job, timeout=60.0) is JobState.INDEXED
                assert job.attempts == 2
                assert service.health()["retries"] == 1

    def test_poison_job_quarantined_others_survive(self, tmp_path):
        # Ordinals 0 and 1 are the poison job's two attempts (it is
        # submitted first and the pool is one worker); the good job's
        # attempt draws ordinal 2 and runs clean.
        injector = FaultInjector().inject("ingest.process", at={0, 1})
        with injected(injector):
            with make_service(tmp_path, pipeline=real_pipeline(),
                              max_workers=1) as service:
                bad = service.submit(render_clip("poison"))
                good = service.submit(render_clip("good", x0=12.0))
                assert service.wait(bad, timeout=60.0) is JobState.QUARANTINED
                assert service.wait(good, timeout=60.0) is JobState.INDEXED
                assert len(service.quarantine) == 1
                record = service.quarantine[0]
                assert record.error_type == "CorruptSegmentError"
                assert record.details["job"] == bad.job_id
                assert bad.error and "injected" in bad.error

    def test_commit_fault_is_retryable(self, tmp_path):
        injector = FaultInjector().inject("ingest.commit", at={0})
        with injected(injector):
            with make_service(tmp_path, pipeline=real_pipeline()) as service:
                job = service.submit(render_clip("commit-flake"))
                assert service.wait(job, timeout=60.0) is JobState.INDEXED
                assert job.attempts == 2
                assert len(service.live) == len(job.og_ids)  # exactly once

    def test_accept_fault_surfaces_to_submitter(self, tmp_path):
        injector = FaultInjector().inject("ingest.accept", at={0})
        with injected(injector):
            with make_service(tmp_path) as service:
                with pytest.raises(OSError):
                    service.submit(make_clip("rejected-upload"))
                assert service.health()["queue_depth"] == 0  # no slot leaked
                job = service.submit(make_clip("accepted"))
                assert service.wait(job, timeout=30.0) is JobState.INDEXED

    def test_retry_budget_exhaustion_quarantines_immediately(self, tmp_path):
        injector = FaultInjector().inject("ingest.process", at={0, 1})
        with injected(injector):
            with make_service(tmp_path, pipeline=real_pipeline(),
                              retry_budget=0) as service:
                job = service.submit(render_clip("no-budget"))
                assert service.wait(job, timeout=60.0) is JobState.QUARANTINED
                assert job.attempts == 1  # no token left, no second attempt

    def test_retry_policy_total_timeout_bounds_attempts(self):
        injector = FaultInjector().inject("ingest.process", rate=1.0)
        policy = RetryPolicy(max_attempts=5, base_delay=0.2,
                             total_timeout=0.1)
        with injected(injector):
            with make_service(retry_policy=policy,
                              retry_budget=None) as service:
                job = service.submit(make_clip("persistent"))
                assert service.wait(job, timeout=30.0) \
                    is JobState.QUARANTINED
        # The first retry sleeps 0.2 s, past the 0.1 s deadline.
        assert job.attempts <= 2

    def test_unexpected_error_contained_not_worker_fatal(self, tmp_path):
        class _BrokenPipeline(_StubPipeline):
            def process_clip(self, video, **kwargs):
                if video.name == "broken":
                    raise TypeError("programming error in pipeline")
                return super().process_clip(video, **kwargs)

        with make_service(tmp_path, pipeline=_BrokenPipeline(),
                          max_workers=1) as service:
            bad = service.submit(make_clip("broken"))
            good = service.submit(make_clip("fine"))
            assert service.wait(bad, timeout=30.0) is JobState.QUARANTINED
            assert service.quarantine[0].error_type == "TypeError"
            # The worker that hit the TypeError must still be alive.
            assert service.wait(good, timeout=30.0) is JobState.INDEXED


class TestTimeoutsAndScaling:
    def test_watchdog_quarantines_overrunning_job(self, tmp_path):
        with make_service(tmp_path, pipeline=_StubPipeline(delay=0.3),
                          job_timeout=0.05) as service:
            job = service.submit(make_clip("slow"))
            assert service.wait(job, timeout=30.0) is JobState.QUARANTINED
            assert service.quarantine[0].error_type == "IngestTimeoutError"
            assert job.cancel.is_set()  # cancelled by the watchdog

    def test_fast_jobs_beat_the_timeout(self, tmp_path):
        with make_service(tmp_path, job_timeout=30.0) as service:
            job = service.submit(make_clip("quick"))
            assert service.wait(job, timeout=30.0) is JobState.INDEXED

    def test_worker_pool_scales_with_backlog(self):
        service = make_service(pipeline=_StubPipeline(delay=0.05),
                               min_workers=1, max_workers=3, queue_depth=32)
        try:
            jobs = [service.submit(make_clip(f"s{i}")) for i in range(12)]
            for job in jobs:
                assert service.wait(job, timeout=60.0) is JobState.INDEXED
            assert service.health()["peak_workers"] > 1  # scaled up
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if service.health()["workers"] == 1:
                    break
                time.sleep(0.02)
            assert service.health()["workers"] == 1  # retired back to min
        finally:
            service.shutdown()

    def test_wait_timeout_raises(self):
        gate = threading.Event()
        service = make_service(pipeline=_StubPipeline(gate=gate))
        try:
            job = service.submit(make_clip("held"))
            with pytest.raises(IngestTimeoutError):
                service.wait(job, timeout=0.05)
        finally:
            gate.set()
            service.shutdown()


class TestJournalReplay:
    def job(self, jid, state, **extra):
        return {"event": "job", "job": jid, "state": state, **extra}

    def test_checkpoint_splits_durable_from_pending(self):
        replay = replay_jobs([
            self.job("a", "QUEUED", spool="a.npz"),
            self.job("a", "RUNNING"),
            self.job("a", "INDEXED"),
            {"event": "checkpoint", "path": "index.strg"},
            self.job("b", "QUEUED", spool="b.npz"),
            self.job("b", "RUNNING"),
            self.job("b", "INDEXED"),
            self.job("c", "QUEUED", spool="c.npz"),
            self.job("c", "RUNNING"),
        ])
        assert replay.completed == ["a"]
        assert [info["job"] for info in replay.pending] == ["b", "c"]
        assert replay.pending[0]["spool"] == "b.npz"
        assert replay.quarantined == []

    def test_quarantine_is_terminal(self):
        replay = replay_jobs([
            self.job("p", "QUEUED"),
            self.job("p", "RUNNING"),
            self.job("p", "QUARANTINED", error="CorruptSegmentError"),
            {"event": "checkpoint"},
        ])
        assert replay.completed == []
        assert replay.pending == []
        assert [info["job"] for info in replay.quarantined] == ["p"]

    def test_merged_info_keeps_submission_fields(self):
        replay = replay_jobs([
            self.job("x", "QUEUED", clip="clip-x", spool="x.npz", frames=6),
            self.job("x", "RUNNING", attempt=1),
        ])
        info = replay.pending[0]
        assert info["clip"] == "clip-x" and info["spool"] == "x.npz"
        assert info["frames"] == 6

    def test_empty_and_unknown_records(self):
        replay = replay_jobs([])
        assert not replay.jobs_in_order
        replay = replay_jobs([{"event": "segment", "segment": "legacy"}])
        assert not replay.jobs_in_order


def index_contents(live: LiveIndex) -> set[tuple[str, bytes]]:
    """Content signature of an index: (clip name, trajectory bytes) per
    indexed OG.  Process-local og ids are deliberately excluded — a
    recovered process mints different ids for identical content."""
    return {(str((ref or {}).get("video", "")),
             np.round(og.values, 6).tobytes())
            for og, ref in leaf_ogs(live.snapshot.index)}


class TestCrashRecovery:
    def run_uninterrupted(self, tmp_path, names):
        service = IngestService(
            _fresh_live(), _StubPipeline(),
            state_dir=tmp_path / "clean", config=fast_config(max_workers=1))
        with service:
            for i, name in enumerate(names):
                service.submit(make_clip(name, shade=11 * i),
                               job_id=f"job-{name}")
            service.drain(timeout=60.0)
            return index_contents(service.live)

    def test_crash_mid_job_recovers_exactly_once(self, tmp_path):
        names = ["a", "b", "c", "d"]
        expected = self.run_uninterrupted(tmp_path, names)

        class SimulatedCrash(BaseException):
            pass

        state = tmp_path / "crashed"
        # Jobs a, b commit cleanly (ordinals 0, 1); job c dies mid-commit.
        injector = FaultInjector().inject("ingest.commit", at={2},
                                          error=SimulatedCrash)
        service = IngestService(
            _fresh_live(), _StubPipeline(), state_dir=state,
            config=fast_config(max_workers=1))
        crashed = []
        orig_hook = threading.excepthook
        threading.excepthook = lambda args: crashed.append(args.exc_type)
        try:
            with injected(injector):
                for i, name in enumerate(names[:3]):
                    service.submit(make_clip(name, shade=11 * i),
                                   job_id=f"job-{name}")
                deadline = time.monotonic() + 30.0
                while not crashed and time.monotonic() < deadline:
                    time.sleep(0.01)
        finally:
            threading.excepthook = orig_hook
        assert crashed == [SimulatedCrash]  # the worker thread died
        service._journal.close()  # what a real crash would leave behind

        recovered = IngestService.recover(
            state, pipeline=_StubPipeline(),
            config=fast_config(max_workers=1))
        with recovered:
            report = recovered.recovery
            assert report.snapshot_loaded
            assert sorted(report.completed_jobs) == ["job-a", "job-b"]
            assert report.replayed_jobs == ["job-c"]  # re-run from spool
            recovered.submit(make_clip("d", shade=33), job_id="job-d")
            recovered.drain(timeout=60.0)
            # No lost OGs, no duplicates: content matches a run that
            # never crashed (og ids are process-local and excluded).
            assert index_contents(recovered.live) == expected
            assert recovered.health()["indexed_jobs"] == 2  # c + d only

    def test_indexed_after_checkpoint_is_rerun_not_doubled(self, tmp_path):
        state = tmp_path / "state"
        service = IngestService(
            _fresh_live(), _StubPipeline(), state_dir=state,
            config=fast_config(max_workers=1, checkpoint_every=None))
        with service:
            service.submit(make_clip("only"), job_id="job-only")
            service.drain(timeout=30.0)
            service.checkpoint()  # durable now
            service.submit(make_clip("tail", shade=5), job_id="job-tail")
            service.drain(timeout=30.0)
            expected = index_contents(service.live)
        # job-tail is INDEXED in the journal but absent from the
        # checkpointed snapshot — recovery must re-run it, exactly once.
        recovered = IngestService.recover(
            state, pipeline=_StubPipeline(),
            config=fast_config(max_workers=1))
        with recovered:
            assert recovered.recovery.completed_jobs == ["job-only"]
            assert recovered.recovery.replayed_jobs == ["job-tail"]
            recovered.drain(timeout=30.0)
            assert index_contents(recovered.live) == expected

    def test_quarantine_decisions_survive_recovery(self, tmp_path):
        state = tmp_path / "state"
        injector = FaultInjector().inject("ingest.process", at={0, 1})
        with injected(injector):
            service = IngestService(
                _fresh_live(), _StubPipeline(), state_dir=state,
                config=fast_config(max_workers=1))
            with service:
                bad = service.submit(make_clip("toxic"), job_id="job-toxic")
                assert service.wait(bad, timeout=30.0) is JobState.QUARANTINED
        recovered = IngestService.recover(
            state, pipeline=_StubPipeline(),
            config=fast_config(max_workers=1))
        with recovered:
            assert recovered.recovery.quarantined_jobs == ["job-toxic"]
            assert recovered.recovery.replayed_jobs == []  # never re-run
            assert recovered.quarantine[0].details["job"] == "job-toxic"
            assert len(recovered.live) == 0

    def test_torn_journal_tail_tolerated(self, tmp_path):
        state = tmp_path / "state"
        service = IngestService(
            _fresh_live(), _StubPipeline(), state_dir=state,
            config=fast_config(max_workers=1))
        with service:
            service.submit(make_clip("ok"), job_id="job-ok")
            service.drain(timeout=30.0)
        with open(state / "ingest.journal", "a", encoding="utf-8") as fh:
            fh.write('{"event": "job", "job": "job-torn", "sta')  # torn line
        recovered = IngestService.recover(
            state, pipeline=_StubPipeline(),
            config=fast_config(max_workers=1))
        with recovered:
            assert recovered.recovery.journal_truncated
            assert recovered.recovery.completed_jobs == ["job-ok"]

    def test_missing_spool_quarantined_as_lost(self, tmp_path):
        state = tmp_path / "state"
        service = IngestService(
            _fresh_live(), _StubPipeline(), state_dir=state,
            config=fast_config(max_workers=1))
        with service:
            service.submit(make_clip("doomed"), job_id="job-doomed")
            service.drain(timeout=30.0)
        # Simulate INDEXED-but-not-durable with the payload gone: drop
        # the snapshot AND the spool file.
        shutil.rmtree(state / "index.strg")
        (state / "spool" / "job-doomed.npz").unlink()
        recovered = IngestService.recover(
            state, pipeline=_StubPipeline(),
            config=fast_config(max_workers=1))
        with recovered:
            assert recovered.recovery.lost_jobs == ["job-doomed"]
            assert recovered.quarantine[0].details["lost_payload"] is True
            assert len(recovered.live) == 0

    def test_journaled_bad_job_id_quarantined(self, tmp_path):
        """A journal written before the ``job_id`` rule may name a job
        whose id escapes the spool directory: recovery quarantines it
        as lost and writes nothing outside the state directory."""
        from repro.resilience import IngestJournal

        state = tmp_path / "a" / "state"
        (state / "spool").mkdir(parents=True)
        make_clip("escapee").save_npz(str(state / "spool" / "escaped.npz"))
        journal = IngestJournal(state / "ingest.journal")
        journal.append({"event": "job", "job": "../../escaped",
                        "state": "QUEUED", "clip": "escapee", "frames": 4,
                        "spool": "escaped.npz"})
        journal.close()
        recovered = IngestService.recover(
            state, pipeline=_StubPipeline(),
            config=fast_config(max_workers=1))
        with recovered:
            assert recovered.recovery.lost_jobs == ["../../escaped"]
            assert recovered.recovery.replayed_jobs == []
            assert recovered.quarantine[0].error_type == \
                "InvalidParameterError"
            assert len(recovered.live) == 0
        assert [p.relative_to(tmp_path).as_posix()
                for p in tmp_path.rglob("*.npz")] == [
            "a/state/spool/escaped.npz"]

    def test_journaled_foreign_spool_quarantined(self, tmp_path,
                                                 monkeypatch):
        """A journal naming any spool but ``<job_id>.npz`` loses the
        job: recovery reads no payload, least of all one outside
        ``state/spool/``."""
        from repro.resilience import IngestJournal

        state = tmp_path / "a" / "state"
        (state / "spool").mkdir(parents=True)
        make_clip("outsider").save_npz(str(tmp_path / "outside.npz"))
        journal = IngestJournal(state / "ingest.journal")
        journal.append({"event": "job", "job": "job-x", "state": "QUEUED",
                        "clip": "outsider", "frames": 4,
                        "spool": "../../outside.npz"})
        journal.close()
        loaded: list[str] = []
        load = VideoSegment.load_npz.__func__
        monkeypatch.setattr(VideoSegment, "load_npz", classmethod(
            lambda cls, path: (loaded.append(os.fspath(path)),
                               load(cls, path))[1]))
        recovered = IngestService.recover(
            state, pipeline=_StubPipeline(),
            config=fast_config(max_workers=1))
        with recovered:
            assert recovered.recovery.lost_jobs == ["job-x"]
            assert recovered.recovery.replayed_jobs == []
            assert recovered.quarantine[0].error_type == "StorageError"
            assert len(recovered.live) == 0
        assert loaded == []

    @pytest.mark.parametrize("damage", ["flip", "truncate", "manifest"])
    def test_damaged_snapshot_is_replayed_not_served(self, tmp_path,
                                                     damage):
        """Recovery re-hashes the snapshot (``store.verify()``): bit rot
        the O(1) open cannot see takes the replay branch, exactly once,
        and the next checkpoint replaces the damaged store."""
        names = ["a", "b", "c"]
        expected = self.run_uninterrupted(tmp_path, names)
        state = tmp_path / "state"
        with IngestService(_fresh_live(), _StubPipeline(), state_dir=state,
                           config=fast_config(max_workers=1)) as service:
            for i, name in enumerate(names):
                service.submit(make_clip(name, shade=11 * i),
                               job_id=f"job-{name}")
            service.drain(timeout=60.0)
        store = state / "index.strg"
        if damage == "flip":          # last float of the base trajectories
            store_layout.flip_column_byte(store, "og_values", where=1.0)
        elif damage == "truncate":
            store_layout.truncate_segment(store)
        else:
            os.truncate(store_layout.log_path(store), 40)

        recovered = IngestService.recover(
            state, pipeline=_StubPipeline(),
            config=fast_config(max_workers=1))
        with recovered:
            report = recovered.recovery
            assert not report.snapshot_loaded
            assert "IndexCorruptionError" in report.snapshot_error
            assert report.completed_jobs == []
            assert report.replayed_jobs == [f"job-{n}" for n in names]
            recovered.drain(timeout=60.0)
            assert index_contents(recovered.live) == expected
            assert recovered.health()["checkpoint_errors"] == 0
        again = IngestService.recover(
            state, pipeline=_StubPipeline(),
            config=fast_config(max_workers=1))
        with again:
            assert again.recovery.snapshot_loaded
            assert len(again.recovery.completed_jobs) == 3
            assert index_contents(again.live) == expected

    def test_recovery_with_real_pipeline_round_trips(self, tmp_path):
        state = tmp_path / "state"
        with IngestService(_fresh_live(), real_pipeline(), state_dir=state,
                           config=fast_config(max_workers=1)) as service:
            job = service.submit(render_clip("real"), job_id="job-real")
            assert service.wait(job, timeout=60.0) is JobState.INDEXED
            expected_len = len(service.live)
            assert expected_len > 0
        recovered = IngestService.recover(state, pipeline=real_pipeline(),
                                          config=fast_config(max_workers=1))
        with recovered:
            assert recovered.recovery.snapshot_loaded
            assert recovered.recovery.completed_jobs == ["job-real"]
            assert len(recovered.live) == expected_len
            # Idempotency: re-uploading the same job id is a no-op.
            again = recovered.submit(render_clip("real"), job_id="job-real")
            assert again.state is JobState.INDEXED
            recovered.drain(timeout=30.0)
            assert len(recovered.live) == expected_len

    def test_journal_records_are_wellformed(self, tmp_path):
        state = tmp_path / "state"
        with IngestService(_fresh_live(), _StubPipeline(), state_dir=state,
                           config=fast_config(max_workers=1)) as service:
            service.submit(make_clip("j"), job_id="job-j")
            service.drain(timeout=30.0)
        records = [json.loads(line) for line in
                   (state / "ingest.journal").read_text().splitlines()]
        states = [r["state"] for r in records if r["event"] == "job"]
        assert states == ["QUEUED", "RUNNING", "INDEXED"]
        assert any(r["event"] == "checkpoint" for r in records)


class TestDatabaseIntegration:
    def test_database_ingest_service_binding(self, tmp_path):
        from repro.storage.database import VideoDatabase

        db = VideoDatabase(PipelineConfig(
            segmenter=GridSegmenter(min_region_size=10)))
        db.ingest(render_clip("seed"))
        with db.ingest_service(state_dir=tmp_path / "state",
                               config=fast_config()) as service:
            job = service.submit(render_clip("streamed", x0=12.0))
            assert service.wait(job, timeout=60.0) is JobState.INDEXED
            # The database's read path tracks the newest snapshot.
            assert db.index is service.live.snapshot.index
            # Both write paths stay open: db.ingest is a job of the
            # same service.
            assert db.ingest(render_clip("direct", x0=18.0)) >= 1
            assert db.index is service.live.snapshot.index
            refs = {ref["video"] for _, _, ref in
                    db.index.knn(_probe(), 10)}
            assert {"seed", "streamed", "direct"} <= refs


def _fresh_live() -> LiveIndex:
    from repro.core.index import STRGIndex, STRGIndexConfig

    return LiveIndex(STRGIndex(STRGIndexConfig(n_clusters=None, k_max=8)))


def _probe() -> ObjectGraph:
    return ObjectGraph.from_values([[10.0 + 3 * t, 24.0] for t in range(6)])
