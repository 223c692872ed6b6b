"""Streaming ingest service: backpressured upload → queryable pipeline.

:class:`IngestService` closes the loop the paper's surveillance setting
implies (Sec. 5: trajectories arrive continuously and the index is
maintained incrementally): clips are *submitted* as jobs into a bounded,
journaled queue, a pool of ingest workers runs each through the existing
frame-parallel extraction pipeline, and the resulting OGs stream into a
:class:`~repro.serving.snapshot.LiveIndex` — queries keep serving from
published snapshots the whole time.

Lifecycle of one job::

    submit() ──> QUEUED ──> RUNNING ──> INDEXED
                               │   └──> (retry under RetryPolicy)
                               └─────> QUARANTINED   (poison / timeout)

Robustness machinery, in the order it fires:

- **Admission control** — the queue is bounded; past ``queue_depth``
  a submission raises :class:`~repro.errors.IngestOverloadError`, or
  blocks for space with ``submit(..., backpressure=True)``.
- **Journaled states** — every transition appends one durable JSONL
  record (``QUEUED → RUNNING → INDEXED | QUARANTINED``), and every
  snapshot save appends a ``checkpoint``.  After a crash,
  :meth:`IngestService.recover` replays the journal: jobs the snapshot
  holds — ``INDEXED`` before a checkpoint, or named by the snapshot's
  clip refs — are durable and **never re-run** (idempotent completion
  keyed by job id); everything else re-runs from its spooled upload.
  The index only persists via checkpoints, so replay can never lose or
  double-index an OG.
- **Retries** — a job's attempts run through
  :func:`~repro.resilience.retry.call_with_retry` under the config's
  :class:`~repro.resilience.retry.RetryPolicy` (attempts, backoff and
  ``total_timeout``), each retry spending a token of the service-wide
  ``retry_budget``; the commit after them runs once.
- **Watchdog timeouts** — a watchdog thread cancels jobs that outrun
  ``job_timeout``; workers observe the cancellation at stage boundaries
  and quarantine the job with :class:`~repro.errors.IngestTimeoutError`
  (slow jobs are poison, not transient faults).
- **Worker scaling** — the watchdog grows the pool toward
  ``max_workers`` while the queue is deeper than the pool, and retires
  idle workers back to ``min_workers``.
- **Fault points** — ``ingest.accept``, ``ingest.process``,
  ``ingest.commit`` and ``ingest.journal`` are compiled in for
  :class:`~repro.resilience.faults.FaultInjector` drills.

``health()`` exports queue depth, in-flight count, oldest-job age,
quarantine count and the upload→queryable freshness lag, mirrored as
gauges in the observability registry.
"""

from __future__ import annotations

import logging
import os
import queue
import re
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Sequence

from repro.errors import (
    IngestOverloadError,
    IngestTimeoutError,
    InvalidParameterError,
    RecoveryError,
    ServiceStoppedError,
    StorageError,
)
from repro.graph.object_graph import ObjectGraph
from repro.observability import OBS
from repro.pipeline import ClipResult, PipelineConfig, VideoPipeline
from repro.resilience.faults import maybe_fail
from repro.resilience.journal import (
    IngestJournal,
    read_journal,
    replay_jobs,
)
from repro.resilience.policy import (
    RECOVERABLE_ERRORS,
    QuarantineRecord,
    quarantine_record,
)
from repro.resilience.retry import RetryPolicy, call_with_retry
from repro.serving.sharding import ShardedIndex, ShardedIndexConfig
from repro.serving.snapshot import LiveIndex, _BufferedWrite
from repro.storage.serialize import leaf_ogs
from repro.storage.store import open_store, require_columnar
from repro.video.frames import VideoSegment

logger = logging.getLogger(__name__)

_SHUTDOWN = object()   # queue sentinel: worker exits unconditionally
_RETIRE = object()     # queue sentinel: worker exits if pool is above min

#: Journal file name inside a service's ``state_dir``.
JOURNAL_NAME = "ingest.journal"
#: Snapshot base name inside a service's ``state_dir``; ``open_store``
#: resolves it to the ``index.strg/`` store.
SNAPSHOT_BASE = "index"
#: Spool directory name inside a service's ``state_dir``.
SPOOL_DIR = "spool"
#: A client's ``job_id``: it names the job's spool file, so it is 1-128
#: characters from ``[A-Za-z0-9._-]`` and does not start with ``.``.
_JOB_ID = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9._-]{0,127}")


def _check_job_id(job_id: Any) -> None:
    if not (isinstance(job_id, str) and _JOB_ID.fullmatch(job_id)):
        raise InvalidParameterError(
            "job_id must be 1-128 characters from [A-Za-z0-9._-] that do "
            f"not start with '.', got {job_id!r:.80}")


class JobState(str, Enum):
    """Lifecycle states of an ingest job (journaled transitions)."""

    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    INDEXED = "INDEXED"
    QUARANTINED = "QUARANTINED"


#: States a job can never leave.
TERMINAL_STATES = (JobState.INDEXED, JobState.QUARANTINED)

#: Errors :meth:`IngestService.run` answers with a quarantined job rather
#: than re-raising: bad input, and jobs that outran ``job_timeout``.
QUARANTINE_ERRORS = RECOVERABLE_ERRORS + (IngestTimeoutError,)


@dataclass
class IngestJob:
    """One submitted clip and its progress through the service."""

    job_id: str
    clip_name: str
    video: VideoSegment | None
    submitted: float                      # time.monotonic() at acceptance
    state: JobState = JobState.QUEUED
    attempts: int = 0
    started: float | None = None
    finished: float | None = None
    deadline: float | None = None         # monotonic cutoff (watchdog)
    og_ids: list[int] = field(default_factory=list)
    error: str | None = None
    spool: str | None = None
    #: Set by :meth:`IngestService.run` only, which keeps no handle on
    #: its jobs: the committed clip, or the error that quarantined it.
    clip: ClipResult | None = field(default=None, repr=False)
    exception: BaseException | None = field(default=None, repr=False)
    cancel: threading.Event = field(default_factory=threading.Event)
    done: threading.Event = field(default_factory=threading.Event)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def freshness(self) -> float | None:
        """Upload→queryable latency in seconds (``None`` until INDEXED)."""
        if self.state is not JobState.INDEXED or self.finished is None:
            return None
        return self.finished - self.submitted

    def __repr__(self) -> str:
        return (f"IngestJob({self.job_id!r}, clip={self.clip_name!r}, "
                f"state={self.state.value})")


@dataclass
class IngestServiceConfig:
    """Sizing and policy for an :class:`IngestService`.

    ``queue_depth``        max queued (not yet running) jobs; past this,
                           non-backpressure submissions are rejected.
    ``min_workers``        worker threads kept alive when idle.
    ``max_workers``        scaling ceiling under queue pressure.
    ``job_timeout``        per-job wall-clock budget in seconds enforced
                           by the watchdog (``None`` = unbounded).
    ``retry_policy``       backoff schedule for recoverable job failures
                           (``max_attempts`` counts the first try).
    ``retry_budget``       service-wide cap on total retries; exhausted,
                           failing jobs quarantine on first error
                           (``None`` = unbounded).
    ``checkpoint_every``   snapshot + journal checkpoint after this many
                           indexed jobs (``None`` = only on demand);
                           requires a ``state_dir`` / snapshot path.
    ``store_format``       always ``"columnar"`` (the only store
                           format; a call-site compatibility constant
                           for ``benchmarks/e2e``, see
                           ``repro.storage.store.require_columnar``).
    ``watchdog_interval``  seconds between watchdog ticks (timeouts,
                           gauges, worker scaling).
    """

    queue_depth: int = 64
    min_workers: int = 1
    max_workers: int = 2
    job_timeout: float | None = None
    retry_policy: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=2, base_delay=0.02))
    retry_budget: int | None = 64
    checkpoint_every: int | None = 4
    store_format: str = "columnar"
    watchdog_interval: float = 0.05

    def __post_init__(self) -> None:
        if self.queue_depth < 1:
            raise InvalidParameterError(
                f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.min_workers < 1:
            raise InvalidParameterError(
                f"min_workers must be >= 1, got {self.min_workers}")
        if self.max_workers < self.min_workers:
            raise InvalidParameterError(
                f"max_workers ({self.max_workers}) must be >= min_workers "
                f"({self.min_workers})")
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise InvalidParameterError(
                f"job_timeout must be > 0, got {self.job_timeout}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise InvalidParameterError(
                f"checkpoint_every must be >= 1 or None, "
                f"got {self.checkpoint_every}")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise InvalidParameterError(
                f"retry_budget must be >= 0 or None, got {self.retry_budget}")
        require_columnar(self.store_format, "store_format")
        if self.watchdog_interval <= 0:
            raise InvalidParameterError(
                f"watchdog_interval must be > 0, got {self.watchdog_interval}")


@dataclass
class IngestRecoveryReport:
    """Outcome of :meth:`IngestService.recover`."""

    snapshot_loaded: bool
    snapshot_path: str
    snapshot_ogs: int
    snapshot_error: str | None
    journal_path: str
    journal_truncated: bool
    completed_jobs: list[str] = field(default_factory=list)
    replayed_jobs: list[str] = field(default_factory=list)
    quarantined_jobs: list[str] = field(default_factory=list)
    lost_jobs: list[str] = field(default_factory=list)


class IngestService:
    """Backpressured, journaled, crash-safe streaming ingest over a
    :class:`~repro.serving.snapshot.LiveIndex`.

    Worker threads and the watchdog start on the first :meth:`submit`;
    :meth:`run` takes a job through the same states on the caller's
    thread, so a service that only runs jobs (``VideoDatabase.ingest``
    is built on it) owns no thread.  Use as a context manager (or call :meth:`shutdown`)
    to stop them.  With a ``state_dir`` the service is durable: uploads
    spool to ``state_dir/spool/``, state transitions journal to
    ``state_dir/ingest.journal`` and checkpoints snapshot to the
    ``state_dir/index.strg/`` store — one full write, then O(delta)
    appended segments — :meth:`recover` rebuilds an equivalent service
    after a crash.  Without one it is a fast in-memory pipeline with the
    same admission/retry/timeout behavior.
    """

    def __init__(self, live: LiveIndex,
                 pipeline: VideoPipeline | None = None, *,
                 state_dir: str | os.PathLike | None = None,
                 config: IngestServiceConfig | None = None):
        self.live = live
        self.pipeline = pipeline or VideoPipeline()
        self.config = config or IngestServiceConfig()

        self.state_dir = None if state_dir is None else os.fspath(state_dir)
        self._journal: IngestJournal | None = None
        self._spool_dir: str | None = None
        self.snapshot_path: str | None = None
        self._store: Any = None
        #: Writes committed since the last checkpoint; ``None`` once the
        #: backlog overflowed (the next checkpoint writes in full).
        self._pending_writes: list[_BufferedWrite] | None = []
        if self.state_dir is not None:
            # Before anything is created: a 2.x state dir (index.npz)
            # must raise here, not gain a journal and an empty store.
            self._store = open_store(
                os.path.join(self.state_dir, SNAPSHOT_BASE))
            self.snapshot_path = self._store.path
            os.makedirs(self.state_dir, exist_ok=True)
            self._spool_dir = os.path.join(self.state_dir, SPOOL_DIR)
            os.makedirs(self._spool_dir, exist_ok=True)
            self._journal = IngestJournal(
                os.path.join(self.state_dir, JOURNAL_NAME))

        self._queue: queue.Queue = queue.Queue()
        #: Guards backlog/in-flight accounting and wakes backpressured
        #: submitters and drain() waiters.
        self._space = threading.Condition()
        self._backlog = 0
        self._in_flight = 0
        self._jobs: dict[str, IngestJob] = {}
        self._jobs_lock = threading.Lock()
        self._journal_lock = threading.Lock()
        self._commit_lock = threading.Lock()
        self._completed: set[str] = set()
        self.quarantine: list[QuarantineRecord] = []
        self.recovery: IngestRecoveryReport | None = None
        self._seq = 0
        self._indexed_jobs = 0
        self._retries = 0
        self._indexed_since_checkpoint = 0
        self._last_freshness: float | None = None
        self._checkpoint_errors = 0
        self._stopped = False

        self._workers: list[threading.Thread] = []
        self._workers_lock = threading.RLock()
        self._peak_workers = 0
        self._stop_watchdog = threading.Event()
        self._watchdog: threading.Thread | None = None

    # -- submission -----------------------------------------------------------

    def submit(self, video: VideoSegment, *,
               job_id: str | None = None,
               backpressure: bool = False,
               timeout: float | None = None) -> IngestJob:
        """Accept one clip as an ingest job and return its handle.

        Admission is bounded: with the queue at ``queue_depth`` the call
        raises :class:`~repro.errors.IngestOverloadError` immediately, or
        — with ``backpressure=True`` — blocks until space frees (or
        ``timeout`` elapses, then the same error).  Re-submitting a
        ``job_id`` that already completed durably is an idempotent no-op
        returning the completed handle: recovery and client retries can
        never double-index a clip.  The first accepted job starts the
        worker threads and the watchdog.
        """
        job, new = self._accept(video, job_id, queued=True,
                                backpressure=backpressure, timeout=timeout)
        if new:
            self._start()
            self._queue.put(job)
            OBS.count("ingest.jobs_accepted")
            OBS.gauge("ingest.queue_depth", self._backlog)
        return job

    def run(self, video: VideoSegment, *, job_id: str | None = None,
            workers: int | None = None) -> IngestJob:
        """Run one clip as a job on the caller's thread; return it finished.

        The job takes a worker's path — journal records, attempts under
        the retry policy and budget, quarantine, commit — without the
        queue or any thread; ``workers`` frame-parallel processes run
        the clip (``None``: serially, as a queued job does; see
        ``VideoPipeline.build_strg``).  It comes back ``INDEXED`` (``job.clip``
        set) or ``QUARANTINED`` (``job.exception`` set); an error outside
        :data:`QUARANTINE_ERRORS` is re-raised once the job is journaled
        as quarantined, and so is the error of an ``INDEXED`` record that
        could not be written (the OGs stay).  A ``job_id`` already
        completed, queued or running is not run again: the call waits
        for it instead.  The returned job is the caller's:
        :meth:`job_status` forgets it.
        """
        job, new = self._accept(video, job_id)
        if not new:
            job.done.wait()
            return job
        with self._space:
            self._in_flight += 1
        try:
            job.clip, job.exception = self._run_job(job, workers)
        finally:
            self._land()
            with self._jobs_lock:
                del self._jobs[job.job_id]
        if job.exception is not None and (
                job.state is JobState.INDEXED
                or not isinstance(job.exception, QUARANTINE_ERRORS)):
            raise job.exception
        return job

    def write(self, ogs: Sequence[ObjectGraph] = (), *,
              deletes: Sequence[int] = ()) -> int:
        """Commit writes no job made — pre-extracted OGs, deletes by og
        id — in order with the jobs' commits; returns how many deletes
        found their OG.  Unjournaled: they are durable from the next
        checkpoint on."""
        with self._commit_lock:
            expected = len(self.live) + len(ogs)
            self._write_locked(list(ogs), deletes=deletes)
            return expected - len(self.live)

    def _accept(self, video: VideoSegment, job_id: str | None, *,
                queued: bool = False, backpressure: bool = False,
                timeout: float | None = None) -> tuple[IngestJob, bool]:
        """Admit ``video`` as a spooled, journaled ``QUEUED`` job:
        ``(job, True)``, or ``(handle, False)`` when ``job_id`` is done,
        queued or running.  ``queued`` claims a queue slot first."""
        if self._stopped:
            raise ServiceStoppedError(
                "ingest service is stopped; no new jobs accepted")
        if job_id is None:
            with self._jobs_lock:
                job_id = f"job-{self._seq:06d}"
                self._seq += 1
        else:
            _check_job_id(job_id)
        maybe_fail("ingest.accept", job=job_id)
        existing = self._jobs.get(job_id)
        if job_id in self._completed:
            if existing is not None:
                return existing, False
            done = IngestJob(job_id=job_id, clip_name=video.name, video=None,
                             submitted=time.monotonic(),
                             state=JobState.INDEXED)
            done.done.set()
            with self._jobs_lock:
                self._jobs[job_id] = done
            return done, False
        if existing is not None and not existing.terminal:
            return existing, False  # already queued or running

        if queued:
            self._acquire_slot(backpressure, timeout)
        try:
            job = IngestJob(job_id=job_id, clip_name=video.name, video=video,
                            submitted=time.monotonic())
            if self._spool_dir is not None:
                spool = os.path.join(self._spool_dir, f"{job_id}.npz")
                video.save_npz(spool)
                job.spool = os.path.basename(spool)
        except BaseException:
            if queued:
                self._release_slot()
            raise
        with self._jobs_lock:
            self._jobs[job_id] = job
        self._append_journal({
            "event": "job", "job": job_id, "state": JobState.QUEUED.value,
            "clip": video.name, "frames": video.num_frames,
            "spool": job.spool,
        })
        return job, True

    def _acquire_slot(self, backpressure: bool,
                      timeout: float | None) -> None:
        """Claim one bounded-queue slot (reject or block when full)."""
        with self._space:
            if self._backlog < self.config.queue_depth:
                self._backlog += 1
                return
            if not backpressure:
                OBS.count("ingest.jobs_rejected")
                raise IngestOverloadError(
                    f"ingest queue full ({self.config.queue_depth} deep); "
                    "retry later, or submit with backpressure=True")
            deadline = (None if timeout is None
                        else time.monotonic() + timeout)
            while self._backlog >= self.config.queue_depth:
                if self._stopped:
                    raise ServiceStoppedError(
                        "ingest service stopped while waiting for space")
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    OBS.count("ingest.jobs_rejected")
                    raise IngestOverloadError(
                        f"no queue space within {timeout:.3f}s "
                        f"({self.config.queue_depth} deep)")
                self._space.wait(remaining)
            self._backlog += 1

    def _release_slot(self) -> None:
        with self._space:
            self._backlog -= 1
            self._space.notify_all()

    def _land(self) -> None:
        """A job left flight (finished, or its thread died)."""
        with self._space:
            self._in_flight -= 1
            self._space.notify_all()

    # -- workers --------------------------------------------------------------

    def _start(self) -> None:
        """Start the worker pool and the watchdog, once."""
        with self._workers_lock:
            if self._watchdog is not None or self._stopped:
                return
            for _ in range(self.config.min_workers):
                self._spawn_worker()
            self._watchdog = threading.Thread(
                target=self._watchdog_loop, name="ingest-watchdog",
                daemon=True)
            self._watchdog.start()

    def _spawn_worker(self) -> None:
        with self._workers_lock:
            worker = threading.Thread(
                target=self._worker_loop,
                name=f"ingest-worker-{len(self._workers)}", daemon=True)
            self._workers.append(worker)
            self._peak_workers = max(self._peak_workers, len(self._workers))
        OBS.gauge("ingest.workers", len(self._workers))
        worker.start()

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                self._remove_worker()
                return
            if item is _RETIRE:
                with self._workers_lock:
                    if len(self._workers) > self.config.min_workers:
                        self._workers.remove(threading.current_thread())
                        OBS.gauge("ingest.workers", len(self._workers))
                        return
                continue
            # Off the queue and in flight in one step: a drain() woken
            # in between would see neither and return before the job ran.
            with self._space:
                self._backlog -= 1
                self._in_flight += 1
                self._space.notify_all()
            try:
                if item.job_id in self._completed:
                    # Idempotent completion: a re-enqueued finished job
                    # is a no-op, never a second index insertion.
                    self._finish(item, JobState.INDEXED)
                else:
                    self._run_job(item)
            finally:
                self._land()

    def _remove_worker(self) -> None:
        with self._workers_lock:
            thread = threading.current_thread()
            if thread in self._workers:
                self._workers.remove(thread)
            OBS.gauge("ingest.workers", len(self._workers))

    def _run_job(self, job: IngestJob, workers: int | None = None
                 ) -> tuple[ClipResult | None, Exception | None]:
        """Take ``job`` to ``(clip, None)`` committed or ``(None, error)``
        quarantined.  Every error quarantines: a long-running worker
        must outlive any poison job, and the record keeps the type.

        Only the attempts retry; the commit runs once.  A commit whose
        INDEXED record fails returns ``(clip, error)``: its OGs stay
        published, durable from the next checkpoint (whose clip refs
        name the job) and re-run by recovery until then."""
        job.state = JobState.RUNNING
        job.started = time.monotonic()
        if self.config.job_timeout is not None:
            job.deadline = job.started + self.config.job_timeout

        def attempt() -> ClipResult:
            job.attempts += 1
            self._append_journal({
                "event": "job", "job": job.job_id,
                "state": JobState.RUNNING.value, "attempt": job.attempts,
            })
            self._check_cancelled(job)
            maybe_fail("ingest.process", job=job.job_id)
            clip = self.pipeline.process_clip(job.video, workers=workers)
            self._check_cancelled(job)
            maybe_fail("ingest.commit", job=job.job_id)
            return clip

        def spend_retry(attempt_no: int, exc: BaseException,
                        delay: float) -> None:
            budget = self.config.retry_budget
            if budget is not None and self._retries >= budget:
                raise exc
            self._retries += 1
            OBS.count("ingest.job_retries")

        clip = None
        with OBS.span("ingest.job", job=job.job_id, clip=job.clip_name):
            try:
                clip = call_with_retry(
                    attempt, self.config.retry_policy,
                    retryable=RECOVERABLE_ERRORS, on_retry=spend_retry)
                self._commit(job, clip)
                return clip, None
            except Exception as exc:  # noqa: BLE001 - worker survival
                if job.state is JobState.INDEXED:
                    logger.error("job %r indexed, but not journaled: %s",
                                 job.job_id, exc)
                    return clip, exc
                self._quarantine_job(job, exc)
                return None, exc

    def _check_cancelled(self, job: IngestJob) -> None:
        """Raise if the watchdog cancelled the job or its budget lapsed.

        Called at stage boundaries — cancellation is cooperative, so a
        stage already running completes before the timeout is observed.
        """
        overdue = (job.deadline is not None
                   and time.monotonic() > job.deadline)
        if job.cancel.is_set() or overdue:
            elapsed = time.monotonic() - (job.started or job.submitted)
            raise IngestTimeoutError(
                f"job {job.job_id!r} exceeded its "
                f"{self.config.job_timeout}s budget after {elapsed:.3f}s",
                details={"job": job.job_id, "elapsed": elapsed,
                         "timeout": self.config.job_timeout},
            )

    def _commit(self, job: IngestJob, clip: ClipResult) -> None:
        """Stream a processed clip's OGs into the live index, exactly once.

        Serialized across workers so journal order matches index content
        order — the invariant recovery replays against.  The INDEXED
        record is appended only after the OGs are visible in a published
        snapshot; a crash between insert and journal re-runs the job
        against a snapshot that never contained it.
        """
        with self._commit_lock:
            self._check_cancelled(job)
            ogs = clip.object_graphs
            self._write_locked(ogs, clip.background, [
                dict(ref, job=job.job_id) for ref in clip.refs])
            job.og_ids = [og.og_id for og in ogs]
            self._completed.add(job.job_id)
            self._indexed_jobs += 1
            self._indexed_since_checkpoint += 1
            try:
                self._append_journal({
                    "event": "job", "job": job.job_id,
                    "state": JobState.INDEXED.value,
                    "clip": job.clip_name, "ogs": len(ogs),
                })
            finally:
                self._finish(job, JobState.INDEXED)
            OBS.count("ingest.jobs_indexed")
            if job.freshness is not None:
                self._last_freshness = job.freshness
                OBS.observe("ingest.freshness", job.freshness)
                OBS.gauge("ingest.freshness_lag", job.freshness)
            if (self.config.checkpoint_every is not None
                    and self.snapshot_path is not None
                    and self._indexed_since_checkpoint
                    >= self.config.checkpoint_every):
                try:
                    self._checkpoint_locked()
                except (StorageError, OSError) as exc:
                    # A failed checkpoint only delays durability: jobs
                    # stay journaled as INDEXED-after-checkpoint and
                    # replay re-runs them.  Keep serving; retry at the
                    # next commit.
                    logger.warning(
                        "ingest checkpoint failed (will retry): %s", exc)

    def checkpoint(self) -> None:
        """Snapshot the published index and journal the checkpoint.

        Jobs INDEXED before this call become durable: recovery will not
        re-run them.  Requires a ``state_dir`` (or ``snapshot_path``).
        A failure raises here; the automatic checkpoints of
        ``checkpoint_every`` log it and retry at the next commit.
        """
        if self.snapshot_path is None:
            raise StorageError(
                "checkpoint() needs a snapshot path: construct the service "
                "with state_dir=...")
        with self._commit_lock:
            self._checkpoint_locked()

    #: Delta-write backlog past which the next checkpoint falls back to
    #: a full snapshot write (bounds memory when checkpoints are
    #: disabled or keep failing).
    max_pending_writes = 4096

    def _write_locked(self, ogs: Sequence[ObjectGraph],
                      background=None, refs: Sequence[Any] | None = None,
                      deletes: Sequence[int] = ()) -> None:
        """Publish writes in one compaction and remember them for the
        next O(delta) checkpoint (caller holds the commit lock)."""
        refs = list(refs) if refs is not None else [None] * len(ogs)
        writes = [_BufferedWrite("insert", og=og, background=background,
                                 clip_ref=ref)
                  for og, ref in zip(ogs, refs)]
        writes += [_BufferedWrite("delete", og_id=og_id)
                   for og_id in deletes]
        self.live.buffer(writes)
        # The compaction stamps the (shard, row) of every write.
        self.live.compact()
        if self._store is None or self._pending_writes is None:
            return
        self._pending_writes.extend(writes)
        if len(self._pending_writes) > self.max_pending_writes:
            self._pending_writes = None

    def _checkpoint_locked(self) -> None:
        index = self.live.snapshot.index
        # A bound checkpoint appends only the writes committed since the
        # last one; the store rewrites the snapshot on its first
        # checkpoint, after a failed write (the delta may no longer
        # match the disk) and after an overflow.
        try:
            self._store.checkpoint(index, self._pending_writes)
        except (StorageError, OSError):
            self._pending_writes = []
            self._checkpoint_errors += 1
            OBS.count("ingest.checkpoint_errors")
            self._indexed_since_checkpoint = self.config.checkpoint_every or 1
            raise
        self._pending_writes = []
        self._store.maybe_merge()
        self._append_journal({
            "event": "checkpoint", "path": self._store.path,
            "ogs": len(index),
        })
        self._indexed_since_checkpoint = 0
        OBS.count("ingest.checkpoints")

    def _quarantine_job(self, job: IngestJob, exc: BaseException,
                        **details: Any) -> None:
        record = quarantine_record(job.clip_name, exc, job.attempts)
        record.details.setdefault("job", job.job_id)
        record.details.update(details)
        self.quarantine.append(record)
        job.error = f"{type(exc).__name__}: {exc}"
        self._append_journal({
            "event": "job", "job": job.job_id,
            "state": JobState.QUARANTINED.value,
            "clip": job.clip_name, "error": record.error_type,
            "message": record.message, "attempts": job.attempts,
        })
        self._finish(job, JobState.QUARANTINED)
        OBS.count("ingest.jobs_quarantined")
        logger.warning("quarantined job %r (clip %r) after %d attempt(s): %s",
                       job.job_id, job.clip_name, job.attempts, exc)

    def _finish(self, job: IngestJob, state: JobState) -> None:
        job.state = state
        job.finished = time.monotonic()
        job.video = None  # free the frames; the spool holds the payload
        job.done.set()
        with self._space:
            self._space.notify_all()

    # -- watchdog: timeouts, gauges, scaling ----------------------------------

    def _watchdog_loop(self) -> None:
        while not self._stop_watchdog.wait(self.config.watchdog_interval):
            self._tick()

    def _tick(self) -> None:
        now = time.monotonic()
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        oldest = None
        for job in jobs:
            if job.terminal:
                continue
            age = now - job.submitted
            oldest = age if oldest is None else max(oldest, age)
            if (job.state is JobState.RUNNING and job.deadline is not None
                    and now > job.deadline):
                job.cancel.set()
        with self._space:
            backlog, in_flight = self._backlog, self._in_flight
        OBS.gauge("ingest.queue_depth", backlog)
        OBS.gauge("ingest.in_flight", in_flight)
        OBS.gauge("ingest.oldest_job_age", oldest or 0.0)
        with self._workers_lock:
            n_workers = len(self._workers)
        if backlog > n_workers and n_workers < self.config.max_workers:
            self._spawn_worker()
        elif (backlog == 0 and in_flight == 0
                and n_workers > self.config.min_workers):
            self._queue.put(_RETIRE)

    # -- introspection --------------------------------------------------------

    def job_status(self, job_id: str) -> IngestJob | None:
        """The job handle for ``job_id`` (``None`` if unknown)."""
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def wait(self, job: IngestJob | str,
             timeout: float | None = None) -> JobState:
        """Block until a job reaches a terminal state; returns it."""
        handle = job if isinstance(job, IngestJob) else self.job_status(job)
        if handle is None:
            raise InvalidParameterError(f"unknown job {job!r}")
        if not handle.done.wait(timeout):
            raise IngestTimeoutError(
                f"job {handle.job_id!r} still {handle.state.value} "
                f"after {timeout}s",
                details={"job": handle.job_id, "state": handle.state.value})
        return handle.state

    def drain(self, timeout: float | None = None) -> bool:
        """Block until no job is queued or in flight.

        Returns ``False`` if ``timeout`` elapsed first.  The service
        keeps accepting new jobs; this only waits out the backlog.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._space:
            while self._backlog > 0 or self._in_flight > 0:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    return False
                self._space.wait(remaining)
        return True

    def health(self) -> dict[str, Any]:
        """Operational telemetry: the surface an operator watches."""
        now = time.monotonic()
        with self._jobs_lock:
            active = [j for j in self._jobs.values() if not j.terminal]
        with self._space:
            backlog, in_flight = self._backlog, self._in_flight
        with self._workers_lock:
            n_workers = len(self._workers)
        budget = self.config.retry_budget
        return {
            "queue_depth": backlog,
            "in_flight": in_flight,
            "workers": n_workers,
            "peak_workers": self._peak_workers,
            "indexed_jobs": self._indexed_jobs,
            "quarantined": len(self.quarantine),
            "quarantined_jobs": [
                q.details.get("job", q.segment) for q in self.quarantine],
            "oldest_job_age": (max((now - j.submitted for j in active),
                                   default=0.0)),
            "freshness_lag": self._last_freshness,
            "retries": self._retries,
            "retry_budget_left": (None if budget is None
                                  else max(0, budget - self._retries)),
            "checkpoint_errors": self._checkpoint_errors,
            "snapshot_version": self.live.version,
            "indexed_ogs": len(self.live),
            "journal": None if self._journal is None else self._journal.path,
            "stopped": self._stopped,
        }

    # -- journaling -----------------------------------------------------------

    def _append_journal(self, record: dict) -> None:
        if self._journal is not None:
            maybe_fail("ingest.journal", job=record.get("job"),
                       record=record.get("state", record["event"]))
            with self._journal_lock:
                self._journal.append(record)

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs, drain the queue, stop workers.  Idempotent."""
        with self._space:
            already = self._stopped
            self._stopped = True
            self._space.notify_all()
        self._stop_watchdog.set()
        if not already:
            with self._workers_lock:
                workers = list(self._workers)
            for _ in workers:
                self._queue.put(_SHUTDOWN)
        if wait:
            if self._watchdog is not None:
                self._watchdog.join()
            with self._workers_lock:
                workers = list(self._workers)
            for worker in workers:
                worker.join()
            if self._store is not None:
                self._store.join_merges()
        if self._journal is not None:
            with self._journal_lock:
                self._journal.close()

    @property
    def stopped(self) -> bool:
        return self._stopped

    def __enter__(self) -> "IngestService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:
        return (f"IngestService(workers={len(self._workers)}, "
                f"queued={self._backlog}, in_flight={self._in_flight}, "
                f"indexed={self._indexed_jobs}, "
                f"quarantined={len(self.quarantine)}, "
                f"stopped={self._stopped})")

    # -- crash recovery -------------------------------------------------------

    def replace(self, *, state_dir: str | os.PathLike | None = None,
                config: IngestServiceConfig | None = None
                ) -> "IngestService":
        """Stop this service; return a new one over the same
        ``LiveIndex`` and pipeline that keeps its bookkeeping — job ids
        continue (both may journal to one ``state_dir``), completed jobs
        stay no-ops, quarantine and counts carry over."""
        self.shutdown()
        successor = type(self)(self.live, self.pipeline,
                               state_dir=state_dir, config=config)
        successor._seq, successor._completed = self._seq, self._completed
        successor.quarantine = self.quarantine
        successor._indexed_jobs = self._indexed_jobs
        return successor

    @classmethod
    def recover(cls, state_dir: str | os.PathLike, *,
                pipeline: VideoPipeline | None = None,
                config: IngestServiceConfig | None = None,
                index: Any = None) -> "IngestService":
        """Rebuild a service from its ``state_dir`` after a crash and
        finish its work, exactly once.

        Loads the last snapshot that survives ``verify()`` (every file
        re-hashed: bit rot is replayed over, not served) and re-runs,
        with :meth:`run`, every journaled job it does not hold, from the
        spool, in submission order — the call returns when they are
        done; a replayed job that fails stays quarantined.  The snapshot
        holds a job ``INDEXED`` before a checkpoint record, or one its
        clip refs name (a crash between a snapshot write and its record
        re-runs nothing).  Quarantine decisions stand, completed job ids
        make re-submissions no-ops, new job ids continue after the
        journaled ones, and a job whose spool is gone, or whose id breaks
        the ``job_id`` rule, is quarantined as lost.  ``index`` is the
        empty index replay starts from when no snapshot survives
        (default: a one-shard ``ShardedIndex``).  Raises
        :class:`~repro.errors.RecoveryError` with neither a usable
        snapshot nor a journal record.
        """
        state = Path(os.fspath(state_dir))
        journal_path = state / JOURNAL_NAME
        records, truncated = read_journal(journal_path)
        replay = replay_jobs(records)

        store = open_store(state / SNAPSHOT_BASE)
        loaded = None
        snapshot_error: str | None = None
        if store.exists():
            try:
                store.verify()
                loaded = store.load_index()
            except StorageError as exc:
                snapshot_error = f"{type(exc).__name__}: {exc}"
        snapshot_loaded = loaded is not None
        if not snapshot_loaded and not records:
            raise RecoveryError(
                f"nothing to recover in {state}: no valid snapshot and no "
                f"journal records",
                details={"path": os.fspath(state),
                         "journal": os.fspath(journal_path),
                         "snapshot_error": snapshot_error})
        pipeline = pipeline or VideoPipeline()
        if snapshot_loaded:
            index = loaded
        elif index is None:
            index = ShardedIndex(ShardedIndexConfig(
                num_shards=1, index=getattr(pipeline, "config",
                                            PipelineConfig()).index))
        snapshot_ogs = len(index)

        # No usable snapshot: nothing is durable, and journaled-INDEXED
        # jobs re-run too (their OGs died with the process).
        durable = (set(replay.completed) | _jobs_held_by(index)
                   if snapshot_loaded else set())
        pending = [info for info in replay.jobs_in_order
                   if info["job"] not in durable
                   and info.get("state") != JobState.QUARANTINED.value]

        service = cls(LiveIndex(index), pipeline, state_dir=state_dir,
                      config=config)
        if snapshot_loaded:
            # Reuse the store that loaded the snapshot: its row map is
            # bound to the recovered index, so the first post-recovery
            # checkpoint can append O(delta) instead of rewriting.
            service._store = store
            service.snapshot_path = store.path
        service._completed = set(durable)
        service._seq = 1 + max(
            (int(info["job"][4:]) for info in replay.jobs_in_order
             if re.fullmatch(r"job-\d+", info["job"])), default=-1)
        for info in replay.quarantined:
            service.quarantine.append(QuarantineRecord(
                segment=str(info.get("clip", info.get("job"))),
                error_type=str(info.get("error", "unknown")),
                message=str(info.get("message", "")),
                details={"job": str(info.get("job"))},
                attempts=int(info.get("attempts", 1)),
            ))

        replayed: list[str] = []
        lost: list[str] = []
        for info in pending:
            job_id = str(info.get("job"))
            spool_name = info.get("spool")
            try:
                _check_job_id(job_id)  # it names the spool file
                if spool_name is None:
                    raise StorageError(
                        f"spooled upload missing for {job_id!r}")
                if spool_name != f"{job_id}.npz":
                    # The service only ever spools ``<job_id>.npz``.
                    raise StorageError(
                        f"journaled spool {spool_name!r} of {job_id!r} is "
                        f"not {job_id}.npz")
                video = VideoSegment.load_npz(state / SPOOL_DIR / spool_name)
            except (StorageError, OSError, ValueError) as exc:
                service._quarantine_job(IngestJob(
                    job_id, str(info.get("clip", job_id)), None,
                    time.monotonic(), attempts=1), exc, lost_payload=True)
                lost.append(job_id)
                continue
            replayed.append(job_id)
            try:
                service.run(video, job_id=job_id)
            except Exception:  # noqa: BLE001 - logged and journaled
                pass                # by run; the replay goes on

        service.recovery = IngestRecoveryReport(
            snapshot_loaded=snapshot_loaded,
            snapshot_path=store.path,
            snapshot_ogs=snapshot_ogs,
            snapshot_error=snapshot_error,
            journal_path=os.fspath(journal_path),
            journal_truncated=truncated,
            completed_jobs=sorted(durable),
            replayed_jobs=replayed,
            quarantined_jobs=[
                q.details.get("job", q.segment) for q in service.quarantine],
            lost_jobs=lost,
        )
        return service


def _jobs_held_by(index: Any) -> set[str]:
    """Ids of the jobs whose OGs ``index`` stores (their clip refs name
    them)."""
    return {ref["job"] for _, ref in leaf_ogs(index)
            if isinstance(ref, dict) and "job" in ref}


__all__ = [
    "IngestJob",
    "IngestRecoveryReport",
    "IngestService",
    "IngestServiceConfig",
    "JobState",
]
