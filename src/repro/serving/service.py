"""The one serving front: admission control, deadlines, execution.

:class:`QueryService` fronts any backend that answers
``search(SearchRequest) -> SearchResult`` — a
:class:`~repro.serving.LiveIndex` (the worker threads do the
search) or a started :class:`~repro.serving.WorkerPool` (the
worker threads block on its pipes) — with a bounded request queue and a
pool of worker threads:

- **Admission control** — requests beyond ``queue_depth`` are rejected
  immediately with :class:`~repro.errors.ServiceOverloadError` rather
  than queued without bound.  A saturated service sheds load; it never
  hangs the caller.
- **Deadlines** — each request carries an optional deadline.  A request
  whose deadline elapses while it sits in the queue fails fast with
  :class:`~repro.errors.DeadlineExceededError` (``phase="queued"``)
  instead of wasting a worker on an answer nobody is waiting for; when a
  full queue would reject a submission, already-expired queued requests
  are failed first to make room.  A request whose deadline lapses while
  it *executes* still runs to completion (index scans are not
  interruptible) but resolves with ``phase="execution"`` rather than a
  result nobody is waiting for.
- **Snapshot isolation** — the backend serves a whole request from one
  snapshot and stamps the result with that snapshot's version; the
  service never looks inside its backend.
- **Graceful shutdown** — :meth:`shutdown` serves what is queued, then
  stops the workers.  Stop and admit are decided under one lock: a
  request is either refused with
  :class:`~repro.errors.ServiceStoppedError` or queued ahead of every
  stop sentinel, so an accepted request always resolves.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any

from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    ServiceOverloadError,
    ServiceStoppedError,
)
from repro.graph.decomposition import BackgroundGraph
from repro.observability import OBS
from repro.search.request import SearchRequest, SearchResult

_SHUTDOWN = object()  # queue sentinel that stops a worker


@dataclass
class ServiceConfig:
    """Sizing and policy for a :class:`QueryService`.

    ``workers``           worker threads draining the queue.
    ``queue_depth``       max queued (not yet executing) requests; beyond
                          this, submissions are rejected.
    ``default_deadline``  per-request deadline in seconds applied when a
                          submission doesn't carry its own (``None`` =
                          no deadline).
    """

    workers: int = 2
    queue_depth: int = 64
    default_deadline: float | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise InvalidParameterError(
                f"workers must be >= 1, got {self.workers}"
            )
        if self.queue_depth < 1:
            raise InvalidParameterError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.default_deadline is not None and not self.default_deadline > 0:
            raise InvalidParameterError(
                f"default_deadline must be > 0, got {self.default_deadline}"
            )


@dataclass
class _Request:
    search: SearchRequest
    deadline: float | None  # absolute time.monotonic() cutoff
    enqueued: float
    future: Future


class QueryService:
    """Concurrent query front over any ``search(request)`` backend.

    Workers start in the constructor; use as a context manager (or call
    :meth:`shutdown`) to stop them.  :meth:`submit` returns a
    :class:`concurrent.futures.Future` resolving to the backend's
    :class:`~repro.search.request.SearchResult` with ``latency`` set;
    ``knn``/``range_query`` are its blocking conveniences.  The backend
    is the caller's: the service never starts or stops it.
    """

    def __init__(self, backend: Any,
                 config: ServiceConfig | None = None):
        self.backend = backend
        self.config = config or ServiceConfig()
        self._queue: queue.Queue = queue.Queue(maxsize=self.config.queue_depth)
        self._admission_lock = threading.Lock()
        self._stopped = False
        self._stragglers: list[str] = []
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"query-worker-{i}", daemon=True)
            for i in range(self.config.workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- submission -----------------------------------------------------------

    def submit(self, request: SearchRequest,
               deadline: float | None = None) -> Future:
        """Enqueue a request; rejects instead of blocking when full.

        ``deadline`` is in seconds from now (default: the service's
        ``default_deadline``).  Set ``degrade=True`` on the request to
        get partial hits instead of an error when a shard is lost.
        """
        if deadline is None:
            deadline = self.config.default_deadline
        if deadline is not None and not deadline > 0:
            raise InvalidParameterError(
                f"deadline must be > 0 seconds, got {deadline}"
            )
        now = time.monotonic()
        queued = _Request(
            search=request, enqueued=now, future=Future(),
            deadline=None if deadline is None else now + deadline,
        )
        with self._admission_lock:
            if self._stopped:
                raise ServiceStoppedError(
                    "query service is stopped; no new requests accepted"
                )
            try:
                self._queue.put_nowait(queued)
            except queue.Full:
                # Expired requests still queued are dead weight: fail
                # them now (they'd only bounce off a worker later) and
                # admit the live request into the space they held.
                if self._purge_expired() == 0:
                    OBS.count("serving.requests_rejected")
                    raise ServiceOverloadError(
                        f"admission queue full ({self.config.queue_depth} "
                        "deep); retry later or shed load upstream"
                    ) from None
                self._queue.put(queued)
        OBS.count("serving.requests_accepted")
        OBS.gauge("serving.queue_depth", self._queue.qsize())
        return queued.future

    def knn(self, query, k: int,
            background: BackgroundGraph | None = None,
            deadline: float | None = None,
            search_budget: int | None = None) -> SearchResult:
        """Submit a degradable k-NN request and block for its result."""
        return self.submit(SearchRequest.knn(
            query, k, background=background, search_budget=search_budget,
            degrade=True), deadline).result()

    def range_query(self, query, radius: float,
                    background: BackgroundGraph | None = None,
                    deadline: float | None = None) -> SearchResult:
        """Submit a degradable range request and block for its result."""
        return self.submit(SearchRequest.range(
            query, radius, background=background, degrade=True),
            deadline).result()

    def _purge_expired(self) -> int:
        """Fail queued requests whose deadline already lapsed; returns
        how many were purged.  Called with the admission lock held.
        """
        now = time.monotonic()
        purged = 0
        kept: list[Any] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if (item is not _SHUTDOWN
                    and item.deadline is not None and now > item.deadline):
                # False: the waiter already gave up and cancelled it.
                if item.future.set_running_or_notify_cancel():
                    OBS.count("serving.deadline_exceeded")
                    item.future.set_exception(DeadlineExceededError(
                        f"deadline elapsed after {now - item.enqueued:.3f}s "
                        "in queue", phase="queued"))
                purged += 1
            else:
                kept.append(item)
        for item in kept:
            self._queue.put(item)
        return purged

    # -- workers --------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            self._serve(item)

    def _serve(self, request: _Request) -> None:
        if not request.future.set_running_or_notify_cancel():
            return
        now = time.monotonic()
        if request.deadline is not None and now > request.deadline:
            OBS.count("serving.deadline_exceeded")
            request.future.set_exception(DeadlineExceededError(
                f"deadline elapsed after {now - request.enqueued:.3f}s "
                "in queue", phase="queued"
            ))
            return
        try:
            result = self.backend.search(request.search)
            latency = time.monotonic() - request.enqueued
            if (request.deadline is not None
                    and time.monotonic() > request.deadline):
                OBS.count("serving.deadline_exceeded")
                request.future.set_exception(DeadlineExceededError(
                    f"deadline elapsed mid-execution after {latency:.3f}s",
                    phase="execution"
                ))
                return
            OBS.observe("serving.latency", latency)
            OBS.count("serving.requests_served")
            result.latency = latency
            request.future.set_result(result)
        except BaseException as exc:  # noqa: BLE001 — relayed to the caller
            OBS.count("serving.request_errors")
            request.future.set_exception(exc)

    # -- lifecycle ------------------------------------------------------------

    def shutdown(self, wait: bool = True,
                 timeout: float | None = None) -> None:
        """Stop accepting requests, then stop the workers.

        With ``wait=True`` (default) queued requests are served before
        the workers exit — a graceful drain.  ``timeout`` bounds the
        *total* time spent joining worker threads: a worker stuck on a
        pathological request past the budget is left behind as a
        *straggler* (it is a daemon thread, so it cannot block process
        exit) and reported by :meth:`health` instead of hanging the
        caller forever.  Idempotent — a later call retries the join and
        clears stragglers that have since finished.
        """
        if timeout is not None and timeout <= 0:
            raise InvalidParameterError(
                f"timeout must be > 0 seconds, got {timeout}")
        # The flag flips under the admission lock, so every request
        # submit() accepted is already queued; the sentinels go in after
        # it (outside the lock: a full queue makes these puts wait).
        with self._admission_lock:
            stopping = not self._stopped
            self._stopped = True
        if stopping:
            for _ in self._workers:
                self._queue.put(_SHUTDOWN)
        if not wait:
            return
        deadline = None if timeout is None else time.monotonic() + timeout
        stragglers = []
        for worker in self._workers:
            remaining = None if deadline is None \
                else max(0.0, deadline - time.monotonic())
            worker.join(timeout=remaining)
            if worker.is_alive():
                stragglers.append(worker.name)
        self._stragglers = stragglers
        if stragglers:
            OBS.count("serving.shutdown_stragglers", len(stragglers))

    def health(self) -> dict[str, Any]:
        """Operational snapshot: thread liveness, backlog, stragglers.

        ``stragglers`` lists worker threads that outlived a bounded
        :meth:`shutdown` — non-empty means a drain was abandoned and
        some request is still grinding in the background.
        """
        alive = sum(1 for worker in self._workers if worker.is_alive())
        return {
            "workers": len(self._workers),
            "workers_alive": alive,
            "queue_depth": self._queue.qsize(),
            "stopped": self._stopped,
            "stragglers": [worker.name for worker in self._workers
                           if worker.name in self._stragglers
                           and worker.is_alive()],
        }

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:
        return (
            f"QueryService(workers={self.config.workers}, "
            f"queue_depth={self.config.queue_depth}, "
            f"stopped={self._stopped})"
        )


__all__ = ["QueryService", "ServiceConfig"]
