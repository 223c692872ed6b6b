"""The load runner for the serving front.

:func:`run_load` drives any transport through one callable,
``send(request, deadline) -> Future[SearchResult]``:
:meth:`QueryService.submit <repro.serving.service.QueryService.submit>`
in process, an :class:`~repro.serving.net.HttpSender` over the wire.
Two standard shapes, chosen by which pacing argument is given:

- **Closed loop** (``concurrency=C``) — ``C`` requests are kept in
  flight; a new one is sent when one completes.  Offered load adapts to
  service speed, so the service is never overloaded; this measures
  *capacity* (max sustainable throughput) and best-case latency.
- **Open loop** (``rate=R``) — requests arrive on a fixed schedule
  (``R`` per second) regardless of completions, like independent
  external clients.  When the service falls behind, the queue fills and
  admission control rejects; this measures behaviour *under* overload —
  tail latency, rejection rate, backpressure.

Either runs for ``num_requests`` requests or ``duration`` seconds.  A
request's latency is what its client saw, on every transport: from the
call to ``send`` until the returned future is done.  The
:class:`LoadReport` carries throughput and p50/p95/p99 latency,
serialisable via :meth:`LoadReport.as_dict` for benchmark artifacts.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    ServiceOverloadError,
)
from repro.search.request import SearchRequest


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    mode: str                       # "closed" | "open"
    concurrency: int = 0            # requests kept in flight (closed)
    rate: float = 0.0               # offered requests/second (open)
    requests_sent: int = 0
    responses: int = 0
    rejected: int = 0               # ServiceOverloadError at admission
    deadline_exceeded: int = 0
    errors: int = 0                 # any other failure
    duration: float = 0.0           # wall-clock seconds
    latencies: list[float] = field(default_factory=list, repr=False)

    @property
    def settled(self) -> int:
        """Requests whose outcome is known, whatever it was."""
        return (self.responses + self.rejected + self.deadline_exceeded
                + self.errors)

    @property
    def throughput(self) -> float:
        """Completed responses per second."""
        return self.responses / self.duration if self.duration > 0 else 0.0

    def percentile(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies), q))

    def as_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "concurrency": self.concurrency,
            "rate": self.rate,
            "requests_sent": self.requests_sent,
            "responses": self.responses,
            "rejected": self.rejected,
            "deadline_exceeded": self.deadline_exceeded,
            "errors": self.errors,
            "duration": self.duration,
            "throughput": self.throughput,
            "latency": {
                "mean": float(np.mean(self.latencies))
                if self.latencies else 0.0,
                "p50": self.percentile(50),
                "p95": self.percentile(95),
                "p99": self.percentile(99),
                "max": max(self.latencies) if self.latencies else 0.0,
            },
        }

    def __str__(self) -> str:
        return (
            f"{self.mode}-loop: {self.responses}/{self.requests_sent} ok, "
            f"{self.rejected} rejected, {self.throughput:.1f} qps, "
            f"p50={self.percentile(50) * 1e3:.1f}ms "
            f"p99={self.percentile(99) * 1e3:.1f}ms"
        )


def run_load(send: Callable[[SearchRequest, float | None], Future],
             queries: Sequence[Any],
             k: int = 10,
             *,
             concurrency: int | None = None,
             rate: float | None = None,
             num_requests: int | None = None,
             duration: float | None = None,
             deadline: float | None = None,
             search_budget: int | None = None) -> LoadReport:
    """Drive ``send`` with degradable k-NN requests drawn round-robin
    from ``queries``.

    Exactly one of ``concurrency`` (closed loop: that many requests in
    flight) and ``rate`` (open loop: that many arrivals per second, sent
    without waiting), and exactly one of ``num_requests`` and
    ``duration`` (seconds), must be given.  ``deadline`` and
    ``search_budget`` go into every request.  Returns once every request
    sent has settled: a :class:`~repro.errors.ServiceOverloadError` —
    raised by ``send`` or carried by its future — counts as rejected, a
    :class:`~repro.errors.DeadlineExceededError` as deadline-exceeded,
    anything else as an error.
    """
    if (concurrency is None) == (rate is None):
        raise InvalidParameterError(
            "specify exactly one of concurrency / rate")
    if (num_requests is None) == (duration is None):
        raise InvalidParameterError(
            "specify exactly one of num_requests / duration")
    if concurrency is not None and concurrency < 1:
        raise InvalidParameterError(
            f"concurrency must be >= 1, got {concurrency}")
    if rate is not None and rate <= 0:
        raise InvalidParameterError(f"rate must be > 0, got {rate}")
    if num_requests is not None and num_requests < 1:
        raise InvalidParameterError(
            f"num_requests must be >= 1, got {num_requests}")
    if duration is not None and duration <= 0:
        raise InvalidParameterError(f"duration must be > 0, got {duration}")
    if not queries:
        raise InvalidParameterError("queries must be non-empty")

    report = LoadReport(mode="open" if concurrency is None else "closed",
                        concurrency=concurrency or 0, rate=rate or 0.0)
    settled = threading.Condition()

    def settle(exc: BaseException | None, latency: float) -> None:
        with settled:
            if exc is None:
                report.responses += 1
                report.latencies.append(latency)
            elif isinstance(exc, ServiceOverloadError):
                report.rejected += 1
            elif isinstance(exc, DeadlineExceededError):
                report.deadline_exceeded += 1
            else:
                report.errors += 1
            settled.notify_all()

    start = time.monotonic()
    stop_at = None if duration is None else start + duration
    while num_requests is None or report.requests_sent < num_requests:
        if rate is None:
            with settled:
                settled.wait_for(lambda: report.requests_sent
                                 - report.settled < concurrency)
        else:
            due = start + report.requests_sent / rate
            pause = (due if stop_at is None else min(due, stop_at)) \
                - time.monotonic()
            if pause > 0:
                time.sleep(pause)
        if stop_at is not None and time.monotonic() >= stop_at:
            break
        request = SearchRequest.knn(
            queries[report.requests_sent % len(queries)], k,
            search_budget=search_budget, degrade=True)
        report.requests_sent += 1
        sent_at = time.monotonic()
        try:
            future = send(request, deadline)
        except Exception as exc:  # noqa: BLE001 — load test keeps going
            settle(exc, 0.0)
            continue
        future.add_done_callback(
            lambda done, sent_at=sent_at: settle(
                done.exception(), time.monotonic() - sent_at))
    with settled:
        settled.wait_for(lambda: report.settled == report.requests_sent)
    report.duration = time.monotonic() - start
    return report


__all__ = ["LoadReport", "run_load"]
