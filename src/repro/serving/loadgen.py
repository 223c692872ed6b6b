"""Load generators for the query service.

Two standard shapes:

- **Closed loop** (:func:`run_closed_loop`) — ``concurrency`` synthetic
  clients, each submitting a request, waiting for the response, and
  immediately submitting the next.  Offered load adapts to service
  speed, so the service is never overloaded; this measures *capacity*
  (max sustainable throughput) and best-case latency.
- **Open loop** (:func:`run_open_loop`) — requests arrive on a fixed
  schedule (``rate`` per second) regardless of completions, like
  independent external clients.  When the service falls behind, the
  queue fills and admission control rejects; this measures behaviour
  *under* overload — tail latency, rejection rate, backpressure.

Both return a :class:`LoadReport` with throughput and p50/p95/p99
latency, serialisable via :meth:`LoadReport.as_dict` for benchmark
artifacts.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.errors import (
    DeadlineExceededError,
    InvalidParameterError,
    ServiceOverloadError,
)
from repro.search.request import SearchRequest
from repro.serving.service import QueryService


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    mode: str                       # "closed" | "open"
    concurrency: int                # clients (closed) or offered rate (open)
    requests_sent: int = 0
    responses: int = 0
    rejected: int = 0               # ServiceOverloadError at admission
    deadline_exceeded: int = 0
    errors: int = 0                 # any other failure
    duration: float = 0.0           # wall-clock seconds
    latencies: list[float] = field(default_factory=list, repr=False)

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


def _record(report: LoadReport, lock: threading.Lock,
            outcome: str, latency: float | None = None) -> None:
    with lock:
        if outcome == "ok":
            report.responses += 1
            if latency is not None:
                report.latencies.append(latency)
        elif outcome == "rejected":
            report.rejected += 1
        elif outcome == "deadline":
            report.deadline_exceeded += 1
        else:
            report.errors += 1


def run_closed_loop(service: QueryService,
                    queries: Sequence[Any],
                    k: int = 10,
                    *,
                    num_requests: int | None = None,
                    duration: float | None = None,
                    concurrency: int = 1,
                    deadline: float | None = None,
                    search_budget: int | None = None) -> LoadReport:
    """Drive ``service`` with ``concurrency`` request-wait-repeat clients.

    Stops after ``num_requests`` total requests or ``duration`` seconds
    (exactly one must be given).  Queries are drawn round-robin.
    ``search_budget`` forwards to :meth:`QueryService.knn`, driving the
    approximate sketch tier instead of the exact path.
    """
    if (num_requests is None) == (duration is None):
        raise InvalidParameterError(
            "specify exactly one of num_requests / duration"
        )
    if num_requests is not None and num_requests < 1:
        raise InvalidParameterError(
            f"num_requests must be >= 1, got {num_requests}"
        )
    if concurrency < 1:
        raise InvalidParameterError(
            f"concurrency must be >= 1, got {concurrency}"
        )
    if not queries:
        raise InvalidParameterError("queries must be non-empty")

    report = LoadReport(mode="closed", concurrency=concurrency)
    lock = threading.Lock()
    counter = {"next": 0}
    deadline_at = None

    def take_ticket() -> int | None:
        """Next global request ordinal, or None when the run is over."""
        with lock:
            ticket = counter["next"]
            if num_requests is not None and ticket >= num_requests:
                return None
            if deadline_at is not None and time.monotonic() >= deadline_at:
                return None
            counter["next"] = ticket + 1
            report.requests_sent += 1
            return ticket

    def client() -> None:
        while True:
            ticket = take_ticket()
            if ticket is None:
                return
            query = queries[ticket % len(queries)]
            t0 = time.monotonic()
            try:
                service.knn(query, k, deadline=deadline,
                            search_budget=search_budget)
                _record(report, lock, "ok", time.monotonic() - t0)
            except ServiceOverloadError:
                _record(report, lock, "rejected")
            except DeadlineExceededError:
                _record(report, lock, "deadline")
            except Exception:  # noqa: BLE001 — load test keeps going
                _record(report, lock, "error")

    start = time.monotonic()
    if duration is not None:
        deadline_at = start + duration
    clients = [threading.Thread(target=client, name=f"loadgen-{i}")
               for i in range(concurrency)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    report.duration = time.monotonic() - start
    return report


def run_open_loop(service: QueryService,
                  queries: Sequence[Any],
                  k: int = 10,
                  *,
                  rate: float,
                  duration: float,
                  deadline: float | None = None,
                  search_budget: int | None = None) -> LoadReport:
    """Offer ``rate`` requests/second for ``duration`` seconds.

    Arrivals are paced on a fixed schedule and submitted without
    waiting; the run then collects all outstanding futures.  Unlike the
    closed loop, offered load does not slow down when the service does —
    expect rejections once ``rate`` exceeds capacity.
    """
    if rate <= 0:
        raise InvalidParameterError(f"rate must be > 0, got {rate}")
    if duration <= 0:
        raise InvalidParameterError(f"duration must be > 0, got {duration}")
    if not queries:
        raise InvalidParameterError("queries must be non-empty")

    report = LoadReport(mode="open", concurrency=int(rate))
    lock = threading.Lock()
    interval = 1.0 / rate
    outstanding = []

    start = time.monotonic()
    sent = 0
    while True:
        now = time.monotonic()
        if now - start >= duration:
            break
        due = start + sent * interval
        if now < due:
            time.sleep(min(due - now, 0.01))
            continue
        query = queries[sent % len(queries)]
        report.requests_sent += 1
        sent += 1
        try:
            outstanding.append(service.submit(SearchRequest.knn(
                query, k, search_budget=search_budget, degrade=True),
                deadline))
        except ServiceOverloadError:
            _record(report, lock, "rejected")

    for future in outstanding:
        try:
            # Response latency is stamped at serve time (queue wait +
            # execution), not at this late collection point.
            response = future.result()
            _record(report, lock, "ok", response.latency)
        except DeadlineExceededError:
            _record(report, lock, "deadline")
        except Exception:  # noqa: BLE001 — load test keeps going
            _record(report, lock, "error")
    report.duration = time.monotonic() - start
    return report


def run_http_open_loop(host: str, port: int,
                       queries: Sequence[Any],
                       k: int = 10,
                       *,
                       rate: float,
                       duration: float,
                       concurrency: int = 8,
                       deadline: float | None = None,
                       search_budget: int | None = None) -> LoadReport:
    """Open-loop load against a :class:`~repro.serving.net.NetFrontend`.

    Same arrival model as :func:`run_open_loop` — requests are offered
    at ``rate``/second regardless of completions — but over HTTP:
    ``concurrency`` client threads drain a paced ticket schedule, each
    holding its own keep-alive-free connection via
    :func:`~repro.serving.net.request_json`.  503 counts as rejected,
    504 as deadline-exceeded, matching the in-process report so the two
    serving paths are directly comparable in one benchmark table.
    """
    from repro.serving.net import request_json

    if rate <= 0:
        raise InvalidParameterError(f"rate must be > 0, got {rate}")
    if duration <= 0:
        raise InvalidParameterError(f"duration must be > 0, got {duration}")
    if concurrency < 1:
        raise InvalidParameterError(
            f"concurrency must be >= 1, got {concurrency}")
    if not queries:
        raise InvalidParameterError("queries must be non-empty")

    payloads = [np.asarray(getattr(q, "values", q),
                           dtype=np.float64).tolist() for q in queries]
    report = LoadReport(mode="http-open", concurrency=int(rate))
    lock = threading.Lock()
    interval = 1.0 / rate
    start = time.monotonic()
    stop_at = start + duration
    counter = {"next": 0}

    def take_ticket() -> int | None:
        """Next due arrival ordinal (paced), or None when time is up."""
        while True:
            now = time.monotonic()
            if now >= stop_at:
                return None
            with lock:
                ticket = counter["next"]
                due = start + ticket * interval
                if now >= due:
                    counter["next"] = ticket + 1
                    report.requests_sent += 1
                    return ticket
            time.sleep(min(due - now, 0.01))

    def client() -> None:
        while True:
            ticket = take_ticket()
            if ticket is None:
                return
            body = {"query": payloads[ticket % len(payloads)], "k": k}
            if deadline is not None:
                body["deadline"] = deadline
            if search_budget is not None:
                body["search_budget"] = search_budget
            t0 = time.monotonic()
            try:
                status, _ = request_json(
                    host, port, "POST", "/knn", body,
                    timeout=(deadline or 30.0) + 10.0)
            except Exception:  # noqa: BLE001 — load test keeps going
                _record(report, lock, "error")
                continue
            if status == 200:
                _record(report, lock, "ok", time.monotonic() - t0)
            elif status == 503:
                _record(report, lock, "rejected")
            elif status == 504:
                _record(report, lock, "deadline")
            else:
                _record(report, lock, "error")

    clients = [threading.Thread(target=client, name=f"http-loadgen-{i}")
               for i in range(concurrency)]
    for thread in clients:
        thread.start()
    for thread in clients:
        thread.join()
    report.duration = time.monotonic() - start
    return report


__all__ = ["LoadReport", "run_closed_loop", "run_http_open_loop",
           "run_open_loop"]
