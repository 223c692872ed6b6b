"""The serving front's behaviours, written once and run per transport.

:class:`FrontContract` holds the admission / deadline / stopped /
error-relay tests of the one front (``QueryService``).  The two
collected classes that inherit it bind a transport:
``test_serving.TestQueryService`` talks to the service through its
in-process futures (:class:`FutureFront`),
``test_net_serving.TestFrontendAdmissionAndDeadlines`` through a
``NetFrontend`` and HTTP status codes (:class:`HttpFront`).  Either way
a request is ``front.send(...)`` and its end is an :class:`Outcome`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.index import STRGIndexConfig
from repro.errors import ReproError, ShardUnavailableError
from repro.search.request import SearchRequest, SearchResult
from repro.serving import (
    LiveIndex,
    NetConfig,
    NetFrontend,
    QueryService,
    ServiceConfig,
    ShardedIndex,
    ShardedIndexConfig,
)
from repro.serving.net import request_json

QUERY = np.zeros((2, 2))


class StubBackend:
    """A ``search()`` backend double (no index, no processes).

    A search blocks until ``release`` is set (set by default);
    ``failure`` is raised from inside ``search``; the version advances
    while a request is being answered, after the hits were "read".
    """

    def __init__(self):
        self.snapshot_version = "old"
        self.entered = threading.Event()
        self.release = threading.Event()
        self.release.set()
        self.failure: Exception | None = None

    def search(self, request):
        version = self.snapshot_version
        self.entered.set()
        assert self.release.wait(10.0), "test never released the stub"
        if self.failure is not None:
            raise self.failure
        self.snapshot_version = "new"
        return SearchResult([(0.0, _Og(), "clip-0")][:request.k],
                            snapshot_version=version)

    def health(self):
        return {"status": "ok"}


class _Og:
    og_id = 0


@dataclass
class Outcome:
    """How one request ended, whatever carried it."""

    kind: str                    # "ok" or the error's type name
    phase: str | None = None     # DeadlineExceededError.phase
    status: int | None = None    # HTTP status (None in process)
    hits: int = 0
    snapshot: object = None
    latency: float = 0.0

    def is_error(self, kind: str, status: int) -> bool:
        return self.kind == kind and self.status in (None, status)


def _failure(exc: ReproError) -> Outcome:
    return Outcome(type(exc).__name__, getattr(exc, "phase", None))


class FutureFront:
    """The service itself: ``submit`` and the future it returns."""

    def __init__(self, backend, config: ServiceConfig):
        self.service = QueryService(backend, config)

    def send(self, query=QUERY, k=1, deadline=None):
        """Submit now; the returned callable waits for the outcome."""
        try:
            future = self.service.submit(SearchRequest.knn(query, k),
                                         deadline)
        except ReproError as exc:
            refused = _failure(exc)
            return lambda: refused

        def outcome() -> Outcome:
            try:
                result = future.result(10.0)
            except ReproError as exc:
                return _failure(exc)
            return Outcome("ok", hits=len(result.hits),
                           snapshot=result.snapshot_version,
                           latency=result.latency)
        return outcome

    def close(self) -> None:
        self.service.shutdown()


class HttpFront:
    """The same service behind a ``NetFrontend``: one POST per request,
    each on its own thread because an HTTP exchange blocks."""

    def __init__(self, backend, config: ServiceConfig):
        self.frontend = NetFrontend(
            backend, config=NetConfig(service=config)).start_in_thread()
        self.service = self.frontend.service

    def send(self, query=QUERY, k=1, deadline=None):
        payload = {"query": np.asarray(getattr(query, "values", query),
                                       dtype=float).tolist(), "k": k}
        if deadline is not None:
            payload["deadline"] = deadline
        answer: list = []
        thread = threading.Thread(target=lambda: answer.append(request_json(
            "127.0.0.1", self.frontend.port, "POST", "/knn", payload)))
        thread.start()

        def outcome() -> Outcome:
            thread.join(timeout=15.0)
            assert answer, "no HTTP answer within 15 s"
            status, body = answer[0]
            if status == 200:
                return Outcome("ok", status=status, hits=len(body["hits"]),
                               snapshot=body["snapshot"],
                               latency=body["latency"])
            return Outcome(body["type"], body.get("phase"), status)
        return outcome

    def close(self) -> None:
        self.frontend.stop()


def wait_queued(service: QueryService, depth: int) -> None:
    """Block until ``depth`` requests sit in the service's queue (an HTTP
    request is admitted some time after its thread started)."""
    deadline = time.monotonic() + 5.0
    while service.health()["queue_depth"] < depth:
        assert time.monotonic() < deadline, "request never reached the queue"
        time.sleep(0.005)


class FrontContract:
    """One behaviour per test; subclasses set ``transport``."""

    transport: type

    def front(self, backend, **sizing):
        return self.transport(backend, ServiceConfig(**sizing))

    @pytest.fixture
    def live(self, corpus):
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=2, index=STRGIndexConfig(n_clusters=4)))
        index.build(corpus[:32])
        return LiveIndex(index)

    def test_serves_real_queries(self, live, queries):
        front = self.front(live, workers=2)
        try:
            outcome = front.send(queries[0], k=5)()
        finally:
            front.close()
        assert outcome.kind == "ok" and outcome.hits == 5
        assert outcome.snapshot == 1 and outcome.latency > 0

    def test_admission_control_rejects_when_full(self):
        # workers bounds the executing requests, queue_depth the waiting
        # ones: the third of three is shed, the two admitted are served.
        stub = StubBackend()
        stub.release.clear()
        front = self.front(stub, workers=1, queue_depth=1)
        try:
            first = front.send()
            assert stub.entered.wait(5.0)
            second = front.send()
            wait_queued(front.service, 1)
            shed = front.send()()
            stub.release.set()
            served = [first(), second()]
        finally:
            stub.release.set()
            front.close()
        assert shed.is_error("ServiceOverloadError", 503)
        assert [o.kind for o in served] == ["ok", "ok"]

    def test_deadline_exceeded_in_queue(self):
        stub = StubBackend()
        stub.release.clear()
        front = self.front(stub, workers=1, queue_depth=4)
        try:
            blocker = front.send()
            assert stub.entered.wait(5.0)
            doomed = front.send(deadline=0.01)
            time.sleep(0.05)  # let the deadline lapse
            stub.release.set()
            outcomes = [blocker(), doomed()]
        finally:
            stub.release.set()
            front.close()
        assert outcomes[0].kind == "ok"
        assert outcomes[1].is_error("DeadlineExceededError", 504)
        assert outcomes[1].phase == "queued"

    def test_deadline_exceeded_mid_execution(self):
        stub = StubBackend()
        stub.release.clear()
        front = self.front(stub, workers=1, queue_depth=4)
        try:
            doomed = front.send(deadline=0.2)
            assert stub.entered.wait(5.0)  # executing before it expires
            time.sleep(0.4)  # deadline lapses mid-execution
            stub.release.set()
            outcome = doomed()
        finally:
            stub.release.set()
            front.close()
        assert outcome.is_error("DeadlineExceededError", 504)
        assert outcome.phase == "execution"

    def test_full_queue_purges_expired_requests(self):
        stub = StubBackend()
        stub.release.clear()
        front = self.front(stub, workers=1, queue_depth=1)
        try:
            blocker = front.send()
            assert stub.entered.wait(5.0)
            doomed = front.send(deadline=0.01)
            wait_queued(front.service, 1)
            time.sleep(0.05)  # doomed expires while queued
            # The queue is full, but the expired request is dead weight:
            # it is failed on the spot and the live request admitted.
            third = front.send()
            time.sleep(0.05)  # (over HTTP) until it is admitted
            stub.release.set()
            outcomes = [blocker(), doomed(), third()]
        finally:
            stub.release.set()
            front.close()
        assert [o.kind for o in outcomes] == [
            "ok", "DeadlineExceededError", "ok"]
        assert outcomes[1].phase == "queued"

    def test_stopped_service_rejects(self):
        front = self.front(StubBackend(), workers=1)
        try:
            front.service.shutdown()
            outcome = front.send()()
            front.service.shutdown()  # idempotent
        finally:
            front.close()
        assert outcome.is_error("ServiceStoppedError", 503)

    def test_query_errors_relayed(self):
        stub = StubBackend()
        stub.failure = ShardUnavailableError("shard 1 lost",
                                             details={"shards": [1]})
        front = self.front(stub, workers=1)
        try:
            relayed = front.send()()     # raised inside the backend
            refused = front.send(k=-1)()  # never reaches it
        finally:
            front.close()
        assert relayed.is_error("ShardUnavailableError", 503)
        assert refused.is_error("InvalidParameterError", 400)

    def test_answer_stamped_with_version_it_was_read_from(self):
        stub = StubBackend()
        front = self.front(stub, workers=1)
        try:
            outcome = front.send()()
        finally:
            front.close()
        # The version moved on while the answer travelled back.
        assert stub.snapshot_version == "new"
        assert outcome.kind == "ok" and outcome.snapshot == "old"
