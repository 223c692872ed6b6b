"""One serving front over either backend: the contract matrix.

{``LiveIndex``, ``WorkerPool`` at 1 and 2 workers} x {``backend.search``,
``QueryService.submit``, HTTP ``/knn`` ``/range`` ``/query``} on one
2-shard store: every path returns the ``(distance, clip_ref)`` list of
the store reopened in process — exact, budgeted and range, before and
after a ``reload()`` of the pool (worker pool == in-process == reopened
store).  The front's admission / deadline behaviours live in
``front_contract.py``; here is the one that needs a real backend under
it: a request accepted while the service shuts down still resolves.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

from repro.core.index import STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.errors import ServiceOverloadError, ServiceStoppedError
from repro.search.request import SearchRequest
from repro.serving import (
    LiveIndex,
    NetFrontend,
    QueryService,
    ServiceConfig,
    ShardedIndex,
    ShardedIndexConfig,
    WorkerPool,
    WorkerPoolConfig,
)
from repro.serving.net import request_json
from repro.storage.store import open_store

from front_contract import StubBackend

K = 5
BUDGET = 40
RADIUS = 60.0


@pytest.fixture(scope="module")
def store_path(tmp_path_factory):
    ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=96, seed=0))
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=2, placement="affine",
        index=STRGIndexConfig(n_clusters=4)))
    index.build(ogs, clip_refs=[f"clip-{i}" for i in range(len(ogs))])
    store = open_store(os.path.join(
        tmp_path_factory.mktemp("front"), "corpus.strg"))
    store.write_index(index)
    return store.path


@pytest.fixture(scope="module")
def queries():
    return generate_synthetic_ogs(SyntheticConfig(num_ogs=3, seed=99))


@pytest.fixture(scope="module")
def reference(store_path):
    """The answer key: the same store, reopened in process."""
    return open_store(store_path).load_index(mmap=True)


@pytest.fixture(scope="module", params=["live", "pool-1", "pool-2"])
def backend(request, store_path):
    if request.param == "live":
        yield LiveIndex(open_store(store_path).load_index(mmap=True))
    else:
        with WorkerPool(store_path, WorkerPoolConfig(
                workers=int(request.param[-1]))) as pool:
            yield pool


@pytest.fixture(scope="module")
def frontend(backend):
    with NetFrontend(backend) as served:
        yield served


REQUESTS = {
    "exact": lambda q: SearchRequest.knn(q, K),
    "budgeted": lambda q: SearchRequest.knn(q, K, search_budget=BUDGET),
    "range": lambda q: SearchRequest.range(q, RADIUS),
}


def pairs(hits) -> list[tuple[float, object]]:
    """``(distance, clip_ref)`` of in-process tuples or ``RemoteHit``s."""
    return [(float(h[0]), h[2]) if isinstance(h, tuple)
            else (h.distance, h.clip_ref) for h in hits]


def over_http(frontend, path, request) -> list:
    body = {"query": request.series.tolist(), "k": request.k,
            "radius": request.radius, "search_budget": request.search_budget,
            "op": request.kind}
    status, answer = request_json("127.0.0.1", frontend.port, "POST", path,
                                  {k: v for k, v in body.items()
                                   if v is not None})
    assert status == 200, answer
    assert answer["snapshot"] == frontend.backend.health()["snapshot"]
    return [(h["distance"], h["clip_ref"]) for h in answer["hits"]]


VIAS = {
    "search": lambda fe, req: pairs(fe.backend.search(req).hits),
    "service": lambda fe, req: pairs(fe.service.submit(req).result(30.0).hits),
    "http": lambda fe, req: over_http(
        fe, "/knn" if req.kind == "knn" else "/range", req),
    "http-envelope": lambda fe, req: over_http(fe, "/query", req),
}


@pytest.mark.parametrize("kind", REQUESTS)
@pytest.mark.parametrize("via", VIAS)
def test_every_path_answers_like_the_reopened_store(
        frontend, reference, queries, via, kind):
    def check():
        for query in queries:
            request = REQUESTS[kind](query)
            assert VIAS[via](frontend, request) \
                == pairs(reference.search(request).hits)

    check()
    reload = getattr(frontend.backend, "reload", None)
    if reload is not None:
        reload()
        check()


class _ShutdownOnEnter:
    """``service._admission_lock`` stand-in that lets a whole
    ``shutdown(wait=True)`` run just before the lock is taken for the
    first time — the window between submit's entry and its enqueue."""

    def __init__(self, service):
        self.service = service
        self.lock = service._admission_lock
        self.fired = False

    def __enter__(self):
        if not self.fired:
            self.fired = True
            self.service.shutdown(wait=True)
        return self.lock.__enter__()

    def __exit__(self, *exc_info):
        return self.lock.__exit__(*exc_info)


def test_request_accepted_during_shutdown_resolves(backend, queries):
    """Refused or served — never a future nobody will resolve."""
    service = QueryService(backend, ServiceConfig(workers=1))
    service._admission_lock = _ShutdownOnEnter(service)
    try:
        try:
            future = service.submit(SearchRequest.knn(queries[0], K))
        except ServiceStoppedError:
            return
        assert len(future.result(2.0).hits) == K
    finally:
        service.shutdown(timeout=5.0)
    assert service.health()["workers_alive"] == 0


def test_submitters_racing_shutdown_never_strand_a_request():
    """More submitters than cores against one shutdown, with thread
    switches forced often: every accepted future resolves, every other
    submission is refused — none is left pending behind the sentinels."""
    service = QueryService(StubBackend(),
                           ServiceConfig(workers=2, queue_depth=8))
    request = SearchRequest.knn([[0.0, 0.0]], 1)
    accepted: list = []
    refused = []

    def submitter():
        while True:
            try:
                accepted.append(service.submit(request))
            except ServiceOverloadError:
                continue
            except ServiceStoppedError:
                refused.append(1)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=submitter) for _ in range(8)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)
        service.shutdown(wait=True, timeout=10.0)
        for thread in threads:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(refused) == len(threads) and accepted
    assert service.health()["workers_alive"] == 0
    assert all(future.done() for future in accepted)
    assert all(len(future.result().hits) == 1 for future in accepted)
