"""Sharded serving: bit-identity, placement, persistence, degradation,
snapshots, the query service and the load generators."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.index import STRGIndex, STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.errors import (
    IndexStateError,
    InvalidParameterError,
    ShardUnavailableError,
)
from repro.resilience import FaultInjector, injected
from repro.serving import (
    HttpSender,
    LiveIndex,
    NetConfig,
    NetFrontend,
    QueryService,
    ServiceConfig,
    ShardedIndex,
    ShardedIndexConfig,
    run_load,
)
from repro.search.request import SearchRequest, SearchResult
from repro.storage.store import open_store

from front_contract import QUERY, FrontContract, FutureFront, StubBackend

K = 5
RADIUS = 60.0


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_ogs(SyntheticConfig(num_ogs=96, seed=0))


@pytest.fixture(scope="module")
def queries():
    return generate_synthetic_ogs(SyntheticConfig(num_ogs=6, seed=99))


@pytest.fixture(scope="module")
def mono(corpus):
    index = STRGIndex(STRGIndexConfig(n_clusters=4))
    index.build(corpus)
    return index


def _sharded(corpus, num_shards, placement):
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=num_shards, placement=placement,
        index=STRGIndexConfig(n_clusters=4),
    ))
    index.build(corpus)
    return index


@pytest.fixture(scope="module",
                params=[(n, p) for p in ("hash", "affine")
                        for n in (1, 2, 4)],
                ids=lambda sp: f"{sp[1]}-{sp[0]}")
def sharded(request, corpus):
    num_shards, placement = request.param
    return _sharded(corpus, num_shards, placement)


class TestBitIdentity:
    def test_knn_matches_monolithic(self, sharded, mono, queries):
        for query in queries:
            expected = mono.knn(query, K)
            got = sharded.knn(query, K)
            assert [(d, og.og_id) for d, og, _ in got] == \
                   [(d, og.og_id) for d, og, _ in expected]

    def test_range_matches_monolithic(self, sharded, mono, queries):
        for query in queries:
            expected = mono.range_query(query, RADIUS)
            got = sharded.range_query(query, RADIUS)
            assert [(d, og.og_id) for d, og, _ in got] == \
                   [(d, og.og_id) for d, og, _ in expected]

    def test_shards_partition_corpus(self, sharded, corpus):
        assert sum(sharded.shard_sizes()) == len(corpus) == len(sharded)
        ids = sorted(og.og_id for og in sharded.object_graphs())
        assert ids == sorted(og.og_id for og in corpus)


class TestShardedIndexBasics:
    def test_invalid_config(self):
        with pytest.raises(InvalidParameterError):
            ShardedIndexConfig(num_shards=0)
        with pytest.raises(InvalidParameterError):
            ShardedIndexConfig(placement="mystery")

    def test_invalid_queries(self, sharded):
        # k=0 is a legal no-op (see docs/SEARCH.md); negative k is not.
        assert sharded.knn(np.zeros((4, 2)), 0) == []
        with pytest.raises(InvalidParameterError):
            sharded.knn(np.zeros((4, 2)), -1)
        with pytest.raises(InvalidParameterError):
            sharded.range_query(np.zeros((4, 2)), -1.0)

    def test_empty_index_rejects_search(self):
        empty = ShardedIndex(ShardedIndexConfig(num_shards=2))
        with pytest.raises(IndexStateError):
            empty.knn(np.zeros((4, 2)), 1)

    def test_insert_and_delete(self, corpus):
        index = _sharded(corpus[:32], 2, "hash")
        for shard in index.shards:
            shard.sketch_tier()
        extra = corpus[32]
        index.insert(extra)
        assert len(index) == 33
        hits = index.knn(extra, 1)
        assert hits[0][1].og_id == extra.og_id
        # The read rebuilt the written shard's views over its records'
        # reference rows.
        for shard in index.shards:
            assert shard._views.mutations == shard.mutations
            assert shard._views.pivots is shard._references is not None
        assert index.delete(extra.og_id)
        assert not index.delete(extra.og_id)
        assert len(index) == 32

    def test_affine_insert_fits_missing_pivots(self, corpus):
        shards = []
        for part in (corpus[:25], corpus[25:50]):
            built = STRGIndex(STRGIndexConfig(n_clusters=4))
            built.build(part)
            shards.append(built)
        index = ShardedIndex.from_shards(shards)
        assert index.config.placement == "affine" and index.pivots is None
        index.insert(corpus[50])
        assert len(index.pivots) == index.num_shards == 2
        assert len(index) == 51
        assert index.knn(corpus[50], 1)[0][1].og_id == corpus[50].og_id
        # One shard has nothing to place: no pivots are fit.
        single = ShardedIndex.from_shards([shards[0]])
        assert single.insert(corpus[51])[0] == 0
        assert single.pivots is None
        assert single.knn(corpus[51], 1)[0][1].og_id == corpus[51].og_id

    def test_freeze_blocks_mutation(self, corpus):
        index = _sharded(corpus[:16], 2, "hash")
        index.freeze()
        with pytest.raises(IndexStateError):
            index.insert(corpus[20])
        with pytest.raises(IndexStateError):
            index.delete(corpus[0].og_id)

    def test_clone_is_mutable_and_independent(self, corpus):
        index = _sharded(corpus[:16], 2, "hash").freeze()
        dup = index.clone()
        dup.insert(corpus[30])
        assert len(dup) == 17
        assert len(index) == 16

    def test_stats_shape(self, sharded):
        stats = sharded.stats()
        assert stats["leaf_records"] == len(sharded)
        assert len(stats["shard_sizes"]) == stats["shards"]


class TestPersistence:
    @pytest.mark.parametrize("placement", ["hash", "affine"])
    def test_round_trip(self, corpus, queries, tmp_path, placement):
        index = _sharded(corpus[:48], 3, placement)
        expected = [index.knn(q, K) for q in queries]
        path = tmp_path / "serving-idx"
        open_store(path).write_index(index)
        assert open_store(path).describe()["shards"] == 3
        loaded = open_store(path).load_index()
        assert len(loaded) == len(index)
        assert loaded.config.placement == placement
        for exp, query in zip(expected, queries):
            got = loaded.knn(query, K)
            assert [d for d, _, _ in got] == [d for d, _, _ in exp]

    def test_monolithic_snapshot_not_sharded(self, mono, tmp_path):
        path = tmp_path / "mono"
        open_store(path).write_index(mono)
        # The monolithic index is the one-shard case of the one store.
        assert open_store(path).describe()["shards"] == 1
        assert open_store(path).load_index().shards[0].stats() \
            == mono.stats()
        assert not open_store(tmp_path / "missing").exists()


class TestDegradedReads:
    def test_shard_failure_degrades(self, corpus, queries):
        index = _sharded(corpus, 2, "hash")
        lost = {og.og_id for og in index.shards[0].object_graphs()}
        with injected(FaultInjector().inject("serving.shard", at={0})):
            result = index.search(
                SearchRequest.knn(queries[0], K, degrade=True))
        assert result.degraded
        assert result.failed_shards == [0]
        assert len(result.hits) == K
        assert all(og.og_id not in lost for _, og, _ in result.hits)
        # Next query runs clean: the injector fired only at ordinal 0.

    def test_strict_path_raises(self, corpus, queries):
        index = _sharded(corpus, 2, "hash")
        with injected(FaultInjector().inject("serving.shard", at={0})):
            with pytest.raises(ShardUnavailableError):
                index.knn(queries[0], K)

    def test_range_degrades_too(self, corpus, queries):
        index = _sharded(corpus, 2, "hash")
        clean = index.range_query(queries[0], RADIUS)
        with injected(FaultInjector().inject("serving.shard", at={0})):
            result = index.search(
                SearchRequest.range(queries[0], RADIUS, degrade=True))
        assert result.degraded and result.failed_shards == [0]
        assert len(result.hits) <= len(clean)


class TestLiveIndex:
    def test_writes_invisible_until_compact(self, corpus):
        live = LiveIndex(_sharded(corpus[:32], 2, "hash"))
        assert live.version == 1
        for og in corpus[32:40]:
            live.insert(og)
        assert live.pending_writes == 8
        assert len(live) == 32  # readers still see snapshot v1
        snapshot = live.compact()
        assert snapshot.version == 2 and live.version == 2
        assert len(live) == 40 and live.pending_writes == 0

    def test_buffered_delete(self, corpus):
        live = LiveIndex(_sharded(corpus[:16], 2, "hash"))
        live.delete(corpus[0].og_id)
        assert len(live) == 16
        live.compact()
        assert len(live) == 15

    def test_empty_compact_keeps_snapshot(self, corpus):
        live = LiveIndex(_sharded(corpus[:16], 2, "hash"))
        before = live.snapshot
        assert live.compact() is before

    def test_monolithic_index_works_too(self, mono, queries):
        import copy

        live = LiveIndex(copy.deepcopy(mono))
        hits = live.search(SearchRequest.knn(queries[0], K, degrade=True))
        assert isinstance(hits, SearchResult)
        assert not hits.degraded and len(hits.hits) == K


class TestQueryService(FrontContract):
    """The front's contract through in-process futures, plus the
    service-only lifecycle behaviours."""

    transport = FutureFront

    def test_bounded_shutdown_reports_stragglers(self, corpus):
        stub = StubBackend()
        stub.release.clear()
        service = QueryService(stub, ServiceConfig(workers=1, queue_depth=4))
        try:
            grinding = service.submit(SearchRequest.knn(corpus[0], 1))
            assert stub.entered.wait(5.0)
            # The worker is mid-request and will not finish inside the
            # budget: shutdown returns anyway and flags the straggler.
            service.shutdown(timeout=0.1)
            health = service.health()
            assert health["stopped"]
            assert len(health["stragglers"]) == 1
        finally:
            stub.release.set()
        assert grinding.result(5.0).hits
        # A later bounded retry joins the now-finished worker and the
        # straggler report clears.
        service.shutdown(timeout=5.0)
        assert service.health()["stragglers"] == []
        assert service.health()["workers_alive"] == 0

    def test_shutdown_timeout_validation(self, corpus):
        live = LiveIndex(_sharded(corpus[:16], 1, "hash"))
        service = QueryService(live, ServiceConfig(workers=1))
        with pytest.raises(InvalidParameterError):
            service.shutdown(timeout=0.0)
        with pytest.raises(InvalidParameterError):
            service.shutdown(timeout=-1.0)
        service.shutdown(timeout=5.0)
        assert service.health()["stragglers"] == []


@contextmanager
def _sender(transport, backend, **sizing):
    """``send(request, deadline)`` of one front over ``backend``: the
    service's own ``submit``, or an ``HttpSender`` to a ``NetFrontend``."""
    config = ServiceConfig(**sizing)
    if transport == "submit":
        with QueryService(backend, config) as service:
            yield service.submit
    else:
        with NetFrontend(backend, config=NetConfig(service=config)) as front:
            with HttpSender("127.0.0.1", front.port) as send:
                yield send


class _SlowStub(StubBackend):
    """Answers in 20 ms: one worker serves 50 requests a second."""

    def search(self, request):
        time.sleep(0.02)
        return super().search(request)


class TestLoadGenerators:
    def test_closed_loop(self, corpus, queries):
        live = LiveIndex(_sharded(corpus[:32], 2, "affine"))
        with QueryService(live, ServiceConfig(workers=2)) as service:
            report = run_load(service.submit, queries, k=K,
                              num_requests=12, concurrency=2)
        assert report.requests_sent == 12 and report.responses == 12
        assert report.rejected == 0 and report.errors == 0
        assert report.throughput > 0
        assert report.percentile(50) <= report.percentile(99)
        payload = report.as_dict()
        assert payload["latency"]["p99"] >= payload["latency"]["p50"]
        assert payload["concurrency"] == 2 and payload["rate"] == 0.0
        assert "closed-loop" in str(report)

    def test_open_loop(self, corpus, queries):
        live = LiveIndex(_sharded(corpus[:32], 2, "affine"))
        with QueryService(live, ServiceConfig(workers=2)) as service:
            report = run_load(service.submit, queries, k=K,
                              rate=100.0, duration=0.3)
            slow = run_load(service.submit, queries, k=K,
                            rate=0.5, num_requests=1)
        assert report.requests_sent > 0
        assert report.responses + report.rejected + report.errors \
            + report.deadline_exceeded == report.requests_sent
        assert report.rate == 100.0 and report.concurrency == 0
        assert slow.rate == 0.5 and slow.responses == 1

    def test_parameter_validation(self, corpus, queries):
        live = LiveIndex(_sharded(corpus[:16], 1, "hash"))
        with QueryService(live, ServiceConfig(workers=1)) as service:
            send = service.submit
            for pacing in ({}, {"concurrency": 1, "rate": 10.0},
                           {"concurrency": 0}, {"rate": 0.0}):
                with pytest.raises(InvalidParameterError):
                    run_load(send, queries, num_requests=4, **pacing)
            for length in ({}, {"num_requests": 4, "duration": 1.0},
                           {"num_requests": 0}, {"duration": 0.0}):
                with pytest.raises(InvalidParameterError):
                    run_load(send, queries, concurrency=1, **length)
            with pytest.raises(InvalidParameterError):
                run_load(send, [], concurrency=1, num_requests=4)

    @pytest.mark.parametrize("transport", ["submit", "http"])
    def test_closed_loop_sends_exactly_num_requests(self, transport):
        with _sender(transport, StubBackend(), workers=2) as send:
            report = run_load(send, [QUERY], k=1,
                              num_requests=9, concurrency=3)
        assert report.requests_sent == report.responses == 9
        assert len(report.latencies) == 9

    @pytest.mark.parametrize("transport", ["submit", "http"])
    def test_open_loop_over_capacity_is_shed(self, transport):
        with _sender(transport, _SlowStub(),
                     workers=1, queue_depth=1) as send:
            report = run_load(send, [QUERY], k=1, rate=400.0, duration=0.3)
        assert report.rejected > 0 and report.responses > 0
        assert report.errors == 0
        assert report.responses + report.rejected + report.errors \
            + report.deadline_exceeded == report.requests_sent

    @pytest.mark.parametrize("transport", ["submit", "http"])
    def test_blocked_backend_lands_in_deadline_exceeded(self, transport):
        stub = StubBackend()
        stub.release.clear()
        unblock = threading.Timer(0.4, stub.release.set)
        unblock.start()
        try:
            with _sender(transport, stub, workers=1) as send:
                report = run_load(send, [QUERY], k=1, num_requests=1,
                                  concurrency=1, deadline=0.1)
        finally:
            stub.release.set()
            unblock.cancel()
        assert report.deadline_exceeded == 1 and report.responses == 0

    @pytest.mark.parametrize("transport", ["submit", "http"])
    def test_latency_is_what_the_client_saw(self, transport):
        # The stub answers at once, so a latency the server stamped
        # would be near zero; the 50 ms this client spends before its
        # request is even admitted must be in the number.
        with _sender(transport, StubBackend(), workers=1) as send:
            def late(request, deadline):
                time.sleep(0.05)
                return send(request, deadline)

            report = run_load(late, [QUERY], k=1, rate=100.0,
                              num_requests=3)
        assert report.responses == 3 and min(report.latencies) >= 0.05


class TestDatabaseIntegration:
    def test_sharded_database_round_trip(self, corpus, tmp_path):
        from repro.api import open_database

        db = open_database(tmp_path / "db", shards=2, placement="hash")
        db.ingest_object_graphs(corpus[:24])
        assert db.index.num_shards == 2
        stats = db.stats()
        assert stats["shards"] == 2 and sum(stats["shard_sizes"]) == 24
        expected = [(h.distance, h.og.og_id) for h in db.knn(corpus[0], K)]
        db.save()
        reopened = open_database(tmp_path / "db", create=False)
        assert reopened.shards == 2
        got = [(h.distance, h.og.og_id) for h in reopened.knn(corpus[0], K)]
        assert [d for d, _ in got] == [d for d, _ in expected]

    def test_service_config_validation(self):
        with pytest.raises(InvalidParameterError):
            ServiceConfig(workers=0)
        with pytest.raises(InvalidParameterError):
            ServiceConfig(queue_depth=0)
        with pytest.raises(InvalidParameterError):
            ServiceConfig(default_deadline=0.0)
        with pytest.raises(InvalidParameterError):
            ServiceConfig(default_deadline=float("nan"))
        with QueryService(StubBackend(), ServiceConfig(workers=1)) as service:
            with pytest.raises(InvalidParameterError):
                service.submit(SearchRequest.knn(QUERY, 1), float("nan"))


class TestServingCLI:
    def test_bench_load_smoke(self, capsys):
        from repro.cli import main

        assert main(["bench-load", "--shards", "1", "2", "--num-ogs", "48",
                     "--clusters", "3", "--requests", "8",
                     "--concurrency", "1", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "1 shard(s)" in out and "2 shard(s)" in out
        assert "speedup" in out

    def test_serve_smoke(self, corpus, tmp_path, capsys):
        from repro.cli import main

        index = _sharded(corpus[:24], 2, "hash")
        path = tmp_path / "served"
        open_store(path).write_index(index)
        assert main(["serve", str(path), "--rate", "20", "--duration",
                     "0.3", "--workers", "1", "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "open-loop" in out

    def test_build_shards_then_serve(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "built")
        assert main(["build", path, "--shards", "2", "--frames", "12"]) == 0
        assert "'shards': 2" in capsys.readouterr().out
        assert open_store(path).manifest()["num_shards"] == 2
        assert main(["serve", path, "--rate", "20", "--duration", "0.2",
                     "-k", "3"]) == 0
        assert "open-loop" in capsys.readouterr().out
