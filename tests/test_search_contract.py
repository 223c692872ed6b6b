"""The search contract, asserted once for every layer.

One request matrix (k, radius, query, budget and degrade edge cases; see
the "Search contract" section of ``docs/API.md``) runs through every
layer that answers queries — ``STRGIndex``, ``ShardedIndex`` at 1/2/4
shards, ``LiveIndex``, ``QueryService``, ``WorkerPool``, HTTP
``/knn``·``/range`` over a raw socket, and ``db.knn`` — and every layer
must give the brute-force answer bit for bit, or the same typed error.
"""

from __future__ import annotations

import json
import os
import socket

import numpy as np
import pytest

import repro
from repro.core.index import STRGIndex, STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.batch import one_vs_many
from repro.errors import InvalidParameterError, ShardUnavailableError
from repro.resilience import FaultInjector, injected
from repro.search.request import SearchRequest, SearchResult
from repro.serving import (
    LiveIndex,
    NetFrontend,
    QueryService,
    ShardedIndex,
    ShardedIndexConfig,
    WorkerPool,
    WorkerPoolConfig,
)
from repro.storage.serialize import leaf_ogs
from repro.storage.store import open_store

N = 64
K = 5
INDEX_LAYERS = ["strg", "sharded1", "sharded2", "sharded4", "live"]
LAYERS = INDEX_LAYERS + ["service", "pool", "http", "db"]
#: Layers whose shards fail in this process under ``serving.shard``.
FAULTABLE = ["sharded1", "sharded2", "sharded4", "live", "service"]


def raw_post(port: int, path: str, body: str) -> tuple[int, dict]:
    """One HTTP/1.1 POST written byte by byte (no client-side checks, so
    ``NaN`` and ``2.5`` reach the server as the client typed them)."""
    data = body.encode()
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(
            f"POST {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
            f"Content-Length: {len(data)}\r\n\r\n".encode() + data)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


class World:
    """Every layer over one 64-OG corpus, plus the brute-force oracle."""

    def __init__(self, root: str):
        self.ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=N, seed=3))
        self.refs = [f"clip-{i}" for i in range(N)]
        self.query = generate_synthetic_ogs(
            SyntheticConfig(num_ogs=1, seed=77))[0]
        config = STRGIndexConfig(n_clusters=3)
        mono = STRGIndex(config)
        mono.build(self.ogs, clip_refs=self.refs)
        self.indexes = {"strg": mono}
        for shards in (1, 2, 4):
            index = ShardedIndex(ShardedIndexConfig(
                num_shards=shards, placement="hash", index=config))
            index.build(self.ogs, clip_refs=self.refs)
            self.indexes[f"sharded{shards}"] = index
        store = open_store(os.path.join(root, "contract.strg"))
        store.write_index(self.indexes["sharded2"])
        self.live = LiveIndex(store.load_index())
        self.indexes["live"] = self.live
        self.service = QueryService(self.live)
        self.pool = WorkerPool(store.path, WorkerPoolConfig(workers=2))
        self.pool.start()
        self.frontend = NetFrontend(self.pool).start_in_thread()
        self.db = repro.open_database(store.path)
        dists = one_vs_many(mono.metric_distance, self.query, self.ogs)
        #: The whole corpus ranked by brute force: ``(distance, clip_ref)``.
        self.ranked = sorted(zip((float(d) for d in dists), self.refs))

    def close(self) -> None:
        self.frontend.stop()
        self.pool.shutdown()
        self.service.shutdown()

    def sharded_under(self, layer: str) -> ShardedIndex:
        return (self.live.snapshot.index if layer in ("live", "service")
                else self.indexes[layer])

    def search(self, layer: str, kind: str, query, arg, **options
               ) -> SearchResult:
        """One request through ``layer``; hits as ``(distance, clip_ref)``.

        The HTTP layer answers a bad request with a 400 whose JSON body
        names the error type; that is re-raised here so one assertion
        covers every layer.
        """
        if layer == "http":
            field = "k" if kind == "knn" else "radius"
            body = {"query": np.asarray(
                getattr(query, "values", query)).tolist(), field: arg,
                "degrade": False, **options}
            status, reply = raw_post(self.frontend.port,
                                     "/knn" if kind == "knn" else "/range",
                                     json.dumps(body))
            if status == 400:
                assert reply["type"] == "InvalidParameterError", reply
                raise InvalidParameterError(reply["error"])
            assert status == 200, reply
            return SearchResult(
                [(h["distance"], h["clip_ref"]) for h in reply["hits"]],
                reply["degraded"], reply["failed_shards"])
        if layer == "db":
            hits = self.db.knn(query, arg, **options)
            return SearchResult([(h.distance, h.clip_ref) for h in hits])
        request = (SearchRequest.knn(query, arg, **options)
                   if kind == "knn"
                   else SearchRequest.range(query, arg, **options))
        if layer == "service":
            result = self.service.submit(request).result(30)
        elif layer == "pool":
            result = self.pool.search(request)
            return SearchResult(
                [(h.distance, h.clip_ref) for h in result.hits],
                result.degraded, result.failed_shards)
        else:
            result = self.indexes[layer].search(request)
        return SearchResult([(float(d), ref) for d, _og, ref in result.hits],
                            result.degraded, result.failed_shards)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    world = World(str(tmp_path_factory.mktemp("contract")))
    yield world
    world.close()


@pytest.mark.parametrize("layer", LAYERS)
class TestKnn:
    @pytest.mark.parametrize("k", [0, 1, K, N, N + 5])
    def test_exact_matches_brute_force(self, world, layer, k):
        result = world.search(layer, "knn", world.query, k)
        assert result.hits == world.ranked[:k]
        assert not result.degraded and result.failed_shards == []

    @pytest.mark.parametrize("k", [-1, 2.5, True, "five", None])
    def test_illegal_k_is_a_typed_error(self, world, layer, k):
        with pytest.raises(InvalidParameterError, match="k must be"):
            world.search(layer, "knn", world.query, k)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_query_is_a_typed_error(self, world, layer, bad):
        query = world.query.values.copy()
        query[1, 0] = bad
        with pytest.raises(InvalidParameterError, match="non-finite"):
            world.search(layer, "knn", query, K)
        with pytest.raises(InvalidParameterError, match="non-finite"):
            world.search(layer, "knn", query, K, search_budget=20)

    @pytest.mark.parametrize("budget", [0, -3, 2.5])
    def test_illegal_budget_is_a_typed_error(self, world, layer, budget):
        with pytest.raises(InvalidParameterError, match="search_budget"):
            world.search(layer, "knn", world.query, K, search_budget=budget)

    def test_budget_edges(self, world, layer):
        # k = 0 short-circuits before any budget is spent.
        assert world.search(layer, "knn", world.query, 0,
                            search_budget=K).hits == []
        # The floor: a budget of k still fills k ranked, real hits.
        floor = world.search(layer, "knn", world.query, K,
                             search_budget=K).hits
        assert len(floor) == K and floor == sorted(floor)
        assert set(floor) <= set(world.ranked)
        # Budget >= corpus + pivots degenerates to the exact answer, and
        # so does any budget once k (its floor) covers the corpus.
        for k, budget in ((K, 10 * N), (N + 5, 10 * N), (N + 5, K)):
            assert world.search(layer, "knn", world.query, k,
                                search_budget=budget).hits \
                == world.ranked[:k]


@pytest.mark.parametrize("layer", [name for name in LAYERS if name != "db"])
class TestRange:
    def test_matches_brute_force(self, world, layer):
        radius = world.ranked[K - 1][0]          # exactly K OGs within
        assert world.search(layer, "range", world.query, radius).hits \
            == world.ranked[:K]
        assert world.search(layer, "range", world.query, 0.0).hits == []
        # Radius 0 still finds an indexed OG from its own trajectory.
        assert world.search(layer, "range", world.ogs[7], 0).hits \
            == [(0.0, "clip-7")]

    @pytest.mark.parametrize("radius", [-1.0, np.nan, np.inf, "wide", None])
    def test_illegal_radius_is_a_typed_error(self, world, layer, radius):
        with pytest.raises(InvalidParameterError, match="radius must be"):
            world.search(layer, "range", world.query, radius)

    def test_non_finite_query_is_a_typed_error(self, world, layer):
        query = world.query.values.copy()
        query[0, 1] = np.nan
        with pytest.raises(InvalidParameterError, match="non-finite"):
            world.search(layer, "range", query, 10.0)


@pytest.mark.parametrize("layer", [name for name in LAYERS if name != "db"])
@pytest.mark.parametrize("degrade", ["false", 1, None])
def test_non_bool_degrade_is_a_typed_error(world, layer, degrade):
    # Coercing would turn "false" into a request for partial answers.
    for kind, arg in (("knn", K), ("range", 10.0)):
        with pytest.raises(InvalidParameterError, match="degrade must be"):
            world.search(layer, kind, world.query, arg, degrade=degrade)


class TestDegrade:
    """One shard lost to an injected ``serving.shard`` fault."""

    @pytest.mark.parametrize("budget", [None, 10 * N])
    @pytest.mark.parametrize("layer", FAULTABLE)
    def test_survivors_answer_exactly(self, world, layer, budget):
        lost = {ref for _og, ref in
                leaf_ogs(world.sharded_under(layer).shards[0])}
        survivors = [hit for hit in world.ranked if hit[1] not in lost]
        with injected(FaultInjector().inject("serving.shard", at={0})):
            result = world.search(layer, "knn", world.query, K,
                                  search_budget=budget, degrade=True)
        assert result.degraded and result.failed_shards == [0]
        assert result.hits == survivors[:K]
        radius = world.ranked[K - 1][0]
        with injected(FaultInjector().inject("serving.shard", at={0})):
            result = world.search(layer, "range", world.query, radius,
                                  degrade=True)
        assert result.degraded and result.failed_shards == [0]
        assert result.hits == [hit for hit in world.ranked[:K]
                               if hit[1] not in lost]

    @pytest.mark.parametrize("layer", FAULTABLE)
    def test_strict_requests_raise(self, world, layer):
        for kind, arg in (("knn", K), ("range", 10.0)):
            with injected(FaultInjector().inject("serving.shard", at={0})):
                with pytest.raises(ShardUnavailableError):
                    world.search(layer, kind, world.query, arg)

    @pytest.mark.parametrize("layer", ["strg", "pool", "http"])
    def test_flag_changes_nothing_without_a_lost_shard(self, world, layer):
        with injected(FaultInjector().inject("serving.shard", at={0})):
            result = world.search(layer, "knn", world.query, K, degrade=True)
        assert result.hits == world.ranked[:K] and not result.degraded
