"""Multi-process shard serving + HTTP frontend (``repro.serving.workers``
/ ``repro.serving.net``).

The load-bearing claim is *bit-identity*: a k-NN or range answer served
by worker processes over the wire must equal the in-process
``ShardedIndex`` answer on the same snapshot — same distances (floats
compared exactly), same order — at every worker count and through every
failure drill short of losing a shard entirely.
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import threading
import time
import warnings
import weakref

import pytest

from repro.core.index import STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.errors import (
    IndexStateError,
    InvalidParameterError,
    ShardUnavailableError,
    StorageError,
)
from repro.serving import (
    NetConfig,
    NetFrontend,
    ShardedIndex,
    ShardedIndexConfig,
    WorkerPool,
    WorkerPoolConfig,
)
from repro.serving.net import request_json

from front_contract import QUERY, FrontContract, HttpFront, StubBackend

K = 5
RADIUS = 60.0
NUM_OGS = 96


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_ogs(SyntheticConfig(num_ogs=NUM_OGS, seed=0))


@pytest.fixture(scope="module")
def queries():
    return generate_synthetic_ogs(SyntheticConfig(num_ogs=4, seed=99))


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, corpus):
    """A 4-shard columnar snapshot with unique clip refs."""
    from repro.storage.store import open_store

    index = ShardedIndex(ShardedIndexConfig(
        num_shards=4, placement="affine",
        index=STRGIndexConfig(n_clusters=4)))
    index.build(corpus, clip_refs=[f"clip-{i}" for i in range(len(corpus))])
    root = tmp_path_factory.mktemp("net-serving")
    store = open_store(os.path.join(root, "corpus.strg"))
    store.write_index(index)
    return store.path


@pytest.fixture(scope="module")
def reference(store_path):
    """The in-process answer key: the same snapshot, loaded directly."""
    from repro.storage.store import open_store

    return open_store(store_path).load_index(mmap=True)


def hits_of(result):
    return [(h.distance, h.clip_ref) for h in result.hits]


def expected_knn(reference, query, k, budget=None):
    return [(float(d), ref)
            for d, _og, ref in reference.knn(query, k, search_budget=budget)]


def expected_range(reference, query, radius):
    return [(float(d), ref)
            for d, _og, ref in reference.range_query(query, radius)]


class TestWorkerPoolParity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_bit_identical_to_in_process(self, store_path, reference,
                                         queries, workers):
        with WorkerPool(store_path, WorkerPoolConfig(workers=workers)) as pool:
            assert len(pool) == NUM_OGS
            for query in queries:
                exact = pool.knn(query, K)
                assert not exact.degraded and exact.failed_shards == []
                assert hits_of(exact) == expected_knn(reference, query, K)
                ranged = pool.range_query(query, RADIUS)
                assert hits_of(ranged) == expected_range(
                    reference, query, RADIUS)
                approx = pool.knn(query, K, search_budget=24)
                assert hits_of(approx) == expected_knn(
                    reference, query, K, budget=24)

    def test_monolithic_store_served_as_one_shard(self, tmp_path, corpus,
                                                  queries):
        from repro.core.index import STRGIndex
        from repro.storage.store import open_store

        mono = STRGIndex(STRGIndexConfig(n_clusters=4))
        for i, og in enumerate(corpus):
            mono.insert(og, clip_ref=f"clip-{i}")
        store = open_store(os.path.join(tmp_path, "mono.strg"))
        store.write_index(mono)
        loaded = open_store(store.path).load_index(mmap=True)
        with WorkerPool(store.path, WorkerPoolConfig(workers=3)) as pool:
            assert pool.num_slots == 1  # one shard caps the slots
            for query in queries[:2]:
                got = hits_of(pool.knn(query, K))
                assert got == expected_knn(loaded, query, K)

    def test_requires_columnar_store(self, tmp_path):
        with pytest.raises(StorageError, match="convert"):
            WorkerPool(os.path.join(tmp_path, "nothing.npz"))

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            WorkerPoolConfig(workers=0)
        with pytest.raises(InvalidParameterError):
            WorkerPoolConfig(replicas=0)

    def test_unstarted_pool_raises(self, store_path, queries):
        pool = WorkerPool(store_path, WorkerPoolConfig(workers=1))
        with pytest.raises(IndexStateError, match="empty worker pool"):
            pool.knn(queries[0], K)


class TestFailover:
    def test_dead_slot_degrades_but_stays_correct(self, store_path, queries):
        config = WorkerPoolConfig(workers=2, restart=False,
                                  heartbeat_interval=30.0)
        with WorkerPool(store_path, config) as pool:
            lost = sorted(pool.assignment[0])
            # Answer key with per-shard attribution, taken before the kill.
            wanted = {}
            for i, query in enumerate(queries):
                full = pool.knn(query, NUM_OGS)
                wanted[i] = [(h.distance, h.shard, h.row, h.clip_ref)
                             for h in full.hits if h.shard not in lost][:K]
            pool.kill_worker(0)
            for i, query in enumerate(queries):
                got = pool.knn(query, K)
                assert got.degraded and got.failed_shards == lost
                assert [(h.distance, h.shard, h.row, h.clip_ref)
                        for h in got.hits] == wanted[i]
            with pytest.raises(Exception):
                pool.knn(queries[0], K, degrade=False)
            health = pool.health()
            assert health["status"] in ("degraded", "partial")

    def test_dead_slot_is_asked_once_per_request(self, store_path, queries):
        """A slot with no live replica fails its shards on its one
        exchange per request, degraded or raising."""
        config = WorkerPoolConfig(workers=2, restart=False,
                                  heartbeat_interval=30.0)
        with WorkerPool(store_path, config) as pool:
            pool.kill_worker(0)
            asked: list[int] = []
            exchange = pool._exchange

            def counted(slot, request, *shards):
                asked.append(slot)
                return exchange(slot, request, *shards)

            pool._exchange = counted
            for query in queries:
                got = pool.knn(query, K, search_budget=24)
                assert got.failed_shards == sorted(pool.assignment[0])
                got = pool.range_query(query, RADIUS)
                assert got.failed_shards == sorted(pool.assignment[0])
            assert asked.count(0) == 2 * len(queries)
            with pytest.raises(ShardUnavailableError):
                pool.knn(queries[0], K, search_budget=24, degrade=False)
            assert asked.count(0) == 2 * len(queries) + 1

    def test_probe_skips_a_dead_slot(self, store_path):
        """The prune-bound probe goes only to slots with a live replica:
        3 slots over 4 shards, one killed, 8 exact queries."""
        from repro import observability

        queries = generate_synthetic_ogs(SyntheticConfig(num_ogs=8, seed=7))
        config = WorkerPoolConfig(workers=3, restart=False,
                                  heartbeat_interval=30.0)
        with WorkerPool(store_path, config) as pool:
            lost = sorted(pool.assignment[0])
            wanted = []
            for query in queries:
                full = pool.knn(query, NUM_OGS)
                wanted.append([(h.distance, h.shard, h.row, h.clip_ref)
                               for h in full.hits if h.shard not in lost][:K])
            pool.kill_worker(0)
            probes: list[int] = []
            exchange = pool._exchange

            def counted(slot, request, *shards):
                if request.search_budget is not None:  # only probes
                    probes.append(slot)
                return exchange(slot, request, *shards)

            pool._exchange = counted
            observability.configure(enabled=True, reset_state=True)
            try:
                for query, want in zip(queries, wanted):
                    got = pool.knn(query, K)
                    assert got.failed_shards == lost
                    assert [(h.distance, h.shard, h.row, h.clip_ref)
                            for h in got.hits] == want
                failures = observability.metrics().get(
                    "net.probe_failures", 0)
            finally:
                observability.configure(enabled=False, reset_state=True)
            assert len(probes) == len(queries) and 0 not in probes
            assert failures == 0

    def test_replica_failover_is_not_degraded(self, store_path, reference,
                                              queries):
        config = WorkerPoolConfig(workers=1, replicas=2, restart=False,
                                  heartbeat_interval=30.0)
        with WorkerPool(store_path, config) as pool:
            pool.kill_worker(0, replica=0)
            for query in queries:
                got = pool.knn(query, K)
                assert not got.degraded
                assert hits_of(got) == expected_knn(reference, query, K)

    def test_supervisor_respawns_crashed_worker(self, store_path, reference,
                                                queries):
        config = WorkerPoolConfig(workers=2, restart=True,
                                  heartbeat_interval=0.2)
        with WorkerPool(store_path, config) as pool:
            pool.kill_worker(0)
            assert pool.await_healthy(timeout=30.0)
            assert any(h.restarts > 0
                       for row in pool._handles for h in row)
            for query in queries[:2]:
                got = pool.knn(query, K)
                assert not got.degraded
                assert hits_of(got) == expected_knn(reference, query, K)


def _running(pid):
    """``pid`` names a process that has not ended (a zombie waiting
    for its reaper has)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestPreloadedWorkers:
    """Every worker forks from the package's one fork server, which
    imported ``repro.serving.workers`` before the worker started."""

    def test_started_and_respawned_workers_are_preloaded(self, store_path):
        config = WorkerPoolConfig(workers=2, restart=True,
                                  heartbeat_interval=0.2)
        with WorkerPool(store_path, config) as pool:
            assert [w["preloaded"] for w in pool.health()["workers"]] \
                == [True, True]
            handle = pool._handles[0][0]
            with handle.lock:
                handle.conn.send(("ping",))
                assert handle.conn.poll(30.0)
                kind, payload = handle.conn.recv()
            assert kind == "ok" and payload["preloaded"]
            assert payload["pid"] == handle.process.pid
            killed = handle.process.pid
            pool.kill_worker(0)
            assert pool.await_healthy(timeout=30.0)
            worker = pool.health()["workers"][0]
            assert worker["pid"] != killed and worker["preloaded"]

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_preloaded_with_the_package_on_sys_path_only(self, store_path,
                                                         tmp_path):
        """No ``PYTHONPATH``: the fork server must still import the
        package from the coordinator's path, and it must end when the
        coordinator does."""
        import json
        import subprocess
        import sys

        src = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                           os.pardir, "src"))
        script = "\n".join([
            "import json, sys",
            f"sys.path.insert(0, {src!r})",
            "from multiprocessing import forkserver",
            "from repro.serving import WorkerPool, WorkerPoolConfig",
            f"with WorkerPool({store_path!r},",
            "                WorkerPoolConfig(workers=1)) as pool:",
            "    workers = pool.health()['workers']",
            "print(json.dumps({",
            "    'preloaded': [w['preloaded'] for w in workers],",
            "    'pids': [w['pid'] for w in workers]",
            "            + [forkserver._forkserver._forkserver_pid]}))",
        ])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.splitlines()[-1])
        assert report["preloaded"] == [True]
        deadline = time.monotonic() + 5.0
        while any(_running(pid) for pid in report["pids"]):
            assert time.monotonic() < deadline, \
                "a worker or the fork server outlived its coordinator"
            time.sleep(0.05)


@pytest.fixture
def stopped_workers():
    """``stopped_workers(pool)``: a context that holds every worker
    process of ``pool`` stopped (``SIGSTOP``), so no reply can reach a
    pipe before the coordinator polls it, however the host schedules
    the two.  A poisoned handle must kill its stopped process itself,
    so on the way out only the others are continued.  At teardown,
    after the test's own checks, any stopped process still alive is
    killed, so a poisoned worker left alive fails its test instead of
    hanging the session."""
    stopped = []

    @contextlib.contextmanager
    def stop(pool):
        held = [(handle, handle.process)
                for row in pool._handles for handle in row]
        for _, process in held:
            os.kill(process.pid, signal.SIGSTOP)
            stopped.append(process)
        try:
            yield
        finally:
            for handle, process in held:
                if not handle.poisoned and process.is_alive():
                    os.kill(process.pid, signal.SIGCONT)

    yield stop
    for process in stopped:
        if process.is_alive():
            process.kill()
            process.join(timeout=5.0)


class TestTimeoutPoisoning:
    """A request timeout must retire the worker's pipe outright.

    Reusing the handle after a timeout would hand the worker's eventual
    (late) reply to the *next* request — silently wrong results.  The
    regression contract: after a timeout the handle is poisoned (pipe
    closed, process gone) and later queries are *degraded*, never
    answered with a stale payload.
    """

    def test_timeout_retires_the_pipe(self, store_path, queries,
                                      stopped_workers):
        config = WorkerPoolConfig(workers=1, restart=False,
                                  heartbeat_interval=30.0)
        with WorkerPool(store_path, config) as pool:
            pool.config.request_timeout = 1e-6  # every reply "too late"
            with stopped_workers(pool):
                got = pool.knn(queries[0], K)
            assert got.degraded and got.hits == []
            handle = pool._handles[0][0]
            assert handle.poisoned and not handle.alive
            assert handle.conn is None
            assert not handle.process.is_alive()
            # With the pipe gone, the late reply can never be mis-read
            # as the answer to a later request: still degraded, never
            # the previous query's hits.
            pool.config.request_timeout = 120.0
            again = pool.knn(queries[1], K)
            assert again.degraded and again.hits == []

    def test_supervisor_respawns_poisoned_worker(self, store_path,
                                                 reference, queries,
                                                 stopped_workers):
        config = WorkerPoolConfig(workers=2, restart=True,
                                  heartbeat_interval=0.2)
        with WorkerPool(store_path, config) as pool:
            pool.config.request_timeout = 1e-6
            with stopped_workers(pool):
                assert pool.knn(queries[0], K).degraded
            pool.config.request_timeout = 120.0
            assert pool.await_healthy(timeout=30.0)
            for query in queries[:2]:
                again = pool.knn(query, K)
                assert not again.degraded
                assert hits_of(again) == expected_knn(reference, query, K)


class TestStoppedWorkerEnds:
    def test_shutdown_ends_a_stopped_worker(self, store_path,
                                            stopped_workers):
        """A stopped worker can neither read ``stop`` nor act on
        ``SIGTERM``; ``shutdown()`` still ends it after its grace
        period.  (The fixture's teardown kills a survivor, so a failure
        here ends the run instead of hanging it.)"""
        config = WorkerPoolConfig(workers=1, restart=False,
                                  heartbeat_interval=30.0)
        with WorkerPool(store_path, config) as pool:
            process = pool._handles[0][0].process
            with stopped_workers(pool):
                pool.shutdown()
                assert not process.is_alive()


class TestShardSubset:
    """The coordinator sends a worker only its non-empty shards, so a
    worker whose assigned shards include empty ones is asked for a
    strict subset of them; the exact request runs through one index
    over just those shards, in process here."""

    def test_exact_subset_request_is_the_top_k_of_those_shards(
            self, store_path, queries):
        from repro.distance.batch import one_vs_many
        from repro.search.request import SearchRequest
        from repro.serving.workers import _ShardSet
        from repro.storage.store import open_store

        store = open_store(store_path)
        labels = store.row_labels()
        shard_set = _ShardSet(store_path, [0, 1, 2, 3], mmap=True)
        subset = [store.load_shard(s) for s in (1, 3)]
        records = [record for index in subset
                   for record in index.leaf_records()]
        metric = subset[0].metric_distance
        for query in queries:
            found = one_vs_many(metric, query.values,
                                [record.og.values for record in records])
            brute = sorted(
                (float(d), *labels.locate(record.og.og_id), record.clip_ref)
                for d, record in zip(found, records))
            for k in (1, K, 40):
                reply = shard_set.search(SearchRequest.knn(query, k),
                                         {3: None, 1: None})
                merged = sorted(reply["hits"],
                                key=lambda h: (h[0], h[1], h[2]))
                assert merged == brute[:k]
        combined = shard_set._combined[1]
        assert combined.num_shards == 2
        shard_set.search(SearchRequest.knn(queries[0], K), {1: None, 3: None})
        assert shard_set._combined[1] is combined


class TestTierlessStore:
    """A worker over a store written without sketch tiers builds its
    shards' tiers over the reference set of every shard — the one the
    reopened store fits in process — and keeps only its own shards."""

    @pytest.fixture(scope="class")
    def store_path(self, tmp_path_factory, corpus):
        """The module's 4-shard snapshot with its reference columns left
        out."""
        from repro.storage.store import open_store
        from tests.store_layout import without_references

        index = ShardedIndex(ShardedIndexConfig(
            num_shards=4, placement="affine",
            index=STRGIndexConfig(n_clusters=4)))
        index.build(corpus,
                    clip_refs=[f"clip-{i}" for i in range(len(corpus))])
        store = open_store(os.path.join(
            tmp_path_factory.mktemp("tierless"), "corpus.strg"))
        store.write_index(without_references(index))
        return store.path

    def test_worker_fits_the_corpus_references_and_keeps_its_shards(
            self, store_path, monkeypatch):
        from repro.distance.bounds import distinct_reference_sets
        from repro.serving.workers import _ShardSet
        from repro.storage.columnar import ColumnarStore
        from repro.storage.store import open_store

        loaded = []
        load_shard = ColumnarStore.load_shard

        def spy(self, ordinal, *args, **kwargs):
            index = load_shard(self, ordinal, *args, **kwargs)
            loaded.append((ordinal, weakref.ref(index)))
            return index

        monkeypatch.setattr(ColumnarStore, "load_shard", spy)
        shard_set = _ShardSet(store_path, [1, 3], mmap=True)
        gc.collect()
        assert sorted(o for o, _ in loaded) == [0, 1, 2, 3]
        assert sorted(o for o, ref in loaded if ref() is not None) == [1, 3]
        in_process = open_store(store_path).load_index(mmap=True)
        fitted = in_process.shards[0].sketch_tier(in_process.reference_set)
        sets, _ = distinct_reference_sets(
            [fitted.pivots,
             *(shard_set.shards[o].sketch_tier().pivots for o in (1, 3))])
        assert len(sets) == 1


def write_sharded_store(path, ogs, num_shards):
    from repro.storage.store import open_store

    index = ShardedIndex(ShardedIndexConfig(
        num_shards=num_shards, placement="affine",
        index=STRGIndexConfig(n_clusters=4)))
    index.build(ogs, clip_refs=[f"clip-{i}" for i in range(len(ogs))])
    store = open_store(path)
    store.write_index(index)
    return store.path


class TestReload:
    def test_reload_rejects_shard_set_change(self, tmp_path, corpus):
        path = write_sharded_store(
            os.path.join(tmp_path, "r.strg"), corpus[:32], 2)
        with WorkerPool(path, WorkerPoolConfig(workers=2)) as pool:
            before = pool.snapshot_version
            write_sharded_store(path, corpus[:32], 3)
            with pytest.raises(StorageError, match="shard set"):
                pool.reload()
            # A rejected reload must not move the published version.
            assert pool.snapshot_version == before
            # Over HTTP the operator's store and the running pool
            # disagree: a typed conflict, not a 500.
            with NetFrontend(pool) as fe:
                status, body = request_json(
                    "127.0.0.1", fe.port, "POST", "/admin/reload", {})
                assert status == 409 and body["type"] == "StorageError"
                assert "shard set" in body["error"]
                status, health = request_json(
                    "127.0.0.1", fe.port, "GET", "/health")
                assert status == 200 and health["snapshot"] == before

    def test_reload_publishes_version_only_after_acks(self, tmp_path,
                                                      corpus, queries):
        path = write_sharded_store(
            os.path.join(tmp_path, "r2.strg"), corpus[:32], 2)
        with WorkerPool(path, WorkerPoolConfig(workers=2)) as pool:
            before = pool.snapshot_version
            assert len(pool) == 32
            write_sharded_store(path, corpus[:48], 2)
            # The snapshot on disk changed, but nothing reloaded yet:
            # responses must keep carrying the version they are served
            # from, i.e. the old one.
            assert pool.snapshot_version == before
            assert pool.knn(queries[0], K).snapshot_version == before
            # corpus[40] exists only in the new snapshot: an answer may
            # carry the new digest only if it was read from it.
            stamped: list[tuple[str, float]] = []
            done = threading.Event()

            def hammer():
                while not done.is_set():
                    got = pool.knn(corpus[40], 1)
                    stamped.append((got.snapshot_version,
                                    got.hits[0].distance))

            reader = threading.Thread(target=hammer)
            reader.start()
            try:
                after = pool.reload()
                time.sleep(0.05)
            finally:
                done.set()
                reader.join(timeout=30.0)
            assert after != before
            assert pool.snapshot_version == after
            assert {version for version, _ in stamped} <= {before, after}
            assert stamped[-1][0] == after
            assert all(distance == 0.0 for version, distance in stamped
                       if version == after)
            assert len(pool) == 48
            got = pool.knn(queries[0], K)
            assert not got.degraded and len(got.hits) == K


class TestHttpFrontend:
    @pytest.fixture(scope="class")
    def frontend(self, store_path):
        with WorkerPool(store_path, WorkerPoolConfig(workers=2)) as pool:
            with NetFrontend(pool, config=NetConfig()) as served:
                yield served

    def get(self, frontend, path):
        return request_json("127.0.0.1", frontend.port, "GET", path)

    def post(self, frontend, path, payload):
        return request_json("127.0.0.1", frontend.port, "POST", path,
                            payload)

    def test_knn_round_trip_bit_identical(self, frontend, reference,
                                          queries):
        for query in queries:
            status, body = self.post(frontend, "/knn", {
                "query": query.values.tolist(), "k": K})
            assert status == 200
            assert body["snapshot"] == frontend.backend.snapshot_version
            assert not body["degraded"] and body["failed_shards"] == []
            assert body["latency"] > 0
            got = [(h["distance"], h["clip_ref"]) for h in body["hits"]]
            assert got == expected_knn(reference, query, K)
            assert all(set(h) == {"distance", "shard", "row", "clip_ref"}
                       for h in body["hits"])

    def test_range_and_query_envelope(self, frontend, reference, queries):
        query = queries[0]
        status, body = self.post(frontend, "/range", {
            "query": query.values.tolist(), "radius": RADIUS})
        assert status == 200
        got = [(h["distance"], h["clip_ref"]) for h in body["hits"]]
        assert got == expected_range(reference, query, RADIUS)
        status, enveloped = self.post(frontend, "/query", {
            "op": "range", "query": query.values.tolist(),
            "radius": RADIUS})
        assert status == 200 and enveloped["hits"] == body["hits"]
        status, body = self.post(frontend, "/query", {
            "op": "scan", "query": query.values.tolist()})
        assert status == 400 and "scan" in body["error"]

    def test_budgeted_knn_over_http(self, frontend, reference, queries):
        query = queries[0]
        status, body = self.post(frontend, "/knn", {
            "query": query.values.tolist(), "k": K, "search_budget": 24})
        assert status == 200
        got = [(h["distance"], h["clip_ref"]) for h in body["hits"]]
        assert got == expected_knn(reference, query, K, budget=24)

    def test_health_and_metrics(self, frontend):
        status, health = self.get(frontend, "/health")
        assert status == 200 and health["status"] == "ok"
        assert health["workers_alive"] == 2
        assert health["service"]["workers_alive"] == 8
        assert not health["service"]["stopped"]
        status, text = self.get(frontend, "/metrics")
        assert status == 200 and isinstance(text, str) and text

    def test_http_errors(self, frontend, queries):
        query = queries[0].values.tolist()
        status, body = self.get(frontend, "/nope")
        assert status == 404
        status, body = request_json("127.0.0.1", frontend.port, "GET",
                                    "/knn")
        assert status == 405
        status, body = self.post(frontend, "/knn", {"k": K})
        assert status == 400 and "query" in body["error"]
        status, body = self.post(frontend, "/knn", {"query": query})
        assert status == 400 and "'k'" in body["error"]
        status, body = self.post(frontend, "/knn",
                                 {"query": query, "k": -2})
        assert status == 400
        status, body = self.post(frontend, "/knn",
                                 {"query": query, "k": K, "deadline": 0})
        assert status == 400
        status, body = self.post(frontend, "/ingest", {"frames": []})
        assert status == 501  # frozen snapshot: no ingest service attached

    def test_non_numeric_inputs_are_400_not_500(self, frontend, queries):
        query = queries[0].values.tolist()
        for payload in (
            {"query": query, "k": "five"},
            {"query": query, "k": None},
            {"query": query, "k": K, "search_budget": "lots"},
            {"query": query, "k": K, "deadline": "soon"},
            {"query": query, "k": K, "deadline": float("nan")},
        ):
            status, body = self.post(frontend, "/knn", payload)
            assert status == 400, (payload, body)
        status, body = self.post(frontend, "/range",
                                 {"query": query, "radius": "wide"})
        assert status == 400 and "radius" in body["error"]

    def test_malformed_content_length_is_400(self, frontend):
        import socket

        with socket.create_connection(("127.0.0.1", frontend.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /knn HTTP/1.1\r\nHost: t\r\n"
                         b"Content-Length: banana\r\n\r\n")
            reply = sock.recv(65536)
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_oversized_body_answers_413(self, frontend):
        import socket

        from repro.serving.net import MAX_BODY_BYTES

        with socket.create_connection(("127.0.0.1", frontend.port),
                                      timeout=10) as sock:
            head = (f"POST /ingest HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n")
            sock.sendall(head.encode("latin-1"))
            reply = sock.recv(65536)
        assert reply.startswith(b"HTTP/1.1 413 ")

    def test_shard_assignment_has_no_admin_route(self, frontend):
        status, body = self.post(frontend, "/admin/rebalance", {})
        assert status == 404 and "no route" in body["error"]

    def test_admin_reload_keeps_snapshot_version(self, frontend):
        before = frontend.backend.snapshot_version
        status, body = self.post(frontend, "/admin/reload", {})
        assert status == 200 and body["snapshot"] == before


class _StubJob:
    job_id = "job-1"
    clip_name = "clip-http"

    class state:
        value = "queued"


class _StubIngest:
    def submit(self, video, *, job_id=None):
        assert video.frames.shape[-1] == 3
        return _StubJob()

    def health(self):
        return {"queue_depth": 0}


class TestFrontendAdmissionAndDeadlines(FrontContract):
    """The front's contract over HTTP (503 / 504 / 400), plus the
    routes only a frontend has."""

    transport = HttpFront

    def test_ingest_proxy_accepts_jobs(self):
        frames = [[[[0, 0, 0]] * 4] * 4] * 2  # (2, 4, 4, 3) uint8
        with NetFrontend(StubBackend(), ingest=_StubIngest(),
                         config=NetConfig()) as fe:
            status, body = request_json(
                "127.0.0.1", fe.port, "POST", "/ingest",
                {"frames": frames, "fps": 5.0, "name": "cam-1"})
            assert status == 202
            assert body == {"job": "job-1", "clip": "clip-http",
                            "state": "queued"}
            status, body = request_json(
                "127.0.0.1", fe.port, "POST", "/ingest", {})
            assert status == 400 and "frames" in body["error"]
            status, health = request_json(
                "127.0.0.1", fe.port, "GET", "/health")
            assert status == 200 and health["ingest"] == {"queue_depth": 0}


    @pytest.mark.parametrize("extra", [
        {"job_id": "../../escaped"},
        {"job_id": ".hidden"},
        {"job_id": "x" * 129},
        {"job_id": {"a": 1}},
        {"frames": [[[[300, 0, 0]]]]},
        {"frames": [[[[-1, 0, 0]]]]},
        {"frames": [[[[1.5, 0, 0]]]]},
        {"frames": [[[["a", 0, 0]]]]},
        {"fps": "nan"},
        {"fps": float("inf")},
    ], ids=repr)
    def test_hostile_ingest_bodies_are_400(self, tmp_path, extra):
        """An upload the service must not take is a typed 400: a job id
        that would name a spool file outside the spool directory, or is
        no string at all; frame values that are not uint8; a fps that is
        not a finite positive number.  None of them spools anything."""
        from repro.core.index import STRGIndex
        from repro.serving import IngestService, LiveIndex

        frames = [[[[0, 0, 0]] * 4] * 4] * 2  # (2, 4, 4, 3) uint8
        state = tmp_path / "a" / "state"
        with IngestService(LiveIndex(STRGIndex()), state_dir=state) as ingest:
            with NetFrontend(StubBackend(), ingest=ingest) as fe:
                status, body = request_json(
                    "127.0.0.1", fe.port, "POST", "/ingest",
                    {"frames": frames, **extra})
        assert status == 400, body
        assert body["type"] == "InvalidParameterError"
        assert next(iter(extra)) in body["error"]
        assert list(tmp_path.rglob("*.npz")) == []

    def test_missing_capabilities_answer_501(self):
        """Admin routes are capabilities of the backend, /ingest of the
        deployment: absent, each answers a typed 501."""
        with NetFrontend(StubBackend()) as fe:
            for path in ("/admin/reload", "/ingest"):
                status, body = request_json(
                    "127.0.0.1", fe.port, "POST", path, {})
                assert status == 501, path
                assert body["type"] == "UnsupportedOperation"
            status, health = request_json(
                "127.0.0.1", fe.port, "GET", "/health")
            assert status == 200 and health["status"] == "ok"
            assert health["service"]["workers_alive"] == 8


class TestFrontendStop:
    def test_stop_cancels_idle_keep_alive_connections(self, caplog):
        """stop() must cancel and await the handler of an idle
        keep-alive socket, not close the loop under a pending task."""
        import gc
        import logging
        import socket

        def service_threads():
            return [t for t in threading.enumerate()
                    if t.name.startswith("query-worker")]

        frontend = NetFrontend(StubBackend(), config=NetConfig())
        assert frontend.service is None and not service_threads()
        frontend.start_in_thread()
        assert len(service_threads()) == 8
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection(("127.0.0.1", frontend.port),
                                          timeout=10) as sock:
                sock.sendall(b"GET /health HTTP/1.1\r\nHost: t\r\n\r\n")
                assert sock.recv(65536).startswith(b"HTTP/1.1 200 ")
                # The connection is now idle, parked in readline().
                assert len(frontend._connections) == 1
                frontend.stop()
                assert sock.recv(65536) == b""       # EOF, not a hang
            gc.collect()
        assert not frontend._connections and not service_threads()
        assert "Task was destroyed but it is pending" not in caplog.text
        assert not caplog.records


def served_connections(monkeypatch) -> list:
    """Every connection a ``NetFrontend`` started after this call
    accepts, by the client's address."""
    opened: list = []
    serve = NetFrontend._serve_connection

    async def counted(self, reader, writer):
        opened.append(writer.get_extra_info("peername"))
        await serve(self, reader, writer)

    monkeypatch.setattr(NetFrontend, "_serve_connection", counted)
    return opened


class TestKeepAliveClient:
    """``request_json`` keeps one idle connection per thread and server,
    and never reuses one its server closed or an exchange broke."""

    KNN_BODY = {"query": QUERY.tolist(), "k": 1}

    def test_sequential_calls_share_one_connection(self, monkeypatch):
        opened = served_connections(monkeypatch)
        with NetFrontend(StubBackend()) as fe:
            for _ in range(50):
                status, _ = request_json("127.0.0.1", fe.port, "POST",
                                         "/knn", self.KNN_BODY)
                assert status == 200
        assert len(opened) == 1

    def test_a_restarted_server_on_the_same_port_answers(self,
                                                         monkeypatch):
        opened = served_connections(monkeypatch)
        with NetFrontend(StubBackend()) as fe:
            port = fe.port
            assert request_json("127.0.0.1", port, "GET",
                                "/health")[0] == 200
        with NetFrontend(StubBackend(), config=NetConfig(port=port)):
            assert request_json("127.0.0.1", port, "GET",
                                "/health")[0] == 200
        assert len(opened) == 2

    def test_a_timed_out_call_drops_its_socket(self, monkeypatch):
        opened = served_connections(monkeypatch)
        backend = StubBackend()
        with NetFrontend(backend) as fe:
            assert request_json("127.0.0.1", fe.port, "GET",
                                "/health")[0] == 200
            backend.release.clear()
            with pytest.raises(TimeoutError):
                request_json("127.0.0.1", fe.port, "POST", "/knn",
                             self.KNN_BODY, timeout=0.2)
            backend.release.set()
            status, body = request_json("127.0.0.1", fe.port, "POST",
                                        "/knn", self.KNN_BODY)
            assert status == 200 and len(body["hits"]) == 1
        assert len(opened) == 2

    def test_sender_close_leaves_no_socket_open(self, monkeypatch):
        from repro.search.request import SearchRequest
        from repro.serving import HttpSender

        opened = served_connections(monkeypatch)
        with NetFrontend(StubBackend()) as fe, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with HttpSender("127.0.0.1", fe.port, connections=2) as send:
                futures = [send(SearchRequest.knn(QUERY, 1))
                           for _ in range(8)]
                assert all(len(f.result(10.0).hits) == 1 for f in futures)
                assert 1 <= len(fe._connections) <= 2
            # Each sender thread closed its connection as it ended: the
            # server reads EOF on every one and ends its handler.
            deadline = time.monotonic() + 5.0
            while fe._connections:
                assert time.monotonic() < deadline, "a socket stayed open"
                time.sleep(0.01)
            gc.collect()
        assert 1 <= len(opened) <= 2
        # Closed by the client, not left to the garbage collector.
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]


class TestServeHttpCli:
    def test_serve_http_smoke(self, store_path, capsys):
        from repro.cli import main

        code = main(["serve", store_path, "--http", "127.0.0.1:0",
                     "--workers", "2", "--duration", "0.6",
                     "--rate", "40"])
        assert code == 0
        out = capsys.readouterr().out
        assert "listening on http://127.0.0.1:" in out
        assert "snapshot" in out

    def test_serve_http_rejects_bad_spec(self, store_path, tmp_path,
                                         capsys):
        from repro.cli import main

        assert main(["serve", store_path, "--http", "nocolon"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_serve_http_rejects_npz(self, tmp_path, capsys):
        from repro.cli import main

        archive = os.path.join(tmp_path, "mono.npz")
        open(archive, "wb").close()   # detection reads names only
        v1_store = os.path.join(tmp_path, "old.strg")
        os.mkdir(v1_store)
        open(os.path.join(v1_store, "manifest.json"), "wb").close()
        for path in (archive, v1_store):
            assert main(["serve", path, "--http", "127.0.0.1:0"]) == 3
            err = capsys.readouterr().err
            assert "strg-index convert" in err and "15.0.0" in err
        assert sorted(os.listdir(tmp_path)) == ["mono.npz", "old.strg"]
        assert os.listdir(v1_store) == ["manifest.json"]
        assert main(["serve", os.path.join(tmp_path, "absent"),
                     "--http", "127.0.0.1:0"]) == 2
        assert "none at" in capsys.readouterr().err

    def test_serve_has_no_shards_option(self, store_path, capsys):
        """Both backends serve the shards the store holds; the count is
        chosen when the store is written (``build --shards``)."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_:
            main(["serve", store_path, "--http", "127.0.0.1:0",
                  "--shards", "2"])
        assert exit_.value.code == 2
        assert "--shards" in capsys.readouterr().err

    def test_serve_http_ingest_makes_uploads_queryable(self, store_path):
        """``serve --http --ingest``: a LiveIndex + IngestService behind
        the one front — an uploaded clip is answered on the same port."""
        import signal
        import subprocess
        import sys

        from repro.pipeline import VideoPipeline
        from repro.video.synthesize import (
            Actor,
            BackgroundSpec,
            SceneRenderer,
            linear_trajectory,
            make_vehicle,
        )

        scene = SceneRenderer(BackgroundSpec(width=64, height=48,
                                             base_color=(100, 100, 100)))
        scene.add_actor(Actor(linear_trajectory((6.0, 20.0), (42.0, 20.0), 6),
                              make_vehicle((200, 40, 40))))
        video = scene.render(6, name="cam-7")
        probe = VideoPipeline().process_clip(video).object_graphs[0]
        knn = {"query": probe.values.tolist(), "k": 1}

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", store_path,
             "--http", "127.0.0.1:0", "--ingest", "--ingest-jobs", "0",
             "--duration", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        try:
            port = None
            for line in server.stdout:
                if "listening on http://127.0.0.1:" in line:
                    port = int(line.split("127.0.0.1:")[1].split()[0])
                if "until interrupted" in line:
                    break
            assert port is not None, "server never came up"
            status, before = request_json("127.0.0.1", port, "POST",
                                          "/knn", knn)
            assert status == 200 and before["hits"][0]["distance"] > 0
            status, job = request_json(
                "127.0.0.1", port, "POST", "/ingest",
                {"frames": video.frames.tolist(), "name": "cam-7"})
            assert status == 202 and job["clip"] == "cam-7"
            deadline = time.monotonic() + 30.0
            while True:
                status, health = request_json("127.0.0.1", port, "GET",
                                              "/health")
                if health["ingest"]["indexed_jobs"] == 1:
                    break
                assert time.monotonic() < deadline, health
                time.sleep(0.05)
            status, after = request_json("127.0.0.1", port, "POST",
                                         "/knn", knn)
            assert status == 200 and after["snapshot"] > before["snapshot"]
            hit = after["hits"][0]
            assert hit["distance"] == 0.0
            assert hit["clip_ref"]["video"] == "cam-7"
        finally:
            server.send_signal(signal.SIGINT)
            out, _ = server.communicate(timeout=60.0)
        assert server.returncode == 0, out
        assert "1 job(s) indexed" in out
