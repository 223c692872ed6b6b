"""Concurrency contracts: snapshot isolation under live inserts, metrics
registry exactness under contention, and distance-cache thread safety."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.index import STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.batch import one_vs_many
from repro.distance.cache import DistanceCache
from repro.distance.eged import MetricEGED
from repro.observability.registry import MetricsRegistry
from repro.search.request import SearchRequest
from repro.serving import (
    LiveIndex,
    QueryService,
    ServiceConfig,
    ShardedIndex,
    ShardedIndexConfig,
)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic_ogs(SyntheticConfig(num_ogs=80, seed=0))


def _run_threads(workers):
    threads = [threading.Thread(target=fn) for fn in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestSnapshotIsolation:
    def test_queries_survive_concurrent_inserts_and_swaps(self, corpus):
        base, incoming = corpus[:48], corpus[48:]
        index = ShardedIndex(ShardedIndexConfig(
            num_shards=2, placement="hash",
            index=STRGIndexConfig(n_clusters=4),
        ))
        index.build(base)
        live = LiveIndex(index)
        errors: list[BaseException] = []
        versions_seen: list[list[int]] = [[], []]

        def writer():
            try:
                for i, og in enumerate(incoming):
                    live.insert(og)
                    if (i + 1) % 8 == 0:
                        live.compact()
                live.compact()
            except BaseException as exc:  # pragma: no cover - fails test
                errors.append(exc)

        def reader(slot):
            def run():
                try:
                    for i in range(24):
                        response = service.knn(corpus[i % 8], 5)
                        # Snapshot isolation: every response is complete
                        # and stamped with the snapshot that served it.
                        assert len(response.hits) == 5
                        assert not response.degraded
                        versions_seen[slot].append(
                            response.snapshot_version)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)
            return run

        with QueryService(live, ServiceConfig(workers=2,
                                              queue_depth=64)) as service:
            _run_threads([writer, reader(0), reader(1)])

        assert not errors, errors
        assert len(live) == len(corpus)
        assert live.pending_writes == 0
        for seen in versions_seen:
            # Versions are monotone per reader: a later request never
            # lands on an older snapshot.
            assert seen == sorted(seen)
        final = live.search(
            SearchRequest.knn(incoming[-1], 1, degrade=True))
        assert final.hits[0][1].og_id == incoming[-1].og_id

    def test_compactions_serialize(self, corpus):
        live = LiveIndex(_tiny_index(corpus[:24]))
        for og in corpus[24:40]:
            live.insert(og)
        results: list[int] = []

        def compactor():
            results.append(live.compact().version)

        _run_threads([compactor] * 4)
        # One compaction wins the buffer; the rest see an empty buffer
        # and return the published snapshot (same or newer version).
        assert len(live) == 40
        assert live.version == 2
        assert all(v == 2 for v in results)


def _tiny_index(ogs):
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=2, placement="hash", index=STRGIndexConfig(n_clusters=3),
    ))
    index.build(ogs)
    return index


class TestRegistryThreadSafety:
    THREADS = 8
    ITERATIONS = 5_000

    def test_counter_increments_are_exact(self):
        registry = MetricsRegistry()

        def work():
            counter = registry.counter("stress.counter")
            for _ in range(self.ITERATIONS):
                counter.inc()

        _run_threads([work] * self.THREADS)
        assert registry.value("stress.counter") == \
            self.THREADS * self.ITERATIONS

    def test_gauge_adjustments_are_exact(self):
        registry = MetricsRegistry()

        def work():
            gauge = registry.gauge("stress.gauge")
            for _ in range(self.ITERATIONS):
                gauge.inc(2.0)
                gauge.dec(1.0)

        _run_threads([work] * self.THREADS)
        assert registry.value("stress.gauge") == \
            pytest.approx(self.THREADS * self.ITERATIONS)

    def test_histogram_counts_are_exact(self):
        registry = MetricsRegistry()
        values = [0.0005, 0.003, 0.2, 7.0]

        def work():
            histogram = registry.histogram("stress.latency")
            for i in range(self.ITERATIONS):
                histogram.observe(values[i % len(values)])

        _run_threads([work] * self.THREADS)
        total = self.THREADS * self.ITERATIONS
        histogram = registry.histogram("stress.latency")
        assert histogram.count == total
        assert histogram.cumulative()[-1][1] == total
        assert histogram.total == pytest.approx(
            sum(values) / len(values) * total)

    def test_concurrent_creation_yields_one_instrument(self):
        registry = MetricsRegistry()
        instruments = []
        barrier = threading.Barrier(self.THREADS)

        def work():
            barrier.wait()
            instruments.append(registry.counter("race.counter"))

        _run_threads([work] * self.THREADS)
        assert len(set(map(id, instruments))) == 1
        assert len(registry) == 1

    def test_export_during_registration(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def register():
            for i in range(400):
                registry.counter(f"churn.{i}").inc()
            stop.set()

        def export():
            while not stop.is_set():
                registry.as_dict()
                registry.to_prometheus()

        _run_threads([register, export])
        assert len(registry.as_dict()) == 400


class TestDistanceCacheThreadSafety:
    def test_concurrent_lookups_stay_consistent(self):
        rng = np.random.default_rng(3)
        items = [rng.normal(size=(8, 2)) * 20 for _ in range(12)]
        queries = [rng.normal(size=(8, 2)) * 20 for _ in range(4)]
        distance = MetricEGED()
        expected = [one_vs_many(distance, q, items) for q in queries]

        cache = DistanceCache(max_entries=4096)
        failures: list[str] = []
        rounds = 8

        def work(offset):
            def run():
                for i in range(rounds):
                    qi = (i + offset) % len(queries)
                    got = cache.one_vs_many(distance, queries[qi], items)
                    if not np.array_equal(got, expected[qi]):
                        failures.append(f"mismatch for query {qi}")
            return run

        _run_threads([work(n) for n in range(6)])
        assert not failures, failures
        stats = cache.stats
        lookups = 6 * rounds * len(items)
        # Counters stay exact under contention: every lookup is either a
        # hit or a miss, and every distinct pair is computed at most the
        # number of threads that raced its first miss.
        assert stats.hits + stats.misses == lookups
        assert stats.misses >= len(queries) * len(items)
        assert stats.bypasses == 0

    def test_eviction_under_contention(self):
        rng = np.random.default_rng(4)
        items = [rng.normal(size=(6, 2)) * 20 for _ in range(16)]
        distance = MetricEGED()
        cache = DistanceCache(max_entries=8)

        def work(offset):
            def run():
                for i in range(6):
                    q = items[(i + offset) % len(items)]
                    cache.one_vs_many(distance, q, items)
            return run

        _run_threads([work(n) for n in range(4)])
        assert len(cache) <= 8
        assert cache.stats.evictions > 0

    def test_clear_is_safe_with_readers(self):
        rng = np.random.default_rng(5)
        items = [rng.normal(size=(6, 2)) * 20 for _ in range(8)]
        distance = MetricEGED()
        cache = DistanceCache()
        stop = threading.Event()
        errors: list[BaseException] = []

        def reader():
            try:
                while not stop.is_set():
                    cache.one_vs_many(distance, items[0], items)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def clearer():
            try:
                for _ in range(20):
                    cache.clear()
            finally:
                stop.set()

        _run_threads([reader, clearer])
        assert not errors, errors
