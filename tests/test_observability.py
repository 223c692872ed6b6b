"""Tests for ``repro.observability``: registry, tracer, facade and hooks."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import observability as obs
from repro.errors import InvalidParameterError
from repro.graph.object_graph import ObjectGraph
from repro.observability.registry import (
    CacheStats,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.observability.trace import Tracer


@pytest.fixture(autouse=True)
def clean_observability():
    """Every test runs against fresh, disabled observability state."""
    obs.configure(enabled=False, registry=MetricsRegistry(), tracer=Tracer())
    yield
    obs.configure(enabled=False, registry=MetricsRegistry(), tracer=Tracer())


def blob_ogs(k=3, n_per=5, seed=0):
    rng = np.random.default_rng(seed)
    ogs = []
    for c in range(k):
        center = np.array([c * 150.0, c * 90.0])
        for _ in range(n_per):
            steps = rng.normal(0, 2.0, size=(10, 2))
            ogs.append(ObjectGraph.from_values(center + np.cumsum(steps, 0)))
    return ogs


class TestRegistry:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        assert reg.value("a") == 5
        with pytest.raises(InvalidParameterError):
            reg.counter("a").inc(-1)

    def test_gauge_set_inc_dec(self):
        g = Gauge("g")
        g.set(2.5)
        g.inc()
        g.dec(0.5)
        assert g.value == 3.0

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(InvalidParameterError):
            reg.gauge("x")

    def test_histogram_buckets_cumulative(self):
        h = Histogram("h", buckets=(1.0, 2.0, 5.0))
        for v in (0.5, 1.5, 1.7, 3.0, 100.0):
            h.observe(v)
        assert h.count == 5
        assert h.cumulative() == [(1.0, 1), (2.0, 3), (5.0, 4),
                                  (float("inf"), 5)]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(InvalidParameterError):
            Histogram("bad", buckets=(2.0, 1.0))

    def test_as_dict_flat_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b.count").inc(2)
        reg.gauge("a.level").set(7)
        snap = reg.as_dict()
        assert snap == {"a.level": 7.0, "b.count": 2}
        assert list(snap) == sorted(snap)

    def test_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("distance.pairs_computed").inc(10)
        reg.histogram("query.latency", (0.1, 1.0)).observe(0.05)
        text = reg.to_prometheus()
        assert "# TYPE repro_distance_pairs_computed counter" in text
        assert "repro_distance_pairs_computed 10" in text
        assert 'repro_query_latency_bucket{le="0.1"} 1' in text
        assert 'repro_query_latency_bucket{le="+Inf"} 1' in text
        assert "repro_query_latency_count 1" in text

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.reset()
        assert reg.value("a", default=None) is None


class TestTracer:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner1"):
                pass
            with tracer.span("inner2"):
                with tracer.span("leaf"):
                    pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner1", "inner2"]
        assert [c.name for c in root.children[1].children] == ["leaf"]

    def test_jsonl_parent_links(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        records = [json.loads(line)
                   for line in tracer.to_jsonl().strip().splitlines()]
        by_name = {r["name"]: r for r in records}
        assert by_name["a"]["parent_id"] is None
        assert by_name["b"]["parent_id"] == by_name["a"]["span_id"]
        assert by_name["a"]["wall_ms"] >= 0.0

    def test_error_recorded_and_propagated(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        assert tracer.roots[0].error == "ValueError"

    def test_attrs_and_render_tree(self):
        tracer = Tracer()
        with tracer.span("op", k=5) as sp:
            sp.set(hits=3)
        text = tracer.render_tree()
        assert "op" in text and "k=5" in text and "hits=3" in text

    def test_max_roots_bound(self):
        tracer = Tracer(max_roots=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.roots] == ["s2", "s3", "s4"]


class TestFacade:
    def test_disabled_span_is_shared_noop(self):
        assert obs.span("x") is obs.span("y")
        obs.count("c")
        obs.observe("h", 1.0)
        assert obs.registry().as_dict() == {}
        assert obs.tracer().roots == []

    def test_enabled_records(self):
        obs.configure(enabled=True)
        with obs.span("op"):
            obs.count("c", 3)
        assert obs.registry().value("c") == 3
        assert obs.tracer().span_names() == {"op"}

    def test_metrics_includes_ambient_cache_stats(self):
        # Works even while disabled: cache stats are collected at call time.
        snap = obs.metrics()
        assert "cache.hits" in snap and "cache.hit_rate" in snap

    def test_exports_write_files(self, tmp_path):
        obs.configure(enabled=True)
        with obs.span("op"):
            obs.count("c")
        json_path = tmp_path / "metrics.json"
        prom_path = tmp_path / "metrics.prom"
        trace_path = tmp_path / "trace.jsonl"
        obs.export_metrics_json(json_path)
        obs.export_metrics_prometheus(prom_path)
        obs.export_trace_jsonl(trace_path)
        assert json.loads(json_path.read_text())["c"] == 1
        assert "repro_c 1" in prom_path.read_text()
        assert json.loads(trace_path.read_text())["name"] == "op"

    def test_reset_keeps_switch(self):
        obs.configure(enabled=True)
        obs.count("c")
        obs.reset()
        assert obs.is_enabled()
        assert obs.registry().as_dict() == {}


class TestInstrumentation:
    def test_knn_increments_counters_and_spans(self):
        from repro.core.index import STRGIndex, STRGIndexConfig

        index = STRGIndex(STRGIndexConfig(n_clusters=3))
        index.build(blob_ogs())
        obs.configure(enabled=True)
        index.knn(blob_ogs()[0], k=3)
        snap = obs.metrics()
        assert snap["index.knn_queries"] == 1
        assert snap["index.leaf_scans"] >= 1
        assert snap["distance.pairs_computed"] > 0
        assert "index.knn" in obs.tracer().span_names()

    def test_build_emits_clustering_spans(self):
        obs.configure(enabled=True)
        from repro.core.index import STRGIndex, STRGIndexConfig

        index = STRGIndex(STRGIndexConfig(n_clusters=3))
        index.build(blob_ogs())
        names = obs.tracer().span_names()
        assert "index.build" in names
        assert "clustering.em.fit" in names
        assert obs.metrics()["em.iterations"] >= 1
        # em.fit spans nest under the build span.
        root = obs.tracer().roots[-1]
        assert root.name == "index.build"
        nested = {c.name for c in root.children}
        assert "clustering.em.fit" in nested

    def test_mtree_counts_node_visits(self):
        from repro.distance.eged import MetricEGED
        from repro.mtree.tree import MTree, MTreeConfig

        tree = MTree(MetricEGED(), MTreeConfig(node_capacity=4))
        ogs = blob_ogs()
        for og in ogs:
            tree.insert(og, og.og_id)
        obs.configure(enabled=True)
        tree.knn(ogs[0], k=3)
        assert obs.metrics()["mtree.node_visits"] >= 1

    def test_ingest_spans_and_counters(self, tiny_video):
        from repro.storage.database import VideoDatabase

        obs.configure(enabled=True)
        db = VideoDatabase()
        db.ingest(tiny_video)
        names = obs.tracer().span_names()
        for expected in ("ingest.job", "pipeline.segmentation",
                         "pipeline.tracking", "pipeline.decomposition",
                         "index.build"):
            assert expected in names, expected
        assert obs.metrics()["ingest.jobs_indexed"] == 1

    def test_quarantine_counter(self, tiny_video):
        from repro.resilience import FaultInjector, injected
        from repro.storage.database import VideoDatabase

        obs.configure(enabled=True)
        injector = FaultInjector(seed=0)
        injector.inject("decomposition", rate=1.0)
        db = VideoDatabase(fault_policy="skip-and-quarantine")
        with injected(injector):
            assert db.ingest(tiny_video) == 0
        assert obs.metrics()["ingest.jobs_quarantined"] == 1

    def test_disabled_hooks_record_nothing(self, tiny_video):
        from repro.storage.database import VideoDatabase

        db = VideoDatabase()
        db.ingest(tiny_video)
        db.knn(np.zeros((4, 2)), k=1)
        assert obs.registry().as_dict() == {}
        assert obs.tracer().roots == []


class TestDeprecationShims:
    def test_blessed_import_paths_do_not_warn(self, recwarn):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.distance import CacheStats as from_distance
            from repro.observability import CacheStats as from_obs
        assert from_distance is from_obs is CacheStats

    def test_cache_counters_surface_in_metrics(self):
        from repro.distance.cache import DistanceCache, set_default_cache
        from repro.distance.eged import MetricEGED

        previous = set_default_cache(DistanceCache())
        try:
            from repro.distance.cache import cached_one_vs_many

            rng = np.random.default_rng(1)
            items = [rng.normal(size=(6, 2)) for _ in range(4)]
            cached_one_vs_many(MetricEGED(), items[0], items[1:])
            cached_one_vs_many(MetricEGED(), items[0], items[1:])
            snap = obs.metrics()
            assert snap["cache.hits"] == 3
            assert snap["cache.misses"] == 3
        finally:
            set_default_cache(previous)

    def test_counter_class_exported(self):
        assert obs.Counter is Counter
        assert isinstance(obs.registry(), MetricsRegistry)
