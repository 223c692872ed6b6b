"""Observability overhead + end-to-end coverage report.

Not a paper figure — an engineering benchmark guarding the PR-3
observability layer's two promises:

1. **Disabled is (nearly) free.**  The hooks compiled into the hot paths
   cost < 3% on the batched distance-kernel sweep (the PR-2 engine
   benchmark shape: one ``one_vs_many`` DP over a 64-series batch) when
   ``repro.observability`` is left disabled.
2. **Enabled sees everything.**  A full simulated run — ingest a
   rendered segment, build the index, run a k-NN query — produces a span
   tree covering every pipeline stage and a non-trivial metrics dump.

Archives ``benchmarks/results/BENCH_observability.json`` plus the trace
(``observability_trace.jsonl``) and Prometheus dump
(``observability_metrics.prom``) of the simulated run.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from conftest import RESULTS_DIR, format_table, record_result

from repro import observability as obs
from repro.distance.batch import one_vs_many
from repro.distance.eged import MetricEGED
from repro.observability.registry import MetricsRegistry
from repro.observability.trace import Tracer

#: Sweep shape: the PR-2 kernel-benchmark scale (64 series of 64 nodes).
BATCH_N = 64
BATCH_SIZE = 64
#: Sweeps per timed run (amortizes the timer) and best-of repeats.
SWEEPS = 10
REPEATS = 5

#: Span names the simulated run must cover, stage by stage.
EXPECTED_STAGES = (
    "ingest.job",
    "pipeline.segmentation",
    "pipeline.tracking",
    "pipeline.decomposition",
    "index.build",
    "clustering.em.fit",
    # A VideoDatabase holds a ShardedIndex (one shard by default): its
    # query is the sharded scatter-gather's span.
    "serving.knn",
)


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _tiny_video():
    """A small rendered segment with two moving objects (~12 frames)."""
    from repro.video.synthesize import (
        Actor,
        BackgroundSpec,
        SceneRenderer,
        linear_trajectory,
        make_vehicle,
    )

    background = BackgroundSpec(
        width=96, height=72, base_color=(100, 100, 100),
        zones=[(0, 0, 96, 24, (60, 60, 140))],
    )
    scene = SceneRenderer(background)
    scene.add_actor(Actor(
        linear_trajectory((5.0, 40.0), (90.0, 40.0), 12),
        make_vehicle((200, 40, 40)), name="car-right",
    ))
    scene.add_actor(Actor(
        linear_trajectory((90.0, 58.0), (5.0, 58.0), 12),
        make_vehicle((40, 200, 40)), name="car-left",
    ))
    return scene.render(12, fps=10.0, name="bench-observability")


def bench_observability_report():
    """Disabled-path overhead + instrumented end-to-end run.

    Times the batched ``one_vs_many`` sweep three ways — a raw local loop
    calling ``compute_many`` directly (no hooks anywhere on the path),
    through the instrumented entry point with observability disabled, and
    again with it enabled — then replays the whole ingest → build → k-NN
    pipeline with observability on and archives its trace and metrics.
    Asserts the disabled path stays within 3% of the raw loop.  Both
    sides are handed the same list of ``(n, d)`` arrays, so both prepare
    it (pad, sort, chunk) once per sweep and the difference is the hook.
    """
    rng = np.random.default_rng(0)
    items = [np.asarray(rng.normal(size=(BATCH_N, 2)) * 20)
             for _ in range(BATCH_SIZE + 1)]
    query, batch = items[0], items[1:]
    distance = MetricEGED()

    def raw_sweeps():
        # The pre-observability engine: dispatch straight to the kernel.
        for _ in range(SWEEPS):
            distance.compute_many(query, batch)

    def hooked_sweeps():
        for _ in range(SWEEPS):
            one_vs_many(distance, query, batch)

    obs.configure(enabled=False, registry=MetricsRegistry(), tracer=Tracer())
    raw_s = _best_of(raw_sweeps)
    disabled_s = _best_of(hooked_sweeps)
    obs.configure(enabled=True)
    enabled_s = _best_of(hooked_sweeps)
    obs.configure(enabled=False, registry=MetricsRegistry(), tracer=Tracer())

    disabled_pct = 100.0 * (disabled_s - raw_s) / raw_s
    enabled_pct = 100.0 * (enabled_s - raw_s) / raw_s

    # -- full simulated run with observability enabled ------------------------
    from repro.storage.database import VideoDatabase

    obs.configure(enabled=True, registry=MetricsRegistry(),
                  tracer=Tracer())
    db = VideoDatabase()
    t0 = time.perf_counter()
    n_ogs = db.ingest(_tiny_video())
    walk = np.stack([np.linspace(5, 90, 12), np.full(12, 40.0)], axis=1)
    hits = db.knn(walk, k=min(3, n_ogs))
    run_seconds = time.perf_counter() - t0

    span_names = obs.tracer().span_names()
    missing = [s for s in EXPECTED_STAGES if s not in span_names]
    snapshot = obs.metrics()

    RESULTS_DIR.mkdir(exist_ok=True)
    obs.export_trace_jsonl(RESULTS_DIR / "observability_trace.jsonl")
    obs.export_metrics_prometheus(
        RESULTS_DIR / "observability_metrics.prom"
    )
    obs.configure(enabled=False, registry=MetricsRegistry(), tracer=Tracer())

    n_pairs = SWEEPS * BATCH_SIZE
    report = {
        "config": {
            "series_length": BATCH_N,
            "batch_size": BATCH_SIZE,
            "sweeps_per_run": SWEEPS,
            "best_of": REPEATS,
        },
        "overhead": {
            "raw_seconds": raw_s,
            "disabled_seconds": disabled_s,
            "enabled_seconds": enabled_s,
            "disabled_overhead_pct": disabled_pct,
            "enabled_overhead_pct": enabled_pct,
            "pairs_per_run": n_pairs,
        },
        "simulated_run": {
            "object_graphs": n_ogs,
            "knn_hits": len(hits),
            "seconds": run_seconds,
            "stages_covered": sorted(
                s for s in span_names if s in EXPECTED_STAGES
            ),
            "all_span_names": sorted(span_names),
            "metrics": snapshot,
        },
    }
    rows = [
        ["raw compute_many loop", f"{raw_s * 1e3:.1f}", "-"],
        ["hooks, disabled", f"{disabled_s * 1e3:.1f}",
         f"{disabled_pct:+.2f}%"],
        ["hooks, enabled", f"{enabled_s * 1e3:.1f}",
         f"{enabled_pct:+.2f}%"],
    ]
    lines = format_table(["variant", "ms/run", "overhead"], rows)
    lines.append("")
    lines.append(
        f"simulated run: {n_ogs} OGs ingested, {len(hits)} k-NN hits in "
        f"{run_seconds:.2f}s; stages covered: "
        f"{len(EXPECTED_STAGES) - len(missing)}/{len(EXPECTED_STAGES)}"
    )
    record_result("BENCH_observability", lines, data=report)

    assert not missing, f"simulated run missed stages: {missing}"
    assert snapshot["distance.pairs_computed"] > 0
    assert snapshot["serving.knn_queries"] >= 1
    assert disabled_pct < 3.0, (
        f"disabled observability costs {disabled_pct:.2f}% on the kernel "
        "sweep (budget: 3%)"
    )


#: Contention shape: serving-worker counts hammering shared instruments.
CONTENTION_THREADS = 8
CONTENTION_OPS = 20_000


def bench_registry_contention():
    """Locked instruments stay exact and fast under thread contention.

    The serving layer's worker threads bump shared counters/histograms on
    every request, so the registry locks added for thread safety sit on
    the request path.  This micro-bench hammers one counter and one
    histogram from ``CONTENTION_THREADS`` threads, asserts the totals are
    *exact* (the whole point of the locks — unlocked ``+=`` drops
    increments under the interpreter's thread switches), and records the
    single-thread vs contended throughput so a lock-convoy regression
    shows up as an ops/s cliff.
    """
    def hammer(registry: MetricsRegistry, threads: int) -> float:
        counter = registry.counter("contention.ops")
        histogram = registry.histogram("contention.latency")

        def work():
            for i in range(CONTENTION_OPS):
                counter.inc()
                histogram.observe(0.001 * (i % 7))

        pool = [threading.Thread(target=work) for _ in range(threads)]
        t0 = time.perf_counter()
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        elapsed = time.perf_counter() - t0

        total = threads * CONTENTION_OPS
        assert registry.value("contention.ops") == total
        assert registry.histogram("contention.latency").count == total
        return 2 * total / elapsed  # counter + histogram ops

    single_ops = hammer(MetricsRegistry(), 1)
    contended_ops = hammer(MetricsRegistry(), CONTENTION_THREADS)

    rows = [
        ["1 thread", f"{single_ops / 1e6:.2f}"],
        [f"{CONTENTION_THREADS} threads", f"{contended_ops / 1e6:.2f}"],
    ]
    lines = format_table(["contention", "M ops/s"], rows)
    lines.append("")
    lines.append(
        f"totals exact at {CONTENTION_THREADS}x{CONTENTION_OPS} increments "
        "per instrument"
    )
    record_result("BENCH_registry_contention", lines)
