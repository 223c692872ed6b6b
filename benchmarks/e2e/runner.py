"""Runs one workload and turns what it measured into the metrics of
``BENCHMARK.json``: end-to-end metrics with tracing off, per-layer
metrics from a second, traced phase."""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time
from typing import Any

import numpy as np

from .harness import (
    OUT_DIR,
    block_median,
    calib_spread,
    cpu_ticks,
    load_spec,
    percentile,
    rss_anon_mb,
)
from .trace import CLIENT_OP, Tracer, layer_of
from .workloads import (
    K,
    SCALES,
    SEARCH_BUDGET,
    WORKLOADS,
    Checked,
    Measured,
    Workload,
)

#: An untraced run is ``ROUNDS`` rounds of set-up, timed phase
#: (``--seconds / ROUNDS``) and tear-down.  ``setup_s`` is the median of
#: the set-ups, every timing metric the median over the blocks of all
#: rounds.  The host's disturbances last seconds: one that covers a whole
#: timed phase of 3 s (``ingest_live``'s uploads, ``build_bulk``'s
#: reopens) moved the run's result by 30 %, and it cannot cover half the
#: blocks of three phases that set-ups keep apart.
ROUNDS = 3
#: A set-up too short to time well (``build_bulk`` only generates its
#: corpus, 0.25 s) is repeated, without a timed phase, until
#: ``SETUP_MIN_SECONDS`` are measured, at most ``SETUP_MAX_REPEATS`` times.
SETUP_MIN_SECONDS = 2.5
SETUP_MAX_REPEATS = 9
#: Queries of the traced phase replayed in process to split a worker's
#: time into the layers under it.
REPLAY_QUERIES = 192

_clock = time.perf_counter


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale_name: str = "default") -> dict[str, Any]:
    """One contract run: the result object plus diagnostics.

    Returns ``{"correct", "attempted", "failed", "metrics"}`` (the
    contract's last line) and a ``"diagnostics"`` entry the caller prints
    separately.
    """
    workdir = OUT_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    # A traced run is one round as long as the run: half of it untraced,
    # half traced.
    rounds = 1 if traced else ROUNDS
    setups: list[float] = []
    measured: list[Measured] = []
    attribution: dict[str, dict[str, float]] = {}
    stolen0, busy0 = cpu_ticks()
    while len(setups) < rounds or (
            not traced and sum(setups) < SETUP_MIN_SECONDS
            and len(setups) < SETUP_MAX_REPEATS):
        round_ = len(setups)
        workdir.mkdir(parents=True)   # teardown removes it
        workload = WORKLOADS[name](seed, seconds / rounds,
                                   SCALES[scale_name], workdir, round_)
        try:
            t0 = _clock()
            workload.setup()
            setups.append(_clock() - t0)
            if round_ < rounds:   # else only the set-up was wanted
                # Everything alive now is long-lived; keep the collector
                # from re-walking it inside the timed blocks.
                gc.collect()
                gc.freeze()
                if traced:
                    metrics, measured, checked, attribution = _traced_run(
                        workload, seconds)
                else:
                    measured.append(workload.measure(seconds / rounds))
                    if round_ == 0:
                        # Memory and answers of the first round: its heap
                        # has seen no earlier round.
                        rss = rss_anon_mb(workload.pids())
                        checked = workload.verify()
        finally:
            gc.unfreeze()
            workload.teardown()
    stolen, busy = cpu_ticks()
    steal_share = (stolen - stolen0) / max(1, busy - busy0)
    if traced:
        metrics["host.steal_share"] = steal_share
    else:
        metrics = _end_to_end(measured, checked, rss)
        metrics["setup_s"] = statistics.median(setups)
    attempted = sum(m.attempted for m in measured) + checked.attempted
    failed = sum(m.failed for m in measured) + checked.failed
    calib = [c for m in measured for c in m.calib]
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if traced else "end_to_end"]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": float(metrics[key]), "unit": unit}
                    for key, unit in units.items()},
        "diagnostics": {
            "setup_runs_s": setups,
            "blocks": sum(len(m.latencies) for m in measured),
            "host.calib_ms": 1e3 * statistics.median(calib),
            "host.calib_spread": calib_spread(calib),
            "host.steal_share": steal_share,
            # Traced runs: self seconds per layer and kind of span.
            "attribution_s": attribution,
        },
    }


def _lat_ms(measured: list[Measured], q: float) -> float:
    """Median over the blocks of every phase of the block's percentile."""
    return 1e3 * block_median(
        [block for m in measured for block in m.latencies],
        lambda block: percentile(block, q))


def _end_to_end(measured: list[Measured], checked: Checked,
                rss: float) -> dict[str, float]:
    return {
        "lat_p50_ms": _lat_ms(measured, 50),
        "throughput_per_s": statistics.median(
            rate for m in measured for rate in m.rates),
        "recall_at_10": checked.recall_at_10,
        "dist_evals_per_query": checked.dist_evals_per_query,
        "rss_anon_mb": rss,
        "store_bytes_per_og": checked.store_bytes_per_og,
    }


# -- traced run -------------------------------------------------------------

def _traced_run(workload: Workload, seconds: float) -> tuple[
        dict[str, float], list[Measured], Checked,
        dict[str, dict[str, float]]]:
    """Half the time untraced, half traced; per-layer metrics from the
    spans, tracing overhead from the difference of the halves."""
    base = workload.measure(seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        first_span = len(tracer.spans)
        traced = workload.measure(seconds / 2, tracer)
        phase = (first_span, len(tracer.spans))
        replay = _replay(workload, traced, tracer)
    finally:
        tracer.uninstall()
        tracer.write_jsonl(str(OUT_DIR / f"trace-{workload.name}.jsonl"))
    checked = workload.verify()
    metrics, attribution = _per_layer(workload, tracer, base, traced,
                                      checked, phase, replay)
    return metrics, [base, traced], checked, attribution


def _replay(workload: Workload, traced: Measured,
            tracer: Tracer) -> tuple[int, int] | None:
    """Replay the first traced HTTP queries on the in-process index over
    the same memory-mapped store, so a worker's time splits into the
    layers under it.  Returns the replay's span range (``None`` for
    workloads with no worker process)."""
    payloads = traced.extra.get("payloads")
    if not payloads:
        return None
    reference = workload.reference()
    queries = [np.asarray(p["query"], dtype=np.float64)
               for p in payloads[:REPLAY_QUERIES]]
    for query in queries[:8]:   # fault the reference's pages in
        reference.knn(query, K, search_budget=SEARCH_BUDGET)
    first = len(tracer.spans)
    replay = tracer.client(
        lambda query: reference.knn(query, K, search_budget=SEARCH_BUDGET))
    for query in queries:
        replay(query)
    return first, len(tracer.spans)


def _row(summary: dict, *names: str) -> dict[str, float]:
    """The summed summary rows of ``names`` (zeros when never called)."""
    out = {"calls": 0, "time": 0.0, "self": 0.0, "size": 0}
    for name in names:
        for key, value in summary.get(name, {}).items():
            out[key] += value
    return out


def _per_call_ms(row: dict[str, float]) -> float:
    return 1e3 * row["time"] / row["calls"] if row["calls"] else 0.0


def _per_layer(workload: Workload, tracer: Tracer, base: Measured,
               traced: Measured, checked: Checked, phase: tuple[int, int],
               replay: tuple[int, int] | None
               ) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Every per-layer metric of ``BENCHMARK.json`` (0 where the
    workload never enters the layer).

    ``edge`` holds the spans of the client's own operations in the
    traced phase; ``query`` the spans under the operation that stands
    for one query's work — the in-process replay when a worker process
    hides it, else the same as ``edge``; ``write`` the spans of the
    write or build path that runs outside any client operation.
    """
    edge = tracer.summary(*phase, client=True)
    query = tracer.summary(*replay, client=True) if replay else edge
    write = tracer.summary(*phase, client=False)
    jobs = traced.extra.get("jobs", [])
    builds = max(1, len(traced.extra.get("steps", [])))
    clips = max(1, len(jobs))
    edge_ops = max(1, _row(edge, CLIENT_OP)["calls"])
    ops = max(1, _row(query, CLIENT_OP)["calls"])

    pool_knn = _row(edge, "serving.workers:WorkerPool.knn")
    inproc_knn = _row(query, "serving.sharding:ShardedIndex.knn")
    fetch = _row(query, "storage:ColumnarRowReader.series",
                 "storage:ColumnarRowReader.record")
    kernel = _row(query, "distance:one_vs_many", "distance:pairwise_matrix")
    pairs = _row(query, "distance:one_vs_many")
    build_pairs = _row(write, "distance:one_vs_many")
    append = _row(write, "storage:ColumnarStore.append")
    em_fit = _row(write, "clustering:EMClustering.fit")
    waits = [j.started - j.submitted for j in jobs if j.started]
    fresh = [j.freshness for j in jobs if j.freshness is not None]
    unattributed = _row(query, CLIENT_OP)["self"] / ops
    if replay:
        unattributed += _row(edge, CLIENT_OP)["self"] / edge_ops

    metrics = {
        "serving.net.overhead_ms":
            1e3 * _row(edge, "serving.net:request_json")["self"] / edge_ops,
        "serving.net.request_bytes": 0.0,
        "serving.net.response_bytes": 0.0,
        # What the pool adds to the same queries run in process.
        "serving.workers.overhead_ms":
            1e3 * (pool_knn["time"] / edge_ops - inproc_knn["time"] / ops)
            if replay else 0.0,
        "serving.workers.cpu_ms_per_query":
            1e3 * traced.extra.get("worker_cpu_s", 0.0) / edge_ops,
        "serving.workers.spawn_s": workload.spawn_s,
        "serving.sharding.self_ms": 1e3 * inproc_knn["self"] / ops,
        "serving.sharding.candidates_evaluated_per_query": 0.0,
        "serving.sharding.clusters_pruned_per_query": 0.0,
        "serving.sharding.leaf_scans_per_query": 0.0,
        "search.candidates_ms":
            1e3 * _row(query, "search:SketchIndex.candidates")["self"] / ops,
        "search.rerank_self_ms":
            1e3 * _row(query, "search:approx_knn")["self"] / ops,
        "search.candidates_per_query": 0.0,
        "search.pruned_per_query": 0.0,
        "search.sketch_build_s":
            _row(write, "search:SketchIndex.build")["time"] / builds,
        "search.sketch_add_ms":
            _per_call_ms(_row(write, "search:SketchIndex.add")),
        "storage.row_fetch_ms": 1e3 * fetch["self"] / ops,
        "storage.rows_fetched_per_query": fetch["calls"] / ops,
        "storage.open_ms":
            1e3 * _row(query, "storage:ColumnarStore.load_index")["self"]
            / ops,
        "storage.load_sketch_ms":
            1e3 * _row(query, "storage:ColumnarStore.load_sketch")["self"]
            / ops,
        "storage.write_s":
            _row(write, "storage:ColumnarStore.write_index")["self"]
            / builds,
        "storage.append_ms": _per_call_ms(append),
        "storage.appends": append["calls"],
        "storage.bytes_written_per_og": checked.store_bytes_per_og,
        "distance.kernel_ms": 1e3 * kernel["self"] / ops,
        "distance.calls_per_query": kernel["calls"] / ops,
        "distance.pairs_per_call": pairs["size"] / max(1, pairs["calls"]),
        "core.knn_self_ms":
            1e3 * _row(query, "core:STRGIndex.knn")["self"] / ops,
        "core.build_self_s":
            _row(write, "core:STRGIndex.build",
                 "core:STRGIndex.sketch_tier")["self"] / builds,
        "core.build_dist_evals_per_og":
            (build_pairs["size"] / builds / workload.scale.build_ogs
             if "steps" in traced.extra else 0.0),
        "clustering.fit_s": em_fit["time"] / builds,
        "clustering.iterations": em_fit["size"] / builds,
        "video.segment_ms":
            1e3 * _row(write, "video:Segmenter.build_rag",
                       "video:Segmenter.build_rags")["self"] / clips,
        "graph.track_ms":
            1e3 * _row(write, "graph:GraphTracker.track_stream",
                       "graph:GraphTracker.build_strg")["self"] / clips,
        "graph.decompose_ms":
            1e3 * _row(write, "graph:decompose")["self"] / clips,
        "pipeline.process_clip_ms":
            1e3 * _row(write, "pipeline:VideoPipeline.process_clip")["time"]
            / clips,
        "serving.ingest.queue_wait_ms":
            1e3 * statistics.mean(waits) if waits else 0.0,
        "serving.ingest.indexed_ms":
            1e3 * statistics.mean(fresh) if fresh else 0.0,
        "serving.ingest.fresh_p50_ms":
            1e3 * statistics.median(fresh) if fresh else 0.0,
        "serving.ingest.retries": traced.extra.get("retries", 0),
        "serving.snapshot.commit_ms":
            1e3 * _row(write, "serving.snapshot:LiveIndex.bulk_insert",
                       "serving.snapshot:LiveIndex.compact")["time"] / clips,
        "serving.snapshot.compactions":
            _row(write, "serving.snapshot:LiveIndex.compact")["calls"],
        "client.cpu_ms_per_query":
            1e3 * traced.extra.get("client_cpu_s", 0.0) / edge_ops,
        "client.lat_p90_ms": _lat_ms([base], 90),
        "client.lat_p99_ms": 1e3 * percentile(
            [lat for block in base.latencies for lat in block], 99),
        # Time inside a client operation under no wrapped call.
        "client.unattributed_ms": 1e3 * unattributed,
        "host.calib_ms": 1e3 * statistics.median(base.calib + traced.calib),
        "host.calib_spread": calib_spread(base.calib + traced.calib),
        "trace.overhead_share": traced.op_seconds / base.op_seconds - 1.0,
    }
    metrics.update(checked.counts)
    return metrics, {
        kind: _layer_seconds(summary) for kind, summary in
        (("edge", edge), ("query", query), ("write", write))}


def _layer_seconds(summary: dict) -> dict[str, float]:
    """Self seconds per layer: where the spans of one kind spent time."""
    out: dict[str, float] = {}
    for name, row in summary.items():
        out[layer_of(name)] = out.get(layer_of(name), 0.0) + row["self"]
    return out
