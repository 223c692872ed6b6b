"""Serving-layer load benchmark: pruning and throughput across shard counts.

Not a paper figure — an engineering benchmark guarding the serving
subsystem's promises:

1. **The pivot table pays at every shard count.**  Each shard prunes
   its exact scan with its own sketch pivot table as well as its leaf
   keys.  At 1, 2 and 4 affine shards an exact k-NN query evaluates
   (``distance.pairs_computed``, the paper's section 6.3 unit) at most
   half of what the same queries cost when the same shards' clusters
   are scanned on their leaf keys alone — the bench counts both.
   Counts are deterministic, so the gate holds on any runner, smoke
   scale included.  One shard prunes best: every extra shard adds its
   own pivot evaluations to each query.
2. **Exactness is free.**  The hits returned at every shard count are
   identical (distances and ids) — sharding changes the access path,
   never the answer.

Queries run end to end through the public serving stack
(``ShardedIndex`` -> ``LiveIndex`` -> ``QueryService`` -> closed-loop
load generator), so service overhead is included in every number.
Reps are interleaved across shard counts (1, 2, 4, 1, 2, 4, ...) and
the best rep wins, which cancels machine-load drift on shared runners.

Archives ``benchmarks/results/BENCH_serving.json`` with evaluations
per query, throughput and p50/p95/p99 latency per shard count.  No
timing is asserted.  Scale knob: ``BENCH_SERVING_SCALE=smoke`` shrinks
the corpus for CI.
"""

from __future__ import annotations

import os
import time

from conftest import format_table, record_result

from repro import observability
from repro.core.index import STRGIndexConfig
from repro.core.scan import ScanViews, knn_scan
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.base import as_series
from repro.serving import (
    LiveIndex,
    QueryService,
    ServiceConfig,
    ShardedIndex,
    ShardedIndexConfig,
    run_load,
)

SCALE = os.environ.get("BENCH_SERVING_SCALE", "full")
SMOKE = SCALE == "smoke"

#: Corpus / tuning validated on the development box: 1920 OGs across the
#: 48 synthetic patterns, 10 EM clusters per shard.  The smoke corpus is
#: the smallest whose 4-shard index still passes the pruning gate (each
#: shard's pivots cost every query 8 evaluations).
NUM_OGS = 720 if SMOKE else 1920
CLUSTERS = 6 if SMOKE else 10
REPS = 1 if SMOKE else 3
NUM_QUERIES = 16 if SMOKE else 32
SHARD_COUNTS = (1, 2, 4)
K = 10
#: Largest share of the keys-only scan's evaluations an exact query
#: may spend.
PRUNING_GATE = 0.5


def evaluations_per_query(index: ShardedIndex, queries,
                          keys_only: bool) -> float:
    """``distance.pairs_computed`` per exact k-NN query: through the
    index, or over the same shards' clusters on their leaf keys alone."""
    views = [view for shard in index.shards
             for view in ScanViews(index.metric_distance,
                                   shard.cluster_records(), 0)
             .by_record.values() if len(view.refs)]
    observability.configure(enabled=True, reset_state=True)
    try:
        for query in queries:
            if keys_only:
                knn_scan(index.metric_distance, as_series(query), views, K)
            else:
                index.knn(query, K)
        return observability.metrics()["distance.pairs_computed"] \
            / len(queries)
    finally:
        observability.configure(enabled=False, reset_state=True)


def bench_serving_report():
    """Throughput + tail latency at 1/2/4 shards, identical answers."""
    ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=NUM_OGS, seed=0))
    queries = generate_synthetic_ogs(
        SyntheticConfig(num_ogs=NUM_QUERIES, seed=99))

    indexes: dict[int, ShardedIndex] = {}
    services: dict[int, QueryService] = {}
    build_seconds: dict[int, float] = {}
    try:
        for shards in SHARD_COUNTS:
            index = ShardedIndex(ShardedIndexConfig(
                num_shards=shards, placement="affine",
                index=STRGIndexConfig(n_clusters=CLUSTERS),
            ))
            t0 = time.perf_counter()
            index.build(ogs)
            # The pivot table the exact scan prunes with, as every
            # written store carries it.
            for shard in index.shards:
                shard.sketch_tier()
            build_seconds[shards] = time.perf_counter() - t0
            indexes[shards] = index
            services[shards] = QueryService(
                LiveIndex(index), ServiceConfig(workers=1, queue_depth=256))

        # Exactness: every shard count returns the same hits.
        reference = None
        for shards, service in services.items():
            hits = [
                [(d, og.og_id) for d, og, _ in
                 service.knn(query, K).hits]
                for query in queries[:4]
            ]
            if reference is None:
                reference = hits
            else:
                assert hits == reference, (
                    f"{shards}-shard hits differ from "
                    f"{SHARD_COUNTS[0]}-shard hits"
                )

        # Counted after the check above built every shard's scan views,
        # so only query work is in them.
        evals = {
            shards: {
                "pivots": evaluations_per_query(index, queries, False),
                "keys_only": evaluations_per_query(index, queries, True),
            }
            for shards, index in indexes.items()
        }

        # Interleaved reps: 1, 2, 4, 1, 2, 4, ... best rep per count.
        best: dict[int, object] = {}
        for _ in range(REPS):
            for shards, service in services.items():
                report = run_load(
                    service.submit, queries, k=K,
                    num_requests=len(queries), concurrency=1,
                )
                assert report.responses == len(queries)
                assert report.errors == 0 and report.rejected == 0
                prior = best.get(shards)
                if prior is None or report.throughput > prior.throughput:
                    best[shards] = report
    finally:
        for service in services.values():
            service.shutdown()

    speedup = best[4].throughput / best[1].throughput
    results = {
        str(shards): {
            "evals_per_query": evals[shards]["pivots"],
            "keys_only_evals_per_query": evals[shards]["keys_only"],
            "throughput_qps": report.throughput,
            "p50_ms": report.percentile(50) * 1e3,
            "p95_ms": report.percentile(95) * 1e3,
            "p99_ms": report.percentile(99) * 1e3,
            "build_seconds": build_seconds[shards],
        }
        for shards, report in best.items()
    }
    report = {
        "scale": SCALE,
        "config": {
            "num_ogs": NUM_OGS, "num_queries": NUM_QUERIES, "k": K,
            "clusters_per_shard": CLUSTERS,
            "placement": "affine", "reps": REPS,
        },
        "results": results,
        "speedup_4_vs_1": speedup,
    }

    rows = [
        [shards, f"{evals[shards]['pivots']:.1f}",
         f"{evals[shards]['keys_only']:.1f}", f"{report.throughput:.1f}",
         f"{report.percentile(50) * 1e3:.1f}",
         f"{report.percentile(95) * 1e3:.1f}",
         f"{report.percentile(99) * 1e3:.1f}",
         f"{build_seconds[shards]:.1f}"]
        for shards, report in best.items()
    ]
    lines = format_table(
        ["shards", "evals/q", "keys-only evals/q", "qps", "p50 ms",
         "p95 ms", "p99 ms", "build s"], rows)
    lines.append("")
    lines.append(f"speedup 4 shards vs 1: {speedup:.2f}x "
                 f"({NUM_OGS} OGs, scale={SCALE})")
    record_result("BENCH_serving", lines, data=report)

    assert best[2].throughput > 0 and best[4].throughput > 0
    for shards, counts in evals.items():
        assert counts["pivots"] <= PRUNING_GATE * counts["keys_only"], (
            f"{shards} shard(s): {counts['pivots']:.1f} evaluations per "
            f"exact query, more than {PRUNING_GATE} x the "
            f"{counts['keys_only']:.1f} of a scan on leaf keys alone"
        )
