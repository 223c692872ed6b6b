"""Serving-layer load benchmark: throughput scaling across shard counts.

Not a paper figure — an engineering benchmark guarding the serving
subsystem's promises:

1. **Sharding pays on one core.**  A 4-shard affine index answers the
   synthetic 48-pattern k-NN workload at >= 2x the throughput of a
   single shard.  The speedup is algorithmic, not parallel: affine
   placement gives every shard its own cluster budget (more, tighter
   clusters overall) and a pivot fleet whose triangle bounds prune most
   leaf windows before any DP runs.
2. **Exactness is free.**  The hits returned at every shard count are
   identical (distances and ids) — sharding changes the access path,
   never the answer.

Queries run end to end through the public serving stack
(``ShardedIndex`` -> ``LiveIndex`` -> ``QueryService`` -> closed-loop
load generator), so service overhead is included in every number.
Reps are interleaved across shard counts (1, 2, 4, 1, 2, 4, ...) and
the best rep wins, which cancels machine-load drift on shared runners.

Archives ``benchmarks/results/BENCH_serving.json`` with throughput and
p50/p95/p99 latency per shard count.  Scale knob:
``BENCH_SERVING_SCALE=smoke`` shrinks the corpus for CI and skips the
timing assertion (shared runners are too noisy to gate on a ratio);
the full scale asserts the 2x.
"""

from __future__ import annotations

import os
import time

from conftest import format_table, record_result

from repro.core.index import STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.parallel import usable_cpus
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
#: 48 synthetic patterns, 10 EM clusters per shard, eval batches of 32.
NUM_OGS = 240 if SMOKE else 1920
CLUSTERS = 6 if SMOKE else 10
REPS = 1 if SMOKE else 3
NUM_QUERIES = 16 if SMOKE else 32
SHARD_COUNTS = (1, 2, 4)
K = 10


def bench_serving_report():
    """Throughput + tail latency at 1/2/4 shards, identical answers."""
    ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=NUM_OGS, seed=0))
    queries = generate_synthetic_ogs(
        SyntheticConfig(num_ogs=NUM_QUERIES, seed=99))

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
            build_seconds[shards] = time.perf_counter() - t0
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
        [shards, f"{report.throughput:.1f}",
         f"{report.percentile(50) * 1e3:.1f}",
         f"{report.percentile(95) * 1e3:.1f}",
         f"{report.percentile(99) * 1e3:.1f}",
         f"{build_seconds[shards]:.1f}"]
        for shards, report in best.items()
    ]
    lines = format_table(
        ["shards", "qps", "p50 ms", "p95 ms", "p99 ms", "build s"], rows)
    lines.append("")
    lines.append(f"speedup 4 shards vs 1: {speedup:.2f}x "
                 f"({NUM_OGS} OGs, scale={SCALE})")
    record_result("BENCH_serving", lines, data=report)

    assert best[2].throughput > 0 and best[4].throughput > 0
    # Same CPU gate bench_ingest uses: on a 1-CPU container the service
    # threads timeshare one core and the speedup target is meaningless.
    if not SMOKE and usable_cpus() >= 2:
        assert speedup >= 2.0, (
            f"4-shard throughput only {speedup:.2f}x the 1-shard baseline "
            "(expected >= 2x from affine placement + pivot pruning)"
        )
