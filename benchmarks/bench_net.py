"""Process-worker serving vs the thread-pool service (BENCH_net).

``QueryService`` over a ``LiveIndex`` runs shard work on its own
*threads*, so all shards timeshare one GIL; over a ``WorkerPool`` the
same front's threads only block on pipes while worker processes
memory-map one columnar snapshot.  This bench drives the same corpus
through the one front over both backends (the pool behind HTTP):

1. **Parity** — an HTTP ``/knn`` answer must be bit-identical to the
   in-process ``ShardedIndex`` on the same snapshot, at every process
   count and in both pool layouts (replicated and shard-partitioned).
2. **Scaling** — open-loop HTTP load at 1/2/4 worker processes over a
   4-shard store.  The scaling axis is *replicas* (1 slot, each
   process serves the whole snapshot, requests round-robin) because
   that is apples-to-apples with the thread pool: identical
   per-request work, GIL vs no GIL the only variable.  On a >= 4-core
   host, 4 processes must clear 3.5x the 1-process throughput.
3. **Partitioned layout** — one extra point with 4 shard slots (each
   request fans out to every worker, coordinator-probed shared bound),
   the latency-oriented layout; recorded, not gated.
4. **Baseline** — the front over the in-process index (4 threads, same
   snapshot) recorded alongside, so the artifact shows what processes
   buy.

Every latency is what the client saw (``run_load``: call to ``send``
until the answer), on the HTTP rows and the threaded row alike.  The
offered rate is several times capacity, so p50 is mostly waiting: for
one of the ``HttpSender``'s connections on the HTTP rows (the service
behind them never sees more than ``CONCURRENCY`` requests, so it sheds
none), in the service's admission queue — which does shed — on the
threaded row.  A point runs until every request sent is answered.

Scale: BENCH_NET_SCALE=smoke (CI) serves 240 OGs, offering load for
1.5 s per point; the full run serves 960 OGs, offering for 4 s.  The
scaling gate only applies on hosts with >= 4 usable cores (a 1-CPU
container timeshares everything and the ratio is meaningless).
"""

from __future__ import annotations

import os
import tempfile
import time

from conftest import format_table, record_result

from repro.core.index import STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.parallel import usable_cpus
from repro.serving import (
    HttpSender,
    LiveIndex,
    NetConfig,
    NetFrontend,
    QueryService,
    ServiceConfig,
    ShardedIndex,
    ShardedIndexConfig,
    WorkerPool,
    WorkerPoolConfig,
    run_load,
)
from repro.serving.net import request_json
from repro.storage.store import open_store

SCALE = os.environ.get("BENCH_NET_SCALE", "full")
SMOKE = SCALE == "smoke"

NUM_OGS = 240 if SMOKE else 960
CLUSTERS = 6 if SMOKE else 8
NUM_QUERIES = 8 if SMOKE else 16
NUM_SHARDS = 4
WORKER_COUNTS = (1, 2, 4)
K = 10
RATE = 400.0                 # offered load; capacity caps completions
DURATION = 1.5 if SMOKE else 4.0
CONCURRENCY = 16


def bench_net_report():
    """HTTP parity + process-worker scaling vs the threaded baseline."""
    ogs = generate_synthetic_ogs(SyntheticConfig(num_ogs=NUM_OGS, seed=0))
    queries = generate_synthetic_ogs(
        SyntheticConfig(num_ogs=NUM_QUERIES, seed=99))
    index = ShardedIndex(ShardedIndexConfig(
        num_shards=NUM_SHARDS, placement="affine",
        index=STRGIndexConfig(n_clusters=CLUSTERS)))
    t0 = time.perf_counter()
    index.build(ogs, clip_refs=[f"clip-{i}" for i in range(len(ogs))])
    build_seconds = time.perf_counter() - t0

    with tempfile.TemporaryDirectory() as tmp:
        store = open_store(os.path.join(tmp, "corpus.strg"))
        store.write_index(index)
        reference = open_store(store.path).load_index(mmap=True)
        expected = {
            i: [(d, ref) for d, _og, ref in reference.knn(q, K)]
            for i, q in enumerate(queries)
        }

        # Replicated layout (the thread-pool apples-to-apples): one
        # slot, N processes each serving the whole snapshot, requests
        # round-robined — plus one shard-partitioned point (4 slots,
        # every request fans out behind the probed shared bound).
        layouts = [(f"http x{n}", WorkerPoolConfig(workers=1, replicas=n))
                   for n in WORKER_COUNTS]
        layouts.append(
            ("http 4 slots", WorkerPoolConfig(workers=4, replicas=1)))
        http_reports = {}
        for label, pool_config in layouts:
            with WorkerPool(store.path, pool_config) as pool:
                with NetFrontend(pool, config=NetConfig(
                        service=ServiceConfig(
                            workers=8, queue_depth=256,
                            default_deadline=30.0))) as frontend:
                    # Parity gate before any load: every query, over the
                    # wire, bit-identical to the in-process answer.
                    for i, q in enumerate(queries):
                        status, body = request_json(
                            "127.0.0.1", frontend.port, "POST", "/knn",
                            {"query": q.values.tolist(), "k": K})
                        assert status == 200, (status, body)
                        got = [(h["distance"], h["clip_ref"])
                               for h in body["hits"]]
                        assert got == expected[i], (
                            f"HTTP knn diverged from in-process at "
                            f"{label}, query {i}")
                        assert not body["degraded"]
                    with HttpSender("127.0.0.1", frontend.port,
                                    connections=CONCURRENCY) as send:
                        http_reports[label] = run_load(
                            send, queries, k=K,
                            rate=RATE, duration=DURATION)

        # Baseline: the same snapshot, the same front, in-process threads.
        with QueryService(LiveIndex(reference), ServiceConfig(
                workers=4, queue_depth=256)) as service:
            threaded = run_load(service.submit, queries, k=K,
                                rate=RATE, duration=DURATION)

    speedup = (http_reports["http x4"].throughput
               / max(http_reports["http x1"].throughput, 1e-9))
    cpus = usable_cpus()
    results = {
        label.replace(" ", "_"): report.as_dict()
        for label, report in http_reports.items()
    }
    results["threaded_4_workers"] = threaded.as_dict()
    report = {
        "scale": SCALE,
        "usable_cpus": cpus,
        "config": {
            "num_ogs": NUM_OGS, "num_queries": NUM_QUERIES, "k": K,
            "num_shards": NUM_SHARDS, "clusters_per_shard": CLUSTERS,
            "rate": RATE, "duration": DURATION,
            "concurrency": CONCURRENCY,
            "build_seconds": build_seconds,
        },
        "results": results,
        "speedup_4_vs_1_workers": speedup,
    }

    rows = [
        [label, f"{rep.throughput:.1f}",
         f"{rep.percentile(50) * 1e3:.1f}",
         f"{rep.percentile(99) * 1e3:.1f}",
         rep.responses, rep.rejected]
        for label, rep in http_reports.items()
    ]
    rows.append(["threads x4", f"{threaded.throughput:.1f}",
                 f"{threaded.percentile(50) * 1e3:.1f}",
                 f"{threaded.percentile(99) * 1e3:.1f}",
                 threaded.responses, threaded.rejected])
    lines = format_table(
        ["stack", "qps", "p50 ms", "p99 ms", "ok", "rejected"], rows)
    lines.append("")
    lines.append(f"speedup 4 vs 1 worker processes: {speedup:.2f}x "
                 f"({NUM_OGS} OGs, {cpus} usable cpu(s), scale={SCALE})")
    record_result("BENCH_net", lines, data=report)

    for rep in http_reports.values():
        assert rep.responses > 0 and rep.errors == 0
    # The near-linear scaling claim needs real cores under the workers;
    # a 1-CPU container timeshares them and proves nothing either way.
    if not SMOKE and cpus >= 4:
        assert speedup >= 3.5, (
            f"4 worker processes only {speedup:.2f}x the 1-process "
            "baseline (expected >= 3.5x: search kernels share no GIL)"
        )
