"""Out-of-core approximate search benchmark: recall/cost + resident set.

The acceptance benchmark for the store-streamed sketch tier
(``ColumnarStore.load_sketch`` + the one-pass candidate scan, see
``docs/SEARCH.md``).  For each corpus size and store shape — a
monolithic store, and the 2-shard store the serving recipes write — it
builds one columnar snapshot with a persisted sketch, then measures in
fresh subprocesses (so each mode pays its own pages, never the
builder's):

- **in-RAM** — eager ``open_database(mmap=False)``: the tree, every OG
  and the sketch arrays all resident; budgeted queries run against the
  materialized index.
- **out-of-core** — lazy ``open_database()`` on the mmap store:
  budgeted queries stream the sketch columns and fetch only shortlist
  series; the tree is never built.

Gates (all assertions, run before any number is archived):

- both children return **bit-identical** budgeted hits;
- the out-of-core child never materializes the tree;
- the PR 7 recall gate still holds on the streamed sketch
  (>= 90% recall@10 at <= 10% of the exact scan's evaluations);
- at the largest corpus, for both store shapes, the out-of-core mode's
  **anonymous** RSS growth (``RssAnon`` — heap pages the process owns,
  which the OS cannot reclaim without swap) is <= ``RSS_GATE_FRACTION``
  of the in-RAM mode's, with an absolute floor absorbing allocator
  noise at small scales.

The gate is on *anonymous* memory deliberately.  The in-RAM mode's
footprint is entirely anonymous (every OG, the tree and the sketch live
on the heap).  The out-of-core mode's remaining resident pages are
file-backed mmap — the sketch columns the full scan reads and the
shortlist's trajectory pages — which are clean page cache: evictable
under pressure and shared between every process mapping the snapshot.
(The shortlist alone is ``BUDGET_FRACTION`` of the corpus per query, so
*total* RSS necessarily touches ~10% of the trajectory bytes; counting
reclaimable cache against the gate would just restate the budget.)  The
JSON report archives all three components (total / anon / file-backed)
for both modes.

Scales (``BENCH_APPROX_OOC_SCALE``):

- ``smoke``   — 4 000 OGs, CI-friendly;
- ``default`` — 20 000 OGs;
- ``full``    — 100 000 OGs (the committed artifact's scale);
- ``xl``      — 1 000 000 OGs: the ROADMAP north-star point.  The
  index build dominates (hours); the module is scale-free — the same
  blocked scan and subprocess RSS probes drive every size unchanged.

The structured result is archived as
``benchmarks/results/BENCH_approx_ooc.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

from conftest import format_table, record_result, short_patterns

from repro.core.index import STRGIndex, STRGIndexConfig
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.base import CountingDistance
from repro.distance.batch import one_vs_many
from repro.distance.eged import MetricEGED
from repro.serving import ShardedIndex, ShardedIndexConfig
from repro.storage.columnar import ColumnarStore

SCALE = os.environ.get("BENCH_APPROX_OOC_SCALE", "default").lower()
SMOKE = SCALE == "smoke"

SIZES = {"smoke": (4_000,), "default": (20_000,), "full": (100_000,),
         "xl": (100_000, 1_000_000)}.get(SCALE, (20_000,))
#: Store shapes measured at every size (``None`` = monolithic).
SHARDS = (None, 2)
NUM_QUERIES = 6 if SMOKE else 8
K = 10
#: Per-query budget as a fraction of the corpus (the PR 7 gate point).
BUDGET_FRACTION = 0.10
GATE_RECALL = 0.90
#: Out-of-core anonymous-RSS growth must stay under this fraction of
#: the in-RAM mode's (see the module docstring for why anon)...
RSS_GATE_FRACTION = 0.10
#: ...above an absolute floor: interpreter/numpy allocator noise makes
#: ratios meaningless once both sides are a few MB.
RSS_FLOOR_KB = 12_000

#: Runs in a fresh interpreter: open the snapshot in one mode, run the
#: budgeted queries, report hits + wall time + VmRSS growth.
_CHILD = r"""
import json, sys, time


def rss_kb():
    out = {"VmRSS": 0, "RssAnon": 0, "RssFile": 0}
    with open("/proc/self/status") as fh:
        for line in fh:
            key = line.split(":", 1)[0]
            if key in out:
                out[key] = int(line.split()[1])
    return out


import numpy as np   # noqa: E402
import repro         # noqa: E402  (import cost excluded from the window)

path, mode, queries_npz, k, budget = sys.argv[1:6]
k, budget = int(k), int(budget)
packed = np.load(queries_npz)
values, offsets = packed["values"], packed["offsets"]
queries = [values[offsets[i]:offsets[i + 1]]
           for i in range(len(offsets) - 1)]

before = rss_kb()
t0 = time.perf_counter()
db = repro.open_database(path, create=False,
                         mmap=(False if mode == "inram" else "auto"))
open_s = time.perf_counter() - t0
t0 = time.perf_counter()
sig = [[(float(h.distance), h.clip_ref)
        for h in db.knn(q, k, search_budget=budget)]
       for q in queries]
query_s = (time.perf_counter() - t0) / len(queries)
after = rss_kb()
print(json.dumps({
    "open_s": open_s,
    "query_s": query_s,
    "rss_kb": max(after["VmRSS"] - before["VmRSS"], 0),
    "anon_kb": max(after["RssAnon"] - before["RssAnon"], 0),
    "file_kb": max(after["RssFile"] - before["RssFile"], 0),
    "tree_loaded": db.index_loaded,
    "sig": sig,
}))
"""


def _workload(n: int, seed: int = 0):
    patterns = short_patterns()
    ogs = generate_synthetic_ogs(SyntheticConfig(
        num_ogs=n, seed=seed, patterns=patterns))
    queries = generate_synthetic_ogs(SyntheticConfig(
        num_ogs=NUM_QUERIES, seed=seed + 1, patterns=patterns))
    return ogs, queries


def _build_store(tmp_path, n: int, shards: int | None, ogs, queries):
    """Columnar snapshot with the sketch tier persisted."""
    config = STRGIndexConfig(n_clusters=8, em_iterations=2)
    index = (STRGIndex(config) if shards is None else
             ShardedIndex(ShardedIndexConfig(num_shards=shards,
                                             index=config)))
    t0 = time.perf_counter()
    index.build(ogs, clip_refs=[f"clip-{i}" for i in range(n)])
    build_s = time.perf_counter() - t0
    index.knn(queries[0], K, search_budget=max(K, int(0.02 * n)))
    store = ColumnarStore(tmp_path / f"ooc-{n}-{shards or 1}")
    store.write_index(index)
    return store, index, build_s


def _pack_queries(tmp_path, queries, n: int) -> str:
    series = [np.asarray(q.values, dtype=np.float64) for q in queries]
    offsets = np.zeros(len(series) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in series], out=offsets[1:])
    path = os.fspath(tmp_path / f"queries-{n}.npz")
    np.savez(path, values=np.concatenate(series), offsets=offsets)
    return path


def _run_child(store_path, mode, queries_npz, budget) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, os.fspath(store_path), mode,
         queries_npz, str(K), str(budget)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _recall_and_cost(store, ogs, queries, budget) -> tuple[float, float]:
    """PR 7 gate, measured on the streamed sketch itself."""
    from repro.search import SearchRequest, approx_knn

    counting = CountingDistance(MetricEGED())
    sketches = store.load_sketch(distance=counting, mmap=True)
    assert sketches is not None
    series = [np.asarray(og.values, dtype=np.float64) for og in ogs]
    recalls, spent = [], []
    for q in queries:
        dists = one_vs_many(MetricEGED(), q.values, series)
        expected = {f"clip-{i}"
                    for i in np.argsort(dists, kind="stable")[:K]}
        counting.reset()
        hits = approx_knn(sketches, counting,
                          SearchRequest.knn(q, K, search_budget=budget))
        spent.append(counting.calls)
        got = {ref for _, _, ref in hits}
        recalls.append(len(got & expected) / K)
    return float(np.mean(recalls)), float(np.mean(spent)) / len(ogs)


def _point(tmp_path, n: int, shards: int | None) -> dict:
    ogs, queries = _workload(n)
    store, index, build_s = _build_store(tmp_path, n, shards, ogs, queries)
    budget = max(K, int(round(BUDGET_FRACTION * n)))

    # -- correctness gates before any timing ---------------------------
    want = [[(float(d), ref)
             for d, _og, ref in index.knn(q, K, search_budget=budget)]
            for q in queries]
    recall, cost_fraction = _recall_and_cost(store, ogs, queries, budget)
    del index, ogs  # the children must pay for their own pages

    queries_npz = _pack_queries(tmp_path, queries, n)
    inram = _run_child(store.path, "inram", queries_npz, budget)
    ooc = _run_child(store.path, "ooc", queries_npz, budget)

    as_sig = [[(float(d), ref) for d, ref in per] for per in inram["sig"]]
    assert as_sig == want, "in-RAM child diverged from the builder"
    assert [[(float(d), ref) for d, ref in per] for per in ooc["sig"]] \
        == want, "out-of-core child diverged from the in-RAM answers"
    assert inram["tree_loaded"], "in-RAM child should materialize"
    assert not ooc["tree_loaded"], \
        "out-of-core child materialized the tree"

    keep = ("open_s", "query_s", "rss_kb", "anon_kb", "file_kb")
    return {
        "num_ogs": n,
        "shards": shards or 1,
        "num_queries": len(queries),
        "k": K,
        "budget": budget,
        "index_build_seconds": build_s,
        "recall_at_10": recall,
        "cost_fraction": cost_fraction,
        "inram": {key: inram[key] for key in keep},
        "ooc": {key: ooc[key] for key in keep},
        "anon_ratio": ooc["anon_kb"] / max(inram["anon_kb"], 1),
    }


def bench_approx_ooc_report(tmp_path):
    """RSS + recall/cost of out-of-core vs in-RAM budgeted search."""
    points = [_point(tmp_path, n, shards)
              for n in SIZES for shards in SHARDS]

    lines = [f"out-of-core approximate search (scale={SCALE}, k={K}, "
             f"budget={BUDGET_FRACTION:.0%} of corpus; anon = heap pages "
             "owned by the process, mmap = reclaimable file-backed cache)"]
    rows = [
        [p["num_ogs"], p["shards"], f"{p['recall_at_10']:.2f}",
         f"{p['cost_fraction']:.1%}",
         f"{p['inram']['anon_kb'] / 1024:.1f}",
         f"{p['ooc']['anon_kb'] / 1024:.1f}",
         f"{p['ooc']['file_kb'] / 1024:.1f}",
         f"{p['anon_ratio']:.1%}",
         f"{p['inram']['query_s'] * 1e3:.0f}",
         f"{p['ooc']['query_s'] * 1e3:.0f}"]
        for p in points
    ]
    lines.extend(format_table(
        ["corpus", "shards", "recall@10", "cost", "RAM anon MB",
         "OOC anon MB",
         "OOC mmap MB", "anon ratio", "RAM ms/q", "OOC ms/q"], rows))
    record_result("BENCH_approx_ooc", lines,
                  data={"scale": SCALE,
                        "rss_gate_fraction": RSS_GATE_FRACTION,
                        "rss_floor_kb": RSS_FLOOR_KB,
                        "points": points})

    for p in points:
        assert p["recall_at_10"] >= GATE_RECALL, (
            f"{p['num_ogs']} OGs: recall@10 {p['recall_at_10']:.2f} "
            f"(need >= {GATE_RECALL:.0%})")
        # split_budget rounds every shard's share up: <= 1 evaluation each.
        assert p["cost_fraction"] <= (BUDGET_FRACTION + 1e-9
                                      + p["shards"] / p["num_ogs"]), (
            f"{p['num_ogs']} OGs: spent {p['cost_fraction']:.1%} of the "
            f"exact scan (budget {BUDGET_FRACTION:.0%})")
    for largest in (p for p in points if p["num_ogs"] == max(SIZES)):
        allowed = max(RSS_GATE_FRACTION * largest["inram"]["anon_kb"],
                      RSS_FLOOR_KB)
        assert largest["ooc"]["anon_kb"] <= allowed, (
            f"{largest['num_ogs']} OGs, {largest['shards']} shard(s): "
            f"out-of-core anonymous RSS grew {largest['ooc']['anon_kb']} "
            f"KB vs {largest['inram']['anon_kb']} KB in-RAM "
            f"(allowed {allowed:.0f} KB)")
