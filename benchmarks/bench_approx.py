"""Approximate search tier benchmark: recall@k vs distance computations.

Not a paper figure — the acceptance benchmark for the sublinear search
tier (``repro.search``, see ``docs/SEARCH.md``).  Sweeps the per-query
``search_budget`` across fractions of the corpus size and measures, for
each budget:

- **recall@10** against the exact full-scan ground truth, and
- **exact distance evaluations actually spent** (reference distances
  plus rerank, via :class:`~repro.distance.base.CountingDistance`) — the
  paper's Section 6.3 cost model, where DP distance evaluations dominate
  query cost.

The headline gate: at the 10k-OG scale the sketch tier reaches
**>= 90% recall@10 while spending <= 10% of the exact scan's distance
computations**.  The curve (recall vs cost) is archived as
``benchmarks/results/BENCH_approx.json``.

Scales (``BENCH_APPROX_SCALE``):

- ``smoke`` — 800 OGs, CI-friendly (< 1 min), same 90%/10% gate;
- ``default`` — 10 000 OGs (the ISSUE's headline scale);
- ``full`` — adds a 100 000-OG curve (no extra gate; the curve is the
  deliverable at that scale).
"""

from __future__ import annotations

import os
import time

import numpy as np

from conftest import format_table, record_result, short_patterns

from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance.base import CountingDistance
from repro.distance.batch import one_vs_many
from repro.distance.eged import MetricEGED
from repro.search import SearchRequest, SketchIndex, approx_knn

SCALE = os.environ.get("BENCH_APPROX_SCALE", "default").lower()
SMOKE = SCALE == "smoke"

SIZES = {"smoke": (800,), "default": (10_000,),
         "full": (10_000, 100_000)}.get(SCALE, (10_000,))
NUM_QUERIES = 8 if SMOKE else 16
K = 10
#: Budget sweep as fractions of the corpus size.
BUDGET_FRACTIONS = (0.01, 0.02, 0.05, 0.10)
#: The docs/SEARCH.md gate: recall@10 at a 10% budget.
GATE_FRACTION = 0.10
GATE_RECALL = 0.90


def _workload(n: int, seed: int = 0):
    """Corpus + held-out queries drawn from the same motion patterns."""
    patterns = short_patterns()
    ogs = generate_synthetic_ogs(SyntheticConfig(
        num_ogs=n, seed=seed, patterns=patterns))
    queries = generate_synthetic_ogs(SyntheticConfig(
        num_ogs=NUM_QUERIES, seed=seed + 1, patterns=patterns))
    return ogs, queries


def _curve(n: int) -> dict:
    """Recall/cost curve for one corpus size."""
    ogs, queries = _workload(n)
    counting = CountingDistance(MetricEGED())
    series = [np.asarray(og.values, dtype=np.float64) for og in ogs]

    t0 = time.perf_counter()
    sketch = SketchIndex.build(counting, ogs)
    build_seconds = time.perf_counter() - t0

    # Exact ground truth: one full scan per query.
    truth = []
    t0 = time.perf_counter()
    for q in queries:
        dists = one_vs_many(MetricEGED(), q.values, series)
        order = np.argsort(dists, kind="stable")[:K]
        truth.append({ogs[i].og_id for i in order})
    scan_seconds = (time.perf_counter() - t0) / len(queries)

    points = []
    for fraction in BUDGET_FRACTIONS:
        budget = max(K, int(round(fraction * n)))
        recalls, spent = [], []
        t0 = time.perf_counter()
        for q, expected in zip(queries, truth):
            counting.reset()
            hits = approx_knn(
                [sketch], counting,
                SearchRequest.knn(q, K, search_budget=budget))
            spent.append(counting.calls)
            got = {og.og_id for _, og, _ in hits}
            recalls.append(len(got & expected) / K)
        query_seconds = (time.perf_counter() - t0) / len(queries)
        points.append({
            "budget": budget,
            "budget_fraction": fraction,
            "recall_at_10": float(np.mean(recalls)),
            "mean_evaluations": float(np.mean(spent)),
            "max_evaluations": int(max(spent)),
            "cost_fraction": float(np.mean(spent)) / n,
            "query_seconds": query_seconds,
        })
    return {
        "num_ogs": n,
        "num_queries": len(queries),
        "k": K,
        "num_references": len(sketch.pivots),
        "sketch_build_seconds": build_seconds,
        "exact_scan_seconds_per_query": scan_seconds,
        "points": points,
    }


def bench_approx_recall_report():
    """Recall@10 vs distance-computation curves; gates the 90%/10% SLO."""
    curves = [_curve(n) for n in SIZES]

    lines = []
    for curve in curves:
        lines.append(f"corpus: {curve['num_ogs']} OGs "
                     f"(scale={SCALE}, k={K}, "
                     f"{curve['num_queries']} queries)")
        rows = [
            [f"{p['budget_fraction']:.0%}", p["budget"],
             f"{p['mean_evaluations']:.0f}",
             f"{p['cost_fraction']:.1%}",
             f"{p['recall_at_10']:.2f}"]
            for p in curve["points"]
        ]
        lines.extend(format_table(
            ["budget", "evals cap", "evals spent", "cost vs scan",
             "recall@10"], rows))
        lines.append("")
    record_result("BENCH_approx", lines,
                  data={"scale": SCALE, "curves": curves})

    for curve in curves:
        gate = next(p for p in curve["points"]
                    if p["budget_fraction"] == GATE_FRACTION)
        n = curve["num_ogs"]
        # Budgets are hard caps above the documented floor of
        # num_references + k (k results cannot be ranked with fewer
        # evals).
        for p in curve["points"]:
            cap = max(p["budget"], curve["num_references"] + K)
            assert p["max_evaluations"] <= cap, (
                f"{n} OGs: spent {p['max_evaluations']} evaluations "
                f"against a cap of {cap} (budget {p['budget']})"
            )
        if n > 10_000:
            continue  # the 100k curve is reported, not gated
        assert gate["recall_at_10"] >= GATE_RECALL, (
            f"{n} OGs: recall@10 {gate['recall_at_10']:.2f} at a "
            f"{GATE_FRACTION:.0%} budget (need >= {GATE_RECALL:.0%})"
        )
        assert gate["cost_fraction"] <= GATE_FRACTION + 1e-9, (
            f"{n} OGs: spent {gate['cost_fraction']:.1%} of the exact "
            f"scan's distance computations (budget {GATE_FRACTION:.0%})"
        )
