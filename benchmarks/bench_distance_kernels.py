"""Micro-benchmarks of the distance kernels.

Not a paper figure — engineering benchmarks tracking the cost of the
O(n*m) dynamic programs that dominate every experiment (Section 6.3's
cost model).  Uses pytest-benchmark's statistical timing (multiple
rounds), unlike the figure benches which run expensive sweeps once.

``bench_batch_engine_report`` additionally compares the scalar per-pair
loop against the vectorized batch kernels and archives a
machine-readable ``benchmarks/results/BENCH_kernels.json`` (ops/sec per
variant, one prepared-batch-vs-list row, EM wall-clock, cache hit
rates).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from conftest import format_table, record_result
from repro.core.scan import WINDOW

LENGTHS = (16, 32, 64)

#: Scale of the batch-engine report: 256 series of 64 nodes.
BATCH_N = 64
BATCH_SIZE = 256
SCALAR_SAMPLE = 48
#: Queries sweeping the same batch in the prepared-vs-list row.
PREPARED_QUERIES = 8


@pytest.fixture(scope="module")
def series_pairs():
    rng = np.random.default_rng(0)
    return {
        n: (rng.normal(size=(n, 2)) * 20, rng.normal(size=(n + 7, 2)) * 20)
        for n in LENGTHS
    }


@pytest.fixture(scope="module")
def series_batch():
    rng = np.random.default_rng(1)
    return [
        np.asarray(rng.normal(size=(BATCH_N, 2)) * 20, dtype=np.float64)
        for _ in range(BATCH_SIZE)
    ]


@pytest.mark.parametrize("length", LENGTHS)
def bench_eged_nonmetric(benchmark, series_pairs, length):
    from repro.distance.eged import eged

    a, b = series_pairs[length]
    result = benchmark(eged, a, b)
    assert result >= 0.0


@pytest.mark.parametrize("length", LENGTHS)
def bench_eged_metric(benchmark, series_pairs, length):
    from repro.distance.erp import erp

    a, b = series_pairs[length]
    result = benchmark(erp, a, b)
    assert result >= 0.0


@pytest.mark.parametrize("length", LENGTHS)
def bench_dtw(benchmark, series_pairs, length):
    from repro.distance.dtw import dtw

    a, b = series_pairs[length]
    result = benchmark(dtw, a, b)
    assert result >= 0.0


@pytest.mark.parametrize("length", LENGTHS)
def bench_lcs(benchmark, series_pairs, length):
    from repro.distance.lcs import lcs_distance

    a, b = series_pairs[length]
    result = benchmark(lcs_distance, a, b, 5.0)
    assert 0.0 <= result <= 1.0


def bench_lower_bound_vs_full_distance(benchmark, series_pairs):
    """The O(n) lower bound must be orders of magnitude cheaper than the
    O(n*m) DP it gates."""
    from repro.distance.bounds import eged_metric_lower_bound

    a, b = series_pairs[64]
    result = benchmark(eged_metric_lower_bound, a, b)
    assert result >= 0.0


# -- batched variants --------------------------------------------------------

def _seed_eged(a: np.ndarray, b: np.ndarray, mode: str = "adaptive") -> float:
    """The seed repo's ``_eged_dynamic``: cost matrices round-tripped
    through ``.tolist()`` plus a rolling-row DP over Python floats.

    Kept here verbatim as the *pre-batching* scalar baseline — the
    production ``eged()`` now delegates to the batch kernel even for a
    single pair, so timing it would compare the engine against itself.
    """
    from repro.distance.base import node_cost_matrix
    from repro.distance.eged import _gap_values

    n, m = a.shape[0], b.shape[0]
    sub = node_cost_matrix(a, b).tolist()
    mid_b = _gap_values(b, mode)
    del_cost = np.sqrt(
        np.sum((a[:, None, :] - mid_b[None, :, :]) ** 2, axis=2)
    ).tolist()
    mid_a = _gap_values(a, mode)
    ins_cost = np.sqrt(
        np.sum((b[:, None, :] - mid_a[None, :, :]) ** 2, axis=2)
    ).tolist()
    prev = [0.0] * (m + 1)
    for j in range(m):
        prev[j + 1] = prev[j] + ins_cost[j][0]
    for i in range(n):
        srow = sub[i]
        drow = del_cost[i]
        cur = [prev[0] + drow[0]]
        last = cur[0]
        for j in range(m):
            best = prev[j] + srow[j]
            cand = prev[j + 1] + drow[j + 1]
            if cand < best:
                best = cand
            cand = last + ins_cost[j][i + 1]
            if cand < best:
                best = cand
            cur.append(best)
            last = best
        prev = cur
    return float(prev[m])


def _engine_distances():
    """kernel name -> (batch-capable Distance, pre-batching scalar loop).

    ``erp``/``dtw``/``lcs_distance`` still *are* the rolling-row scalar
    loops; EGED's scalar path delegates to the batch kernel, so its
    baseline is the seed implementation preserved in :func:`_seed_eged`.
    """
    from repro.distance.dtw import DTW, dtw
    from repro.distance.eged import EGED, MetricEGED
    from repro.distance.erp import erp
    from repro.distance.lcs import LCSDistance, lcs_distance

    return {
        "eged_adaptive": (EGED(), _seed_eged),
        "eged_metric": (MetricEGED(), erp),
        "dtw": (DTW(), dtw),
        "lcs": (LCSDistance(epsilon=12.0),
                lambda a, b: lcs_distance(a, b, 12.0)),
    }


@pytest.mark.parametrize("kernel", ["eged_adaptive", "eged_metric",
                                    "dtw", "lcs"])
def bench_one_vs_many_batched(benchmark, series_batch, kernel):
    """One vectorized sweep over 64 series (the EM E-step shape)."""
    from repro.distance.batch import one_vs_many

    distance, _ = _engine_distances()[kernel]
    items = series_batch[:64]
    out = benchmark(one_vs_many, distance, series_batch[64], items)
    assert out.shape == (64,) and np.all(out >= 0.0)


@pytest.mark.parametrize("kernel", ["eged_adaptive", "eged_metric",
                                    "dtw", "lcs"])
def bench_one_vs_many_prepared(benchmark, series_batch, kernel):
    """The same sweep over a batch prepared beforehand (the build
    stages' shape: one ``PaddedBatch``, many queries) — bit-equal to
    handing over the list."""
    from repro.distance.batch import PaddedBatch, one_vs_many

    distance, _ = _engine_distances()[kernel]
    items = series_batch[:64]
    prepared = PaddedBatch(items)
    out = benchmark(one_vs_many, distance, series_batch[64], prepared)
    assert np.array_equal(out, one_vs_many(distance, series_batch[64], items))


def bench_one_vs_many_window(benchmark):
    """One query-path sweep: the metric EGED from a query to one full
    window of 10-20-node candidates handed over as a list — the call
    shape of every k-NN scan, exact or budgeted (``WINDOW``),
    preparation included."""
    from repro.distance.batch import one_vs_many
    from repro.distance.eged import MetricEGED
    from repro.distance.erp import erp

    rng = np.random.default_rng(9)
    items = [rng.normal(size=(int(rng.integers(10, 21)), 2)) * 20
             for _ in range(WINDOW)]
    query = rng.normal(size=(15, 2)) * 20
    out = benchmark(one_vs_many, MetricEGED(), query, items)
    np.testing.assert_allclose(out, [erp(query, b) for b in items],
                               rtol=0, atol=1e-9)


def _best_of(fn, repeats: int = 3) -> float:
    """Best wall-clock of ``repeats`` runs — the standard defence against
    scheduler jitter on a single-CPU container."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_batch_engine_report(series_batch):
    """Scalar vs batch throughput + EM wall-clock.

    Times each variant (best of three runs) at the n=64 / batch=256 scale
    (32 640 pairs for the full symmetric matrix), archives
    ``benchmarks/results/BENCH_kernels.json`` and asserts the batched
    pairwise matrix sustains at least 5x the scalar per-pair loop.
    """
    from repro.clustering.em import EMClustering, EMConfig
    from repro.distance.base import Distance
    from repro.distance.batch import PaddedBatch, one_vs_many, pairwise_matrix
    from repro.distance.cache import DistanceCache, set_default_cache
    from repro.distance.eged import EGED, MetricEGED

    items = series_batch
    n_pairs = len(items) * (len(items) - 1) // 2
    report: dict = {
        "config": {
            "series_length": BATCH_N,
            "batch_size": len(items),
            "matrix_pairs": n_pairs,
            "scalar_sample_pairs": SCALAR_SAMPLE,
        },
        "kernels": {},
    }
    rows = []
    for name, (distance, scalar_fn) in _engine_distances().items():
        sample = [(items[i], items[(7 * i + 1) % len(items)])
                  for i in range(SCALAR_SAMPLE)]

        def _scalar_loop():
            for a, b in sample:
                scalar_fn(a, b)

        scalar_ops = SCALAR_SAMPLE / _best_of(_scalar_loop)
        batch_ops = n_pairs / _best_of(
            lambda: pairwise_matrix(distance, items)
        )
        report["kernels"][name] = {
            "scalar_ops_per_sec": scalar_ops,
            "batch_ops_per_sec": batch_ops,
            "batch_speedup": batch_ops / scalar_ops,
        }
        rows.append([name, f"{scalar_ops:.0f}", f"{batch_ops:.0f}",
                     f"{batch_ops / scalar_ops:.1f}x"])

    # Batch reuse: the build stages' shape — the same items swept by
    # several queries, as a list each time vs one PaddedBatch.
    metric = MetricEGED()
    queries = items[:PREPARED_QUERIES]
    listed = [one_vs_many(metric, q, items) for q in queries]
    prepared = PaddedBatch(items)
    for q, want in zip(queries, listed):
        assert np.array_equal(one_vs_many(metric, q, prepared), want)
    list_seconds = _best_of(
        lambda: [one_vs_many(metric, q, items) for q in queries])

    def _prepared_sweeps():
        batch = PaddedBatch(items)
        for q in queries:
            one_vs_many(metric, q, batch)

    prepared_seconds = _best_of(_prepared_sweeps)
    report["prepared_batch"] = {
        "kernel": "eged_metric",
        "queries": len(queries),
        "items": len(items),
        "list_seconds": list_seconds,
        "prepared_seconds": prepared_seconds,
        "speedup": list_seconds / prepared_seconds,
    }

    # EM wall-clock: the batched+cached engine vs a per-pair-only wrapper.
    class _ScalarOnly(Distance):
        """Hides ``compute_many``/``cache_token`` → per-pair, uncached."""

        def __init__(self, inner):
            self.inner = inner

        def compute(self, a, b):
            return self.inner.compute(a, b)

    rng = np.random.default_rng(3)
    em_series = [
        np.asarray(rng.normal(size=(int(rng.integers(12, 20)), 2)) * 10)
        for _ in range(64)
    ]
    cfg = dict(n_clusters=6, max_iterations=8, seed=0)
    bench_cache = DistanceCache()
    previous_cache = set_default_cache(bench_cache)
    try:
        t0 = time.perf_counter()
        EMClustering(EMConfig(**cfg), distance=EGED()).fit(em_series)
        batched_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        EMClustering(EMConfig(**cfg),
                     distance=_ScalarOnly(EGED())).fit(em_series)
        scalar_seconds = time.perf_counter() - t0
    finally:
        set_default_cache(previous_cache)
    report["em_clustering"] = {
        "ogs": len(em_series),
        "n_clusters": cfg["n_clusters"],
        "max_iterations": cfg["max_iterations"],
        "scalar_seconds": scalar_seconds,
        "batched_seconds": batched_seconds,
        "speedup": scalar_seconds / batched_seconds,
        "cache": bench_cache.stats.as_dict(),
    }

    lines = format_table(
        ["kernel", "scalar ops/s", "batch ops/s", "batch speedup"],
        rows,
    )
    lines.append("")
    lines.append(
        f"{len(queries)} sweeps of {len(items)} series: a list each time "
        f"{list_seconds * 1e3:.1f} ms vs one PaddedBatch "
        f"{prepared_seconds * 1e3:.1f} ms "
        f"({list_seconds / prepared_seconds:.2f}x, results bit-equal)"
    )
    lines.append(
        f"EM wall-clock: scalar {scalar_seconds:.2f}s vs batched "
        f"{batched_seconds:.2f}s "
        f"({scalar_seconds / batched_seconds:.1f}x, cache hit rate "
        f"{bench_cache.stats.hit_rate():.0%})"
    )
    record_result("BENCH_kernels", lines, data=report)

    for name, row in report["kernels"].items():
        assert row["batch_speedup"] >= 5.0, (
            f"{name}: batched pairwise matrix only "
            f"{row['batch_speedup']:.1f}x over the scalar loop"
        )
    assert batched_seconds < scalar_seconds, (
        "batched EM slower than the per-pair path"
    )


#: ``(refs, items)`` of the reference-batched sweep rows: one insert
#: keyed against 16 centroids, and 8 sketch pivots over a 64-OG commit.
REF_SHAPES = ((16, 1), (8, 64))


def bench_pairwise_matrix_refs():
    """Every reference against every item: the per-ref loop of
    ``one_vs_many`` sweeps vs one ``pairwise_matrix`` block.

    Asserts the block is bit-equal to the loop and archives us/pair of
    both under ``BENCH_kernels_refs`` in ``BENCH_kernels.json`` (best
    of 20 runs each; untimed CI runs still check the bits).
    """
    from repro.distance.batch import one_vs_many, pairwise_matrix
    from repro.distance.eged import MetricEGED

    rng = np.random.default_rng(5)

    def series():
        return rng.normal(size=(int(rng.integers(10, 21)), 2)) * 20

    metric = MetricEGED()
    report, rows = {}, []
    for num_refs, num_items in REF_SHAPES:
        refs = [series() for _ in range(num_refs)]
        items = [series() for _ in range(num_items)]

        def loop():
            return np.stack([one_vs_many(metric, ref, items)
                             for ref in refs])

        block = pairwise_matrix(metric, refs, items)
        assert np.array_equal(block, loop())
        pairs = num_refs * num_items
        loop_us = 1e6 * _best_of(loop, repeats=20) / pairs
        block_us = 1e6 * _best_of(
            lambda: pairwise_matrix(metric, refs, items), repeats=20) / pairs
        report[f"{num_refs}x{num_items}"] = {
            "refs": num_refs, "items": num_items,
            "loop_us_per_pair": loop_us, "block_us_per_pair": block_us,
            "speedup": loop_us / block_us,
        }
        rows.append([f"{num_refs} x {num_items}", f"{loop_us:.1f}",
                     f"{block_us:.1f}", f"{loop_us / block_us:.1f}x"])
    lines = format_table(
        ["refs x items", "loop us/pair", "block us/pair", "speedup"], rows)
    record_result("BENCH_kernels_refs", lines, data=report,
                  json_name="BENCH_kernels")
