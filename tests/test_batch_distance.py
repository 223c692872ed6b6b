"""Batched / parallel / cached distance engine.

Equivalence of the vectorized wavefront kernels of
:mod:`repro.distance.batch` with independent scalar references, the
paper's EGED triangle-violation worked example, the content-hash memo
cache, and serial-vs-parallel executor parity.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import observability
from repro.distance import batch as batch_module
from repro.distance.base import CountingDistance, Distance
from repro.distance.batch import (
    ROW_PLANE_CELLS,
    PaddedBatch,
    batch_dtw,
    batch_eged,
    batch_erp,
    batch_erp_matrix,
    batch_lcs,
    one_vs_many,
    pairwise_matrix,
    supports_batch,
)
from repro.distance.cache import (
    DistanceCache,
    cached_one_vs_many,
    get_default_cache,
    set_default_cache,
)
from repro.distance.dtw import DTW, dtw
from repro.distance.eged import EGED, MetricEGED, eged
from repro.distance.erp import ERP, erp
from repro.distance.lcs import LCSDistance, lcs_distance
from repro.distance.lp import LpDistance
from repro.errors import IndexStateError, InvalidParameterError
from repro.mtree.tree import MTree, MTreeConfig
from repro.query import Query

TOL = 1e-9


# -- independent scalar EGED reference (kept deliberately naive) -------------

def naive_gap_values(seq: np.ndarray, mode: str) -> np.ndarray:
    m = seq.shape[0]
    out = np.empty((m + 1, seq.shape[1]), dtype=np.float64)
    out[0] = seq[0]
    if mode == "adaptive":
        out[m] = seq[m - 1]
        if m > 1:
            out[1:m] = (seq[:-1] + seq[1:]) / 2.0
    else:
        out[1:] = seq
    return out


def naive_eged(a: np.ndarray, b: np.ndarray, mode: str) -> float:
    """Definition 9's edit DP, row by row over plain Python floats."""
    n, m = a.shape[0], b.shape[0]
    sub = [[float(np.linalg.norm(a[i] - b[j])) for j in range(m)]
           for i in range(n)]
    mid_b = naive_gap_values(b, mode)
    del_cost = [[float(np.linalg.norm(a[i] - mid_b[j]))
                 for j in range(m + 1)] for i in range(n)]
    mid_a = naive_gap_values(a, mode)
    ins_cost = [[float(np.linalg.norm(b[j] - mid_a[i]))
                 for i in range(n + 1)] for j in range(m)]
    prev = [0.0] * (m + 1)
    for j in range(m):
        prev[j + 1] = prev[j] + ins_cost[j][0]
    for i in range(n):
        cur = [prev[0] + del_cost[i][0]]
        for j in range(m):
            best = min(
                prev[j] + sub[i][j],
                prev[j + 1] + del_cost[i][j + 1],
                cur[-1] + ins_cost[j][i + 1],
            )
            cur.append(best)
        prev = cur
    return float(prev[m])


def random_series(rng: np.random.Generator, dim: int,
                  max_len: int = 18) -> np.ndarray:
    n = int(rng.integers(1, max_len))
    return np.asarray(rng.normal(size=(n, dim)) * 3.0, dtype=np.float64)


# -- batch vs scalar equivalence ---------------------------------------------

class TestBatchEquivalence:
    @pytest.mark.parametrize("mode", ["adaptive", "dtw"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_eged_matches_naive_reference(self, mode, dim):
        rng = np.random.default_rng(hash((mode, dim)) % 2**31)
        query = random_series(rng, dim)
        batch = [random_series(rng, dim) for _ in range(17)]
        got = batch_eged(query, batch, mode)
        want = [naive_eged(query, b, mode) for b in batch]
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("gap", [0.0, 1.5])
    def test_erp_matches_scalar(self, dim, gap):
        rng = np.random.default_rng(7 + dim)
        query = random_series(rng, dim)
        batch = [random_series(rng, dim) for _ in range(15)]
        got = batch_erp(query, batch, gap)
        want = [erp(query, b, gap) for b in batch]
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)

    def test_erp_vector_gap_matches_scalar(self):
        rng = np.random.default_rng(11)
        gap = np.array([0.5, -1.0])
        query = random_series(rng, 2)
        batch = [random_series(rng, 2) for _ in range(12)]
        got = batch_erp(query, batch, gap)
        want = [erp(query, b, gap) for b in batch]
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_dtw_matches_scalar(self, dim):
        rng = np.random.default_rng(13 + dim)
        query = random_series(rng, dim)
        batch = [random_series(rng, dim) for _ in range(15)]
        got = batch_dtw(query, batch)
        want = [dtw(query, b) for b in batch]
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)

    @pytest.mark.parametrize("delta", [None, 3])
    def test_lcs_matches_scalar(self, delta):
        rng = np.random.default_rng(17)
        query = random_series(rng, 2)
        batch = [random_series(rng, 2) for _ in range(15)]
        got = batch_lcs(query, batch, 2.0, delta)
        want = [lcs_distance(query, b, 2.0, delta) for b in batch]
        # LCS counts matches in integers — the kernels must agree exactly.
        np.testing.assert_array_equal(got, np.asarray(want))

    def test_single_point_series(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[0.0, 0.0]])
        for fn, args in [(batch_eged, ("adaptive",)), (batch_erp, (0.0,)),
                         (batch_dtw, ()), (batch_lcs, (1.0, None))]:
            out = fn(a, [b, a], *args)
            assert out.shape == (2,)
            assert out[1] == pytest.approx(0.0, abs=TOL)

    def test_empty_batch(self):
        a = np.array([[1.0]])
        for fn, args in [(batch_eged, ("adaptive",)), (batch_erp, (0.0,)),
                         (batch_dtw, ()), (batch_lcs, (1.0, None))]:
            assert fn(a, [], *args).shape == (0,)

    def test_paper_triangle_violation_example(self):
        """OG_r={0}, OG_s={1,1}, OG_t={2,2,3}: EGED(r,t)=7 > 2+4."""
        r = np.array([[0.0]])
        s = np.array([[1.0], [1.0]])
        t = np.array([[2.0], [2.0], [3.0]])
        d_rt, d_rs = batch_eged(r, [t, s], "adaptive")
        d_st = batch_eged(s, [t], "adaptive")[0]
        assert d_rt == pytest.approx(7.0, abs=TOL)
        assert d_rs == pytest.approx(2.0, abs=TOL)
        assert d_st == pytest.approx(4.0, abs=TOL)
        assert d_rt > d_rs + d_st
        # And the scalar entry point (now batch-backed) agrees.
        assert eged(r, t) == pytest.approx(7.0, abs=TOL)

    def test_chunking_is_bit_invariant(self, monkeypatch):
        """A row-plane bound of one cell (every chunk a single series)
        must not change a single bit."""
        rng = np.random.default_rng(23)
        query = random_series(rng, 2)
        batch = [random_series(rng, 2) for _ in range(40)]
        kernels = (EGED(), EGED("dtw"), MetricEGED(0.5), DTW(),
                   LCSDistance(2.0))
        whole = [one_vs_many(d, query, batch) for d in kernels]
        assert len(PaddedBatch(batch).chunks) == 1
        monkeypatch.setattr("repro.distance.batch.ROW_PLANE_CELLS", 1)
        prepared = PaddedBatch(batch)
        assert len(prepared.chunks) == 40
        for d, want in zip(kernels, whole):
            assert np.array_equal(one_vs_many(d, query, batch), want)
            assert np.array_equal(one_vs_many(d, query, prepared), want)

    def test_constrained_variants_fall_back_to_scalar(self):
        rng = np.random.default_rng(29)
        query = random_series(rng, 2)
        batch = [random_series(rng, 2) for _ in range(6)]
        for d in (DTW(window=2), ERP(band=2)):
            got = d.compute_many(query, batch)
            want = [d.compute(query, b) for b in batch]
            np.testing.assert_array_equal(got, np.asarray(want))


# -- dispatch helpers ---------------------------------------------------------

class TestDispatch:
    def test_supports_batch(self):
        assert supports_batch(EGED())
        assert supports_batch(MetricEGED())
        assert supports_batch(ERP())
        assert supports_batch(DTW())
        assert supports_batch(LCSDistance())
        assert supports_batch(CountingDistance(MetricEGED()))
        assert not supports_batch(LpDistance())
        assert not supports_batch(lambda a, b: 0.0)

    def test_one_vs_many_matches_scalar_calls(self):
        rng = np.random.default_rng(31)
        query = random_series(rng, 2)
        items = [random_series(rng, 2) for _ in range(9)]
        d = MetricEGED(0.5)
        got = one_vs_many(d, query, items)
        want = [d(query, b) for b in items]
        np.testing.assert_allclose(got, want, rtol=0, atol=TOL)

    def test_one_vs_many_plain_callable_preserves_order(self):
        calls = []

        def asym(a, b):
            calls.append((len(a), len(b)))
            return float(len(a) - 0.5 * len(b))

        query = np.zeros((3, 1))
        items = [np.zeros((n, 1)) for n in (1, 2, 4)]
        got = one_vs_many(asym, query, items)
        assert calls == [(3, 1), (3, 2), (3, 4)]
        np.testing.assert_allclose(got, [2.5, 2.0, 1.0])

    def test_counting_distance_counts_batched_evaluations(self):
        counter = CountingDistance(MetricEGED())
        rng = np.random.default_rng(37)
        items = [random_series(rng, 1) for _ in range(8)]
        one_vs_many(counter, items[0], items)
        assert counter.calls == 8

    def test_pairwise_matrix_symmetric(self):
        rng = np.random.default_rng(41)
        items = [random_series(rng, 2) for _ in range(7)]
        d = MetricEGED()
        mat = pairwise_matrix(d, items)
        assert mat.shape == (7, 7)
        np.testing.assert_array_equal(mat, mat.T)
        np.testing.assert_array_equal(np.diag(mat), np.zeros(7))
        for i in range(7):
            for j in range(i + 1, 7):
                assert mat[i, j] == pytest.approx(
                    d(items[i], items[j]), abs=TOL
                )

    def test_pairwise_matrix_rectangular(self):
        rng = np.random.default_rng(43)
        items = [random_series(rng, 1) for _ in range(4)]
        others = [random_series(rng, 1) for _ in range(6)]
        d = DTW()
        mat = pairwise_matrix(d, items, others)
        assert mat.shape == (4, 6)
        for i in range(4):
            for j in range(6):
                assert mat[i, j] == pytest.approx(
                    d(items[i], others[j]), abs=TOL
                )


# -- reference batching -------------------------------------------------------

def golden_corpus() -> tuple[list[np.ndarray], list[np.ndarray]]:
    """600 two-attribute series of 1-30 nodes and six refs of 1-30."""
    rng = np.random.default_rng(2005)
    corpus = [rng.normal(0.0, 40.0, (int(rng.integers(1, 31)), 2))
              for _ in range(600)]
    refs = [rng.normal(0.0, 40.0, (n, 2)) for n in (1, 4, 9, 17, 30, 12)]
    return corpus, refs


def sha256(arr: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(arr, dtype=np.float64).tobytes()).hexdigest()


def kernel_calls(monkeypatch) -> list[int]:
    """Refs per ``_erp_kernel`` call, recorded from here on."""
    calls: list[int] = []
    kernel = batch_module._erp_kernel

    def counting(*args):
        calls.append(len(args[0]))
        return kernel(*args)

    monkeypatch.setattr(batch_module, "_erp_kernel", counting)
    return calls


class TestReferenceBatching:
    @given(seed=st.integers(0, 2**31 - 1),
           ref_lengths=st.lists(st.integers(1, 20), min_size=1,
                                max_size=12),
           num_items=st.integers(1, 40),
           flat=st.booleans(), gap=st.sampled_from([0.0, 1.5]),
           prepared=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_every_row_is_the_one_ref_sweep(self, seed, ref_lengths,
                                            num_items, flat, gap, prepared):
        """Row ``q`` of the block equals ``one_vs_many(refs[q], items)``
        bit for bit: refs of unequal length (1 node included), 1-D or
        2-D values, any gap, items as a list or a ``PaddedBatch``."""
        rng = np.random.default_rng(seed)

        def series(n):
            return rng.normal(0.0, 5.0, n if flat else (n, 2))

        refs = [series(n) for n in ref_lengths]
        items = [series(int(rng.integers(1, 21))) for _ in range(num_items)]
        d = MetricEGED(gap)
        block = pairwise_matrix(d, refs, PaddedBatch(items) if prepared
                                else items)
        assert block.shape == (len(refs), len(items))
        for ref, row in zip(refs, block):
            assert np.array_equal(row, one_vs_many(d, ref, items))

    def test_refs_straddling_the_grouping_boundary(self, monkeypatch):
        """One ref past what a kernel call may hold: two calls, same bits."""
        rng = np.random.default_rng(47)
        items = [rng.normal(size=(30, 2))] + [
            random_series(rng, 2, max_len=30) for _ in range(39)]
        group = ROW_PLANE_CELLS // (len(items) * 31)
        refs = [random_series(rng, 2) for _ in range(group + 1)]
        d = MetricEGED(0.5)
        rows = [one_vs_many(d, ref, items) for ref in refs]
        calls = kernel_calls(monkeypatch)
        block = pairwise_matrix(d, refs, items)
        assert calls == [group, 1]
        assert np.array_equal(block, np.stack(rows))

    def test_golden_bits(self):
        """The ERP kernel's bits on a fixed corpus, as recorded before the
        kernel took a reference axis (one-ref sweeps per row)."""
        corpus, refs = golden_corpus()
        d = MetricEGED()
        assert sha256(one_vs_many(d, refs[3], corpus)) == (
            "cc0532bccce16bee32229be2c6975ec9c3adf55d1e0bd09dbc07518464421aac")
        assert sha256(pairwise_matrix(d, refs, corpus)) == (
            "bd1d91d240debb9970e96b9c361cd212827b53fefe73c8fe6b11e9e0b8d742f8")
        assert sha256(pairwise_matrix(d, refs, corpus[:24])) == (
            "451dd76aa07594bdd0ef02fcba8fad4be71f9a3c21349d40ed4dd1c078bd24a4")

    @pytest.mark.parametrize("case, digest", [
        ("eged_adaptive",
         "82655607f9f990abe2669f8da46224a2259587a1785fb257e731fbdf7f630076"),
        ("eged_dtw",
         "ab9f2f70b1151628e6252a58cd6c041bd9013b68e4203b85a43f70d9c287c117"),
        ("dtw",
         "ab9f2f70b1151628e6252a58cd6c041bd9013b68e4203b85a43f70d9c287c117"),
        ("lcs",
         "2faa1e73f366077bc8f4806d73a1bf9c2027b5cd74ec93528a98b23cfd961d49"),
        ("lcs_delta",
         "603e5463348ddc8cbb97f743804cfbc61d68ada3d2ac5bd064803ba3b6639588"),
        ("window_32",
         "0d5b043bf886a6986696e2d8150dfd7d6e3cb9941a5346c21e030a5107423186"),
        ("window_64",
         "18c852fd98b4c090107861f9862a302a79afc4abcf9afa0b59d406fa570fe723"),
        ("erp_gap_1.5",
         "6c0d43fc1fb98d0cd7ef4ccaab98dca786d1b02d05e96b2e58a515ef77f468f8"),
        ("erp_1d",
         "5d4b24907b70e283a626501dbd1421af70ce716dc5a1636df4732b81ce9f7017"),
        ("erp_vector_gap",
         "7eddb008d94eedef6e9f044a3f7bf5932f856bafc6ebdf7fbb2a4bcc401cbd90"),
    ])
    def test_golden_bits_every_kernel(self, case, digest):
        """Every batched kernel's bits on the golden corpus, recorded on
        the row-major ``(B, M + 1)`` DP planes: 600 items span several
        chunks; the 32- and 64-item windows are one chunk each (the
        shape of an exact-scan and a rerank window)."""
        corpus, refs = golden_corpus()
        cases = {
            "eged_adaptive": lambda: one_vs_many(EGED(), refs[3], corpus),
            "eged_dtw": lambda: one_vs_many(EGED("dtw"), refs[3], corpus),
            "dtw": lambda: one_vs_many(DTW(), refs[3], corpus),
            "lcs": lambda: one_vs_many(LCSDistance(20.0), refs[3], corpus),
            "lcs_delta": lambda: one_vs_many(LCSDistance(20.0, 3), refs[3],
                                             corpus),
            "window_32": lambda: one_vs_many(MetricEGED(), refs[4],
                                             corpus[:32]),
            "window_64": lambda: one_vs_many(MetricEGED(), refs[4],
                                             corpus[:64]),
            "erp_gap_1.5": lambda: pairwise_matrix(MetricEGED(1.5), refs,
                                                   corpus),
            "erp_1d": lambda: pairwise_matrix(
                MetricEGED(), [r[:, 0] for r in refs],
                [s[:, 0] for s in corpus]),
            "erp_vector_gap": lambda: batch_erp_matrix(
                refs, corpus, np.array([1.5, -0.5])),
        }
        assert sha256(cases[case]()) == digest

    def test_small_blocks_are_one_kernel_call(self, monkeypatch):
        rng = np.random.default_rng(53)
        refs = [random_series(rng, 2) for _ in range(16)]
        items = [random_series(rng, 2)]
        calls = kernel_calls(monkeypatch)
        pairwise_matrix(MetricEGED(), refs, items)
        assert calls == [16]

    def test_block_counts_every_pair_once(self):
        rng = np.random.default_rng(59)
        refs = [random_series(rng, 2) for _ in range(5)]
        items = [random_series(rng, 2) for _ in range(7)]
        counter = CountingDistance(MetricEGED())
        observability.configure(enabled=True, reset_state=True)
        try:
            pairwise_matrix(counter, refs, items)
            pairs = observability.metrics()["distance.pairs_computed"]
        finally:
            observability.configure(enabled=False, reset_state=True)
        assert counter.calls == pairs == 35

    def test_default_hook_stacks_compute_many(self):
        rng = np.random.default_rng(61)
        refs = [random_series(rng, 1) for _ in range(3)]
        items = [random_series(rng, 1) for _ in range(5)]
        for d in (DTW(), EGED(), LCSDistance(2.0), ERP(band=2),
                  CountingDistance(EGED())):
            assert np.array_equal(
                pairwise_matrix(d, refs, items),
                np.stack([one_vs_many(d, ref, items) for ref in refs]))

    def test_empty_sides(self):
        rng = np.random.default_rng(67)
        items = [random_series(rng, 2) for _ in range(3)]
        assert pairwise_matrix(MetricEGED(), [], items).shape == (0, 3)
        assert pairwise_matrix(MetricEGED(), items, []).shape == (3, 0)


# -- memo cache ---------------------------------------------------------------

class TestDistanceCache:
    def test_hits_and_misses(self):
        rng = np.random.default_rng(47)
        cache = DistanceCache()
        d = MetricEGED()
        query = random_series(rng, 2)
        items = [random_series(rng, 2) for _ in range(5)]
        first = cache.one_vs_many(d, query, items)
        assert (cache.stats.hits, cache.stats.misses) == (0, 5)
        second = cache.one_vs_many(d, query, items)
        assert (cache.stats.hits, cache.stats.misses) == (5, 5)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_allclose(
            first, [d(query, b) for b in items], rtol=0, atol=TOL
        )

    def test_symmetry_shares_entries(self):
        rng = np.random.default_rng(53)
        cache = DistanceCache()
        d = EGED()
        a, b = random_series(rng, 1), random_series(rng, 1)
        cache.one_vs_many(d, a, [b])
        cache.one_vs_many(d, b, [a])
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_distinct_tokens_do_not_collide(self):
        rng = np.random.default_rng(59)
        cache = DistanceCache()
        a, b = random_series(rng, 1), random_series(rng, 1)
        v1 = cache.one_vs_many(EGED(), a, [b])[0]
        v2 = cache.one_vs_many(MetricEGED(), a, [b])[0]
        assert cache.stats.misses == 2
        assert v1 == pytest.approx(eged(a, b), abs=TOL)
        assert v2 == pytest.approx(erp(a, b, 0.0), abs=TOL)

    def test_counting_distance_bypasses(self):
        rng = np.random.default_rng(61)
        cache = DistanceCache()
        counter = CountingDistance(MetricEGED())
        query = random_series(rng, 1)
        items = [random_series(rng, 1) for _ in range(4)]
        cache.one_vs_many(counter, query, items)
        cache.one_vs_many(counter, query, items)
        assert counter.calls == 8  # every evaluation really ran
        assert cache.stats.bypasses == 8
        assert len(cache) == 0

    def test_lru_eviction(self):
        rng = np.random.default_rng(67)
        cache = DistanceCache(max_entries=2)
        d = DTW()
        query = random_series(rng, 1)
        items = [random_series(rng, 1) for _ in range(5)]
        cache.one_vs_many(d, query, items)
        assert len(cache) == 2
        assert cache.stats.evictions == 3

    def test_default_cache_swap(self):
        fresh = DistanceCache()
        previous = set_default_cache(fresh)
        try:
            assert get_default_cache() is fresh
            rng = np.random.default_rng(71)
            q = random_series(rng, 1)
            cached_one_vs_many(EGED(), q, [random_series(rng, 1)])
            assert fresh.stats.misses == 1
        finally:
            set_default_cache(previous)

    def test_invalid_capacity(self):
        with pytest.raises(InvalidParameterError):
            DistanceCache(max_entries=0)


# -- Query.run ranking --------------------------------------------------------

class _SeriesIndex:
    """Minimal query source: a bag of trajectories + a metric."""

    def __init__(self, series):
        self._series = series
        self.metric_distance = MetricEGED()

    def object_graphs(self):
        yield from self._series


class TestQueryRanking:
    def test_limit_uses_partial_selection_consistently(self):
        rng = np.random.default_rng(97)
        series = [random_series(rng, 2) for _ in range(30)]
        query_series = random_series(rng, 2)
        full = Query(_SeriesIndex(series)).similar_to(query_series).run()
        top5 = (Query(_SeriesIndex(series))
                .similar_to(query_series).limit(5).run())
        assert len(top5) == 5
        assert [r.distance for r in top5] == [r.distance for r in full[:5]]
        assert [id(r.og) for r in top5] == [id(r.og) for r in full[:5]]

    def test_limit_larger_than_results(self):
        rng = np.random.default_rng(101)
        series = [random_series(rng, 1) for _ in range(4)]
        hits = (Query(_SeriesIndex(series))
                .similar_to(series[0]).limit(10).run())
        assert len(hits) == 4
        assert hits[0].distance == pytest.approx(0.0, abs=TOL)


# -- M-tree bulk load ---------------------------------------------------------

class TestMTreeBulkLoad:
    def _brute(self, d, items, query, k):
        dists = sorted(
            (float(d(query, obj)), i) for i, obj in enumerate(items)
        )
        return dists[:k]

    def test_matches_brute_force_knn(self):
        rng = np.random.default_rng(103)
        items = [random_series(rng, 2) for _ in range(40)]
        tree = MTree(MetricEGED(), MTreeConfig(node_capacity=4, seed=5))
        ids = tree.bulk_load(items)
        assert len(tree) == 40 and ids == list(range(40))
        query = random_series(rng, 2)
        got = tree.knn(query, 5)
        want = self._brute(MetricEGED(), items, query, 5)
        assert [oid for _, oid, _ in got] == [i for _, i in want]
        np.testing.assert_allclose(
            [dist for dist, _, _ in got], [dist for dist, _ in want],
            rtol=0, atol=TOL,
        )

    def test_matches_brute_force_range(self):
        rng = np.random.default_rng(107)
        items = [random_series(rng, 1) for _ in range(30)]
        tree = MTree(MetricEGED(), MTreeConfig(node_capacity=3, seed=2))
        tree.bulk_load(items)
        d = MetricEGED()
        query = items[7]
        radius = 5.0
        got = {oid for _, oid, _ in tree.range_query(query, radius)}
        want = {i for i, obj in enumerate(items) if d(query, obj) <= radius}
        assert got == want

    def test_duplicate_objects_terminate(self):
        base = np.array([[1.0, 2.0], [3.0, 4.0]])
        items = [base.copy() for _ in range(30)]
        tree = MTree(MetricEGED(), MTreeConfig(node_capacity=4))
        tree.bulk_load(items)
        assert len(tree) == 30
        hits = tree.knn(base, 7)
        assert len(hits) == 7
        assert all(dist == pytest.approx(0.0, abs=TOL)
                   for dist, _, _ in hits)

    def test_requires_empty_tree_and_matching_ids(self):
        tree = MTree(MetricEGED())
        tree.insert(np.array([[0.0]]))
        with pytest.raises(IndexStateError):
            tree.bulk_load([np.array([[1.0]])])
        empty = MTree(MetricEGED())
        with pytest.raises(InvalidParameterError):
            empty.bulk_load([np.array([[1.0]])], object_ids=[1, 2])

    def test_empty_bulk_load(self):
        tree = MTree(MetricEGED())
        assert tree.bulk_load([]) == []
        assert len(tree) == 0

    def test_custom_distance_class_default_loop(self):
        """Distances without a batched kernel still bulk-load correctly."""

        class Manhattan1(Distance):
            def compute(self, a, b):
                return float(abs(a.sum() - b.sum()))

        rng = np.random.default_rng(113)
        items = [random_series(rng, 1) for _ in range(20)]
        tree = MTree(Manhattan1(), MTreeConfig(node_capacity=4, seed=1))
        tree.bulk_load(items)
        query = items[3]
        got = [oid for _, oid, _ in tree.knn(query, 3)]
        want = [i for _, i in self._brute(Manhattan1(), items, query, 3)]
        assert got == want
