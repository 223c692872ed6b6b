"""Tests of the vectorized + frame-parallel ingestion engine.

Three independent guarantees are pinned here:

1. the vectorized kernels (min-label-propagation components, padded-array
   mean-shift filtering, bincount region merging) match the seed
   implementations — labelings up to label permutation, filtering
   bit-exactly;
2. the :func:`repro.parallel.ordered_chunk_map` primitive preserves item
   order and values regardless of chunking or pooling;
3. serial and parallel ingest produce bit-identical STRG / OG / index
   contents and identical quarantine decisions at every worker count.

Seed reference implementations are copied verbatim (like the bench
baselines) so the comparison target cannot drift.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

import repro.parallel
from repro.errors import InvalidParameterError
from repro.graph.tracking import GraphTracker
from repro.parallel import chunk_bounds, ordered_chunk_map, usable_cpus
from repro.pipeline import PipelineConfig, VideoPipeline
from repro.resilience import FaultInjector, injected
from repro.storage.database import VideoDatabase
from repro.video.regions import adjacent_label_pairs, region_adjacency
from repro.video.segmentation import (
    GridSegmenter,
    MeanShiftSegmenter,
    _connected_components,
    _label_transitions,
    _merge_small_regions,
)

# --------------------------------------------------------------------------
# Seed reference implementations (verbatim copies of the pre-vectorization
# code) — the ground truth the numpy kernels must reproduce.
# --------------------------------------------------------------------------


class _SeedUnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def seed_connected_components(features: np.ndarray,
                              threshold: float) -> np.ndarray:
    h, w = features.shape[:2]
    uf = _SeedUnionFind(h * w)
    flat = features.reshape(h * w, -1)
    for y in range(h):
        base = y * w
        for x in range(w - 1):
            i = base + x
            diff = flat[i] - flat[i + 1]
            if np.sqrt(np.sum(diff * diff)) <= threshold:
                uf.union(i, i + 1)
    for y in range(h - 1):
        base = y * w
        for x in range(w):
            i = base + x
            diff = flat[i] - flat[i + w]
            if np.sqrt(np.sum(diff * diff)) <= threshold:
                uf.union(i, i + w)
    roots = np.fromiter((uf.find(i) for i in range(h * w)), dtype=np.int64)
    _, labels = np.unique(roots, return_inverse=True)
    return labels.reshape(h, w).astype(np.int64)


def seed_filter(segmenter: MeanShiftSegmenter,
                features: np.ndarray) -> np.ndarray:
    h, w, _ = features.shape
    hr2 = segmenter.range_bandwidth ** 2
    offsets = segmenter._offsets()
    current = features.copy()
    for _ in range(segmenter.max_iterations):
        acc = np.zeros_like(current)
        cnt = np.zeros((h, w, 1), dtype=np.float64)
        for dy, dx in offsets:
            shifted = np.roll(np.roll(current, dy, axis=0), dx, axis=1)
            valid = np.ones((h, w), dtype=bool)
            if dy > 0:
                valid[:dy, :] = False
            elif dy < 0:
                valid[dy:, :] = False
            if dx > 0:
                valid[:, :dx] = False
            elif dx < 0:
                valid[:, dx:] = False
            diff = shifted - current
            in_range = np.sum(diff * diff, axis=2) <= hr2
            mask = (in_range & valid)[..., None].astype(np.float64)
            acc += shifted * mask
            cnt += mask
        new = acc / np.maximum(cnt, 1.0)
        converged = np.max(np.abs(new - current)) < 0.05
        current = new
        if converged:
            break
    return current


def assert_same_partition(a: np.ndarray, b: np.ndarray) -> None:
    """Two label images describe the same partition (up to permutation)."""
    assert a.shape == b.shape
    pairs = np.unique(np.stack([a.ravel(), b.ravel()], axis=1), axis=0)
    # A bijection between label sets: every a-label maps to exactly one
    # b-label and vice versa.
    assert len(pairs) == len(np.unique(a)) == len(np.unique(b))


def _adversarial_images() -> dict[str, np.ndarray]:
    h, w = 17, 23
    yy, xx = np.mgrid[0:h, 0:w]
    rng = np.random.default_rng(42)
    snake = ((yy % 4 == 0) | ((xx == 0) & (yy % 4 == 1))
             | ((xx == w - 1) & (yy % 4 == 3)))
    return {
        "all_equal": np.full((h, w, 3), 7.0),
        "all_distinct": np.arange(h * w * 3, dtype=np.float64
                                  ).reshape(h, w, 3) * 100.0,
        "checkerboard": np.where(((yy + xx) % 2)[..., None], 200.0, 0.0)
        * np.ones((h, w, 3)),
        "h_stripes": np.where((yy % 2)[..., None], 200.0, 0.0)
        * np.ones((h, w, 3)),
        "v_stripes": np.where((xx % 2)[..., None], 200.0, 0.0)
        * np.ones((h, w, 3)),
        # A single serpentine component threading the whole image —
        # worst case for label propagation (diameter ~ h*w).
        "snake": np.where(snake[..., None], 0.0, 250.0)
        * np.ones((h, w, 3)),
        "noise": rng.uniform(0, 255, size=(h, w, 3)),
    }


class TestConnectedComponents:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("threshold", [0.0, 8.0, 40.0])
    def test_matches_seed_on_random_images(self, seed, threshold):
        rng = np.random.default_rng(seed)
        features = rng.uniform(0, 100, size=(13, 19, 3))
        new = _connected_components(features, threshold)
        old = seed_connected_components(features, threshold)
        assert_same_partition(new, old)

    @pytest.mark.parametrize("name", sorted(_adversarial_images()))
    def test_matches_seed_on_adversarial_images(self, name):
        image = _adversarial_images()[name]
        for threshold in (0.0, 10.0):
            new = _connected_components(image, threshold)
            old = seed_connected_components(image, threshold)
            assert_same_partition(new, old)

    def test_quantized_colors_match_seed_at_threshold_zero(self):
        rng = np.random.default_rng(9)
        quantized = np.floor(rng.uniform(0, 8, size=(11, 14, 3)))
        new = _connected_components(quantized, 0.0)
        old = seed_connected_components(quantized, 0.0)
        assert_same_partition(new, old)

    def test_threshold_zero_fallback_for_unencodable_features(self):
        # Values outside the int64 packing range (negative / huge /
        # non-integral) must still label correctly via exact equality.
        for img in (
            np.array([[[-1.0], [-1.0], [2.0]], [[-1.0], [3.0], [2.0]]]),
            np.full((3, 4, 3), 2.0 ** 40),
            np.array([[[0.5], [0.5], [1.5]]]),
        ):
            new = _connected_components(img, 0.0)
            old = seed_connected_components(img, 0.0)
            assert_same_partition(new, old)

    def test_compact_labels(self):
        rng = np.random.default_rng(5)
        features = rng.uniform(0, 60, size=(9, 9, 3))
        labels = _connected_components(features, 12.0)
        assert labels.dtype == np.int64
        assert set(np.unique(labels)) == set(range(labels.max() + 1))

    def test_single_pixel_and_single_row(self):
        one = np.zeros((1, 1, 3))
        assert _connected_components(one, 0.0).tolist() == [[0]]
        row = np.array([[[0.0] * 3, [0.0] * 3, [90.0] * 3, [0.0] * 3]])
        labels = _connected_components(row, 1.0)
        assert labels[0, 0] == labels[0, 1]
        assert labels[0, 2] != labels[0, 0]
        assert labels[0, 3] != labels[0, 2]


class TestMergeSmallRegions:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_deterministic_and_respects_min_size(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.uniform(0, 255, size=(16, 16, 3))
        labels = _connected_components(np.floor(features / 64), 0.0)
        merged_a = _merge_small_regions(labels, features, min_size=6)
        merged_b = _merge_small_regions(labels, features, min_size=6)
        assert np.array_equal(merged_a, merged_b)
        # Compacted output.
        assert set(np.unique(merged_a)) == set(range(merged_a.max() + 1))

    def test_absorbs_single_small_region(self):
        # One 2-pixel island inside a uniform sea; the island must join
        # the sea (its only neighbor).
        image = np.zeros((8, 8, 3))
        image[3, 3:5] = 200.0
        labels = _connected_components(image, 1.0)
        assert labels.max() == 1
        merged = _merge_small_regions(labels, image, min_size=5)
        assert merged.max() == 0

    def test_closest_color_neighbor_wins(self):
        # A small middle stripe with two big neighbors; it must merge
        # into the color-closer (left) one.
        image = np.zeros((6, 9, 3))
        image[:, 3:5] = 40.0    # small-ish stripe: 12 px
        image[:, 5:] = 200.0
        labels = _connected_components(image, 1.0)
        merged = _merge_small_regions(labels, image, min_size=13)
        left = merged[0, 0]
        assert merged[0, 3] == left
        assert merged[0, 8] != left

    def test_label_transitions_matches_adjacency(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 5, size=(10, 12))
        transitions = _label_transitions(labels)
        assert transitions == region_adjacency(labels)


class TestAdjacentLabelPairs:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 7, size=(9, 13))
        brute = set()
        h, w = labels.shape
        for y in range(h):
            for x in range(w):
                for dy, dx in ((0, 1), (1, 0)):
                    if y + dy < h and x + dx < w:
                        a, b = labels[y, x], labels[y + dy, x + dx]
                        if a != b:
                            brute.add((min(a, b), max(a, b)))
        pairs = adjacent_label_pairs(labels)
        assert set(map(tuple, pairs.tolist())) == brute
        # Sorted, deduplicated, lo < hi.
        assert np.all(pairs[:, 0] < pairs[:, 1])
        assert len(np.unique(pairs, axis=0)) == len(pairs)

    def test_uniform_image_has_no_pairs(self):
        assert adjacent_label_pairs(np.zeros((4, 5), dtype=int)).shape \
            == (0, 2)


class TestMeanShiftFilter:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bit_identical_to_seed_roll_filter(self, seed):
        rng = np.random.default_rng(seed)
        features = rng.uniform(0, 255, size=(14, 17, 3))
        segmenter = MeanShiftSegmenter(spatial_bandwidth=2,
                                       range_bandwidth=25.0,
                                       max_iterations=4)
        assert np.array_equal(segmenter._filter(features),
                              seed_filter(segmenter, features))

    def test_segment_matches_seed_composition(self):
        rng = np.random.default_rng(7)
        image = (rng.uniform(0, 255, size=(12, 15, 3))).astype(np.uint8)
        segmenter = MeanShiftSegmenter(spatial_bandwidth=2,
                                       range_bandwidth=30.0,
                                       max_iterations=3, min_region_size=4)
        from repro.video.color import rgb_to_luv

        filtered = seed_filter(segmenter, rgb_to_luv(image))
        seed_labels = seed_connected_components(
            filtered, segmenter.range_bandwidth)
        new = segmenter.segment(image)
        # Pre-merge partitions agree; post-merge region count does too.
        assert_same_partition(
            _connected_components(filtered, segmenter.range_bandwidth),
            seed_labels,
        )
        assert new.max() >= 0


@pytest.fixture
def many_cpus(monkeypatch):
    """Let the pool run at the requested width on any host (the guard
    that keeps a one-core machine serial reads ``usable_cpus``)."""
    monkeypatch.setattr(repro.parallel, "usable_cpus", lambda: 8)


@pytest.fixture
def fork_server():
    """Have the package's fork server ready before a timed map: the
    first process a process starts waits for the server to start and
    import the package (~1 s), a one-time cost that is not the map's."""
    warm_up = repro.parallel.process_context().Process(target=time.sleep,
                                                        args=(0,))
    warm_up.start()
    warm_up.join(timeout=60)
    assert warm_up.exitcode == 0


class TestOrderedChunkMap:
    @staticmethod
    def _double(start, chunk):
        return [(start + i, 2 * x) for i, x in enumerate(chunk)]

    def test_preserves_order_serial(self):
        out = list(ordered_chunk_map(self._double, list(range(20)),
                                     workers=1))
        assert out == [(i, 2 * i) for i in range(20)]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_matches_serial(self, workers, many_cpus):
        items = list(range(23))
        serial = list(ordered_chunk_map(self._double, items, workers=1))
        pooled = list(ordered_chunk_map(self._double, items,
                                        workers=workers))
        assert pooled == serial

    def test_worker_error_propagates(self, many_cpus):
        with pytest.raises(ZeroDivisionError):
            list(ordered_chunk_map(_chunk_that_raises, [1, 0, 2],
                                   workers=2))

    def test_worker_error_does_not_wait_for_queued_chunks(
            self, many_cpus, fork_server, monkeypatch):
        # Chunk 0 fails at once with 7 half-second chunks behind it on 2
        # workers: only the chunk already running may finish first.
        monkeypatch.setattr(repro.parallel, "CHUNKS_PER_WORKER", 4)
        started = time.monotonic()
        with pytest.raises(ZeroDivisionError):
            list(ordered_chunk_map(_slow_unless_first, list(range(8)),
                                   workers=2))
        assert time.monotonic() - started < 2 * CHUNK_SECONDS
        with pytest.raises(ZeroDivisionError):  # serial: raises as before
            list(ordered_chunk_map(_slow_unless_first, [0], workers=1))

    def test_closing_early_does_not_wait_for_queued_chunks(
            self, many_cpus, fork_server, monkeypatch):
        monkeypatch.setattr(repro.parallel, "CHUNKS_PER_WORKER", 4)
        started = time.monotonic()
        results = ordered_chunk_map(_slow_unless_last, list(range(8)),
                                    workers=2)
        assert next(results) == 0
        results.close()
        assert time.monotonic() - started < 2 * CHUNK_SECONDS

    def test_chunks_do_not_inherit_a_lock_held_by_a_caller_thread(
            self, many_cpus, monkeypatch):
        # A pool worker forked from the caller would copy the lock in
        # its held state, with no thread left to release it: every
        # chunk would time out (and an untimed acquire would hang).
        monkeypatch.setattr(repro.parallel, "CHUNKS_PER_WORKER", 4)
        held, done = threading.Event(), threading.Event()

        def hold():
            with _HELD:
                held.set()
                done.wait()

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            held.wait()
            took = list(ordered_chunk_map(_takes_the_held_lock,
                                          list(range(8)), workers=2))
        finally:
            done.set()
            holder.join()
        assert took == [True] * 8

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            list(ordered_chunk_map(self._double, [1], workers=-1))

    def test_empty_items(self):
        assert list(ordered_chunk_map(self._double, [], workers=4)) == []

    def test_chunk_bounds_cover_range(self):
        for n, k in ((10, 3), (3, 10), (0, 4), (7, 1)):
            bounds = chunk_bounds(n, k)
            flat = [i for lo, hi in bounds for i in range(lo, hi)]
            assert flat == list(range(n))

    def test_usable_cpus_positive(self):
        assert usable_cpus() >= 1


def _chunk_that_raises(start, chunk):
    return [1 // x for x in chunk]


CHUNK_SECONDS = 0.5


def _slow_unless_first(start, chunk):
    if start == 0:
        raise ZeroDivisionError("poison clip")
    time.sleep(CHUNK_SECONDS)
    return list(chunk)


def _slow_unless_last(start, chunk):
    if start:
        time.sleep(CHUNK_SECONDS)
    return list(chunk)


#: Held by a thread of the calling process while the chunks run.
_HELD = threading.Lock()


def _takes_the_held_lock(start, chunk):
    took = _HELD.acquire(timeout=1.0)
    if took:
        _HELD.release()
    return [took] * len(chunk)


# --------------------------------------------------------------------------
# Serial vs parallel pipeline / ingest identity
# --------------------------------------------------------------------------


def _strg_signature(strg):
    sig = []
    for m in range(strg.num_frames):
        rag = strg.rag(m)
        sig.append(sorted(
            (v, rag.node_attrs(v).size,
             tuple(rag.node_attrs(v).color),
             tuple(rag.node_attrs(v).centroid))
            for v in rag.nodes()
        ))
        sig.append(sorted(map(tuple, rag.edges())))
    sig.append(sorted(map(tuple, strg.temporal_edges())))
    return sig


def _decomposition_signature(decomposition):
    ogs = []
    for og in decomposition.object_graphs:
        ogs.append((og.values.tobytes(), og.frames.tobytes(),
                    None if og.sizes is None else og.sizes.tobytes()))
    return ogs, len(decomposition.background)


@pytest.fixture(scope="module")
def traffic_video():
    from repro.datasets.real import render_stream_segment

    return render_stream_segment("Traffic1", num_frames=6,
                                 rng=np.random.default_rng(0))


class TestParallelPipeline:
    def test_track_stream_equals_build_strg(self, traffic_video):
        segmenter = GridSegmenter()
        rags = [segmenter.build_rag(traffic_video.frame(t), t)
                for t in range(traffic_video.num_frames)]
        tracker = GraphTracker()
        a = tracker.build_strg(rags)
        b = tracker.track_stream(iter(rags))
        assert _strg_signature(a) == _strg_signature(b)

    def test_workers_do_not_change_strg(self, traffic_video, monkeypatch):
        serial = VideoPipeline().build_strg(traffic_video)
        w2 = VideoPipeline().build_strg(traffic_video, workers=2)
        monkeypatch.setattr(repro.parallel, "usable_cpus", lambda: 8)
        pooled = VideoPipeline().build_strg(traffic_video, workers=3)
        assert _strg_signature(serial) == _strg_signature(w2)
        assert _strg_signature(serial) == _strg_signature(pooled)

    def test_workers_do_not_change_meanshift_strg(self, many_cpus):
        from repro.datasets.real import render_stream_segment

        video = render_stream_segment("Traffic1", num_frames=3,
                                      rng=np.random.default_rng(1))
        config = PipelineConfig(segmenter=MeanShiftSegmenter(
            spatial_bandwidth=2, range_bandwidth=10.0, max_iterations=2,
            min_region_size=16))
        serial = VideoPipeline(config).build_strg(video)
        pooled = VideoPipeline(config).build_strg(video, workers=2)
        assert _strg_signature(serial) == _strg_signature(pooled)

    def test_negative_workers_rejected(self, traffic_video):
        with pytest.raises(InvalidParameterError):
            VideoPipeline().build_strg(traffic_video, workers=-2)

    def test_decompose_workers_identical(self, traffic_video):
        serial = VideoPipeline().decompose(traffic_video)
        parallel = VideoPipeline().decompose(traffic_video, workers=2)
        assert _decomposition_signature(serial) \
            == _decomposition_signature(parallel)


def _make_segments(count=4, frames=5):
    from repro.datasets.real import render_stream_segment

    rng = np.random.default_rng(0)
    videos = []
    for i in range(count):
        video = render_stream_segment("Traffic1", num_frames=frames, rng=rng)
        video.name = f"seg-{i:02d}"
        videos.append(video)
    return videos


def _run_ingest(workers, tmp_path, tag, inject_rate=0.0):
    state = tmp_path / f"state-{tag}"
    db = VideoDatabase(fault_policy="retry-then-skip", drop_tolerance=1.0,
                       state_dir=state)
    injector = FaultInjector(seed=7)
    if inject_rate > 0:
        injector.inject("segmentation", rate=inject_rate, kind="corrupt")
    with injected(injector):
        report = db.ingest_many(_make_segments(), workers=workers)
    journal = (state / "ingest.journal").read_text()
    quarantine = [rec.to_dict() for rec in db.quarantine]
    return db, report, journal, quarantine


class TestParallelIngest:
    def test_bit_identical_ingest_across_worker_counts(self, tmp_path):
        db1, rep1, journal1, q1 = _run_ingest(None, tmp_path, "serial")
        db2, rep2, journal2, q2 = _run_ingest(2, tmp_path, "w2")
        db4, rep4, journal4, q4 = _run_ingest(4, tmp_path, "w4")
        assert rep1 == rep2 == rep4
        assert journal1 == journal2 == journal4
        assert q1 == q2 == q4 == []
        # Index contents answer queries identically (og_id is a
        # process-global counter, so refs are compared by video name).
        probe = np.cumsum(np.ones((6, 2)), axis=0) * 10.0
        hits1 = [(f"{h.distance:.12e}", h.clip_ref["video"], h.og.values.tobytes())
                 for h in db1.knn(probe, k=5)]
        hits2 = [(f"{h.distance:.12e}", h.clip_ref["video"], h.og.values.tobytes())
                 for h in db2.knn(probe, k=5)]
        hits4 = [(f"{h.distance:.12e}", h.clip_ref["video"], h.og.values.tobytes())
                 for h in db4.knn(probe, k=5)]
        assert hits1 == hits2 == hits4

    def test_quarantine_decisions_identical_with_workers(self, tmp_path):
        # High corruption rate: some segments must quarantine, and the
        # decisions must not depend on the worker count.
        _, rep1, journal1, q1 = _run_ingest(None, tmp_path, "s-f",
                                            inject_rate=0.12)
        _, rep2, journal2, q2 = _run_ingest(2, tmp_path, "w2-f",
                                            inject_rate=0.12)
        _, rep4, journal4, q4 = _run_ingest(4, tmp_path, "w4-f",
                                            inject_rate=0.12)
        assert rep1["quarantined"] >= 1
        assert q1 and q1 == q2 == q4
        assert rep1 == rep2 == rep4
        assert journal1 == journal2 == journal4
        assert all(rec["error_type"] == "CorruptSegmentError" for rec in q1)


class TestCLIWorkers:
    def test_ingest_workers_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "idx.strg"
        code = main(["ingest", str(out), "--segments", "2", "--frames", "4",
                     "--workers", "2"])
        assert code == 0
        assert "ingested 2 segment(s)" in capsys.readouterr().out
        assert out.exists()

    def test_parser_default_workers(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["ingest", "out.strg"])
        assert args.workers is None
