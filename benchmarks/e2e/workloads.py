"""The four workloads.  Each stresses different layers (README.md says
which and why); all are closed loop with one client.

The corpus is the benchmark's fixed data set (``CORPUS_SEED``): index
build cost depends on how fast EM happens to converge on a corpus, and a
seed-drawn corpus moved build time by +-25 % and distance evaluations by
+-8 % between seeds, which no regression bound survives.  ``--seed``
draws the traffic: every query, every uploaded clip.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

import repro
from repro import observability
from repro.core.index import STRGIndex, STRGIndexConfig
from repro.datasets.patterns import ALL_PATTERNS
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic_ogs
from repro.distance import batch
from repro.distance.base import as_series
from repro.pipeline import PipelineConfig, VideoPipeline
from repro.serving import (
    IngestService,
    IngestServiceConfig,
    LiveIndex,
    NetFrontend,
    ShardedIndex,
    ShardedIndexConfig,
    WorkerPool,
    WorkerPoolConfig,
    net,
)
from repro.serving.ingest import JobState
from repro.storage.serialize import leaf_ogs
from repro.storage.store import open_store
from repro.video.segmentation import GridSegmenter
from repro.video.synthesize import (
    Actor,
    BackgroundSpec,
    SceneRenderer,
    linear_trajectory,
    make_vehicle,
)

from .harness import calibrate, cpu_seconds, dir_bytes
from .trace import Tracer

K = 10
SEARCH_BUDGET = 200
CORPUS_SEED = 20050614
PATTERNS = [dataclasses.replace(p, length_range=(10, 20))
            for p in ALL_PATTERNS]
#: Recall is measured on this many of the fixed reference queries (the
#: exact scan behind it is the expensive part of the answer check).
RECALL_QUERIES = 96
#: A timed phase has at least this many blocks, however short --seconds.
MIN_BLOCKS = 3
INGEST_QUEUE_DEPTH = 8
#: ``ingest_live`` alternates blocks of uploads with blocks of reads of
#: the same live index.  A reader running *beside* the ingest worker
#: shares its GIL, and on this 2-core host that measured the interpreter,
#: not the code: an unpaced reader slowed commits ~50x, and a paced one
#: saw its own p50 jump from 1.5 ms to 11-43 ms whenever the host was
#: disturbed.
INGEST_BLOCK_CLIPS = 6
INGEST_BLOCK_READS = 32
CLIP_FRAMES = 6

_clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    """Input sizes of one run."""

    knn_ogs: int            # corpus of the two k-NN workloads
    sample: int             # EM sample per shard (cluster_sample_size)
    warmup: int             # untimed queries before the first block
    verify: int             # queries of the answer check (outside timing)
    reference: int          # fixed queries the counters are measured on
    http_block: int         # queries per timed block, knn_budgeted_http
    exact_block: int        # queries per timed block, knn_exact_inproc
    preload: int            # OGs in the live index before the stream
    clips: int              # uploads of one ingest_live timed phase
    build_ogs: int          # corpus of build_bulk


SCALES = {
    "smoke": Scale(knn_ogs=600, sample=96, warmup=8, verify=16, reference=32,
                   http_block=12, exact_block=12, preload=200,
                   clips=4, build_ogs=600),
    # Sized so 4 + 22 x 4 contract runs of 10 s fit the driver's hour.
    "default": Scale(knn_ogs=4000, sample=256, warmup=64, verify=96,
                     reference=384,
                     http_block=64, exact_block=48, preload=2000,
                     clips=60, build_ogs=6000),
    # The sizes ISSUE 12 names; run by hand with --seconds 30 or more.
    "full": Scale(knn_ogs=20000, sample=1024, warmup=256, verify=256,
                  reference=384,
                  http_block=256, exact_block=128, preload=2000,
                  clips=300, build_ogs=60000),
}


@dataclass
class Measured:
    """What one timed phase produced."""

    latencies: list[list[float]]   # per block, seconds per operation
    rates: list[float]             # per block, work units per second
    op_seconds: float              # mean seconds per unit of work
    attempted: int
    failed: int
    calib: list[float]
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass
class Checked:
    """What the answer check produced (always outside the timed phase)."""

    attempted: int
    failed: int
    recall_at_10: float
    dist_evals_per_query: float
    store_bytes_per_og: float
    counts: dict[str, float]       # per-layer metrics counted here


# -- shared pieces ----------------------------------------------------------

def corpus(n: int) -> list:
    return generate_synthetic_ogs(
        SyntheticConfig(num_ogs=n, seed=CORPUS_SEED, patterns=PATTERNS))


class QueryStream:
    """Distinct, seed-derived queries; every ``take`` continues the draw.

    ``stream`` separates independent draws of one seed: the timed phase
    takes as many queries as fit its seconds, and the answer check must
    see the same queries however many that was.  ``round_`` separates
    the timed phases of one run, so that no timed query repeats.
    """

    def __init__(self, seed: int, stream: int = 0, round_: int = 0):
        self._rng = np.random.default_rng([seed + 1, stream, round_])

    def take(self, n: int) -> list:
        return generate_synthetic_ogs(
            SyntheticConfig(num_ogs=n, patterns=PATTERNS), rng=self._rng)


def reference_queries(n: int) -> list:
    """The fixed queries recall and the counters are measured on."""
    return QueryStream(CORPUS_SEED, stream=2).take(n)


def sharded_config(scale: Scale) -> ShardedIndexConfig:
    return ShardedIndexConfig(
        num_shards=2, placement="affine",
        index=STRGIndexConfig(n_clusters=8,
                              cluster_sample_size=scale.sample))


def build_store(ogs: Sequence, path: str, scale: Scale
                ) -> tuple[float, float, float]:
    """Build, sketch and write one columnar store; seconds of each step."""
    t0 = _clock()
    index = ShardedIndex(sharded_config(scale))
    index.build(ogs, clip_refs=[f"og-{i}" for i in range(len(ogs))])
    t1 = _clock()
    for shard in index.shards:
        shard.sketch_tier()
    t2 = _clock()
    open_store(path, format="columnar").write_index(index)
    return t1 - t0, t2 - t1, _clock() - t2


def hit_key(hits) -> list[tuple[float, Any]]:
    """``(distance, clip_ref)`` list of in-process hits — index tuples
    or database ``QueryHit`` objects — for bit-for-bit comparison."""
    return [(float(h.distance), h.clip_ref) if hasattr(h, "clip_ref")
            else (float(h[0]), h[2]) for h in hits]


def exact_top(distance, query, series: Sequence[np.ndarray],
              refs: Sequence[Any]) -> list[Any]:
    """Refs of the exact-scan top ``K``, ties by corpus position."""
    dists = batch.one_vs_many(distance, as_series(query), series)
    order = np.lexsort((np.arange(len(dists)), dists))[:K]
    return [refs[int(i)] for i in order]


def recall(found_refs: Sequence[Any], truth_refs: Sequence[Any]) -> float:
    """Share of the true top ``K`` (refs are unique per OG) that was found."""
    return len(set(found_refs) & set(truth_refs)) / len(truth_refs)


#: Library counters reported per query (name in ``observability`` ->
#: per-layer metric).
COUNTERS = {
    "distance.pairs_computed": "dist_evals_per_query",
    "serving.candidates_evaluated":
        "serving.sharding.candidates_evaluated_per_query",
    "serving.clusters_pruned": "serving.sharding.clusters_pruned_per_query",
    "serving.leaf_scans": "serving.sharding.leaf_scans_per_query",
    "search.candidates_generated": "search.candidates_per_query",
    "search.candidates_pruned": "search.pruned_per_query",
}


def counted(fn: Callable[[Any], Any], queries: Sequence) -> dict[str, float]:
    """Per-query library counters while ``fn`` replays ``queries``.

    Counters repeat exactly for the same inputs, which makes the paper's
    unit (distance evaluations, section 6.3) a first-class metric.
    """
    observability.configure(enabled=True, reset_state=True)
    try:
        for q in queries:
            fn(q)
        totals = observability.metrics()
    finally:
        observability.configure(enabled=False, reset_state=True)
    return {metric: totals.get(counter, 0) / len(queries)
            for counter, metric in COUNTERS.items()}


def timed_blocks(next_block: Callable[[], Sequence],
                 op: Callable[[Any], bool], seconds: float) -> Measured:
    """Closed loop, one client: fixed-size blocks until ``seconds`` pass.

    Inputs of a block are prepared before its clock starts.  ``op``
    returns whether the operation succeeded.
    """
    latencies, rates, calib = [], [], []
    attempted = failed = 0
    total = 0.0
    started = _clock()
    while len(latencies) < MIN_BLOCKS or _clock() - started < seconds:
        args = next_block()
        calib.append(calibrate())
        block = []
        block_started = _clock()
        for arg in args:
            t0 = _clock()
            ok = op(arg)
            block.append(_clock() - t0)
            failed += not ok
        rates.append(len(block) / (_clock() - block_started))
        attempted += len(args)
        latencies.append(block)
        total += sum(block)
    return Measured(latencies, rates, total / attempted, attempted, failed,
                    calib)


class Workload:
    """One workload: ``setup`` -> ``measure`` (once or twice) ->
    ``verify`` -> ``teardown``.

    ``seconds`` is the length of the whole timed phase of this set-up
    (``measure`` may be given a share of it), ``round_`` which of a
    run's set-ups this is.
    """

    name = ""

    def __init__(self, seed: int, seconds: float, scale: Scale,
                 workdir: Path, round_: int = 0):
        self.seed = seed
        self.seconds = seconds
        self.scale = scale
        self.workdir = workdir
        self.round = round_
        self.queries = QueryStream(seed, round_=round_)
        self.check_queries = QueryStream(seed, stream=1)
        self.spawn_s = 0.0   # WorkerPool.start(), timed in setup

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer: Tracer | None = None
                ) -> Measured:
        raise NotImplementedError

    def pids(self) -> list[int]:
        return [os.getpid()]

    def verify(self) -> Checked:
        raise NotImplementedError

    def _check(self, answer: Callable[[Any], list], expected: Callable,
               count: Callable, records: Sequence[tuple[Any, Any]],
               distance, store_path: str,
               same: Callable[[list], list] = lambda hits: hits,
               extra_attempted: int = 0, extra_failed: int = 0) -> Checked:
        """The answer check every workload shares.

        ``answer(q)`` and ``expected(q)`` give ``(distance, ref)`` lists:
        the workload's own answer and the in-process reference on the
        same store, compared bit for bit (after ``same`` drops what
        legitimately differs) on seed-drawn queries.  Recall
        (against an exact ``one_vs_many`` scan of ``records``) and the
        library counters (``count(q)`` replayed under ``observability``)
        use fixed reference queries instead: evaluations differ a lot
        from query to query (96 seed-drawn queries left their mean +-7 %
        between seeds), and on fixed queries they are an exact count of
        fixed work that repeats on every run and seed.
        """
        queries = self.check_queries.take(self.scale.verify)
        failed = sum(same(answer(q)) != same(expected(q)) for q in queries)
        series = [as_series(og) for og, _ in records]
        refs = [ref for _, ref in records]
        reference = reference_queries(self.scale.reference)
        recalls = [
            recall([ref for _, ref in answer(q)],
                   exact_top(distance, q, series, refs))
            for q in reference[:min(RECALL_QUERIES, self.scale.verify)]]
        counts = counted(count, reference)
        return Checked(
            attempted=len(queries) + extra_attempted,
            failed=failed + extra_failed,
            recall_at_10=statistics.mean(recalls),
            dist_evals_per_query=counts.pop("dist_evals_per_query"),
            store_bytes_per_og=dir_bytes(store_path) / len(records),
            counts=counts)

    def teardown(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- knn_budgeted_http ------------------------------------------------------

class KnnBudgetedHttp(Workload):
    """Budgeted k-NN through ``NetFrontend`` -> ``WorkerPool`` -> one
    worker process memory-mapping the store."""

    name = "knn_budgeted_http"

    def setup(self) -> None:
        self.ogs = corpus(self.scale.knn_ogs)
        self.path = str(self.workdir / "corpus.strg")
        build_store(self.ogs, self.path, self.scale)
        self.pool = WorkerPool(self.path, WorkerPoolConfig(
            workers=1, replicas=1, mmap=True))
        t0 = _clock()
        self.pool.start()
        self.spawn_s = _clock() - t0
        self.frontend = NetFrontend(self.pool).start_in_thread()
        for q in self.queries.take(self.scale.warmup):
            self._request(self._payload(q))

    def _payload(self, q) -> dict[str, Any]:
        return {"query": q.values.tolist(), "k": K,
                "search_budget": SEARCH_BUDGET}

    def _request(self, payload: dict[str, Any]) -> tuple[int, Any]:
        return net.request_json("127.0.0.1", self.frontend.port, "POST",
                                "/knn", payload)

    def _ok(self, payload: dict[str, Any]) -> bool:
        status, body = self._request(payload)
        return status == 200 and len(body["hits"]) == K \
            and not body["degraded"]

    def measure(self, seconds: float, tracer: Tracer | None = None
                ) -> Measured:
        op = self._ok if tracer is None else tracer.client(self._ok,
                                                           adopt=True)
        payloads: list[dict] = []

        def next_block():
            block = [self._payload(q)
                     for q in self.queries.take(self.scale.http_block)]
            payloads.extend(block)
            return block

        worker = self.pids()[1]
        cpu0, own0 = cpu_seconds(worker), time.process_time()
        measured = timed_blocks(next_block, op, seconds)
        measured.extra = {
            "payloads": payloads,
            "worker_cpu_s": cpu_seconds(worker) - cpu0,
            "client_cpu_s": time.process_time() - own0,
        }
        return measured

    def pids(self) -> list[int]:
        return [os.getpid()] + [w["pid"] for w in
                                self.pool.health()["workers"] if w["pid"]]

    def reference(self):
        """The in-process index over the same memory-mapped store."""
        if not hasattr(self, "_reference"):
            self._reference = open_store(self.path).load_index(mmap=True)
        return self._reference

    def verify(self) -> Checked:
        ref = self.reference()
        sizes = {"sent": 0, "received": 0, "n": 0}

        def answer(q) -> list | None:
            payload = self._payload(q)
            status, body = self._request(payload)
            # Body sizes as the JSON encoder writes them on both ends.
            sizes["sent"] += len(json.dumps(payload))
            sizes["received"] += len(json.dumps(body))
            sizes["n"] += 1
            if status != 200:
                return None
            return [(h["distance"], h["clip_ref"]) for h in body["hits"]]

        def in_process(q) -> list:
            return hit_key(ref.knn(q, K, search_budget=SEARCH_BUDGET))

        checked = self._check(
            answer, in_process, in_process,
            [(og, f"og-{i}") for i, og in enumerate(self.ogs)],
            ref.metric_distance, self.path)
        checked.counts["serving.net.request_bytes"] = \
            sizes["sent"] / sizes["n"]
        checked.counts["serving.net.response_bytes"] = \
            sizes["received"] / sizes["n"]
        return checked

    def teardown(self) -> None:
        try:
            # Let the frontend finish closing the last connection; its
            # stop() abandons handler tasks that are still pending.
            time.sleep(0.05)
            self.frontend.stop()
        finally:
            self.pool.shutdown()
            super().teardown()


# -- knn_exact_inproc -------------------------------------------------------

class KnnExactInproc(Workload):
    """Exact k-NN on a database loaded fully into RAM: no network, no
    worker process, no sketch tier, no memory-mapped reads."""

    name = "knn_exact_inproc"

    def setup(self) -> None:
        self.ogs = corpus(self.scale.knn_ogs)
        self.path = str(self.workdir / "corpus.strg")
        build_store(self.ogs, self.path, self.scale)
        self.db = repro.open_database(self.path, mmap=False)
        for q in self.queries.take(self.scale.warmup):
            self.db.knn(q, K)

    def _ok(self, q) -> bool:
        return len(self.db.knn(q, K)) == K

    def measure(self, seconds: float, tracer: Tracer | None = None
                ) -> Measured:
        op = self._ok if tracer is None else tracer.client(self._ok)
        own0 = time.process_time()
        measured = timed_blocks(
            lambda: self.queries.take(self.scale.exact_block), op, seconds)
        measured.extra = {"client_cpu_s": time.process_time() - own0}
        return measured

    def verify(self) -> Checked:
        ref = open_store(self.path).load_index(mmap=True)

        def answer(q) -> list:
            return hit_key(self.db.knn(q, K))

        return self._check(
            answer, lambda q: hit_key(ref.knn(q, K)), answer,
            [(og, f"og-{i}") for i, og in enumerate(self.ogs)],
            ref.metric_distance, self.path)


# -- ingest_live ------------------------------------------------------------

class IngestLive(Workload):
    """Rendered clips streamed through ``IngestService`` into a
    ``LiveIndex``, block by block, with budgeted reads of the same live
    index between the blocks."""

    name = "ingest_live"

    def setup(self) -> None:
        scale = self.scale
        index = STRGIndex(STRGIndexConfig(
            n_clusters=8, cluster_sample_size=scale.sample))
        seeds = corpus(scale.preload)
        index.build(seeds, clip_refs=[{"video": f"seed-{i:05d}"}
                                      for i in range(len(seeds))])
        index.sketch_tier()   # so every commit also adds sketch rows
        self.live = LiveIndex(index)
        self.live_store = open_store(self.workdir / "live.strg",
                                     format="columnar")
        self.live.attach_store(self.live_store)
        self.pipeline = VideoPipeline(PipelineConfig(
            segmenter=GridSegmenter(min_region_size=10)))
        rng = np.random.default_rng([self.seed + 1, self.round])
        self.clips, self.probes = [], []
        while len(self.clips) < scale.clips + 1:   # one for the warm-up
            clip = self._render(f"live-{len(self.clips):05d}", rng)
            ogs = self.pipeline.process_clip(clip).object_graphs
            if ogs:   # a clip whose vehicle is lost to segmentation is redrawn
                self.clips.append(clip)
                self.probes.append(ogs)
        self.service = IngestService(
            self.live, self.pipeline, state_dir=self.workdir / "state",
            config=IngestServiceConfig(
                queue_depth=INGEST_QUEUE_DEPTH, min_workers=1,
                max_workers=1, store_format="columnar",
                checkpoint_every=16))
        self.jobs: list = []
        # Warm-up: the first upload of a scene builds its root record
        # (a one-off 0.4-0.8 s), and the first reads fault the sketch in.
        self.probes.pop()
        self.service.wait(self.service.submit(self.clips.pop()),
                          timeout=60.0)
        for q in self.queries.take(scale.warmup):
            self._read(q)

    @staticmethod
    def _render(name: str, rng: np.random.Generator):
        """One 64x48 clip: a single vehicle on a distinct straight path."""
        scene = SceneRenderer(BackgroundSpec(width=64, height=48,
                                             base_color=(100, 100, 100)))
        start = (rng.uniform(8, 20), rng.uniform(10, 38))
        end = (rng.uniform(40, 56), rng.uniform(10, 38))
        scene.add_actor(Actor(linear_trajectory(start, end, CLIP_FRAMES),
                              make_vehicle((200, 40, 40))))
        return scene.render(CLIP_FRAMES, name=name)

    def measure(self, seconds: float, tracer: Tracer | None = None
                ) -> Measured:
        # A fixed number of uploads, whatever the host's speed: the final
        # index, and so every count, must not depend on it.
        first = len(self.jobs)
        count = min(len(self.clips) - first,
                    max(2, round(len(self.clips) * seconds / self.seconds)))
        read = self._read if tracer is None else tracer.client(self._read)
        jobs: list = []
        latencies, rates, calib = [], [], []
        drained = True
        failed = 0
        write_wall = 0.0
        for start in range(first, first + count, INGEST_BLOCK_CLIPS):
            clips = self.clips[start:min(start + INGEST_BLOCK_CLIPS,
                                         first + count)]
            queries = self.queries.take(INGEST_BLOCK_READS)
            calib.append(calibrate())
            t0 = _clock()
            block = [self.service.submit(clip, backpressure=True)
                     for clip in clips]
            drained = self.service.drain(timeout=120.0) and drained
            wall = _clock() - t0
            write_wall += wall
            rates.append(sum(len(j.og_ids) for j in block) / wall)
            jobs.extend(block)
            reads = []
            for q in queries:
                t0 = _clock()
                hits = read(q)
                reads.append(_clock() - t0)
                failed += len(hits) != K
            latencies.append(reads)
        self.jobs.extend(jobs)
        indexed = [j for j in jobs if j.state is JobState.INDEXED]
        failed += (len(jobs) - len(indexed)) + (not drained)
        reads = sum(len(block) for block in latencies)
        return Measured(
            latencies=latencies, rates=rates,
            op_seconds=write_wall / len(jobs),
            attempted=len(jobs) + reads, failed=failed, calib=calib,
            extra={"jobs": jobs,
                   "retries": self.service.health()["retries"]})

    def _read(self, query) -> list:
        # Budgeted: an exact read of the monolithic live index spends one
        # kernel call per candidate (~60 ms here), which would make the
        # reader, not the write path, the workload.
        return self.live.knn(query, K, search_budget=SEARCH_BUDGET)

    def verify(self) -> Checked:
        self.service.checkpoint()
        # Shutting down waits for the service store's background merge;
        # both stores must be at rest before their bytes are counted.
        self.service.shutdown()
        self.live_store.join_merges(timeout=60.0)
        index = self.live.snapshot.index
        records = leaf_ogs(index)
        per_video = Counter(ref["video"] for _, ref in records)
        done = len(self.jobs)
        lost = 0
        for clip, ogs in zip(self.clips[:done], self.probes[:done]):
            # Queryable exactly once: every OG of the clip is indexed
            # once, and the clip is its own probe's nearest hit.
            nearest = self.live.knn(ogs[0], 1)[0]
            lost += not (per_video[clip.name] == len(ogs)
                         and nearest[2]["video"] == clip.name
                         and nearest[0] == 0.0)
        # The checkpointed store must replay to the same answers; the og
        # ids in the refs are minted per process, so only the videos are
        # compared.
        reloaded = open_store(self.service.snapshot_path).load_index()

        def ident(ref: dict) -> tuple:
            return ref["video"], ref.get("og")

        def hits_of(index, q) -> list:
            return [(float(d), ident(ref)) for d, _og, ref in
                    index.knn(q, K, search_budget=SEARCH_BUDGET)]

        checked = self._check(
            lambda q: hits_of(self.live, q),
            lambda q: hits_of(reloaded, q), self._read,
            [(og, ident(ref)) for og, ref in records],
            index.metric_distance, self.service.snapshot_path,
            same=lambda hits: [(d, video) for d, (video, _) in hits],
            extra_attempted=done, extra_failed=lost)
        # Bytes both stores hold per live OG: the write path's footprint.
        checked.counts["storage.bytes_written_per_og"] = (
            dir_bytes(self.service.snapshot_path)
            + dir_bytes(self.live_store.path)) / len(index)
        return checked

    def teardown(self) -> None:
        try:
            self.service.shutdown()
        finally:
            super().teardown()


# -- build_bulk -------------------------------------------------------------

class BuildBulk(Workload):
    """Index build + sketch + store write, then cold reopen to first
    answer.  No serving process or network runs."""

    name = "build_bulk"

    def setup(self) -> None:
        self.ogs = corpus(self.scale.build_ogs)
        self.path: str | None = None
        self.builds = 0

    def measure(self, seconds: float, tracer: Tracer | None = None
                ) -> Measured:
        started = _clock()
        steps, calib = [], []
        while len(steps) < 2 or _clock() - started < 0.7 * seconds:
            if self.path is not None:
                shutil.rmtree(self.path)
            self.builds += 1
            self.path = str(self.workdir / f"bulk-{self.builds}.strg")
            calib.append(calibrate())
            steps.append(build_store(self.ogs, self.path, self.scale))
        reopen = self._reopen if tracer is None else tracer.client(
            self._reopen)
        latencies, failed = [], 0
        while len(latencies) < 5 or _clock() - started < seconds:
            (q,) = self.queries.take(1)
            calib.append(calibrate())
            t0 = _clock()
            hits = reopen(q)
            latencies.append(_clock() - t0)
            failed += len(hits) != K
        totals = [sum(step) for step in steps]
        return Measured(
            latencies=[[lat] for lat in latencies],
            rates=[len(self.ogs) / total for total in totals],
            op_seconds=statistics.mean(totals),
            attempted=len(steps) + len(latencies), failed=failed,
            calib=calib,
            extra={"steps": steps, "reopens": len(latencies)})

    def _reopen(self, q) -> list:
        """Cold open to first budgeted answer (the OS cache is warm)."""
        self.db = repro.open_database(self.path, create=False, mmap="auto")
        return self.db.knn(q, K, search_budget=SEARCH_BUDGET)

    def verify(self) -> Checked:
        ref = open_store(self.path).load_index(mmap=True)

        def answer(q) -> list:
            return hit_key(self.db.knn(q, K, search_budget=SEARCH_BUDGET))

        return self._check(
            answer,
            lambda q: hit_key(ref.knn(q, K, search_budget=SEARCH_BUDGET)),
            answer,
            [(og, f"og-{i}") for i, og in enumerate(self.ogs)],
            ref.metric_distance, self.path)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (KnnBudgetedHttp, KnnExactInproc, IngestLive, BuildBulk)
}
