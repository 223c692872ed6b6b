"""``VideoDatabase`` — the adoptable facade over the whole system.

Ingest video segments, get an incrementally maintained STRG-Index, and
query by example clip or by example trajectory:

    >>> db = VideoDatabase()
    >>> db.ingest(video_segment)                    # frames in
    >>> hits = db.query_clip(query_clip, k=5)       # similar motions out
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.size import index_size_bytes, strg_raw_size_bytes
from repro.errors import IndexStateError, IngestDegradedError, StorageError
from repro.graph.object_graph import ObjectGraph
from repro.observability import OBS
from repro.pipeline import PipelineConfig, VideoPipeline
from repro.resilience.policy import FaultPolicy, QuarantineRecord
from repro.resilience.retry import RetryPolicy
from repro.search.request import SearchRequest
from repro.search.sketch import approx_knn
from repro.serving.sharding import ShardedIndex, ShardedIndexConfig
from repro.storage.store import open_store
from repro.video.frames import VideoSegment

logger = logging.getLogger(__name__)


@dataclass
class QueryHit:
    """One retrieval result: the matched OG, its distance and clip ref."""

    distance: float
    og: ObjectGraph
    clip_ref: Any


class VideoDatabase:
    """A content-based video database built on the STRG-Index.

    Every write goes through one
    :class:`~repro.serving.snapshot.LiveIndex` and, from the first write
    on, one :class:`~repro.serving.ingest.IngestService` over it: each
    :meth:`ingest` is a job :meth:`IngestService.run
    <repro.serving.ingest.IngestService.run>` takes through journal,
    retries, quarantine and commit on the caller's thread (see
    ``docs/RESILIENCE.md``).  The ``fault_policy`` decides whether a
    segment failing with a recoverable error crashes the batch
    (``fail-fast``), is quarantined (``skip-and-quarantine``), or is
    retried under ``retry_policy`` first (``retry-then-skip``, the
    default); all three journal the failed job as quarantined.
    ``drop_tolerance`` bounds the quarantined fraction — past it,
    ingestion escalates to :class:`~repro.errors.IngestDegradedError`.
    An optional ``state_dir`` makes the service durable (journal, spool
    and ``index.strg`` snapshot; :meth:`save` checkpoints there), and
    :meth:`recover` resumes it exactly once after a crash.

    The database maintains a
    :class:`~repro.serving.sharding.ShardedIndex` of ``shards`` shards
    (default 1: the monolithic tree) — query results are bit-identical
    at any shard count, and the index plugs straight into the serving
    layer (``LiveIndex`` / ``QueryService``).
    """

    def __init__(self, config: PipelineConfig | None = None, *,
                 fault_policy: FaultPolicy | str = FaultPolicy.RETRY_THEN_SKIP,
                 retry_policy: RetryPolicy | None = None,
                 drop_tolerance: float = 0.5,
                 drop_grace: int = 8,
                 state_dir: str | os.PathLike | None = None,
                 shards: int = 1,
                 placement: str = "affine"):
        from repro.serving.ingest import JOURNAL_NAME

        if state_dir is not None \
                and os.path.exists(os.path.join(state_dir, JOURNAL_NAME)):
            raise StorageError(
                f"{os.fspath(state_dir)} already holds an ingest journal; "
                "resume it with VideoDatabase.recover(state_dir)")
        self.pipeline = VideoPipeline(config)
        #: The index before the first write; from then on it lives in
        #: the ingest service's LiveIndex.
        self._index: ShardedIndex | None = None
        self._index_loader = None
        self._service = None
        self.state_dir = None if state_dir is None else os.fspath(state_dir)
        self.shards = shards
        self.placement = placement
        self._ingested: list[str] = []
        self._raw_strg_bytes = 0
        self.fault_policy = FaultPolicy.coerce(fault_policy)
        self.retry_policy = retry_policy or RetryPolicy(max_attempts=3,
                                                        base_delay=0.05)
        self.drop_tolerance = drop_tolerance
        self.drop_grace = drop_grace
        #: Store backing a lazy (mmap) open — lets budgeted queries run
        #: against the out-of-core sketch tier without ever
        #: materializing the tree.  ``_ooc_sketch`` caches the attached
        #: sketches, one per shard (``False`` once probing found none).
        self._store = None
        self._store_mmap = False
        self._ooc_sketch: Any = None
        #: Default export location used by :meth:`save`; set by
        #: :func:`repro.open_database` and :meth:`load`.
        self.path: str | None = None

    # -- index binding -------------------------------------------------------

    @property
    def index(self) -> ShardedIndex | None:
        """The database's index: the newest published snapshot's.

        A database opened with ``mmap`` (via :func:`repro.open_database`
        or :meth:`load`) defers tree materialization: ``open`` is O(1)
        — one log read — and the tree is built from the store's
        zero-copy views the first time anything touches ``db.index``.
        """
        if self._service is not None:
            return self._service.live.snapshot.index
        if self._index is None and self._index_loader is not None:
            loader, self._index_loader = self._index_loader, None
            with OBS.span("database.materialize"):
                self._index = loader()
        return self._index

    @property
    def index_loaded(self) -> bool:
        """Whether the index is materialized (False while open is lazy)."""
        return self._service is not None or self._index is not None

    @property
    def quarantine(self) -> list[QuarantineRecord]:
        """The write path's quarantined segments, oldest first."""
        return [] if self._service is None else self._service.quarantine

    @property
    def recovery(self):
        """The :class:`~repro.serving.ingest.IngestRecoveryReport` of
        :meth:`recover` (``None`` for a database that was not
        recovered)."""
        return None if self._service is None else self._service.recovery

    # -- ingestion -----------------------------------------------------------

    def ingest(self, video: VideoSegment, parse_shots: bool = False,
               workers: int | None = None) -> int:
        """Run the full pipeline on a segment and index its OGs.

        Returns the number of Object Graphs extracted (0 when the
        segment was quarantined under a skipping fault policy).
        Repeated calls extend the same index (backgrounds are matched at
        the root level).  With ``parse_shots=True`` the video is first
        parsed into shots (Section 1's "issue 1"); each shot is ingested
        as its own segment, so scene changes land in separate root
        records.

        The segment is one :class:`~repro.serving.ingest.IngestService`
        job, run on this thread: journaled, retried under the fault
        policy, quarantined or committed.  Errors that are not bad input
        propagate once the job is journaled as quarantined, and so does
        a failure to journal the commit (the OGs stay indexed).

        ``workers > 1`` fans per-frame segmentation out across worker
        processes with identical hooks, journal and index contents (see
        :meth:`VideoPipeline.build_strg <repro.pipeline.VideoPipeline.build_strg>`).
        """
        if parse_shots:
            from repro.video.shots import split_into_shots

            return sum(self.ingest(shot, workers=workers)
                       for shot in split_into_shots(video))
        service = self._writer()
        job = service.run(video, workers=workers)
        if job.clip is None:
            if self.fault_policy is FaultPolicy.FAIL_FAST:
                raise job.exception
            self._check_drop_tolerance(job)
            return 0
        self._ingested.append(video.name)
        self._raw_strg_bytes += strg_raw_size_bytes(
            job.clip.object_graphs, job.clip.background, video.num_frames)
        logger.debug("ingested segment %r: %d OGs", video.name,
                     len(job.og_ids))
        return len(job.og_ids)

    def ingest_many(self, videos: Sequence[VideoSegment],
                    parse_shots: bool = False,
                    workers: int | None = None) -> dict[str, int]:
        """Batch ingest; keeps going over quarantined segments.

        Returns ``{"segments": ok_count, "quarantined": q_count,
        "ogs": total_ogs}``.  :class:`~repro.errors.IngestDegradedError`
        (drop tolerance exceeded) and non-recoverable errors propagate.
        Segments are journaled strictly in input order; ``workers``
        parallelizes within each segment (see :meth:`ingest`).
        """
        before_q = len(self.quarantine)
        before_s = len(self._ingested)
        ogs = 0
        for video in videos:
            ogs += self.ingest(video, parse_shots=parse_shots,
                               workers=workers)
        return {
            "segments": len(self._ingested) - before_s,
            "quarantined": len(self.quarantine) - before_q,
            "ogs": ogs,
        }

    def _make_index(self) -> ShardedIndex:
        """A fresh index honouring the database's sharding settings."""
        return ShardedIndex(ShardedIndexConfig(
            num_shards=self.shards,
            placement=self.placement,
            index=self.pipeline.config.index,
        ))

    def _service_config(self):
        """The ingest service settings that implement the fault policy."""
        from repro.serving.ingest import IngestServiceConfig

        return IngestServiceConfig(
            retry_policy=(self.retry_policy
                          if self.fault_policy is FaultPolicy.RETRY_THEN_SKIP
                          else RetryPolicy(max_attempts=1)),
            retry_budget=None, checkpoint_every=None)

    def _writer(self):
        """The database's ingest service, created on the first write
        over a LiveIndex of the current (or a fresh) index."""
        if self._service is None:
            from repro.serving.ingest import IngestService
            from repro.serving.snapshot import LiveIndex

            index = self.index
            self._bind(IngestService(
                LiveIndex(self._make_index() if index is None else index),
                self.pipeline, state_dir=self.state_dir,
                config=self._service_config()))
        return self._service

    def _bind(self, service) -> None:
        """Read and write through ``service`` from now on."""
        self._service = service
        self._index = None
        self._index_loader = None
        self.state_dir = service.state_dir
        self._adopt_sharding(service.live.snapshot.index)

    def _adopt_sharding(self, index: ShardedIndex) -> None:
        self.shards = index.num_shards
        self.placement = index.config.placement

    def _check_drop_tolerance(self, job) -> None:
        """Escalate once the quarantined fraction passes the tolerance."""
        health = self._service.health()
        quarantined = health["quarantined"]
        processed = health["indexed_jobs"] + quarantined
        if processed >= self.drop_grace \
                and quarantined / processed > self.drop_tolerance:
            logger.error("ingest degraded: %d/%d segments quarantined",
                         quarantined, processed)
            raise IngestDegradedError(
                f"{quarantined}/{processed} segments quarantined "
                f"(tolerance {self.drop_tolerance:.0%})",
                details={
                    "quarantined": quarantined,
                    "processed": processed,
                    "tolerance": self.drop_tolerance,
                    "last_segment": job.clip_name,
                },
            ) from job.exception

    def ingest_object_graphs(self, ogs: Sequence[ObjectGraph],
                             source: str = "external") -> int:
        """Index pre-extracted OGs (e.g. from a trajectory feed)."""
        if not ogs:
            return 0
        self._writer().write(ogs)
        self._ingested.append(source)
        return len(ogs)

    def ingest_service(self, *, state_dir: str | os.PathLike | None = None,
                       config=None):
        """Reconfigure the write path: a new
        :class:`~repro.serving.ingest.IngestService` over this database's
        ``LiveIndex`` replaces its current one, and is returned.

        Streamed jobs (:meth:`~repro.serving.ingest.IngestService.submit`)
        and :meth:`ingest` calls then share that service — its journal,
        spool, retry settings and checkpoints under ``state_dir`` (by
        default the database's) — and :meth:`knn` / :meth:`query_clip`
        always see the newest published snapshot.  Job ids, the
        quarantine and the counts carry over (see
        :meth:`~repro.serving.ingest.IngestService.replace`).
        """
        service = self._writer().replace(
            state_dir=self.state_dir if state_dir is None else state_dir,
            config=config)
        self._bind(service)
        return service

    # -- queries ----------------------------------------------------------------

    def query_clip(self, clip: VideoSegment, k: int = 5) -> list[QueryHit]:
        """Query by example clip (Algorithm 3 end to end).

        The clip runs through the same extraction pipeline; each extracted
        query OG is searched and the best ``k`` overall hits are returned.
        """
        self._require_index()
        decomposition = self.pipeline.decompose(clip)
        if not decomposition.object_graphs:
            return []
        hits: dict[int, QueryHit] = {}
        for og in decomposition.object_graphs:
            for d, match, ref in self.index.knn(
                og, k, background=decomposition.background
            ):
                existing = hits.get(match.og_id)
                if existing is None or d < existing.distance:
                    hits[match.og_id] = QueryHit(d, match, ref)
        ranked = sorted(hits.values(), key=lambda h: h.distance)
        return ranked[:k]

    def knn(self, example: ObjectGraph | np.ndarray, k: int = 5,
            search_budget: int | None = None) -> list[QueryHit]:
        """The ``k`` indexed OGs nearest to an example motion.

        ``example`` is either an :class:`ObjectGraph` or a raw
        trajectory (``(n, 2)`` array of positions); raw values are
        wrapped into a query OG first.  ``k = 0`` yields ``[]`` (even on
        an empty database) and ``k`` beyond the corpus size returns
        every OG, ranked — neither raises.

        ``search_budget`` caps the exact distance evaluations the query
        may spend, trading recall for a sublinear scan through the
        approximate sketch tier (see ``docs/SEARCH.md``).  The default
        ``None`` keeps the exact path, bit-identical to databases
        predating the knob.
        """
        og = (example if isinstance(example, ObjectGraph)
              else ObjectGraph.from_values(np.asarray(example, dtype=float)))
        request = SearchRequest.knn(og, k, search_budget=search_budget)
        if request.k == 0:
            return []
        # Lazy mmap open + budgeted query: stream the sketch tier
        # straight from the store's columns.  Results are bit-identical
        # to the materialized index's budgeted path, but resident memory
        # stays O(shortlist) instead of O(corpus) — the tree is never
        # built.
        sketches = (self._ooc_sketch_tier()
                    if search_budget is not None and not self.index_loaded
                    else None)
        if sketches is not None:
            hits = approx_knn(sketches, sketches[0].replay_distance,
                              request)
        else:
            self._require_index()
            # Through the index's ``knn`` sugar, not ``search``: that is
            # the entry point benchmarks/e2e times per layer.
            hits = self.index.knn(og, request.k,
                                  search_budget=request.search_budget)
        return [QueryHit(d, match, ref) for d, match, ref in hits]

    def query(self) -> "Query":
        """A fluent :class:`repro.query.Query` builder over this database.

        ``db.query().similar_to(values).limit(k).run()`` is equivalent
        to building ``Query(db)`` by hand.
        """
        from repro.query import Query

        return Query(self)

    def query_by_motion(self, direction: float | None = None,
                        direction_tolerance: float = math.pi / 4,
                        min_velocity: float | None = None,
                        max_velocity: float | None = None,
                        min_duration: int | None = None,
                        region: tuple[float, float, float, float] | None = None,
                        ) -> list[ObjectGraph]:
        """Attribute query over the indexed trajectories.

        Filters: moving ``direction`` (radians, matched within
        ``direction_tolerance``), velocity band, minimum duration in
        frames, and a spatial ``(x0, y0, x1, y1)`` region the trajectory's
        bounding box must intersect.  This is the "various queries on
        moving objects" surface the paper's introduction motivates.
        """
        from repro.graph.attributes import angle_difference

        self._require_index()
        matches = []
        for og in self.index.object_graphs():
            if min_duration is not None and og.duration() < min_duration:
                continue
            velocity = og.mean_velocity()
            if min_velocity is not None and velocity < min_velocity:
                continue
            if max_velocity is not None and velocity > max_velocity:
                continue
            if direction is not None:
                deltas = np.diff(og.values[:, :2], axis=0)
                total = deltas.sum(axis=0)
                heading = math.atan2(total[1], total[0])
                if angle_difference(heading, direction) > direction_tolerance:
                    continue
            if region is not None:
                x0, y0, x1, y1 = og.bounding_box()
                qx0, qy0, qx1, qy1 = region
                if x1 < qx0 or qx1 < x0 or y1 < qy0 or qy1 < y0:
                    continue
            matches.append(og)
        return matches

    def delete(self, og_id: int) -> bool:
        """Remove one OG from the database's index (``False`` when no
        OG has that id)."""
        self._require_index()
        return self._writer().write(deletes=[og_id]) == 1

    def query_subtrajectory(self, values: np.ndarray, k: int = 5
                            ) -> list[QueryHit]:
        """Find trajectories *containing* a motion similar to ``values``.

        Unlike :meth:`knn` (whole-trajectory similarity),
        this scores each stored OG by the best EGED_M match of any of its
        windows, so a short query motion is found inside longer tracks.
        Linear scan (window matching has no metric key).
        """
        from repro.distance.subsequence import eged_subsequence

        self._require_index()
        scored = []
        for og in self.index.object_graphs():
            match = eged_subsequence(values, og.values)
            scored.append(QueryHit(match.cost, og, (match.start, match.stop)))
        scored.sort(key=lambda hit: hit.distance)
        return scored[:k]

    def expire_before(self, frame: int) -> int:
        """Drop every trajectory that ended before ``frame``.

        The sliding-window retention policy of a live surveillance
        deployment: old motion is evicted while the index structure
        (clusters, backgrounds) is maintained incrementally.  Returns the
        number of trajectories removed.
        """
        self._require_index()
        stale = [og.og_id for og in self.index.object_graphs()
                 if og.end_frame < frame]
        return self._writer().write(deletes=stale) if stale else 0

    def _require_index(self) -> None:
        if self.index is None or len(self.index) == 0:
            raise IndexStateError("database is empty; ingest video first")

    def _ooc_sketch_tier(self):
        """Store-attached sketches for budgeted queries on a lazy open.

        Returns the cached out-of-core :class:`SketchIndex` list — one
        per non-empty shard, a monolithic store being the one-part case
        — probing the backing store once; ``None`` when unavailable (not
        a lazy mmap open, a part without a persisted sketch, nothing
        stored, corruption) — the caller then materializes the index
        and uses the classic path.
        """
        if self._ooc_sketch is not None:
            return self._ooc_sketch or None
        store = self._store
        if store is None or not self._store_mmap:
            self._ooc_sketch = False
            return None
        try:
            sketches = store.load_sketch(mmap=True)
        except StorageError as exc:
            logger.info(
                "out-of-core sketch unavailable for %s (%s: %s); "
                "budgeted queries will materialize the index",
                store.path, type(exc).__name__, exc)
            sketches = None
        self._ooc_sketch = sketches or False
        return sketches or None

    # -- introspection / persistence -----------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Database statistics, including the Eq. 9 vs Eq. 10 sizes."""
        if self.index is None:
            return {"segments": len(self._ingested), "ogs": 0}
        index = self.index
        return {
            "segments": len(self._ingested),
            "ogs": len(index),
            "clusters": index.num_clusters(),
            "backgrounds": sum(len(tree.root) for tree in index.shards),
            "raw_strg_bytes": self._raw_strg_bytes,
            "index_bytes": sum(index_size_bytes(tree)
                               for tree in index.shards),
            "shards": index.num_shards,
            "shard_sizes": index.shard_sizes(),
        }

    def health(self) -> dict[str, Any]:
        """Operational telemetry: counts, quarantine and last error.

        Unlike :meth:`stats` (paper-facing size accounting), this is the
        surface an operator watches: how many segments made it in, how
        many were quarantined and why, how often stages were retried —
        the counts of the database's ingest service.
        """
        quarantine = self.quarantine
        counts = {} if self._service is None else self._service.health()
        last = quarantine[-1] if quarantine else None
        return {
            "fault_policy": self.fault_policy.value,
            "segments_ingested": len(self._ingested),
            "ogs_indexed": 0 if self.index is None else len(self.index),
            "quarantined": len(quarantine),
            "quarantined_segments": [q.segment for q in quarantine],
            "retries": counts.get("retries", 0),
            "last_error": None if last is None else {
                "segment": last.segment, "error_type": last.error_type,
                "message": last.message, "details": last.details},
            "journal": counts.get("journal"),
        }

    def save(self, path: str | os.PathLike | None = None) -> None:
        """Persist the index atomically.

        With a ``state_dir``, ``save()`` — or ``save`` of the state
        dir's snapshot path — is the ingest service's
        :meth:`~repro.serving.ingest.IngestService.checkpoint`: the
        ``index.strg`` snapshot is written (O(delta) after the first
        time) and journaled, so :meth:`recover` re-runs nothing it holds.
        Any other path is a plain export.  ``path`` defaults to the
        database's bound :attr:`path` (set by :func:`repro.open_database`
        / :meth:`load`); a suffix-less path means ``<path>.strg/``.  The
        store's manifest log is replaced last and atomically — temp +
        fsync + rename + directory fsync — so a crash mid-save leaves any
        previous snapshot intact.
        """
        if self.state_dir is not None:
            self._require_index()
            service = self._writer()
            if path is None or open_store(path).path == service.snapshot_path:
                service.checkpoint()
                logger.info("checkpointed %s (%d OGs)",
                            service.snapshot_path, len(self.index))
                return
        if path is None:
            path = self.path
        if path is None:
            raise StorageError(
                "save() needs a path: none given and the database has no "
                "bound path (open it with repro.open_database(path))"
            )
        self._require_index()
        store = open_store(path)
        store.write_index(self.index)
        self.path = store.path
        logger.info("saved snapshot to %s (%d OGs)", store.path,
                    len(self.index))

    @classmethod
    def load(cls, path: str | os.PathLike,
             config: PipelineConfig | None = None,
             mmap: bool | str = False,
             lazy: bool = False,
             **kwargs) -> "VideoDatabase":
        """Restore a database from a saved store.

        ``mmap`` — ``True`` (or ``"auto"``) maps trajectory columns
        read-only instead of copying them into RAM.  ``lazy=True``
        defers tree materialization until :attr:`index` is first
        touched, making the open itself O(1).  With ``lazy=True`` and
        mmap enabled, budgeted queries (``knn(..., search_budget=N)``)
        run fully out-of-core: the sketch tier streams from the store's
        mmap'd columns and only the shortlist's series are fetched, so
        the tree is never built, one attached sketch per shard (see
        ``docs/SEARCH.md``).
        ``**kwargs`` are the constructor's resilience options
        (``fault_policy``, ``retry_policy``, ``state_dir``, ...).
        """
        db = cls(config, **kwargs)
        store = open_store(path)
        use_mmap = bool(mmap)   # "auto" maps too: every store can
        if lazy:
            # One log read: a missing or corrupt store fails at
            # open time, not at first touch, and the database knows its
            # sharding before the tree exists.
            manifest = store.manifest()
            db.shards = manifest["num_shards"]
            db.placement = manifest["serving_config"].get(
                "placement", db.placement)

        def materialize():
            index = store.load_index(mmap=use_mmap)
            db._adopt_sharding(index)
            return index

        if lazy:
            db._index_loader = materialize
            db._store = store
            db._store_mmap = use_mmap
        else:
            db._index = materialize()
        db._ingested.append(f"loaded:{os.fspath(path)}")
        db.path = store.path
        return db

    @classmethod
    def recover(cls, state_dir: str | os.PathLike,
                config: PipelineConfig | None = None,
                **kwargs) -> "VideoDatabase":
        """Resume a database's ingest ``state_dir`` after a crash.

        :meth:`IngestService.recover
        <repro.serving.ingest.IngestService.recover>` with this
        database's pipeline, service settings and empty index of its
        ``shards``, then bound to the database: the last snapshot that
        survives the store's deep integrity pass is loaded, and every
        journaled job it does not hold re-runs from the spool, exactly
        once, before this returns — the caller re-ingests nothing.
        Quarantine decisions stand.  ``db.recovery`` is the
        :class:`~repro.serving.ingest.IngestRecoveryReport`;
        ``**kwargs`` are the constructor's other options.  Raises
        :class:`~repro.errors.RecoveryError` when neither a usable
        snapshot nor a journal record exists.
        """
        from repro.serving.ingest import IngestService

        db = cls(config, **kwargs)
        db._bind(IngestService.recover(
            state_dir, pipeline=db.pipeline, config=db._service_config(),
            index=db._make_index()))
        logger.info("recovered %s: %d job(s) replayed", state_dir,
                    len(db.recovery.replayed_jobs))
        return db
