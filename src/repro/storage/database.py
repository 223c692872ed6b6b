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

from repro.core.index import STRGIndex
from repro.core.size import index_size_bytes, strg_raw_size_bytes
from repro.errors import (
    IndexStateError,
    IngestDegradedError,
    RecoveryError,
    StorageError,
)
from repro.graph.object_graph import ObjectGraph
from repro.observability import OBS
from repro.pipeline import PipelineConfig, VideoPipeline
from repro.resilience.journal import (
    IngestJournal,
    RecoveryReport,
    read_journal,
    replay_pending,
)
from repro.resilience.policy import (
    RECOVERABLE_ERRORS,
    FaultPolicy,
    QuarantineRecord,
    quarantine_record,
)
from repro.resilience.retry import RetryPolicy
from repro.search.request import SearchRequest, budgeted_scatter
from repro.search.sketch import approx_knn
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

    Ingestion is fault tolerant (see ``docs/RESILIENCE.md``): the
    ``fault_policy`` decides whether a segment failing with a
    recoverable error crashes the batch (``fail-fast``), is quarantined
    (``skip-and-quarantine``), or is retried under ``retry_policy``
    first (``retry-then-skip``, the default).  ``drop_tolerance`` bounds
    the quarantined fraction — past it, ingestion escalates to
    :class:`~repro.errors.IngestDegradedError`.  An optional
    ``journal_path`` appends one JSONL record per segment plus one per
    snapshot save, enabling :meth:`recover` after a crash.

    With ``shards`` set, the database maintains a
    :class:`~repro.serving.sharding.ShardedIndex` of that many shards
    instead of a monolithic tree — query results stay bit-identical,
    and the index plugs straight into the serving layer
    (``LiveIndex`` / ``QueryService``).
    """

    def __init__(self, config: PipelineConfig | None = None, *,
                 fault_policy: FaultPolicy | str = FaultPolicy.RETRY_THEN_SKIP,
                 retry_policy: RetryPolicy | None = None,
                 drop_tolerance: float = 0.5,
                 drop_grace: int = 8,
                 journal_path: str | os.PathLike | None = None,
                 shards: int | None = None,
                 placement: str = "affine"):
        self.pipeline = VideoPipeline(config)
        self._index: STRGIndex | None = None
        self._index_loader = None
        self.shards = shards
        self.placement = placement
        self._ingested: list[str] = []
        self._raw_strg_bytes = 0
        self.fault_policy = FaultPolicy.coerce(fault_policy)
        self.retry_policy = retry_policy or RetryPolicy(max_attempts=3,
                                                        base_delay=0.05)
        self.drop_tolerance = drop_tolerance
        self.drop_grace = drop_grace
        self.quarantine: list[QuarantineRecord] = []
        self._retries = 0
        self._last_error: dict[str, Any] | None = None
        self._journal = (IngestJournal(journal_path)
                         if journal_path is not None else None)
        self.recovery: RecoveryReport | None = None
        #: Store backing a lazy (mmap) open — lets budgeted queries run
        #: against the out-of-core sketch tier without ever
        #: materializing the tree.  ``_ooc_sketch`` caches the attached
        #: sketches, one per shard (``False`` once probing found none).
        self._store = None
        self._store_mmap = False
        self._ooc_sketch: Any = None
        #: Default snapshot location used by :meth:`save`; set by
        #: :func:`repro.open_database`, :meth:`load` and :meth:`recover`.
        self.path: str | None = None

    # -- index binding -------------------------------------------------------

    @property
    def index(self) -> STRGIndex | None:
        """The database's index, materialized on first touch.

        A database opened with ``mmap`` (via :func:`repro.open_database`
        or :meth:`load`) defers tree materialization: ``open`` is O(1)
        — one manifest read — and the tree is built from the store's
        zero-copy views the first time anything touches ``db.index``.
        """
        if self._index is None and self._index_loader is not None:
            loader, self._index_loader = self._index_loader, None
            with OBS.span("database.materialize"):
                self._index = loader()
        return self._index

    @index.setter
    def index(self, value: STRGIndex | None) -> None:
        self._index = value
        self._index_loader = None

    @property
    def index_loaded(self) -> bool:
        """Whether the index is materialized (False while open is lazy)."""
        return self._index is not None

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

        ``workers > 1`` fans the segment's per-frame segmentation + RAG
        construction out across worker processes (see
        :meth:`VideoPipeline.build_strg <repro.pipeline.VideoPipeline.build_strg>`).
        Fault-injection points, quarantine decisions, journal ordering
        and index contents are identical at every worker count: the
        hooks fire in the coordinator, in frame order, before any
        fan-out, and a retry re-runs the whole decomposition exactly as
        the serial path does.
        """
        if parse_shots:
            from repro.video.shots import split_into_shots

            return sum(self.ingest(shot, workers=workers)
                       for shot in split_into_shots(video))
        with OBS.span("ingest.segment", segment=video.name,
                      workers=workers) as sp:
            attempts = 1

            def count_retry(attempt, exc, delay):
                nonlocal attempts
                attempts = attempt + 1
                self._retries += 1
                OBS.count("ingest.retries")
                logger.info("segment %r attempt %d failed: %s",
                            video.name, attempt, exc)

            retry_policy = (self.retry_policy
                            if self.fault_policy is FaultPolicy.RETRY_THEN_SKIP
                            else None)
            try:
                clip = self.pipeline.process_clip(
                    video, retry_policy=retry_policy,
                    on_retry=count_retry, workers=workers,
                )
                decomposition = clip.decomposition
            except RECOVERABLE_ERRORS as exc:
                self._record_error(video.name, exc)
                if self.fault_policy is FaultPolicy.FAIL_FAST:
                    raise
                OBS.count("ingest.segments_quarantined")
                sp.set(status="quarantined")
                self._quarantine(video.name, exc, attempts)
                return 0
            self._index_decomposition(video, decomposition)
            self._ingested.append(video.name)
            self._raw_strg_bytes += strg_raw_size_bytes(
                decomposition.object_graphs,
                decomposition.background,
                video.num_frames,
            )
            n = len(decomposition.object_graphs)
            OBS.count("ingest.segments_ok")
            sp.set(status="ok", ogs=n)
            self._journal_append({"event": "segment", "segment": video.name,
                                  "ogs": n, "status": "ok"})
            logger.debug("ingested segment %r: %d OGs", video.name, n)
            return n

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

    def _make_index(self):
        """A fresh index honouring the database's sharding settings."""
        if self.shards is None:
            return STRGIndex(self.pipeline.config.index)
        from repro.serving.sharding import ShardedIndex, ShardedIndexConfig

        return ShardedIndex(ShardedIndexConfig(
            num_shards=self.shards,
            placement=self.placement,
            index=self.pipeline.config.index,
        ))

    def _index_decomposition(self, video: VideoSegment,
                             decomposition) -> None:
        """Insert a decomposition's OGs into the index (build on first)."""
        refs = [
            {"video": video.name, "og": og.og_id}
            for og in decomposition.object_graphs
        ]
        if self.index is None:
            self.index = self._make_index()
            if decomposition.object_graphs:
                self.index.build(decomposition.object_graphs,
                                 decomposition.background, refs)
        else:
            for og, ref in zip(decomposition.object_graphs, refs):
                self.index.insert(og, decomposition.background, ref)

    def _record_error(self, segment: str, exc: BaseException) -> None:
        self._last_error = {
            "segment": segment,
            "error_type": type(exc).__name__,
            "message": str(exc),
            "details": dict(getattr(exc, "details", {}) or {}),
        }

    def _quarantine(self, segment: str, exc: BaseException,
                    attempts: int) -> None:
        """Record a skipped segment and enforce the drop tolerance."""
        record = quarantine_record(segment, exc, attempts)
        self.quarantine.append(record)
        self._journal_append({"event": "segment", "segment": segment,
                              "ogs": 0, "status": "quarantined",
                              "error": record.error_type})
        logger.warning("quarantined segment %r after %d attempt(s): %s",
                       segment, attempts, exc)
        processed = len(self._ingested) + len(self.quarantine)
        fraction = len(self.quarantine) / processed
        if processed >= self.drop_grace and fraction > self.drop_tolerance:
            logger.error("ingest degraded: %d/%d segments quarantined",
                         len(self.quarantine), processed)
            raise IngestDegradedError(
                f"{len(self.quarantine)}/{processed} segments quarantined "
                f"(tolerance {self.drop_tolerance:.0%})",
                details={
                    "quarantined": len(self.quarantine),
                    "processed": processed,
                    "tolerance": self.drop_tolerance,
                    "last_segment": segment,
                },
            ) from exc

    def _journal_append(self, record: dict) -> None:
        if self._journal is not None:
            self._journal.append(record)

    def ingest_object_graphs(self, ogs: Sequence[ObjectGraph],
                             source: str = "external") -> int:
        """Index pre-extracted OGs (e.g. from a trajectory feed)."""
        if not ogs:
            return 0
        if self.index is None:
            self.index = self._make_index()
            self.index.build(list(ogs))
        else:
            for og in ogs:
                self.index.insert(og)
        self._ingested.append(source)
        return len(ogs)

    def ingest_service(self, *, state_dir: str | os.PathLike | None = None,
                       config=None):
        """A streaming :class:`~repro.serving.ingest.IngestService` over
        this database's index.

        The service takes ownership of the write path: the current index
        is frozen into the first published snapshot (direct
        :meth:`ingest` calls will fail on the frozen index), and after
        every committed job ``self.index`` is repointed at the newest
        snapshot — so :meth:`knn` / :meth:`query_clip` always see the
        freshest queryable state.  With ``state_dir`` the service
        journals, spools and checkpoints there;
        ``IngestService.recover(state_dir, database=db)`` rebuilds both
        the service and the binding after a crash.
        """
        from repro.serving.ingest import IngestService
        from repro.serving.snapshot import LiveIndex

        if self.index is None:
            self.index = self._make_index()
        live = LiveIndex(self.index)
        return IngestService(live, self.pipeline, state_dir=state_dir,
                             config=config, database=self)

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
            hits = budgeted_scatter(
                request, [len(sketch) for sketch in sketches],
                lambda p, share: approx_knn(
                    sketches[p], sketches[p].replay_distance, share))
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
        """Remove one OG from the database's index."""
        self._require_index()
        return self.index.delete(og_id)

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
        removed = 0
        for og_id in stale:
            if self.index.delete(og_id):
                removed += 1
        return removed

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
        sketches = [sketch for sketch in sketches or () if len(sketch)]
        self._ooc_sketch = sketches or False
        return sketches or None

    # -- introspection / persistence -----------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Database statistics, including the Eq. 9 vs Eq. 10 sizes."""
        if self.index is None:
            return {"segments": len(self._ingested), "ogs": 0}
        trees = getattr(self.index, "shards", None) or [self.index]
        out = {
            "segments": len(self._ingested),
            "ogs": len(self.index),
            "clusters": self.index.num_clusters(),
            "backgrounds": sum(len(tree.root) for tree in trees),
            "raw_strg_bytes": self._raw_strg_bytes,
            "index_bytes": sum(index_size_bytes(tree) for tree in trees),
        }
        if self.shards is not None:
            out["shards"] = len(trees)
            out["shard_sizes"] = self.index.shard_sizes()
        return out

    def health(self) -> dict[str, Any]:
        """Operational telemetry: counts, quarantine and last error.

        Unlike :meth:`stats` (paper-facing size accounting), this is the
        surface an operator watches: how many segments made it in, how
        many were quarantined and why, how often stages were retried.
        """
        return {
            "fault_policy": self.fault_policy.value,
            "segments_ingested": len(self._ingested),
            "ogs_indexed": 0 if self.index is None else len(self.index),
            "quarantined": len(self.quarantine),
            "quarantined_segments": [q.segment for q in self.quarantine],
            "retries": self._retries,
            "last_error": self._last_error,
            "journal": None if self._journal is None else self._journal.path,
        }

    def save(self, path: str | os.PathLike | None = None) -> None:
        """Persist the index atomically and journal a checkpoint.

        ``path`` defaults to the database's bound :attr:`path` (set by
        :func:`repro.open_database` / :meth:`load`); a suffix-less path
        means ``<path>.strg/``.  The store's manifest is replaced last
        and atomically — temp + fsync + rename — so a crash mid-save
        leaves any previous snapshot intact.
        """
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
        self._journal_append({"event": "checkpoint",
                              "path": store.path,
                              "ogs": len(self.index),
                              "segments": len(self._ingested)})
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
        the tree is never built — on monolithic and sharded stores
        alike (see ``docs/SEARCH.md``).
        ``**kwargs`` are the constructor's resilience options
        (``fault_policy``, ``retry_policy``, ``journal_path``, ...).
        """
        db = cls(config, **kwargs)
        store = open_store(path)
        use_mmap = bool(mmap)   # "auto" maps too: every store can
        if lazy:
            # One manifest read: a missing or corrupt store fails at
            # open time, not at first touch, and the database knows its
            # sharding before the tree exists.
            manifest = store.manifest()
            if manifest["kind"] == "sharded":
                db.shards = manifest["num_shards"]
                db.placement = manifest.get("serving_config", {}).get(
                    "placement", db.placement)

        def materialize():
            index = store.load_index(mmap=use_mmap)
            if getattr(index, "shards", None) is not None:
                db.shards = index.num_shards
                db.placement = index.config.placement
            return index

        if lazy:
            db._index_loader = materialize
            db._store = store
            db._store_mmap = use_mmap
        else:
            db.index = materialize()
        db._ingested.append(f"loaded:{os.fspath(path)}")
        db.path = store.path
        return db

    @classmethod
    def recover(cls, path: str | os.PathLike,
                journal_path: str | os.PathLike | None = None,
                config: PipelineConfig | None = None) -> "VideoDatabase":
        """Reconstruct state after a crash from snapshot + journal.

        Loads the last complete snapshot at ``path`` — if it survives
        the store's deep integrity pass (every file re-hashed against
        the manifest, so bit rot is caught here, not served) — and
        replays the ingest journal (default:
        ``<path>.journal``) to find segments that were ingested after
        the last checkpoint — i.e. work the snapshot does not contain.
        The result's ``recovery`` attribute is a
        :class:`~repro.resilience.journal.RecoveryReport` whose
        ``pending_segments`` the caller should re-ingest.

        Raises :class:`~repro.errors.RecoveryError` when neither a
        usable snapshot nor a journal exists.
        """
        store = open_store(path)
        target = store.path
        journal_path = (os.fspath(journal_path) if journal_path is not None
                        else target + ".journal")
        records, truncated = read_journal(journal_path)
        snapshot_error: str | None = None
        db: "VideoDatabase | None" = None
        try:
            store.verify()
            db = cls.load(target, config)
            snapshot_loaded = True
        except StorageError as exc:
            snapshot_error = f"{type(exc).__name__}: {exc}"
            snapshot_loaded = False
            logger.warning("recover: snapshot %s unusable: %s", target, exc)
        if not snapshot_loaded:
            if not records:
                raise RecoveryError(
                    f"nothing to recover at {target}: no valid snapshot "
                    f"and no journal records at {journal_path}",
                    details={"path": target, "journal": journal_path,
                             "snapshot_error": snapshot_error},
                )
            db = cls(config)
        db.path = target
        pending, quarantined = replay_pending(records)
        if not snapshot_loaded:
            # No snapshot survived: every journaled-ok segment is pending.
            pending = [str(r.get("segment")) for r in records
                       if r.get("event") == "segment"
                       and r.get("status") == "ok"]
        db._journal = IngestJournal(journal_path)
        db.recovery = RecoveryReport(
            snapshot_loaded=snapshot_loaded,
            snapshot_path=target,
            snapshot_ogs=0 if db.index is None else len(db.index),
            snapshot_error=snapshot_error,
            journal_path=journal_path,
            journal_truncated=truncated,
            pending_segments=pending,
            quarantined_segments=quarantined,
        )
        logger.info("recovered from %s: snapshot=%s, %d pending segment(s)",
                    target, snapshot_loaded, len(pending))
        return db
