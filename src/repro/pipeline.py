"""End-to-end pipeline: raw frames -> RAGs -> STRG -> OGs/BG -> STRG-Index.

:class:`VideoPipeline` wires the substrates together exactly in the order
of Section 2: segment every frame (EDISON substitute), build the per-frame
RAGs, track regions across frames into an STRG (Algorithm 1), decompose
into Object Graphs and a Background Graph (Section 2.3), and hand the
result to the :class:`~repro.core.index.STRGIndex`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.index import STRGIndex, STRGIndexConfig, extend_index
from repro.errors import CorruptSegmentError, InvalidParameterError
from repro.graph.decomposition import (
    DecompositionConfig,
    STRGDecomposition,
    decompose,
)
from repro.graph.strg import SpatioTemporalRegionGraph
from repro.graph.tracking import GraphTracker, TrackerConfig
from repro.observability import OBS
from repro.parallel import ordered_chunk_map
from repro.resilience.faults import maybe_fail, maybe_transform
from repro.video.frames import VideoSegment
from repro.video.segmentation import GridSegmenter, Segmenter


def _segment_chunk(segmenter: Segmenter, start: int,
                   frames: list[np.ndarray]):
    """Chunk task for :func:`repro.parallel.ordered_chunk_map`: build the
    RAGs of a contiguous run of validated frames."""
    return segmenter.build_rags(frames, start)


def _validate_frame(frame, t: int, segment: str) -> np.ndarray:
    """Reject unusable frame data before it reaches the segmenter.

    Real decoders hand back ``None`` or short reads for corrupted input;
    the ``segmentation`` fault point simulates the same.  Raising a
    typed :class:`CorruptSegmentError` here lets the ingest fault policy
    quarantine the segment instead of crashing deep in the segmenter.
    """
    if (not isinstance(frame, np.ndarray) or frame.ndim != 3
            or frame.shape[2] != 3 or frame.size == 0):
        raise CorruptSegmentError(
            f"segment {segment!r}: frame {t} is corrupt or missing",
            details={"segment": segment, "frame": t},
        )
    return frame


@dataclass
class PipelineConfig:
    """Configuration of every pipeline stage.

    The fast :class:`GridSegmenter` is the default because the simulated
    streams are flat-colored; swap in
    :class:`~repro.video.segmentation.MeanShiftSegmenter` for textured
    input.
    """

    segmenter: Segmenter = field(default_factory=GridSegmenter)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    decomposition: DecompositionConfig = field(default_factory=DecompositionConfig)
    index: STRGIndexConfig = field(
        default_factory=lambda: STRGIndexConfig(n_clusters=None, k_max=8)
    )


@dataclass
class ClipResult:
    """Outcome of one clip run through the extraction pipeline.

    What :class:`~repro.serving.ingest.IngestService` commits (every
    ``VideoDatabase.ingest`` runs through it) and what
    :meth:`VideoPipeline.process` indexes: the decomposition plus one
    clip ref per OG.
    """

    decomposition: STRGDecomposition
    refs: list[dict]

    @property
    def object_graphs(self):
        return self.decomposition.object_graphs

    @property
    def background(self):
        return self.decomposition.background


class VideoPipeline:
    """Orchestrates segmentation, tracking, decomposition and indexing."""

    def __init__(self, config: PipelineConfig | None = None):
        self.config = config or PipelineConfig()
        self._tracker = GraphTracker(self.config.tracker)
        #: The most recent index produced by :meth:`process` (lets
        #: ``Query(pipeline)`` and ``repro.open_database`` treat a
        #: pipeline like any other queryable source).
        self.index: STRGIndex | None = None

    def build_strg(self, video: VideoSegment, workers: int | None = None
                   ) -> SpatioTemporalRegionGraph:
        """Segment every frame and assemble the STRG (Sections 2.1-2.2).

        The ``segmentation`` (per frame) and ``tracking`` (per segment)
        fault-injection points fire here; injected frame corruption is
        caught by validation and surfaces as
        :class:`~repro.errors.CorruptSegmentError`.

        With ``workers > 1`` the per-frame segmentation + RAG work fans
        out across a process pool while the sequential
        :class:`~repro.graph.tracking.GraphTracker` consumes completed
        RAGs in frame order, overlapping segmentation with tracking.
        Results are **bit-identical** at any worker count: every fault
        hook fires in this process, in frame order, *before* the fan-out
        (same hook/RNG sequence as serial), and the pure per-frame
        kernels are chunking-invariant.
        """
        if workers is not None and workers < 0:
            raise InvalidParameterError(
                f"workers must be >= 0, got {workers}"
            )
        n = video.num_frames
        if workers is None or workers <= 1:
            with OBS.span("pipeline.segmentation", segment=video.name,
                          frames=n):
                rags = []
                for t in range(n):
                    frame = maybe_transform("segmentation", video.frame(t))
                    frame = _validate_frame(frame, t, video.name)
                    maybe_fail("segmentation", segment=video.name, frame=t)
                    rags.append(self.config.segmenter.build_rag(frame, t))
            with OBS.span("pipeline.tracking", segment=video.name):
                maybe_fail("tracking", segment=video.name)
                return self._tracker.build_strg(rags)
        # Parallel path: evaluate every fault hook up front, in frame
        # order, so injection/quarantine decisions cannot depend on
        # worker scheduling; workers then run pure computation.
        with OBS.span("pipeline.segmentation", segment=video.name,
                      frames=n, workers=workers, mode="parallel"):
            frames = []
            for t in range(n):
                frame = maybe_transform("segmentation", video.frame(t))
                frame = _validate_frame(frame, t, video.name)
                maybe_fail("segmentation", segment=video.name, frame=t)
                frames.append(frame)
        with OBS.span("pipeline.tracking", segment=video.name,
                      mode="overlapped"):
            maybe_fail("tracking", segment=video.name)
            rag_stream = ordered_chunk_map(
                partial(_segment_chunk, self.config.segmenter), frames,
                workers=workers)
            return self._tracker.track_stream(rag_stream)

    def decompose(self, video: VideoSegment, workers: int | None = None
                  ) -> STRGDecomposition:
        """Full decomposition of a segment into OGs + BG (Section 2.3)."""
        strg = self.build_strg(video, workers=workers)
        with OBS.span("pipeline.decomposition", segment=video.name):
            maybe_fail("decomposition", segment=video.name)
            return decompose(strg, self.config.decomposition)

    def process_clip(self, video: VideoSegment, *,
                     workers: int | None = None) -> ClipResult:
        """The reusable per-clip ingest entry point: decompose + refs.

        Runs the full extraction (segment → track → decompose) once and
        returns a :class:`ClipResult` carrying the decomposition and one
        clip ref per OG (``{"video": name, "og": id}``).  Failures
        propagate unchanged: retrying and quarantining a clip is
        :class:`~repro.serving.ingest.IngestService`'s job.
        """
        decomposition = self.decompose(video, workers=workers)
        refs = [
            {"video": video.name, "og": og.og_id}
            for og in decomposition.object_graphs
        ]
        return ClipResult(decomposition, refs)

    def process(self, video: VideoSegment,
                index: STRGIndex | None = None,
                workers: int | None = None
                ) -> tuple[STRGDecomposition, STRGIndex]:
        """Decompose a segment and (build or extend) an STRG-Index.

        Returns the decomposition and the index.  When ``index`` is given,
        the segment's OGs extend it (see :func:`~repro.core.index.extend_index`:
        background-matched inserts, or one build while it is empty);
        otherwise a fresh index is built.  ``workers`` controls
        frame-parallel segmentation (see :meth:`build_strg`).
        """
        clip = self.process_clip(video, workers=workers)
        if index is None:
            index = STRGIndex(self.config.index)
        extend_index(index, clip.object_graphs, clip.background, clip.refs)
        self.index = index
        return clip.decomposition, index
