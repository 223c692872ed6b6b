"""Robustness of the pipeline under degraded video conditions.

The paper chose EDISON for stability "to small changes over the frames";
these tests inject the degradations a real camera produces — sensor
noise, slow lighting drift, camera shake — and check that the pipeline
still extracts the moving object.
"""

import numpy as np
import pytest

from repro.graph.decomposition import DecompositionConfig
from repro.pipeline import PipelineConfig, VideoPipeline
from repro.resilience import FaultInjector, RetryPolicy, injected
from repro.storage.database import VideoDatabase
from repro.video.segmentation import GridSegmenter, MeanShiftSegmenter
from repro.video.synthesize import (
    Actor,
    BackgroundSpec,
    SceneRenderer,
    linear_trajectory,
    make_vehicle,
)


def render_mover(noise_std=0.0, lighting_drift=0.0, camera_jitter=0,
                 num_frames=10):
    background = BackgroundSpec(
        width=96, height=72, base_color=(100, 100, 100),
        zones=[(0, 0, 96, 20, (60, 60, 140))],
    )
    scene = SceneRenderer(
        background,
        [Actor(linear_trajectory((8.0, 45.0), (88.0, 45.0), num_frames),
               make_vehicle((210, 40, 40)))],
        noise_std=noise_std,
        lighting_drift=lighting_drift,
        camera_jitter=camera_jitter,
        rng=np.random.default_rng(5),
    )
    return scene.render(num_frames)


def pipeline_with(segmenter):
    return VideoPipeline(PipelineConfig(
        segmenter=segmenter,
        decomposition=DecompositionConfig(min_velocity=1.0),
    ))


class TestCleanBaseline:
    def test_grid_segmenter_finds_mover(self):
        video = render_mover()
        pipeline = pipeline_with(GridSegmenter(min_region_size=10))
        ogs = pipeline.decompose(video).object_graphs
        assert len(ogs) == 1
        assert ogs[0].values[-1, 0] > ogs[0].values[0, 0]  # moves right


class TestSensorNoise:
    def test_mean_shift_survives_noise(self):
        video = render_mover(noise_std=5.0)
        segmenter = MeanShiftSegmenter(spatial_bandwidth=2,
                                       range_bandwidth=12.0,
                                       min_region_size=24,
                                       max_iterations=3)
        pipeline = pipeline_with(segmenter)
        ogs = pipeline.decompose(video).object_graphs
        assert len(ogs) >= 1
        rightward = max(ogs, key=lambda og: og.values[-1, 0] - og.values[0, 0])
        assert rightward.values[-1, 0] - rightward.values[0, 0] > 30.0


class TestLightingDrift:
    def test_slow_drift_does_not_cut_track(self):
        # A 20-level brightness ramp over 10 frames: per-frame change is
        # small, so tracking must keep a single unbroken trajectory.
        video = render_mover(lighting_drift=20.0)
        segmenter = MeanShiftSegmenter(spatial_bandwidth=2,
                                       range_bandwidth=14.0,
                                       min_region_size=24,
                                       max_iterations=3)
        pipeline = pipeline_with(segmenter)
        ogs = pipeline.decompose(video).object_graphs
        spans = [og.values[-1, 0] - og.values[0, 0] for og in ogs]
        assert max(spans) > 40.0  # one track covers most of the crossing

    def test_drift_does_not_split_background(self):
        video = render_mover(lighting_drift=20.0)
        segmenter = MeanShiftSegmenter(spatial_bandwidth=2,
                                       range_bandwidth=14.0,
                                       min_region_size=24,
                                       max_iterations=3)
        first = len(np.unique(segmenter.segment(video.frame(0))))
        last = len(np.unique(segmenter.segment(video.frame(9))))
        assert first == last


class TestCameraJitter:
    def test_small_jitter_tolerated(self):
        video = render_mover(camera_jitter=1, num_frames=10)
        pipeline = pipeline_with(GridSegmenter(min_region_size=10))
        decomposition = pipeline.decompose(video)
        # The mover must still be detected despite 1 px shake (the
        # tracker's centroid gate absorbs it).
        rightward = [og for og in decomposition.object_graphs
                     if og.values[-1, 0] - og.values[0, 0] > 30.0]
        assert rightward


def _segmenters():
    """The fast segmenter, as (name, factory(video)) pairs."""
    return [("grid", lambda video: GridSegmenter(min_region_size=10))]


#: (scenario name, injector factory) — the degraded-input scenarios a
#: long-running deployment must contain rather than crash on.
DEGRADATION_SCENARIOS = [
    ("corrupt-frames", lambda: FaultInjector().inject(
        "segmentation", kind="corrupt", rate=1.0)),
    ("segmenter-crash", lambda: FaultInjector().inject(
        "segmentation", rate=1.0)),
    ("tracking-crash", lambda: FaultInjector().inject(
        "tracking", rate=1.0)),
    ("decomposition-crash", lambda: FaultInjector().inject(
        "decomposition", rate=1.0)),
]


class TestDegradedIngestion:
    """Under the default fault policy a bad segment is quarantined —
    ingestion survives and subsequent clean segments still index."""

    @pytest.mark.parametrize("seg_name,seg_factory", _segmenters(),
                             ids=[n for n, _ in _segmenters()])
    @pytest.mark.parametrize("scenario,make_injector", DEGRADATION_SCENARIOS,
                             ids=[n for n, _ in DEGRADATION_SCENARIOS])
    def test_quarantine_not_crash(self, seg_name, seg_factory,
                                  scenario, make_injector):
        video = render_mover()
        db = VideoDatabase(
            PipelineConfig(segmenter=seg_factory(video),
                           decomposition=DecompositionConfig(
                               min_velocity=1.0)),
            retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0),
        )
        with injected(make_injector()):
            assert db.ingest(video) == 0          # quarantined, not raised
        health = db.health()
        assert health["quarantined"] == 1
        assert health["retries"] >= 1             # default policy retried
        assert health["last_error"] is not None
        # The database is still healthy: a clean segment ingests fine.
        assert db.ingest(video) >= 1
        assert db.health()["segments_ingested"] == 1
        assert db.health()["quarantined"] == 1
