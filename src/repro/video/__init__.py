"""Video substrate: frames, color models, segmentation and synthesis.

The paper's pipeline starts from raw frames segmented by EDISON (mean
shift).  Neither real camera streams nor OpenCV are available offline, so
this package provides:

- :mod:`repro.video.frames` — ``VideoSegment`` containers over numpy
  ``(T, H, W, 3)`` arrays with NPZ persistence.
- :mod:`repro.video.color` — RGB to CIE L*u*v* conversion.
- :mod:`repro.video.segmentation` — a pure-numpy mean-shift segmenter
  (EDISON substitute) and a fast quantizing segmenter for large sweeps.
- :mod:`repro.video.regions` — region statistics, adjacency extraction and
  RAG construction from a label image.
- :mod:`repro.video.synthesize` — a procedural surveillance-video renderer
  (actors on static backgrounds) used to simulate the paper's Lab/Traffic
  streams.
"""

from repro.video.frames import VideoSegment
from repro.video.color import rgb_to_luv
from repro.video.segmentation import (
    MeanShiftSegmenter,
    GridSegmenter,
    Segmenter,
)
from repro.video.regions import (
    region_statistics,
    region_adjacency,
    rag_from_labels,
)
from repro.video.shots import (
    ShotDetectorConfig,
    detect_shot_boundaries,
    split_into_shots,
)
from repro.video.visualize import render_trajectories
from repro.video.synthesize import (
    Actor,
    BackgroundSpec,
    SceneRenderer,
    linear_trajectory,
    uturn_trajectory,
    make_vehicle,
    make_person,
)

__all__ = [
    "VideoSegment",
    "rgb_to_luv",
    "MeanShiftSegmenter",
    "GridSegmenter",
    "Segmenter",
    "region_statistics",
    "region_adjacency",
    "rag_from_labels",
    "Actor",
    "BackgroundSpec",
    "SceneRenderer",
    "linear_trajectory",
    "uturn_trajectory",
    "make_vehicle",
    "make_person",
    "ShotDetectorConfig",
    "detect_shot_boundaries",
    "split_into_shots",
    "render_trajectories",
]
