"""Attribute models for RAG / STRG nodes and edges.

Definition 1 attaches *size*, *color* and *location (centroid)* to nodes and
*spatial distance* and *orientation* to spatial edges; Definition 2 adds
*velocity* and *moving direction* to temporal edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class NodeAttributes:
    """Attributes of a segmented region (a RAG node).

    Attributes
    ----------
    size:
        Number of pixels in the region.
    color:
        Mean color of the region, an RGB (or LUV) triple in ``[0, 255]``.
    centroid:
        ``(x, y)`` centroid of the region in pixel coordinates.
    """

    size: int
    color: tuple[float, float, float]
    centroid: tuple[float, float]

    def __post_init__(self) -> None:
        if self.size < 1:
            raise InvalidParameterError(f"region size must be >= 1, got {self.size}")

    def color_distance(self, other: "NodeAttributes") -> float:
        """Euclidean distance between mean colors."""
        a = np.asarray(self.color, dtype=np.float64)
        b = np.asarray(other.color, dtype=np.float64)
        return float(np.linalg.norm(a - b))

    def centroid_distance(self, other: "NodeAttributes") -> float:
        """Euclidean distance between centroids."""
        dx = self.centroid[0] - other.centroid[0]
        dy = self.centroid[1] - other.centroid[1]
        return math.hypot(dx, dy)

    def size_ratio(self, other: "NodeAttributes") -> float:
        """Smaller-over-larger size ratio in ``(0, 1]``."""
        lo, hi = sorted((self.size, other.size))
        return lo / hi


@dataclass(frozen=True)
class SpatialEdgeAttributes:
    """Attributes of a spatial edge between two adjacent regions.

    ``distance`` is the Euclidean centroid distance and ``orientation`` the
    angle (radians, in ``(-pi, pi]``) of the vector between the centroids.
    """

    distance: float
    orientation: float

    @classmethod
    def between(cls, a: NodeAttributes, b: NodeAttributes) -> "SpatialEdgeAttributes":
        """Spatial edge attributes between two node attribute sets."""
        dx = b.centroid[0] - a.centroid[0]
        dy = b.centroid[1] - a.centroid[1]
        return cls(distance=math.hypot(dx, dy), orientation=math.atan2(dy, dx))


@dataclass(frozen=True)
class TemporalEdgeAttributes:
    """Attributes of a temporal edge between corresponding regions in two
    consecutive frames.

    ``velocity`` is the centroid displacement magnitude (pixels/frame) and
    ``direction`` the displacement angle (radians).
    """

    velocity: float
    direction: float

    @classmethod
    def between(cls, prev: NodeAttributes, cur: NodeAttributes) -> "TemporalEdgeAttributes":
        """Temporal edge attributes from the previous to the current node."""
        dx = cur.centroid[0] - prev.centroid[0]
        dy = cur.centroid[1] - prev.centroid[1]
        return cls(velocity=math.hypot(dx, dy), direction=math.atan2(dy, dx))


def angle_difference(a: float, b: float) -> float:
    """Absolute angular difference in ``[0, pi]``."""
    diff = (a - b) % (2.0 * math.pi)
    if diff > math.pi:
        diff = 2.0 * math.pi - diff
    return diff


@dataclass(frozen=True)
class AttributeTolerance:
    """Tolerances under which two attributed nodes/edges are *compatible*.

    Graph matching on real segmentations can never demand exact attribute
    equality; every matcher in this package takes compatibility from this
    object.  The defaults are permissive enough for the synthetic videos in
    :mod:`repro.datasets.real` while still separating distinct objects.
    """

    color: float = 40.0
    size_ratio: float = 0.5
    centroid: float = float("inf")
    spatial_distance: float = float("inf")
    orientation: float = math.pi

    def nodes_compatible(self, a: NodeAttributes, b: NodeAttributes) -> bool:
        """Whether two nodes may correspond under this tolerance."""
        if a.color_distance(b) > self.color:
            return False
        if a.size_ratio(b) < self.size_ratio:
            return False
        if a.centroid_distance(b) > self.centroid:
            return False
        return True

    def edges_compatible(self, a: SpatialEdgeAttributes,
                         b: SpatialEdgeAttributes) -> bool:
        """Whether two spatial edges may correspond under this tolerance."""
        if abs(a.distance - b.distance) > self.spatial_distance:
            return False
        if angle_difference(a.orientation, b.orientation) > self.orientation:
            return False
        return True


#: Tolerance matching the exact-equality semantics of Definition 4 — only
#: meaningful for synthetic graphs with controlled attributes.
EXACT = AttributeTolerance(color=0.0, size_ratio=1.0, centroid=0.0,
                           spatial_distance=0.0, orientation=0.0)
