"""Object Region Graphs and Object Graphs — Sections 2.3.1 and 2.3.2.

An **Object Region Graph (ORG)** is a temporal subgraph with no spatial
edges (Definition 8): the trajectory of one tracked region, a linear chain
of nodes connected by temporal edges.

An **Object Graph (OG)** merges the ORGs belonging to a single semantic
object (Theorem 1 / Section 2.3.2) and is the unit stored, clustered and
indexed by the STRG-Index.  For distance computation an OG exposes its node
*value series* — by default the per-frame centroid, matching the 2-D
trajectory data of the evaluation.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import EmptySequenceError, GraphStructureError
from repro.graph.attributes import NodeAttributes, TemporalEdgeAttributes

#: Global STRG node address.
NodeKey = tuple[int, int]

_OG_ID_LOCK = threading.Lock()
_OG_NEXT_ID = 0


def reserve_og_ids(count: int) -> int:
    """The first of ``count`` og_ids no OG of this process is minted with."""
    global _OG_NEXT_ID
    with _OG_ID_LOCK:
        first = _OG_NEXT_ID
        _OG_NEXT_ID += count
        return first


@dataclass
class ObjectRegionGraph:
    """Trajectory of a single tracked region.

    ``node_keys[i]`` is the ``(frame, region)`` address of the i-th node and
    ``attrs[i]`` its attributes; frames are consecutive.
    """

    node_keys: list[NodeKey]
    attrs: list[NodeAttributes]

    def __post_init__(self) -> None:
        if not self.node_keys:
            raise EmptySequenceError("ORG must contain at least one node")
        if len(self.node_keys) != len(self.attrs):
            raise GraphStructureError("node_keys and attrs length mismatch")
        frames = [key[0] for key in self.node_keys]
        if frames != list(range(frames[0], frames[0] + len(frames))):
            raise GraphStructureError("ORG frames must be consecutive")

    def __len__(self) -> int:
        return len(self.node_keys)

    @property
    def start_frame(self) -> int:
        """First frame of the trajectory."""
        return self.node_keys[0][0]

    @property
    def end_frame(self) -> int:
        """Last frame of the trajectory (inclusive)."""
        return self.node_keys[-1][0]

    def centroids(self) -> np.ndarray:
        """``(n, 2)`` centroid series."""
        return np.array([a.centroid for a in self.attrs], dtype=np.float64)

    def temporal_attrs(self) -> list[TemporalEdgeAttributes]:
        """Velocity/direction of each temporal edge along the chain."""
        return [
            TemporalEdgeAttributes.between(self.attrs[i], self.attrs[i + 1])
            for i in range(len(self.attrs) - 1)
        ]

    def mean_velocity(self) -> float:
        """Average centroid displacement per frame (0 for length-1 ORGs)."""
        edges = self.temporal_attrs()
        if not edges:
            return 0.0
        return float(np.mean([e.velocity for e in edges]))

    def mean_direction(self) -> float:
        """Circular-mean moving direction in radians (0 when stationary)."""
        edges = self.temporal_attrs()
        if not edges:
            return 0.0
        x = sum(math.cos(e.direction) for e in edges)
        y = sum(math.sin(e.direction) for e in edges)
        if x == 0.0 and y == 0.0:
            return 0.0
        return math.atan2(y, x)

    def overlaps(self, other: "ObjectRegionGraph") -> bool:
        """Whether the two trajectories share at least one frame."""
        return (self.start_frame <= other.end_frame
                and other.start_frame <= self.end_frame)

    def mean_centroid_gap(self, other: "ObjectRegionGraph") -> float:
        """Mean centroid distance over the shared frame span.

        ``inf`` when the trajectories do not overlap in time; used by OG
        merging to require spatial closeness in addition to matching motion.
        """
        lo = max(self.start_frame, other.start_frame)
        hi = min(self.end_frame, other.end_frame)
        if lo > hi:
            return float("inf")
        gaps = []
        for frame in range(lo, hi + 1):
            a = self.attrs[frame - self.start_frame].centroid
            b = other.attrs[frame - other.start_frame].centroid
            gaps.append(math.hypot(a[0] - b[0], a[1] - b[1]))
        return float(np.mean(gaps))


@dataclass
class ObjectGraph:
    """A merged, index-ready object trajectory.

    Attributes
    ----------
    values:
        ``(n, d)`` node value series used by all distance functions
        (default: centroids, ``d = 2``).
    frames:
        ``(n,)`` frame indices (consecutive).
    sizes:
        ``(n,)`` total pixel counts of the merged regions per frame.
    label:
        Optional ground-truth pattern/cluster id (used by the evaluation
        benchmarks; ``None`` for real pipeline output).
    og_id:
        Unique identifier within the process.
    meta:
        Free-form metadata (source video, member ORG count, ...).
    """

    values: np.ndarray
    frames: np.ndarray | None = None
    sizes: np.ndarray | None = None
    label: int | None = None
    og_id: int = field(default_factory=lambda: reserve_og_ids(1))
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim == 1:
            self.values = self.values.reshape(-1, 1)
        if self.values.shape[0] == 0:
            raise EmptySequenceError("OG must contain at least one node")
        if self.frames is None:
            self.frames = np.arange(self.values.shape[0], dtype=np.int64)
        else:
            self.frames = np.asarray(self.frames, dtype=np.int64)
            if self.frames.shape[0] != self.values.shape[0]:
                raise GraphStructureError("frames and values length mismatch")
        if self.sizes is not None:
            self.sizes = np.asarray(self.sizes, dtype=np.float64)
            if self.sizes.shape[0] != self.values.shape[0]:
                raise GraphStructureError("sizes and values length mismatch")

    # -- construction -----------------------------------------------------

    @classmethod
    def from_values(cls, values, label: int | None = None,
                    frames=None, **meta) -> "ObjectGraph":
        """Build an OG directly from a value series (synthetic workloads)."""
        return cls(values=np.asarray(values, dtype=np.float64), label=label,
                   frames=frames, meta=dict(meta))

    @classmethod
    def from_orgs(cls, orgs: Sequence[ObjectRegionGraph],
                  label: int | None = None, **meta) -> "ObjectGraph":
        """Merge member ORGs into a single OG (Section 2.3.2).

        Per shared frame, the merged centroid is the size-weighted mean of
        the member centroids and the merged size their sum — the graph
        analogue of the region-merging illustrated in Figure 3.
        """
        if not orgs:
            raise EmptySequenceError("cannot merge zero ORGs")
        lo = min(org.start_frame for org in orgs)
        hi = max(org.end_frame for org in orgs)
        n = hi - lo + 1
        weighted = np.zeros((n, 2), dtype=np.float64)
        weights = np.zeros(n, dtype=np.float64)
        for org in orgs:
            for i, attrs in enumerate(org.attrs):
                t = org.start_frame + i - lo
                weighted[t] += attrs.size * np.asarray(attrs.centroid)
                weights[t] += attrs.size
        covered = weights > 0
        if not np.all(covered):
            # Frames uncovered by any member ORG (gaps between merged
            # trajectories) are filled by linear interpolation.
            idx = np.arange(n)
            for k in range(2):
                weighted[covered, k] /= weights[covered]
                weighted[~covered, k] = np.interp(
                    idx[~covered], idx[covered], weighted[covered, k]
                )
            centroids = weighted
            weights[~covered] = np.interp(
                idx[~covered], idx[covered], weights[covered]
            )
        else:
            centroids = weighted / weights[:, None]
        return cls(
            values=centroids,
            frames=np.arange(lo, hi + 1, dtype=np.int64),
            sizes=weights,
            label=label,
            meta={"num_orgs": len(orgs), **meta},
        )

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def dim(self) -> int:
        """Feature dimension of the node values."""
        return self.values.shape[1]

    @property
    def start_frame(self) -> int:
        """First frame index."""
        return int(self.frames[0])

    @property
    def end_frame(self) -> int:
        """Last frame index (inclusive)."""
        return int(self.frames[-1])

    def duration(self) -> int:
        """Trajectory length in frames."""
        return len(self)

    def velocities(self) -> np.ndarray:
        """Per-step displacement magnitudes, shape ``(n - 1,)``."""
        if len(self) < 2:
            return np.zeros(0, dtype=np.float64)
        return np.sqrt(np.sum(np.diff(self.values[:, :2], axis=0) ** 2, axis=1))

    def mean_velocity(self) -> float:
        """Average displacement per frame (0 for single-node OGs)."""
        v = self.velocities()
        return float(v.mean()) if v.size else 0.0

    def bounding_box(self) -> tuple[float, float, float, float]:
        """``(x_min, y_min, x_max, y_max)`` of the trajectory."""
        xy = self.values[:, :2]
        mins = xy.min(axis=0)
        maxs = xy.max(axis=0)
        return (float(mins[0]), float(mins[1]), float(maxs[0]), float(maxs[1]))

    def size_bytes(self) -> int:
        """Approximate footprint used by the Eq. 9/10 size accounting."""
        total = 8 * self.values.size + 8 * self.frames.size
        if self.sizes is not None:
            total += 8 * self.sizes.size
        return total

    def __hash__(self) -> int:
        return hash(self.og_id)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ObjectGraph) and other.og_id == self.og_id

    def __repr__(self) -> str:
        label = f", label={self.label}" if self.label is not None else ""
        return (
            f"ObjectGraph(id={self.og_id}, len={len(self)}, "
            f"dim={self.dim}{label})"
        )
