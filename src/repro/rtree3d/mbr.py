"""3-D minimum bounding rectangles over ``(x, y, t)``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError


@dataclass(frozen=True)
class MBR3:
    """Axis-aligned box in ``(x, y, t)`` space."""

    mins: tuple[float, float, float]
    maxs: tuple[float, float, float]

    def __post_init__(self) -> None:
        if any(lo > hi for lo, hi in zip(self.mins, self.maxs)):
            raise InvalidParameterError(
                f"MBR mins {self.mins} exceed maxs {self.maxs}"
            )

    @classmethod
    def of_trajectory(cls, og) -> "MBR3":
        """Bounding box of an OG: spatial extent x frame span."""
        values = np.asarray(getattr(og, "values", og))[:, :2]
        frames = getattr(og, "frames", None)
        if frames is None:
            frames = np.arange(values.shape[0])
        return cls(
            mins=(float(values[:, 0].min()), float(values[:, 1].min()),
                  float(np.min(frames))),
            maxs=(float(values[:, 0].max()), float(values[:, 1].max()),
                  float(np.max(frames))),
        )

    def volume(self) -> float:
        """Box volume (0 for degenerate boxes)."""
        out = 1.0
        for lo, hi in zip(self.mins, self.maxs):
            out *= hi - lo
        return out

    def union(self, other: "MBR3") -> "MBR3":
        """Smallest box covering both."""
        return MBR3(
            mins=tuple(min(a, b) for a, b in zip(self.mins, other.mins)),
            maxs=tuple(max(a, b) for a, b in zip(self.maxs, other.maxs)),
        )

    def enlargement(self, other: "MBR3") -> float:
        """Volume increase needed to absorb ``other``."""
        return self.union(other).volume() - self.volume()

    def intersects(self, other: "MBR3") -> bool:
        """Whether the boxes overlap (touching counts)."""
        return all(
            lo <= other_hi and other_lo <= hi
            for lo, hi, other_lo, other_hi in zip(
                self.mins, self.maxs, other.mins, other.maxs
            )
        )

    def contains(self, other: "MBR3") -> bool:
        """Whether ``other`` lies entirely inside this box."""
        return all(
            lo <= other_lo and other_hi <= hi
            for lo, hi, other_lo, other_hi in zip(
                self.mins, self.maxs, other.mins, other.maxs
            )
        )

    def min_distance(self, other: "MBR3") -> float:
        """Euclidean gap between the boxes (0 when intersecting)."""
        total = 0.0
        for lo, hi, other_lo, other_hi in zip(
            self.mins, self.maxs, other.mins, other.maxs
        ):
            if other_hi < lo:
                gap = lo - other_hi
            elif hi < other_lo:
                gap = other_lo - hi
            else:
                gap = 0.0
            total += gap * gap
        return float(np.sqrt(total))
