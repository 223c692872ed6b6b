"""The 48 moving patterns of the synthetic workload (Section 6.1).

"First, we design 48 moving patterns: vertical (12), horizontal (12),
diagonal (8) and U-turn (16).  Each pattern has two directions, different
sizes of objects and various time lengths."

Patterns live on a 200x200 canvas.  Each pattern is a parametric path; OGs
of any time length are produced by sampling the path uniformly, which is
how "various time lengths" is realized without changing the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidParameterError

#: Canvas side length (pixels) for all synthetic trajectories.
CANVAS = 200.0

#: Object-size categories cycled across patterns ("different sizes").
SIZE_CATEGORIES = (8.0, 14.0, 22.0)

Point = tuple[float, float]


@dataclass(frozen=True)
class MotionPattern:
    """A parametric motion path.

    ``waypoints`` are traversed at constant speed; ``generate`` samples
    ``length`` positions along the full path.
    """

    pattern_id: int
    name: str
    category: str
    waypoints: tuple[Point, ...]
    object_size: float
    length_range: tuple[int, int] = (24, 48)

    def generate(self, length: int) -> np.ndarray:
        """Sample ``length`` positions along the path, shape ``(length, 2)``."""
        if length < 1:
            raise InvalidParameterError(f"length must be >= 1, got {length}")
        pts = np.asarray(self.waypoints, dtype=np.float64)
        seg = np.sqrt(np.sum(np.diff(pts, axis=0) ** 2, axis=1))
        cum = np.concatenate([[0.0], np.cumsum(seg)])
        total = cum[-1]
        if total == 0.0:
            return np.repeat(pts[:1], length, axis=0)
        targets = np.linspace(0.0, total, length)
        x = np.interp(targets, cum, pts[:, 0])
        y = np.interp(targets, cum, pts[:, 1])
        return np.stack([x, y], axis=1)

    def sample_length(self, rng: np.random.Generator) -> int:
        """Draw a time length from this pattern's range."""
        lo, hi = self.length_range
        return int(rng.integers(lo, hi + 1))


def _both_directions(base_id: int, name: str, category: str,
                     start: Point, *rest: Point,
                     object_size: float) -> list[MotionPattern]:
    """A pattern and its reversal (every pattern "has two directions")."""
    waypoints = (start, *rest)
    forward = MotionPattern(base_id, f"{name}-fwd", category, waypoints,
                            object_size)
    backward = MotionPattern(base_id + 1, f"{name}-rev", category,
                             tuple(reversed(waypoints)), object_size)
    return [forward, backward]


def _build_patterns() -> list[MotionPattern]:
    patterns: list[MotionPattern] = []
    next_id = 0

    def add(name: str, category: str, *waypoints: Point) -> None:
        nonlocal next_id
        size = SIZE_CATEGORIES[(next_id // 2) % len(SIZE_CATEGORIES)]
        patterns.extend(
            _both_directions(next_id, name, category, *waypoints,
                             object_size=size)
        )
        next_id += 2

    # 12 vertical: 6 lanes x 2 directions.
    for i, x in enumerate((25.0, 55.0, 85.0, 115.0, 145.0, 175.0)):
        add(f"vertical-{i}", "vertical", (x, 15.0), (x, 185.0))
    # 12 horizontal: 6 lanes x 2 directions.
    for i, y in enumerate((25.0, 55.0, 85.0, 115.0, 145.0, 175.0)):
        add(f"horizontal-{i}", "horizontal", (15.0, y), (185.0, y))
    # 8 diagonal: 4 paths x 2 directions.
    diagonals = [
        ((15.0, 15.0), (185.0, 185.0)),
        ((185.0, 15.0), (15.0, 185.0)),
        ((15.0, 65.0), (135.0, 185.0)),
        ((65.0, 15.0), (185.0, 135.0)),
    ]
    for i, (a, b) in enumerate(diagonals):
        add(f"diagonal-{i}", "diagonal", a, b)
    # 16 U-turn: 4 entry sides x 2 lanes x 2 directions.
    uturns = [
        ("uturn-left-0", (15.0, 60.0), (120.0, 60.0), (120.0, 80.0), (15.0, 80.0)),
        ("uturn-left-1", (15.0, 130.0), (160.0, 130.0), (160.0, 150.0), (15.0, 150.0)),
        ("uturn-right-0", (185.0, 50.0), (80.0, 50.0), (80.0, 70.0), (185.0, 70.0)),
        ("uturn-right-1", (185.0, 120.0), (40.0, 120.0), (40.0, 140.0), (185.0, 140.0)),
        ("uturn-top-0", (60.0, 15.0), (60.0, 120.0), (80.0, 120.0), (80.0, 15.0)),
        ("uturn-top-1", (130.0, 15.0), (130.0, 160.0), (150.0, 160.0), (150.0, 15.0)),
        ("uturn-bottom-0", (50.0, 185.0), (50.0, 80.0), (70.0, 80.0), (70.0, 185.0)),
        ("uturn-bottom-1", (120.0, 185.0), (120.0, 40.0), (140.0, 40.0), (140.0, 185.0)),
    ]
    for name, *waypoints in uturns:
        add(name, "uturn", *waypoints)
    return patterns


#: All 48 motion patterns, indexed by ``pattern_id``.
ALL_PATTERNS: list[MotionPattern] = _build_patterns()

_BY_ID = {p.pattern_id: p for p in ALL_PATTERNS}


def pattern_by_id(pattern_id: int) -> MotionPattern:
    """Look a pattern up by its id (0..47)."""
    try:
        return _BY_ID[pattern_id]
    except KeyError:
        raise InvalidParameterError(
            f"pattern_id must be in [0, {len(ALL_PATTERNS) - 1}], got {pattern_id}"
        ) from None
