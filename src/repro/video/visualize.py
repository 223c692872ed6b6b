"""Terminal-friendly visualization helpers.

The paper's Figures 1-3 show frames, segmentations and STRGs; this
module gives a dependency-free approximation for REPL and example use:
an ASCII rendering of a set of trajectories.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidParameterError

#: Glyphs cycled over trajectories.
_GLYPHS = "#@%*+=o·:ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def render_trajectories(ogs: Sequence, width: int = 64, height: int = 24,
                        bounds: tuple[float, float, float, float] | None = None
                        ) -> str:
    """ASCII plot of a set of OG trajectories on a shared canvas.

    ``bounds`` is ``(x_min, y_min, x_max, y_max)``; by default the union
    bounding box of all trajectories.  Each OG gets a glyph; its start
    point is marked ``S``.
    """
    if not ogs:
        raise InvalidParameterError("need at least one trajectory")
    if width < 2 or height < 2:
        raise InvalidParameterError("canvas must be at least 2x2")
    all_xy = np.vstack([np.asarray(getattr(og, "values", og))[:, :2]
                        for og in ogs])
    if bounds is None:
        x0, y0 = all_xy.min(axis=0)
        x1, y1 = all_xy.max(axis=0)
    else:
        x0, y0, x1, y1 = bounds
    x_span = max(x1 - x0, 1e-9)
    y_span = max(y1 - y0, 1e-9)
    canvas = [[" "] * width for _ in range(height)]
    for i, og in enumerate(ogs):
        glyph = _GLYPHS[i % len(_GLYPHS)]
        xy = np.asarray(getattr(og, "values", og))[:, :2]
        for j, (x, y) in enumerate(xy):
            col = int((x - x0) / x_span * (width - 1))
            row = int((y - y0) / y_span * (height - 1))
            if 0 <= row < height and 0 <= col < width:
                canvas[row][col] = "S" if j == 0 else glyph
    return "\n".join("".join(row) for row in canvas)

