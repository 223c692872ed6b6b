"""Tests for the ASCII visualization helpers."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError
from repro.graph.object_graph import ObjectGraph
from repro.video.visualize import render_trajectories


class TestRenderTrajectories:
    def test_marks_start(self):
        og = ObjectGraph.from_values(
            np.stack([np.linspace(0, 10, 5), np.zeros(5)], axis=1)
        )
        art = render_trajectories([og], width=20, height=4)
        assert "S" in art

    def test_canvas_dimensions(self):
        og = ObjectGraph.from_values([[0.0, 0.0], [5.0, 5.0]])
        art = render_trajectories([og], width=30, height=10)
        lines = art.split("\n")
        assert len(lines) == 10
        assert all(len(line) == 30 for line in lines)

    def test_multiple_trajectories_distinct_glyphs(self):
        a = ObjectGraph.from_values([[0.0, 0.0], [10.0, 0.0]])
        b = ObjectGraph.from_values([[0.0, 10.0], [10.0, 10.0]])
        art = render_trajectories([a, b], width=20, height=6)
        inked = set(art.replace("\n", "").replace(" ", ""))
        assert len(inked) >= 2  # S plus at least two glyphs collapse to >= 2

    def test_explicit_bounds(self):
        og = ObjectGraph.from_values([[5.0, 5.0]])
        art = render_trajectories([og], width=10, height=4,
                                  bounds=(0.0, 0.0, 10.0, 10.0))
        assert "S" in art

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            render_trajectories([])

    def test_tiny_canvas_rejected(self):
        og = ObjectGraph.from_values([[0.0, 0.0]])
        with pytest.raises(InvalidParameterError):
            render_trajectories([og], width=1, height=1)

