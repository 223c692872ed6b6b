"""Tests for the video substrate: frames, color, regions, synthesis."""

import numpy as np
import pytest

from repro.errors import InvalidParameterError, SegmentationError, StorageError
from repro.video.color import rgb_to_luv
from repro.video.frames import VideoSegment
from repro.video.regions import (
    rag_from_labels,
    region_adjacency,
    region_statistics,
)
from repro.video.synthesize import (
    Actor,
    BackgroundSpec,
    SceneRenderer,
    linear_trajectory,
    make_person,
    make_vehicle,
    uturn_trajectory,
)


class TestVideoSegment:
    def test_basic_properties(self):
        frames = np.zeros((5, 10, 20, 3), dtype=np.uint8)
        seg = VideoSegment(frames, fps=25.0, name="x")
        assert seg.num_frames == 5
        assert seg.height == 10
        assert seg.width == 20

    def test_invalid_shape(self):
        with pytest.raises(InvalidParameterError):
            VideoSegment(np.zeros((5, 10, 20), dtype=np.uint8))

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            VideoSegment(np.zeros((0, 4, 4, 3), dtype=np.uint8))

    def test_invalid_fps(self):
        for fps in (0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError, match="fps"):
                VideoSegment(np.zeros((1, 4, 4, 3), dtype=np.uint8), fps=fps)

    def test_slice(self):
        frames = np.arange(4 * 2 * 2 * 3, dtype=np.uint8).reshape(4, 2, 2, 3)
        seg = VideoSegment(frames)
        sub = seg.slice(1, 3)
        assert sub.num_frames == 2
        np.testing.assert_array_equal(sub.frame(0), seg.frame(1))

    def test_invalid_slice(self):
        seg = VideoSegment(np.zeros((3, 2, 2, 3), dtype=np.uint8))
        with pytest.raises(InvalidParameterError):
            seg.slice(2, 2)

    def test_npz_roundtrip(self, tmp_path):
        frames = np.random.default_rng(0).integers(
            0, 255, size=(3, 4, 5, 3)
        ).astype(np.uint8)
        seg = VideoSegment(frames, fps=12.0, name="clip")
        path = tmp_path / "clip.npz"
        seg.save_npz(path)
        loaded = VideoSegment.load_npz(path)
        np.testing.assert_array_equal(loaded.frames, frames)
        assert loaded.fps == 12.0
        assert loaded.name == "clip"

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(StorageError):
            VideoSegment.load_npz(tmp_path / "nope.npz")

    def test_iteration(self):
        seg = VideoSegment(np.zeros((3, 2, 2, 3), dtype=np.uint8))
        assert len(list(seg)) == 3


class TestColor:
    def test_luv_white_point(self):
        white = np.full((1, 1, 3), 255, dtype=np.uint8)
        luv = rgb_to_luv(white)
        assert luv[0, 0, 0] == pytest.approx(100.0, abs=0.5)   # L*
        assert abs(luv[0, 0, 1]) < 1.0                          # u* ~ 0
        assert abs(luv[0, 0, 2]) < 1.0                          # v* ~ 0

    def test_luv_black(self):
        black = np.zeros((1, 1, 3), dtype=np.uint8)
        luv = rgb_to_luv(black)
        np.testing.assert_allclose(luv[0, 0], [0.0, 0.0, 0.0], atol=1e-6)

    def test_luv_distinguishes_hues(self):
        red = np.array([[[255, 0, 0]]], dtype=np.uint8)
        green = np.array([[[0, 255, 0]]], dtype=np.uint8)
        d = np.linalg.norm(rgb_to_luv(red) - rgb_to_luv(green))
        assert d > 50.0

    def test_shape_preserved(self):
        img = np.zeros((4, 6, 3), dtype=np.uint8)
        assert rgb_to_luv(img).shape == (4, 6, 3)


class TestRegions:
    def make_half_image(self):
        """Left half black (label 0), right half white (label 1)."""
        image = np.zeros((4, 6, 3), dtype=np.uint8)
        image[:, 3:] = 255
        labels = np.zeros((4, 6), dtype=np.int64)
        labels[:, 3:] = 1
        return image, labels

    def test_statistics(self):
        image, labels = self.make_half_image()
        stats = region_statistics(image, labels)
        assert stats[0].size == 12
        assert stats[1].size == 12
        assert stats[0].color == (0.0, 0.0, 0.0)
        assert stats[1].color == (255.0, 255.0, 255.0)
        assert stats[0].centroid == (1.0, 1.5)

    def test_statistics_shape_mismatch(self):
        with pytest.raises(SegmentationError):
            region_statistics(np.zeros((2, 2, 3)), np.zeros((3, 3)))

    def test_adjacency(self):
        _, labels = self.make_half_image()
        assert region_adjacency(labels) == {(0, 1)}

    def test_adjacency_no_diagonal(self):
        labels = np.array([[0, 1], [1, 0]])
        pairs = region_adjacency(labels)
        assert pairs == {(0, 1)}  # via sides, not diagonals

    def test_rag_from_labels(self):
        image, labels = self.make_half_image()
        rag = rag_from_labels(image, labels, frame_index=4)
        assert len(rag) == 2
        assert rag.number_of_edges() == 1
        assert rag.frame_index == 4


class TestTrajectories:
    def test_linear_endpoints(self):
        traj = linear_trajectory((0.0, 0.0), (10.0, 20.0), 5)
        assert traj(0) == (0.0, 0.0)
        assert traj(4) == (10.0, 20.0)

    def test_linear_clamps_beyond_range(self):
        traj = linear_trajectory((0.0, 0.0), (10.0, 0.0), 5)
        assert traj(100) == (10.0, 0.0)

    def test_uturn_returns(self):
        traj = uturn_trajectory((0.0, 0.0), (10.0, 0.0), 10)
        assert traj(0) == (0.0, 0.0)
        x_mid, _ = traj(4)
        assert x_mid > 5.0
        x_end, _ = traj(9)
        assert x_end < 3.0

    def test_invalid_lengths(self):
        with pytest.raises(InvalidParameterError):
            linear_trajectory((0, 0), (1, 1), 0)
        with pytest.raises(InvalidParameterError):
            uturn_trajectory((0, 0), (1, 1), 1)


class TestSceneRenderer:
    def test_background_zones_painted(self):
        bg = BackgroundSpec(width=10, height=10, base_color=(1, 2, 3),
                            zones=[(0, 0, 5, 5, (9, 9, 9))])
        canvas = bg.render()
        assert tuple(canvas[0, 0]) == (9, 9, 9)
        assert tuple(canvas[9, 9]) == (1, 2, 3)

    def test_actor_painted_and_moves(self):
        bg = BackgroundSpec(width=40, height=20, base_color=(0, 0, 0))
        actor = Actor(linear_trajectory((5.0, 10.0), (35.0, 10.0), 4),
                      [(0.0, 0.0, 6.0, 6.0, (255, 0, 0))])
        video = SceneRenderer(bg, [actor]).render(4)
        assert tuple(video.frame(0)[10, 5]) == (255, 0, 0)
        assert tuple(video.frame(3)[10, 5]) == (0, 0, 0)
        assert tuple(video.frame(3)[10, 35]) == (255, 0, 0)

    def test_actor_lifetime(self):
        bg = BackgroundSpec(width=20, height=20, base_color=(0, 0, 0))
        actor = Actor(linear_trajectory((10.0, 10.0), (10.0, 10.0), 2),
                      [(0.0, 0.0, 4.0, 4.0, (255, 0, 0))],
                      start_frame=1, end_frame=2)
        video = SceneRenderer(bg, [actor]).render(4)
        assert tuple(video.frame(0)[10, 10]) == (0, 0, 0)
        assert tuple(video.frame(1)[10, 10]) == (255, 0, 0)
        assert tuple(video.frame(3)[10, 10]) == (0, 0, 0)

    def test_actor_clipped_at_border(self):
        bg = BackgroundSpec(width=20, height=20, base_color=(0, 0, 0))
        actor = Actor(linear_trajectory((-5.0, 10.0), (-5.0, 10.0), 1),
                      [(0.0, 0.0, 8.0, 8.0, (255, 0, 0))])
        video = SceneRenderer(bg, [actor]).render(1)  # must not raise
        assert video.num_frames == 1

    def test_noise_applied(self):
        bg = BackgroundSpec(width=16, height=16, base_color=(128, 128, 128))
        clean = SceneRenderer(bg).render(1)
        noisy = SceneRenderer(bg, noise_std=10.0).render(1)
        assert not np.array_equal(clean.frames, noisy.frames)

    def test_invalid_noise(self):
        with pytest.raises(InvalidParameterError):
            SceneRenderer(BackgroundSpec(), noise_std=-1.0)

    def test_parts_builders(self):
        assert len(make_vehicle()) == 2
        assert len(make_person()) == 3

    def test_lighting_drift_brightens_over_time(self):
        bg = BackgroundSpec(width=16, height=16, base_color=(100, 100, 100))
        video = SceneRenderer(bg, lighting_drift=50.0).render(5)
        first = float(video.frame(0).mean())
        last = float(video.frame(4).mean())
        assert last > first + 30.0

    def test_camera_jitter_moves_scene(self):
        bg = BackgroundSpec(width=24, height=24, base_color=(0, 0, 0),
                            zones=[(10, 10, 14, 14, (255, 255, 255))])
        video = SceneRenderer(bg, camera_jitter=3,
                              rng=np.random.default_rng(3)).render(6)
        positions = set()
        for frame in video:
            ys, xs = np.where(frame[..., 0] > 0)
            positions.add((int(ys.mean()), int(xs.mean())))
        assert len(positions) > 1  # the patch moves between frames

    def test_invalid_jitter(self):
        with pytest.raises(InvalidParameterError):
            SceneRenderer(BackgroundSpec(), camera_jitter=-1)
