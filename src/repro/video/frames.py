"""Video segment container.

Frames are ``(T, H, W, 3)`` uint8 arrays — the only representation the
pipeline needs.  NPZ persistence replaces video-codec IO, which the
evaluation never depends on.
"""

from __future__ import annotations

import os
from typing import Iterator

import numpy as np

from repro.errors import InvalidParameterError, StorageError


class VideoSegment:
    """A contiguous run of frames plus timing metadata."""

    def __init__(self, frames: np.ndarray, fps: float = 10.0,
                 name: str = "segment"):
        frames = np.asarray(frames)
        if frames.ndim != 4 or frames.shape[3] != 3:
            raise InvalidParameterError(
                f"frames must have shape (T, H, W, 3), got {frames.shape}"
            )
        if frames.shape[0] == 0:
            raise InvalidParameterError("video segment must contain frames")
        if not 0 < fps < float("inf"):
            raise InvalidParameterError(
                f"fps must be positive and finite, got {fps}")
        self.frames = frames.astype(np.uint8, copy=False)
        self.fps = float(fps)
        self.name = name

    @property
    def num_frames(self) -> int:
        """Number of frames ``T``."""
        return self.frames.shape[0]

    @property
    def height(self) -> int:
        """Frame height in pixels."""
        return self.frames.shape[1]

    @property
    def width(self) -> int:
        """Frame width in pixels."""
        return self.frames.shape[2]

    def frame(self, index: int) -> np.ndarray:
        """The ``(H, W, 3)`` frame at ``index``."""
        return self.frames[index]

    def __len__(self) -> int:
        return self.num_frames

    def __iter__(self) -> Iterator[np.ndarray]:
        return iter(self.frames)

    def slice(self, start: int, stop: int) -> "VideoSegment":
        """Sub-segment ``[start, stop)`` sharing the underlying buffer."""
        if not 0 <= start < stop <= self.num_frames:
            raise InvalidParameterError(
                f"invalid slice [{start}, {stop}) for {self.num_frames} frames"
            )
        return VideoSegment(self.frames[start:stop], self.fps,
                            name=f"{self.name}[{start}:{stop}]")

    def save_npz(self, path: str | os.PathLike) -> None:
        """Persist frames + metadata as compressed NPZ."""
        try:
            np.savez_compressed(path, frames=self.frames, fps=self.fps,
                                name=np.array(self.name))
        except OSError as exc:
            raise StorageError(f"cannot write video to {path}: {exc}") from exc

    @classmethod
    def load_npz(cls, path: str | os.PathLike) -> "VideoSegment":
        """Load a segment previously written by :meth:`save_npz`."""
        try:
            with np.load(path, allow_pickle=False) as data:
                return cls(data["frames"], float(data["fps"]),
                           name=str(data["name"]))
        except (OSError, KeyError, ValueError) as exc:
            raise StorageError(f"cannot read video from {path}: {exc}") from exc

    def __repr__(self) -> str:
        return (
            f"VideoSegment(name={self.name!r}, frames={self.num_frames}, "
            f"size={self.width}x{self.height}, fps={self.fps:g})"
        )
