"""Order-agnostic pooling baselines: average, max, and temporal pyramid pooling.

These operate either directly on frame features or, inside the
convolutional path, on per-dimension filter response sequences.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import TooShortSequenceError
from .sequences import FeatureSequence


def positive_int(value, name: str, minimum: int = 1) -> int:
    """value as a Python int if it is an integer >= minimum (NumPy integers included).

    Floats, even whole ones, and booleans are a ValueError naming the setting.
    minimum is 1 unless a setting allows 0 (a seed) or needs more.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class PyramidConfig:
    """Segment counts per pyramid level, level 1 first.

    Level 1 always has a single segment covering the whole timeline; level i
    splits the timeline into segments_per_level[i-1] contiguous segments.
    """

    segments_per_level: tuple[int, ...]

    def __post_init__(self):
        segs = tuple(positive_int(m, "segment count") for m in self.segments_per_level)
        if len(segs) < 1:
            raise ValueError("a pyramid needs at least one level")
        if segs[0] != 1:
            raise ValueError(f"level 1 must have exactly one segment, got {segs[0]}")
        object.__setattr__(self, "segments_per_level", segs)

    @property
    def total_segments(self) -> int:
        """M = sum of the per-level segment counts."""
        return sum(self.segments_per_level)

    @property
    def max_segments(self) -> int:
        return max(self.segments_per_level)


def average_pool(seq: FeatureSequence) -> np.ndarray:
    """Per-dimension arithmetic mean over frames.

    Each dimension is summed in ascending value order, so the result is
    bit-identical under any permutation of the frames.
    """
    frames = seq.frames
    return np.sort(frames, axis=0).sum(axis=0) / frames.shape[0]


def max_pool(seq: FeatureSequence) -> np.ndarray:
    """Per-dimension maximum over frames."""
    return seq.frames.max(axis=0)


def partition_segments(num_frames: int, m: int) -> list[tuple[int, int]]:
    """Split [0, num_frames) into m contiguous, nonempty index ranges.

    Segment j (1-based) covers [floor((j-1)*T/m), floor(j*T/m)).
    """
    if m < 1:
        raise ValueError(f"segment count must be >= 1, got {m}")
    if num_frames < m:
        raise TooShortSequenceError(
            f"cannot split {num_frames} frames into {m} segments"
        )
    bounds = [j * num_frames // m for j in range(m + 1)]
    return [(bounds[j], bounds[j + 1]) for j in range(m)]


def segment_ranges(num_frames: int, cfg: PyramidConfig) -> list[tuple[int, int]]:
    """All pyramid segment ranges in (level, segment) order; M ranges total."""
    ranges = []
    for m in cfg.segments_per_level:
        ranges.extend(partition_segments(num_frames, m))
    return ranges


def segment_maxima(values: np.ndarray, cfg: PyramidConfig) -> np.ndarray:
    """Per-segment maxima over axis 0 of a (T, ...) array, rows in (level, segment) order."""
    ranges = segment_ranges(values.shape[0], cfg)
    maxima = np.empty((len(ranges),) + values.shape[1:], dtype=values.dtype)
    for m, (a, b) in enumerate(ranges):
        values[a:b].max(axis=0, out=maxima[m])
    return maxima


def temporal_pyramid_pool(seq: FeatureSequence, cfg: PyramidConfig) -> np.ndarray:
    """Max pooling within every pyramid segment, concatenated dimension-major.

    Output index order: dimension k outermost, then level, then segment;
    length K * M.  With cfg = [1] this equals max_pool exactly.
    """
    return segment_maxima(seq.frames, cfg).T.ravel()
