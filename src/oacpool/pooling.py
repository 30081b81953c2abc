"""Order-agnostic pooling baselines: average, max, and temporal pyramid pooling.

These operate either directly on frame features or, inside the
convolutional path, on per-dimension filter response sequences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TooShortSequenceError
from .sequences import FeatureSequence, positive_int


def seed_value(seed):
    """seed if it is an np.random.SeedSequence, else as an int >= 0 (see positive_int)."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return positive_int(seed, "seed", minimum=0)


@dataclass(frozen=True)
class PyramidConfig:
    """Segment counts per pyramid level, level 1 first.

    Level 1 always has a single segment covering the whole timeline; level i
    splits the timeline into segments_per_level[i-1] contiguous segments.
    """

    segments_per_level: tuple[int, ...]

    def __post_init__(self):
        segs = tuple(positive_int(m, "pyramid") for m in self.segments_per_level)
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
    m = positive_int(m, "segment count")
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


def temporal_pyramid_pool(seq: FeatureSequence, cfg: PyramidConfig) -> np.ndarray:
    """Max pooling within every pyramid segment, concatenated dimension-major.

    Output index order: dimension k outermost, then level, then segment;
    length K * M.  With cfg = [1] this equals max_pool exactly.
    """
    frames = seq.frames
    ranges = segment_ranges(seq.num_frames, cfg)
    maxima = np.empty((len(ranges), seq.num_features))
    for m, (a, b) in enumerate(ranges):
        frames[a:b].max(axis=0, out=maxima[m])
    return maxima.T.ravel()
