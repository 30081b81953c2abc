"""Frame-level feature sequences and the preprocessing steps applied before pooling.

A sequence is a T x K matrix: row t is the K-dimensional feature vector of
frame t.  Everything here is an immutable value; operations are pure
functions and safe to call concurrently.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np


def positive_int(value, name: str, minimum: int = 1) -> int:
    """value as a Python int if it is an integer >= minimum (NumPy integers included).

    Floats, even whole ones, and booleans are a ValueError naming the setting.
    minimum is 1 unless a setting allows 0 (a seed), needs more, or has none (-inf).
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


def real_number(value, name: str):
    """value, unchanged, if it is one bool, int or float (NumPy's included); else a ValueError."""
    if not isinstance(value, (numbers.Real, np.bool_)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return value


def _checked_floats(values, ndim: int, name: str) -> np.ndarray:
    """values as float64 with ndim axes, nonempty and finite; a view, not a copy, if they are float64.

    Only real numbers pass: bool, integer and float values.  Strings,
    bytes, objects, dates, time spans, complex numbers and records are a
    ValueError naming the dtype, which is checked before any conversion.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


@dataclass(frozen=True, eq=False)
class FeatureSequence:
    """A length-T sequence of K-dimensional frame feature vectors.

    The values are checked once (2-D, nonempty, finite) and copied once, to
    a C-contiguous float64 array frozen read-only, so a sequence shares no
    memory with its caller and can be shared freely between threads.
    """

    frames: np.ndarray

    def __post_init__(self):
        frames = np.array(_checked_floats(self.frames, 2, "frames"), order="C")
        frames.flags.writeable = False
        object.__setattr__(self, "frames", frames)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def num_features(self) -> int:
        return self.frames.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureSequence):
            return NotImplemented
        return self.frames.shape == other.frames.shape and bool(
            np.array_equal(self.frames, other.frames)
        )

    def __repr__(self) -> str:
        return f"FeatureSequence(T={self.num_frames}, K={self.num_features})"


@dataclass(frozen=True)
class LabeledSequence:
    """A FeatureSequence together with its class index, an integer >= 0 (see positive_int).

    Any other sequence, a raw array included, is a ValueError naming its type.
    """

    sequence: FeatureSequence
    label: int

    def __post_init__(self):
        if not isinstance(self.sequence, FeatureSequence):
            raise ValueError(
                f"sequence must be a FeatureSequence, got {type(self.sequence).__name__}"
            )
        object.__setattr__(self, "label", positive_int(self.label, "label", minimum=0))


def sample_frames(seq: FeatureSequence, rate: int) -> FeatureSequence:
    """Keep frames 0, rate, 2*rate, ...; the result has ceil(T / rate) frames.

    At rate 1 that is every frame, so seq itself comes back: sequences are
    immutable, and a copy would hold the same frames.
    """
    rate = positive_int(rate, "sampling rate")
    if rate == 1:
        return seq
    return FeatureSequence(seq.frames[::rate])


def replicate_pad(seq: FeatureSequence, min_frames: int) -> FeatureSequence:
    """Extend a sequence to at least min_frames by repeating its last frame."""
    min_frames = positive_int(min_frames, "min_frames")
    if seq.num_frames >= min_frames:
        return seq
    pad = np.tile(seq.frames[-1], (min_frames - seq.num_frames, 1))
    return FeatureSequence(np.vstack([seq.frames, pad]))
