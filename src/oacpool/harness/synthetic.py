"""Synthetic datasets where frame order is the only discriminative signal.

All three tasks construct classes whose per-dimension value multisets agree,
so average and max pooling see identical feature distributions and only an
order-aware method can separate the classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..pooling import positive_int
from ..sequences import FeatureSequence, LabeledSequence

TASK_KINDS = ("trend-pair", "permuted-pair", "multiclass-trend")

_CLASS_NAMES = {
    "trend-pair": ("rising", "falling"),
    "permuted-pair": ("forward", "reversed"),
    "multiclass-trend": ("rise-fall", "fall-rise", "monotone"),
}


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic dataset; deterministic given seed (an integer >= 0).

    The counts are integers >= 1 (num_frames >= 2); noise_sigma is finite and >= 0.
    """

    task_kind: str
    n_train: int = 200
    n_test: int = 100
    num_frames: int = 40
    num_features: int = 16
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.task_kind!r}")
        for name, minimum in (
            ("n_train", 1), ("n_test", 1), ("num_frames", 2), ("num_features", 1), ("seed", 0)
        ):
            object.__setattr__(self, name, positive_int(getattr(self, name), name, minimum))
        if not 0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")

    @property
    def class_names(self) -> tuple[str, ...]:
        return _CLASS_NAMES[self.task_kind]

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def _trend_prototypes(spec: SyntheticSpec) -> list[np.ndarray]:
    t = spec.num_frames
    ramp = np.arange(t) / (t - 1)  # frame t carries value t/(T-1)
    if spec.task_kind == "trend-pair":
        shapes = [ramp, ramp[::-1]]
    else:  # multiclass-trend
        rise_fall = np.concatenate([ramp[0::2], ramp[1::2][::-1]])
        shapes = [rise_fall, rise_fall[::-1], ramp]
    return [np.tile(shape[:, None], (1, spec.num_features)) for shape in shapes]


def _trend_split(spec: SyntheticSpec, rng: np.random.Generator, n: int):
    out = []
    for label, proto in enumerate(_trend_prototypes(spec)):
        for _ in range(n):
            noise = rng.normal(0.0, spec.noise_sigma, proto.shape)
            out.append(LabeledSequence(FeatureSequence(proto + noise), label))
    return out


def _permuted_split(spec: SyntheticSpec, rng: np.random.Generator, n: int):
    # Paired draws: both classes get the exact same per-dimension multiset,
    # class 0 in ascending order and class 1 fully reversed.
    forward = []
    reverse = []
    shape = (spec.num_frames, spec.num_features)
    for _ in range(n):
        values = np.sort(rng.uniform(0.0, 1.0, shape), axis=0)
        forward.append(LabeledSequence(FeatureSequence(values), 0))
        reverse.append(LabeledSequence(FeatureSequence(values[::-1]), 1))
    return forward + reverse


def gen_synthetic(spec: SyntheticSpec):
    """Build (train, test) lists of labeled sequences.

    Within each split the instances are ordered class 0 first.  Train and
    test are independent draws from one seeded stream (train consumed
    first); with noise_sigma 0 the trend tasks collapse to their prototypes.
    """
    rng = np.random.default_rng(spec.seed)
    if spec.task_kind == "permuted-pair":
        train = _permuted_split(spec, rng, spec.n_train)
        test = _permuted_split(spec, rng, spec.n_test)
    else:
        train = _trend_split(spec, rng, spec.n_train)
        test = _trend_split(spec, rng, spec.n_test)
    return train, test
