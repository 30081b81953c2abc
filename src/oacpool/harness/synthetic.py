"""Synthetic datasets where frame order is the only discriminative signal.

Each of a split's n draws is one (T, K) matrix, and class c of a draw is that
matrix with its rows in the task's fixed time order c.  trend-pair draws a
rising ramp plus noise and permuted-pair per-dimension sorted uniforms, each
in identity and reversed order; multiclass-trend draws the ramp in rise-fall
order (even frames up, then odd frames down), its reversal and identity.

The classes of a draw thus share every per-dimension value multiset, so
average and max pooling give them byte-equal vectors and score exactly
chance.  That holds at sample rate 1 only: keeping every r-th frame of two
orders of a draw keeps different frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from ..sequences import FeatureSequence, LabeledSequence, positive_int, real_number


def _ramp_draw(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    t = spec.num_frames
    ramp = np.arange(t) / (t - 1)  # frame t carries value t/(T-1)
    return ramp[:, None] + rng.normal(0.0, spec.noise_sigma, (t, spec.num_features))


def _sorted_draw(spec: SyntheticSpec, rng: np.random.Generator) -> np.ndarray:
    return np.sort(rng.uniform(0.0, 1.0, (spec.num_frames, spec.num_features)), axis=0)


def _pair_orders(t: int) -> list[np.ndarray]:
    identity = np.arange(t)
    return [identity, identity[::-1]]


def _rise_fall_orders(t: int) -> list[np.ndarray]:
    rise_fall = np.concatenate([np.arange(0, t, 2), np.arange(1, t, 2)[::-1]])
    return [rise_fall, rise_fall[::-1], np.arange(t)]


class _Task(NamedTuple):
    """Class c of a draw is draw(spec, rng)[orders(num_frames)[c]], named class_names[c]."""

    class_names: tuple[str, ...]
    draw: Callable[[SyntheticSpec, np.random.Generator], np.ndarray]
    orders: Callable[[int], list[np.ndarray]]
    min_frames: int  # the fewest frames at which the orders all differ


_TASKS = {
    "trend-pair": _Task(("rising", "falling"), _ramp_draw, _pair_orders, 2),
    "permuted-pair": _Task(("forward", "reversed"), _sorted_draw, _pair_orders, 2),
    "multiclass-trend": _Task(
        ("rise-fall", "fall-rise", "monotone"), _ramp_draw, _rise_fall_orders, 3
    ),
}

TASK_KINDS = tuple(_TASKS)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic dataset; deterministic given seed (an integer >= 0).

    The counts are integers >= 1 (num_frames >= 2, and >= 3 for
    multiclass-trend); noise_sigma is a finite real number >= 0.
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
        min_frames = _TASKS[self.task_kind].min_frames
        for name, minimum in (
            ("n_train", 1), ("n_test", 1), ("num_frames", min_frames),
            ("num_features", 1), ("seed", 0),
        ):
            object.__setattr__(self, name, positive_int(getattr(self, name), name, minimum))
        if not 0 <= real_number(self.noise_sigma, "noise_sigma") < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")

    @property
    def class_names(self) -> tuple[str, ...]:
        return _TASKS[self.task_kind].class_names

    @property
    def num_classes(self) -> int:
        return len(self.class_names)


def _split(spec: SyntheticSpec, rng: np.random.Generator, n: int) -> list[LabeledSequence]:
    task = _TASKS[spec.task_kind]
    draws = [task.draw(spec, rng) for _ in range(n)]
    return [
        LabeledSequence(FeatureSequence(values[order]), label)
        for label, order in enumerate(task.orders(spec.num_frames))
        for values in draws
    ]


def gen_synthetic(spec: SyntheticSpec):
    """Build (train, test) lists of labeled sequences.

    A split of n per class holds n draws, and instance i of class c is draw
    i in the task's order c (see the module docstring), so average and max
    pooling are exactly order-blind at sample rate 1.  Within each split the
    instances are ordered class 0 first.  Train and test are independent
    draws from one seeded stream (train consumed first); with noise_sigma 0
    every trend draw is the bare ramp.
    """
    rng = np.random.default_rng(spec.seed)
    train = _split(spec, rng, spec.n_train)
    test = _split(spec, rng, spec.n_test)
    return train, test
