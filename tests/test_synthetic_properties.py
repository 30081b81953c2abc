"""Property tests of the synthetic construction; skipped when hypothesis is missing."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from oacpool.harness import TASK_KINDS, SyntheticSpec, gen_synthetic
from oacpool.pooling import average_pool, max_pool


def class_orders(task_kind, t):
    """The task's time order of each class, written out independently of the library."""
    identity = list(range(t))
    if task_kind == "multiclass-trend":
        rise_fall = [*range(0, t, 2), *reversed(range(1, t, 2))]
        return [rise_fall, rise_fall[::-1], identity]
    return [identity, identity[::-1]]


@st.composite
def specs(draw):
    return SyntheticSpec(
        draw(st.sampled_from(TASK_KINDS)),
        n_train=draw(st.integers(1, 4)),
        n_test=draw(st.integers(1, 3)),
        num_frames=draw(st.integers(3, 24)),
        num_features=draw(st.integers(1, 5)),
        noise_sigma=draw(st.sampled_from([0.0, 0.05, 1.0])),
        seed=draw(st.integers(0, 2**32)),
    )


class TestSyntheticConstruction:
    @settings(derandomize=True, deadline=None)
    @given(specs())
    def test_each_class_is_its_draw_in_a_fixed_order(self, spec):
        orders = class_orders(spec.task_kind, spec.num_frames)
        assert len(orders) == spec.num_classes
        for split, n in zip(gen_synthetic(spec), (spec.n_train, spec.n_test)):
            assert len(split) == n * spec.num_classes
            assert [item.label for item in split] == [
                c for c in range(spec.num_classes) for _ in range(n)
            ]
            for i in range(n):
                # undo each class's order: every class must give back the same draw
                draws = [
                    split[c * n + i].sequence.frames[np.argsort(order)]
                    for c, order in enumerate(orders)
                ]
                for other in draws[1:]:
                    assert other.tobytes() == draws[0].tobytes()
                if spec.task_kind == "permuted-pair":
                    assert np.array_equal(draws[0], np.sort(draws[0], axis=0))
                elif spec.noise_sigma == 0.0:
                    ramp = np.arange(spec.num_frames) / (spec.num_frames - 1)
                    want = np.tile(ramp[:, None], (1, spec.num_features))
                    assert draws[0].tobytes() == want.tobytes()

    @settings(derandomize=True, deadline=None)
    @given(specs())
    def test_classes_of_a_draw_are_order_blind(self, spec):
        for split, n in zip(gen_synthetic(spec), (spec.n_train, spec.n_test)):
            for i in range(n):
                first, *others = [split[c * n + i].sequence for c in range(spec.num_classes)]
                multiset = np.sort(first.frames, axis=0).tobytes()
                for seq in others:
                    assert np.sort(seq.frames, axis=0).tobytes() == multiset
                    assert average_pool(seq).tobytes() == average_pool(first).tobytes()
                    assert max_pool(seq).tobytes() == max_pool(first).tobytes()

    @settings(derandomize=True, deadline=None)
    @given(specs())
    def test_classes_of_a_draw_differ_in_order(self, spec):
        train, _ = gen_synthetic(spec)
        n = spec.n_train
        for i in range(n):
            frames = [train[c * n + i].sequence.frames for c in range(spec.num_classes)]
            for a in range(len(frames)):
                for b in range(a):
                    assert not np.array_equal(frames[a], frames[b])
