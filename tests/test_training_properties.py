"""Property tests of sgd_train's fused step; skipped when hypothesis is missing."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import per_step_sgd

from oacpool.errors import DivergenceError
from oacpool.model import POOLING_KINDS, ClassifierModel, PoolingSpec, TrainConfig, sgd_train
from oacpool.sequences import FeatureSequence, LabeledSequence

PYRAMIDS = [(1, 2), (1, 2, 3), (1, 3, 4), (1, 2, 4)]
# a first level of one segment and up to two more, as test_conv_properties draws them
DRAWN_PYRAMIDS = st.lists(st.integers(1, 4), max_size=2).map(lambda levels: (1, *levels))
LEARNING_RATES = st.sampled_from([0.0, 0.05, 0.3, 1.0])


@st.composite
def training_cases(
    draw, kind, pyramids=st.sampled_from(PYRAMIDS), learning_rates=LEARNING_RATES, scale=1.0
):
    """A spec, a training set of mixed lengths (one at exactly minimum_frames) and a config.

    The frames are standard normal times scale.
    """
    spec = PoolingSpec(
        kind,
        interval=draw(st.integers(1, 4)),
        stride=draw(st.integers(1, 3)),
        n_filters=draw(st.integers(1, 3)),
        pyramid=draw(pyramids),
    )
    num_features = draw(st.integers(1, 4))
    num_classes = draw(st.integers(2, 4))
    minimum = spec.minimum_frames
    lengths = [minimum] + draw(st.lists(st.integers(minimum, minimum + 5), max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = [
        LabeledSequence(
            FeatureSequence(rng.standard_normal((length, num_features)) * scale),
            int(rng.integers(num_classes)),
        )
        for length in lengths
    ]
    cfg = TrainConfig(
        learning_rate=draw(learning_rates),
        epochs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 100)),
    )
    return spec, num_features, num_classes, data, cfg


def outcome(train, spec, num_features, num_classes, data, cfg):
    """The trained parameter bytes and version."""
    model = ClassifierModel.from_spec(spec, num_features, num_classes, seed=cfg.seed)
    train(model, data, cfg)
    return [p.tobytes() for p in model.parameters()], model.version


def scaled_outcome(train, scales, spec, num_features, num_classes, data, cfg):
    """The DivergenceError text or None, the parameter bytes and the version, from
    a model whose parameters are each scaled by their entry of scales before training."""
    model = ClassifierModel.from_spec(spec, num_features, num_classes, seed=cfg.seed)
    for param, scale in zip(model.parameters(), scales):
        if not param.any():
            param += 1.0  # the biases start at zero
        param *= scale
    try:
        train(model, data, cfg)
        error = None
    except DivergenceError as exc:
        error = str(exc)
    return error, [p.tobytes() for p in model.parameters()], model.version


class TestFusedStep:
    """sgd_train's fused step against forward, backward and a dense update on every instance."""

    @pytest.mark.parametrize("kind", POOLING_KINDS)
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_matches_the_per_step_loop_bytewise(self, kind, data):
        case = data.draw(training_cases(kind))
        params, version = outcome(sgd_train, *case)
        assert (params, version) == outcome(per_step_sgd, *case)
        *_, train, cfg = case
        assert version == cfg.epochs * len(train)


# 0, or 10**-3 up to 10**308 in steps of a tenth of a decade
SCALED_LEARNING_RATES = st.one_of(
    st.integers(-30, 3080).map(lambda tenths: 10.0 ** (tenths / 10)), st.just(0.0)
)


class TestMagnitudeBounds:
    """sgd_train skips its finiteness scans only where they cannot fail."""

    @pytest.mark.parametrize("kind", POOLING_KINDS)
    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(data=st.data())
    def test_matches_the_per_step_loop_at_every_scale(self, kind, data):
        # a scale of 10**0 to 10**300 per parameter array and a frame scale
        # of 10**-200 to 10**300 reach overflow, NaN, bounds that cross
        # 2**1000 and steps that diverge, with or without a finite bound
        # on the way
        scales = [10.0 ** data.draw(st.integers(0, 300)) for _ in range(4)]
        frame_scale = 10.0 ** data.draw(st.integers(-200, 300))
        case = data.draw(
            training_cases(kind, DRAWN_PYRAMIDS, SCALED_LEARNING_RATES, frame_scale)
        )
        got = scaled_outcome(sgd_train, scales, *case)
        assert got == scaled_outcome(per_step_sgd, scales, *case)
