"""Property test of sgd_train's fused step; skipped when hypothesis is missing."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import per_step_sgd

from oacpool.model import POOLING_KINDS, ClassifierModel, PoolingSpec, TrainConfig, sgd_train
from oacpool.sequences import FeatureSequence, LabeledSequence

PYRAMIDS = [(1, 2), (1, 2, 3), (1, 3, 4), (1, 2, 4)]


@st.composite
def training_cases(draw, kind):
    """A spec, a training set of mixed lengths (one at exactly minimum_frames) and a config."""
    spec = PoolingSpec(
        kind,
        interval=draw(st.integers(1, 4)),
        stride=draw(st.integers(1, 3)),
        n_filters=draw(st.integers(1, 3)),
        pyramid=draw(st.sampled_from(PYRAMIDS)),
    )
    num_features = draw(st.integers(1, 4))
    num_classes = draw(st.integers(2, 4))
    minimum = spec.minimum_frames
    lengths = [minimum] + draw(st.lists(st.integers(minimum, minimum + 5), max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = [
        LabeledSequence(
            FeatureSequence(rng.standard_normal((length, num_features))),
            int(rng.integers(num_classes)),
        )
        for length in lengths
    ]
    cfg = TrainConfig(
        learning_rate=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])),
        epochs=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 100)),
    )
    return spec, num_features, num_classes, data, cfg


def outcome(train, spec, num_features, num_classes, data, cfg):
    """The trained parameter bytes and version."""
    model = ClassifierModel.from_spec(spec, num_features, num_classes, seed=cfg.seed)
    train(model, data, cfg)
    return [p.tobytes() for p in model.parameters()], model.version


class TestFusedStep:
    """sgd_train's fused step against forward, backward and _sgd_step on every instance."""

    @pytest.mark.parametrize("kind", POOLING_KINDS)
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(data=st.data())
    def test_matches_the_per_step_loop_bytewise(self, kind, data):
        case = data.draw(training_cases(kind))
        params, version = outcome(sgd_train, *case)
        assert (params, version) == outcome(per_step_sgd, *case)
        *_, train, cfg = case
        assert version == cfg.epochs * len(train)
