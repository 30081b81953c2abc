import json
import math
import re

import numpy as np
import pytest

from helpers import (
    dense_reference_gradients,
    edit_checkpoint,
    json_v2_checkpoint,
    mean_separable_dataset,
    overflowing_conv_case,
    per_step_sgd,
    traced_peak_mib,
)

import oacpool.model
from oacpool.convpool import (
    FilterBankSet,
    oacp_forward_details,
    param_count_perdim,
)
from oacpool.dimreduce import lloyd_kmeans
from oacpool.errors import (
    DivergenceError,
    ParseError,
    ShapeMismatchError,
    StaleCacheError,
    TooShortSequenceError,
)
from oacpool.harness import SyntheticSpec, gen_synthetic, prepare_dataset
from oacpool.model import (
    _BLOCK_ELEMENTS,
    _softmax_in_place,
    MAX_MINIMUM_FRAMES,
    MAX_PARAMETERS,
    POOLING_KINDS,
    ClassifierModel,
    PoolingSpec,
    TrainConfig,
    backward,
    evaluate,
    forward,
    grad_check,
    instance_loss,
    load_model,
    save_model,
    sgd_train,
)
from oacpool.pooling import PyramidConfig
from oacpool.sequences import FeatureSequence, LabeledSequence


def tiny_oacp_model(seed=0, num_features=3, num_classes=2, interval=2, n_filters=2):
    return ClassifierModel.build(
        "oacp",
        num_features,
        num_classes,
        interval=interval,
        n_filters=n_filters,
        pyramid=(1, 2),
        seed=seed,
    )


def random_example(seed, num_frames, num_features, num_classes):
    rng = np.random.default_rng(seed)
    return LabeledSequence(
        FeatureSequence(rng.standard_normal((num_frames, num_features))),
        int(rng.integers(num_classes)),
    )


def parameter_bytes(model):
    return b"".join(p.tobytes() for p in model.parameters())


def save_edited(model, path, drop=(), **edits):
    """Save model as a checkpoint, then set header fields to edits and delete those in drop."""
    save_model(model, path)
    edit_checkpoint(path, drop, **edits)


class TestSoftmax:
    """_softmax_in_place, the one softmax, on fresh float64 arrays."""

    def test_symmetric_pair(self):
        assert _softmax_in_place(np.array([0.0, 0.0])).tolist() == [0.5, 0.5]

    def test_equal_logits_uniform(self):
        out = _softmax_in_place(np.array([7.0, 7.0, 7.0]))
        np.testing.assert_allclose(out, [1 / 3] * 3, rtol=1e-15)

    def test_large_logit_gap_does_not_overflow(self):
        out = _softmax_in_place(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_sums_to_one_and_strictly_positive(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            z = rng.uniform(-50, 50, int(rng.integers(2, 8)))
            out = _softmax_in_place(z)
            assert abs(out.sum() - 1.0) <= 1e-12
            assert (out > 0).all()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            _softmax_in_place(np.array([np.inf, 0.0]))


class TestTrainConfig:
    def test_zero_learning_rate_allowed(self):
        TrainConfig(learning_rate=0.0, epochs=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(learning_rate=-0.1, epochs=1),
            dict(learning_rate=0.1, epochs=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize(
        "epochs", [2.5, 2.0, True, np.float64(3.0)], ids=["2.5", "2.0", "True", "np.float64"]
    )
    def test_rejects_non_integer_epochs(self, epochs):
        with pytest.raises(ValueError, match="epochs must be an integer"):
            TrainConfig(0.1, epochs)

    def test_numpy_integer_epochs_become_int(self):
        assert type(TrainConfig(0.1, np.int64(3)).epochs) is int

    @pytest.mark.parametrize("lr", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite"):
            TrainConfig(lr, 1)

    @pytest.mark.parametrize(
        "seed, match",
        [
            (-1, "seed must be >= 0"),
            (2.5, "seed must be an integer"),
            (True, "seed must be an integer"),
            (np.float64(3.0), "seed must be an integer"),
        ],
        ids=["-1", "2.5", "True", "np.float64"],
    )
    def test_rejects_invalid_seed(self, seed, match):
        with pytest.raises(ValueError, match=match):
            TrainConfig(0.1, 1, seed=seed)

    def test_seed_zero_and_numpy_integer_seed_accepted(self):
        assert TrainConfig(0.1, 1, seed=0).seed == 0
        assert type(TrainConfig(0.1, 1, seed=np.int64(7)).seed) is int


class TestModelBuild:
    def test_pooled_lengths(self):
        assert ClassifierModel.build("average", 5, 3).pooled_length == 5
        assert ClassifierModel.build("max", 5, 3).pooled_length == 5
        assert ClassifierModel.build("pyramid", 5, 3, pyramid=(1, 2)).pooled_length == 15
        assert (
            ClassifierModel.build(
                "oacp", 5, 3, interval=2, n_filters=4, pyramid=(1, 2)
            ).pooled_length
            == 60
        )

    def test_same_seed_same_parameters(self):
        a = tiny_oacp_model(seed=5)
        b = tiny_oacp_model(seed=5)
        assert parameter_bytes(a) == parameter_bytes(b)
        c = tiny_oacp_model(seed=6)
        assert parameter_bytes(a) != parameter_bytes(c)

    def test_validation(self):
        with pytest.raises(ValueError):
            ClassifierModel.build("median", 3, 2)
        with pytest.raises(ValueError):
            ClassifierModel.build("average", 3, 2, interval=0)
        with pytest.raises(ShapeMismatchError):
            ClassifierModel(
                spec=PoolingSpec("average"),
                num_features=3,
                num_classes=2,
                w_head=np.zeros((2, 4)),  # should be (2, 3)
                b_head=np.zeros(2),
            )
        banks = FilterBankSet(np.zeros((3, 3, 8)), np.zeros((3, 3)))
        with pytest.raises(ValueError, match="needs a FilterBankSet"):
            ClassifierModel(
                spec=PoolingSpec("oacp"),
                num_features=3,
                num_classes=2,
                w_head=np.zeros((2, 27)),
                b_head=np.zeros(2),
            )
        with pytest.raises(ValueError, match="takes no filter banks"):
            ClassifierModel(
                spec=PoolingSpec("average"),
                num_features=3,
                num_classes=2,
                w_head=np.zeros((2, 3)),
                b_head=np.zeros(2),
                filter_banks=banks,
            )

    @pytest.mark.parametrize("name", ["num_features", "num_classes"])
    @pytest.mark.parametrize(
        "value", [2.5, 3.0, True, np.float64(3.0)], ids=["2.5", "3.0", "True", "np.float64"]
    )
    def test_rejects_non_integer_counts(self, name, value):
        counts = {"num_features": 3, "num_classes": 3, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ClassifierModel(
                PoolingSpec("average"), w_head=np.zeros((3, 3)), b_head=np.zeros(3),
                **counts,
            )
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ClassifierModel.build("oacp", seed=1, **counts)

    def test_numpy_integer_counts_become_ints(self):
        model = ClassifierModel.build("average", np.int64(3), np.uint8(2))
        assert type(model.num_features) is int and type(model.num_classes) is int

    # the spec has interval 3, n_filters 2 and stride 1
    @pytest.mark.parametrize(
        "interval,n_filters,stride",
        [(4, 2, 1), (3, 1, 1), (3, 2, 2)],
        ids=["interval", "n_filters", "stride"],
    )
    def test_rejects_banks_that_disagree_with_the_spec(self, interval, n_filters, stride):
        spec = PoolingSpec("oacp", interval=3, n_filters=2, pyramid=(1, 2))
        banks = FilterBankSet(
            np.zeros((4, n_filters, interval)), np.zeros((4, n_filters)), stride=stride
        )
        with pytest.raises(ShapeMismatchError, match="bank set has"):
            ClassifierModel(
                spec,
                num_features=4,
                num_classes=2,
                w_head=np.zeros((2, spec.pooled_length(4))),
                b_head=np.zeros(2),
                filter_banks=banks,
            )


class TestForward:
    def test_zero_head_gives_uniform(self):
        model = ClassifierModel(
            PoolingSpec("average"), 3, 4, w_head=np.zeros((4, 3)), b_head=np.zeros(4)
        )
        probs, _ = forward(model, FeatureSequence(np.random.default_rng(41).standard_normal((5, 3))))
        np.testing.assert_allclose(probs, [0.25] * 4, rtol=1e-15)

    def test_probabilities_normalized_for_any_model(self):
        rng = np.random.default_rng(42)
        for kind in ("average", "max", "pyramid", "oacp"):
            model = ClassifierModel.build(kind, 3, 3, interval=2, n_filters=2, seed=7)
            probs, _ = forward(model, FeatureSequence(rng.standard_normal((6, 3))))
            assert abs(probs.sum() - 1.0) <= 1e-12

    def test_hand_composed_conv_pipeline(self):
        # ramp [0,1,2,3] through filter [-1,1]: responses [1,1,1];
        # pyramid (1,2) pools them to [1,1,1]; this head then yields equal logits.
        model = ClassifierModel(
            PoolingSpec("oacp", interval=2, n_filters=1, pyramid=(1, 2)),
            num_features=1,
            num_classes=2,
            w_head=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            b_head=np.zeros(2),
            filter_banks=FilterBankSet(np.array([[[-1.0, 1.0]]]), np.zeros((1, 1))),
        )
        probs, cache = forward(model, FeatureSequence(np.array([0.0, 1.0, 2.0, 3.0])[:, None]))
        assert cache.pooled.tolist() == [1.0, 1.0, 1.0]
        assert probs.tolist() == [0.5, 0.5]

    def test_shape_mismatch(self):
        model = ClassifierModel.build("average", 3, 2)
        with pytest.raises(ShapeMismatchError):
            forward(model, FeatureSequence(np.zeros((4, 5))))

    def test_cache_holds_the_oacp_arrays_themselves(self, monkeypatch):
        returned = []

        def recording(*args):
            returned.append(oacp_forward_details(*args))
            return returned[-1]

        monkeypatch.setattr(oacpool.model, "oacp_forward_details", recording)
        model = tiny_oacp_model(seed=44)
        _, cache = forward(model, random_example(44, 6, 3, 2).sequence)
        (details,) = returned
        assert cache.pooled is details.pooled
        assert cache.pre_activation is details.pre_activation
        assert cache.windows is details.windows
        assert cache.segment_argmax is details.segment_argmax


class TestInstanceLoss:
    def test_perfect_prediction_is_zero_loss(self):
        assert instance_loss(np.array([1.0, 0.0]), 0) == pytest.approx(0.0, abs=1e-12)

    def test_even_split_is_log_two(self):
        assert instance_loss(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2), rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            instance_loss(np.array([0.5, 0.5]), 2)

    def test_probabilities_must_be_real_numbers(self):
        with pytest.raises(ValueError, match="^probs must hold real numbers, got dtype <U3$"):
            instance_loss(["0.3", "0.7"], 1)

    @pytest.mark.parametrize("label", [True, np.True_, 1.0], ids=["True", "np.True_", "1.0"])
    def test_label_must_be_an_integer(self, label):
        with pytest.raises(ValueError, match="^label must be an integer, got "):
            instance_loss([0.3, 0.7], label)

    def test_numpy_integer_label(self):
        assert instance_loss([0.3, 0.7], np.int64(1)) == instance_loss([0.3, 0.7], 1)


class TestBackward:
    def test_uniform_probs_logit_gradient(self):
        model = ClassifierModel(
            PoolingSpec("average"), 3, 2, w_head=np.zeros((2, 3)), b_head=np.zeros(2)
        )
        _, cache = forward(model, FeatureSequence(np.ones((4, 3))))
        grads = backward(model, cache, 0)
        assert grads[1].tolist() == [-0.5, 0.5]

    def test_logit_gradient_sums_to_zero(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            model = tiny_oacp_model(seed=int(rng.integers(1000)))
            example = random_example(int(rng.integers(1000)), 6, 3, 2)
            _, cache = forward(model, example.sequence)
            grads = backward(model, cache, example.label)
            assert abs(grads[1].sum()) <= 1e-12

    def test_dead_relu_region_gives_zero_filter_gradients(self):
        model = tiny_oacp_model(seed=1)
        model.filter_banks.biases[:] = -100.0  # every pre-activation negative
        model.version += 1
        example = random_example(2, 6, 3, 2)
        _, cache = forward(model, example.sequence)
        grads = backward(model, cache, example.label)
        assert not grads[2].any()
        assert not grads[3].any()

    def test_stale_cache_detected(self):
        model = tiny_oacp_model(seed=3)
        _, cache = forward(model, random_example(4, 6, 3, 2).sequence)
        model.version += 1  # simulates a parameter update after forward
        with pytest.raises(StaleCacheError):
            backward(model, cache, 0)

    def test_non_conv_models_have_head_gradients_only(self):
        model = ClassifierModel.build("pyramid", 3, 2, pyramid=(1, 2), seed=4)
        _, cache = forward(model, random_example(5, 8, 3, 2).sequence)
        grads = backward(model, cache, 1)
        assert len(grads) == 2  # no bank gradients
        assert grads[0].shape == (2, 9)  # P = K * (1 + 2) segments

    @pytest.mark.parametrize("label", [True, np.True_, 1.0], ids=["True", "np.True_", "1.0"])
    def test_label_must_be_an_integer(self, label):
        # a bool label would index the logit gradient as a mask
        model = tiny_oacp_model(seed=7)
        _, cache = forward(model, random_example(7, 6, 3, 2).sequence)
        with pytest.raises(ValueError, match="^label must be an integer, got "):
            backward(model, cache, label)

    def test_numpy_integer_label_gives_the_same_bytes(self):
        model = tiny_oacp_model(seed=8)
        _, cache = forward(model, random_example(8, 6, 3, 2).sequence)
        want = backward(model, cache, 1)
        got = backward(model, cache, np.int64(1))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]

    def test_label_equal_to_num_classes_is_rejected(self):
        model = tiny_oacp_model(seed=6)
        example = random_example(6, 6, 3, 2)
        _, cache = forward(model, example.sequence)
        with pytest.raises(ValueError, match="label 2 out of range for 2 classes"):
            backward(model, cache, model.num_classes)
        bad = [LabeledSequence(example.sequence, model.num_classes)]
        for run in (
            lambda: sgd_train(model, bad, TrainConfig(learning_rate=0.1, epochs=1)),
            lambda: evaluate(model, bad),
        ):
            with pytest.raises(ValueError, match="instance 0 has label 2, model has 2 classes"):
                run()

    @pytest.mark.parametrize(
        "kind, geometry",
        [
            ("average", {}),
            ("max", {}),
            ("pyramid", {"pyramid": (1, 2, 4)}),
            ("oacp", {}),
            ("oacp", {"stride": 2, "interval": 3, "pyramid": (1, 2, 4)}),
        ],
        ids=["average", "max", "pyramid-1-2-4", "oacp-default", "oacp-stride2-l3-1-2-4"],
    )
    def test_is_the_gradient_a_training_step_applies(self, kind, geometry):
        # one sgd_train step at learning rate 1 subtracts exactly backward's list
        model = ClassifierModel.build(kind, 3, 3, seed=8, **geometry)
        example = random_example(9, 13, 3, 3)
        grads = backward(model, *forward(model, example.sequence)[1:], example.label)
        before = [param.copy() for param in model.parameters()]
        sgd_train(model, [example], TrainConfig(1.0, 1))
        after = model.parameters()
        assert len(grads) == len(before) == len(after)
        for old, grad, new in zip(before, grads, after):
            assert grad.shape == old.shape
            assert (old - grad).tobytes() == new.tobytes()


def sparse_backward_case(stride, pyramid, case):
    """An oacp model and example for one geometry; case picks the input regime.

    "shortest" has exactly spec.minimum_frames frames, "longer" nine more,
    "constant" repeats one frame so every row ties and segments share
    argmax rows, and "dead" sets the bank biases so low that every routed
    row has a negative pre-activation.
    """
    seed = 200 + 10 * stride + len(pyramid) + max(pyramid)
    model = ClassifierModel.build(
        "oacp", 3, 3, interval=3, stride=stride, n_filters=2, pyramid=pyramid, seed=seed
    )
    num_frames = model.spec.minimum_frames + (0 if case == "shortest" else 9)
    example = random_example(seed, num_frames, 3, 3)
    if case == "constant":
        frames = np.repeat(example.sequence.frames[:1], num_frames, axis=0)
        example = LabeledSequence(FeatureSequence(frames), example.label)
    if case == "dead":
        model.filter_banks.biases[:] = -100.0
        model.version += 1
    return model, example


SPARSE_BACKWARD_CASES = pytest.mark.parametrize(
    "stride, pyramid, case",
    [
        (stride, pyramid, case)
        for stride in (1, 2, 3)
        for pyramid in ((1,), (1, 2), (1, 2, 4), (1, 3))
        for case in ("shortest", "longer", "constant", "dead")
    ],
)


class TestSparseBankGradient:
    """backward sums the bank gradient over routed rows only; the dense scatter is the reference."""

    @SPARSE_BACKWARD_CASES
    def test_matches_dense_reference(self, stride, pyramid, case):
        model, example = sparse_backward_case(stride, pyramid, case)
        _, cache = forward(model, example.sequence)
        grads = backward(model, cache, example.label)
        w_head, b_head, bank_w, bank_b = dense_reference_gradients(model, cache, example.label)
        assert grads[0].tobytes() == w_head.tobytes()
        assert grads[1].tobytes() == b_head.tobytes()
        np.testing.assert_allclose(grads[2], bank_w, rtol=1e-12, atol=0)
        np.testing.assert_allclose(grads[3], bank_b, rtol=1e-12, atol=0)
        if case == "dead":
            assert not grads[2].any() and not grads[3].any()
        if case == "constant" and len(pyramid) > 1:
            # level 1 and the first segment of level 2 route to the same row
            assert (cache.segment_argmax[0] == cache.segment_argmax[1]).all()

    @SPARSE_BACKWARD_CASES
    def test_matches_finite_differences(self, stride, pyramid, case):
        model, example = sparse_backward_case(stride, pyramid, case)
        assert grad_check(model, example, 1e-5, seed=stride) <= 1e-6


class TestGradCheck:
    def test_conv_model_matches_finite_differences(self):
        for seed in (0, 1, 2):
            model = tiny_oacp_model(seed=seed, num_classes=3)
            example = random_example(100 + seed, 6, 3, 3)
            assert grad_check(model, example, 1e-5, seed=seed) < 1e-4

    def test_smooth_average_path_is_tighter(self):
        model = ClassifierModel.build("average", 4, 3, seed=9)
        example = random_example(11, 7, 4, 3)
        assert grad_check(model, example, 1e-5, seed=1) < 1e-6

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pyramid", [(1, 2), (1, 2, 4)])
    @pytest.mark.parametrize("n_filters", [1, 3])
    def test_conv_gradients_across_stride_and_pyramid(self, stride, pyramid, n_filters):
        model = ClassifierModel.build(
            "oacp", 3, 3, interval=2, stride=stride, n_filters=n_filters,
            pyramid=pyramid, seed=5,
        )
        example = random_example(100 + stride + n_filters, 12, 3, 3)
        assert grad_check(model, example, 1e-5, seed=9) < 1e-4

    @pytest.mark.parametrize("kind", ["max", "pyramid"])
    def test_head_gradients_of_non_smooth_poolings(self, kind):
        # pooling of raw frames does not depend on the parameters, so the
        # loss is smooth in the head and checks at the tight tolerance
        model = ClassifierModel.build(kind, 4, 3, pyramid=(1, 2), seed=6)
        example = random_example(7, 9, 4, 3)
        assert grad_check(model, example, 1e-5, seed=8) < 1e-6

    def test_zero_input_zero_bias_conv_gradients_vanish(self):
        model = tiny_oacp_model(seed=12)  # build() leaves biases at zero
        example = LabeledSequence(FeatureSequence(np.zeros((6, 3))), 0)
        _, cache = forward(model, example.sequence)
        grads = backward(model, cache, example.label)
        assert not grads[2].any()
        assert grad_check(model, example, 1e-5, seed=2) < 1e-4

    def test_only_the_analytic_side_runs_the_argmax_pass(self, monkeypatch):
        # one forward for backward(); the two loss evaluations per scalar pool without details
        calls = counting(monkeypatch, "oacp_forward_details")
        model = tiny_oacp_model(seed=18)
        assert grad_check(model, random_example(19, 6, 3, 2), 1e-5, seed=4) < 1e-4
        assert len(calls) == 1

    def test_does_not_modify_the_model(self):
        model = tiny_oacp_model(seed=13)
        before = parameter_bytes(model)
        grad_check(model, random_example(14, 6, 3, 2), 1e-5, seed=3)
        assert parameter_bytes(model) == before

    def test_eps_range_enforced(self):
        # both end points are in the range; the next double outward of each is not
        model = tiny_oacp_model(seed=15)
        example = random_example(16, 6, 3, 2)
        for eps in (1e-7, 1e-3):
            assert grad_check(model, example, eps) < 1e-3
        for eps in (1e-2, np.nextafter(1e-7, 0.0), np.nextafter(1e-3, math.inf)):
            with pytest.raises(ValueError, match=r"eps must be in \[1e-7, 1e-3\]"):
                grad_check(model, example, float(eps))


SEEDED_ENTRY_POINTS = {
    "from_spec": lambda seed: ClassifierModel.build("oacp", 2, 2, seed=seed),
    "grad_check": lambda seed: grad_check(
        tiny_oacp_model(), random_example(17, 6, 3, 2), 1e-5, seed=seed
    ),
    "lloyd_kmeans": lambda seed: lloyd_kmeans(np.zeros((2, 1)), 2, seed=seed),
}


@pytest.mark.parametrize("seed", [-1, True, 1.0], ids=["-1", "True", "1.0"])
@pytest.mark.parametrize("entry", list(SEEDED_ENTRY_POINTS))
def test_library_seed_is_checked(entry, seed):
    # an integer >= 0 or a SeedSequence; a bool or float is not a seed
    with pytest.raises(ValueError, match="^seed must be"):
        SEEDED_ENTRY_POINTS[entry](seed)


# the message of a step that leaves a parameter non-finite
NON_FINITE_PARAMETERS = r"^non-finite parameters after epoch \d+, instance \d+$"


class TestSgdTrain:
    def test_zero_learning_rate_is_bit_identity(self):
        model = tiny_oacp_model(seed=20)
        before = parameter_bytes(model)
        data = [random_example(s, 6, 3, 2) for s in range(8)]
        _, history = sgd_train(model, data, TrainConfig(learning_rate=0.0, epochs=3, seed=1))
        assert parameter_bytes(model) == before
        # with frozen parameters the epoch mean loss equals the dataset mean
        expected = np.mean(
            [instance_loss(forward(model, d.sequence)[0], d.label) for d in data]
        )
        for stats in history:
            assert stats.mean_loss == pytest.approx(expected, rel=1e-12)

    def test_loss_decreases_on_separable_data(self):
        # frozen oracle run: seed 777, lr 0.01, mean-separable classes
        data = mean_separable_dataset(20, 6, 4, seed=777)
        model = ClassifierModel.build("average", 4, 2, seed=777)
        _, history = sgd_train(
            model, data, TrainConfig(learning_rate=0.01, epochs=5, seed=777)
        )
        losses = [stats.mean_loss for stats in history]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_training_is_bit_deterministic(self):
        data = [random_example(s, 7, 3, 2) for s in range(10)]
        cfg = TrainConfig(learning_rate=0.05, epochs=4, seed=99)
        runs = []
        for _ in range(2):
            model = tiny_oacp_model(seed=21)
            _, history = sgd_train(model, data, cfg)
            runs.append((parameter_bytes(model), history))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_divergence_error_names_epoch_and_instance(self):
        # frames of order 1e200 make the first plain SGD steps of order
        # 1e199, so the logits overflow within a few instances
        data = [
            LabeledSequence(FeatureSequence(item.sequence.frames * 1e200), item.label)
            for item in mean_separable_dataset(4, 5, 3, seed=30)
        ]
        model = ClassifierModel.build("average", 3, 2, seed=30)
        cfg = TrainConfig(learning_rate=0.1, epochs=1, seed=0)
        with pytest.raises(DivergenceError, match=r"epoch \d+, instance \d+"):
            sgd_train(model, data, cfg)

    @pytest.mark.parametrize(
        "num_features, num_classes, n_filters, block_rows",
        # P = 3 * 2 * 3 = 18: the whole two-class head in one block;
        # P = 2800 * 3 * 3 = 25,200: blocks of two rows, the last one partial
        [(3, 2, 2, [2]), (2800, 5, 3, [2, 2, 1])],
        ids=["one-block", "row-blocks"],
    )
    def test_head_update_matches_the_dense_update(
        self, num_features, num_classes, n_filters, block_rows
    ):
        runs = []
        for train in (sgd_train, per_step_sgd):
            model = tiny_oacp_model(
                seed=24, num_features=num_features, num_classes=num_classes,
                n_filters=n_filters,
            )
            data = [random_example(s, 7, num_features, num_classes) for s in range(5)]
            train(model, data, TrainConfig(learning_rate=0.05, epochs=2, seed=8))
            runs.append(parameter_bytes(model))
        rows = _BLOCK_ELEMENTS // model.pooled_length
        assert [min(rows, num_classes - a) for a in range(0, num_classes, rows)] == block_rows
        assert runs[0] == runs[1]

    def test_head_overflow_in_a_later_row_block_is_divergence(self):
        # P = 25,200 gives blocks of rows (0, 1), (2, 3), (4).  Dimension 0
        # pools to about 1e300 and its head columns are zero, so the logits
        # stay finite; classes 0-2 get probability 0 and no update, and
        # rows 3 and 4 overflow, in the second and third blocks.
        model = tiny_oacp_model(seed=25, num_features=2800, num_classes=5, n_filters=3)
        model.filter_banks.weights[0] = 0.5
        model.w_head[:, :9] = 0.0  # dimension 0's n_filters * M slots
        model.b_head[:] = [-1000.0, -1000.0, -1000.0, 0.0, 0.0]
        model.version += 1
        frames = random_example(26, 7, 2800, 5).sequence.frames.copy()
        frames[:, 0] = 1e300
        data = [LabeledSequence(FeatureSequence(frames), 3)]
        bank_biases = model.filter_banks.biases.copy()
        cfg = TrainConfig(learning_rate=1e10, epochs=1)
        with pytest.raises(DivergenceError, match=NON_FINITE_PARAMETERS):
            sgd_train(model, data, cfg)
        finite_rows = np.isfinite(model.w_head).all(axis=1)
        assert finite_rows.tolist() == [True, True, True, False, False]
        assert np.isfinite(model.filter_banks.weights).all()
        # the whole step was applied before the error
        assert not np.array_equal(model.filter_banks.biases, bank_biases)

    def test_bank_bias_overflow_is_divergence(self):
        # pooled values near 1e-200 under head weights of +-1e100 keep the
        # logits, the head step and the bank weight step finite, while each
        # bank bias gradient is near 1e100 and its step 1e350
        model = tiny_oacp_model(seed=27)
        model.w_head[0] = 1e100
        model.w_head[1] = -1e100
        model.version += 1
        example = random_example(28, 6, 3, 2)
        frames = example.sequence.frames * 1e-200
        data = [LabeledSequence(FeatureSequence(frames), example.label)]
        cfg = TrainConfig(learning_rate=1e250, epochs=1)
        with pytest.raises(DivergenceError, match=NON_FINITE_PARAMETERS):
            sgd_train(model, data, cfg)
        assert not np.isfinite(model.filter_banks.biases).all()
        for param in model.parameters()[:3]:
            assert np.isfinite(param).all()

    def test_rejects_bad_labels_and_empty_data(self):
        model = ClassifierModel.build("average", 3, 2, seed=0)
        with pytest.raises(ValueError):
            sgd_train(model, [], TrainConfig(learning_rate=0.1, epochs=1))
        bad = [LabeledSequence(FeatureSequence(np.zeros((3, 3))), 2)]
        with pytest.raises(ValueError):
            sgd_train(model, bad, TrainConfig(learning_rate=0.1, epochs=1))

    def test_short_last_instance_is_rejected_before_any_update(self):
        # interval 4 with pyramid 1,2 needs 5 frames; the last instance has 3
        model = tiny_oacp_model(seed=22, interval=4)
        before = parameter_bytes(model)
        data = [random_example(s, 10, 3, 2) for s in (0, 1)] + [random_example(2, 3, 3, 2)]
        with pytest.raises(TooShortSequenceError, match="instance 2 has 3 frames, model needs 5"):
            sgd_train(model, data, TrainConfig(learning_rate=0.1, epochs=1))
        assert parameter_bytes(model) == before
        assert model.version == 0


POOL_FUNCTIONS = {
    "average": "average_pool",
    "max": "max_pool",
    "pyramid": "temporal_pyramid_pool",
}


def counting(monkeypatch, name):
    """Wrap oacpool.model's global name; return the list of each call's positional args."""
    calls = []
    original = getattr(oacpool.model, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(oacpool.model, name, wrapper)
    return calls


def logged(monkeypatch, name, events):
    """Wrap oacpool.model's global name so that each call appends name to events."""
    original = getattr(oacpool.model, name)

    def wrapper(*args, **kwargs):
        events.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(oacpool.model, name, wrapper)


class TestPoolingHoist:
    """Parameter-free pooling runs once per instance, before the first epoch."""

    @staticmethod
    def build(kind, seed):
        if kind == "oacp":
            return tiny_oacp_model(seed=seed)
        return ClassifierModel.build(kind, 3, 2, pyramid=(1, 2), seed=seed)

    @pytest.mark.parametrize("kind", sorted(POOL_FUNCTIONS))
    def test_baselines_pool_each_instance_once(self, monkeypatch, kind):
        calls = {name: counting(monkeypatch, name) for name in POOL_FUNCTIONS.values()}
        data = [random_example(s, 6, 3, 2) for s in range(5)]
        sgd_train(self.build(kind, 31), data, TrainConfig(learning_rate=0.1, epochs=3, seed=4))
        for name, made in calls.items():
            expected = len(data) if name == POOL_FUNCTIONS[kind] else 0
            assert len(made) == expected, name
        pooled_sequences = [args[0] for args in calls[POOL_FUNCTIONS[kind]]]
        assert pooled_sequences == [item.sequence for item in data]

    def test_oacp_runs_forward_on_every_step(self, monkeypatch):
        calls = counting(monkeypatch, "oacp_forward_details")
        data = [random_example(s, 6, 3, 2) for s in range(5)]
        sgd_train(self.build("oacp", 32), data, TrainConfig(learning_rate=0.1, epochs=3, seed=4))
        assert len(calls) == 3 * len(data)

    @pytest.mark.parametrize("kind", POOLING_KINDS)
    def test_parameters_match_the_per_step_loop(self, kind):
        # two lengths, so oacp steps alternate between two pooling plans
        data = [random_example(s, 7 + 3 * (s % 2), 3, 2) for s in range(6)]
        cfg = TrainConfig(learning_rate=0.2, epochs=3, seed=5)
        hoisted, _ = sgd_train(self.build(kind, 33), data, cfg)
        reference = per_step_sgd(self.build(kind, 33), data, cfg)
        for got, want in zip(hoisted.parameters(), reference.parameters(), strict=True):
            assert got.tobytes() == want.tobytes()
        assert hoisted.version == reference.version == 3 * len(data)

    @pytest.mark.parametrize("kind", sorted(POOL_FUNCTIONS))
    def test_hoisted_vectors_are_read_only(self, monkeypatch, kind):
        vectors = []
        original = oacpool.model._pool

        def capturing(model, seq):
            pooled, details = original(model, seq)
            vectors.append(pooled)
            return pooled, details

        monkeypatch.setattr(oacpool.model, "_pool", capturing)
        data = [random_example(s, 6, 3, 2) for s in range(3)]
        sgd_train(self.build(kind, 34), data, TrainConfig(learning_rate=0.1, epochs=2, seed=6))
        assert len(vectors) == len(data)
        for vector in vectors:
            with pytest.raises(ValueError, match="read-only"):
                vector[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                vector *= 2.0


class TestFusedStepErrors:
    """The fused step fails where forward, backward and a dense update on every step would."""

    @staticmethod
    def logit_overflow_case(kind):
        """A model and six instances of which instance 4 overflows.

        The oacp instance overflows in its pooled responses, the others in their logits.
        """
        data = [random_example(s, 12, 3, 2) for s in range(6)]
        if kind == "oacp":
            seq, banks = overflowing_conv_case()
            model = tiny_oacp_model(seed=35)
            model.filter_banks = banks
        else:
            # head weights of 1e300 keep every other logit finite, while
            # instance 4 pools to about 1e10
            model = ClassifierModel.build(kind, 3, 2, pyramid=(1, 2), seed=35)
            model.w_head[:] = 1e300
            seq = FeatureSequence(np.abs(data[4].sequence.frames) * 1e10 + 1.0)
        data[4] = LabeledSequence(seq, data[4].label)
        return model, data

    @staticmethod
    def trained_or_failed(train, model, data, cfg):
        """The DivergenceError text, then the parameter bytes and version it left."""
        with pytest.raises(DivergenceError) as info:
            train(model, data, cfg)
        return str(info.value), parameter_bytes(model), model.version

    @pytest.mark.parametrize("kind", POOLING_KINDS)
    def test_non_finite_logits(self, kind):
        cfg = TrainConfig(learning_rate=0.1, epochs=2, seed=36)
        runs = [
            self.trained_or_failed(train, *self.logit_overflow_case(kind), cfg)
            for train in (sgd_train, per_step_sgd)
        ]
        assert runs[0] == runs[1]
        # oacp's pooling raises on the overflowed responses before its head runs
        stage = "pooled responses" if kind == "oacp" else "logits"
        message = f"divergence at epoch 0, instance 4: {stage} contain NaN or infinite values"
        assert runs[0][0] == message

    @pytest.mark.parametrize("kind", POOLING_KINDS)
    def test_overflowing_parameters(self, kind):
        # pooled values of order 1e3 times a step of 1e308 overflow on the first update
        data = [
            LabeledSequence(FeatureSequence(item.sequence.frames * 1e3), item.label)
            for item in (random_example(s, 12, 3, 2) for s in range(6))
        ]
        cfg = TrainConfig(learning_rate=1e308, epochs=2, seed=37)
        runs = [
            self.trained_or_failed(train, TestPoolingHoist.build(kind, 38), data, cfg)
            for train in (sgd_train, per_step_sgd)
        ]
        assert runs[0] == runs[1]
        assert re.match(NON_FINITE_PARAMETERS, runs[0][0])

    @pytest.mark.parametrize("kind", POOLING_KINDS)
    def test_history_holds_python_floats(self, kind):
        data = [random_example(s, 12, 3, 2) for s in range(5)]
        cfg = TrainConfig(learning_rate=0.1, epochs=2, seed=39)
        _, history = sgd_train(TestPoolingHoist.build(kind, 40), data, cfg)
        for stats in history:
            assert type(stats.mean_loss) is float
            assert type(stats.accuracy) is float


class TestMagnitudeBounds:
    """Steps that sgd_train's magnitude bound proves finite skip the scans; the rest scan."""

    @staticmethod
    def scaled_run(train, kind, frame_scale, learning_rate, scales=(2.0**995,) * 4):
        """(DivergenceError text or None, parameter bytes, version) of a run from a
        model whose nonzero parameters are rescaled: max|param| = its entry of scales."""
        rng = np.random.default_rng(41)
        data = [
            LabeledSequence(FeatureSequence(rng.standard_normal((9, 3)) * frame_scale), i % 2)
            for i in range(6)
        ]
        model = TestPoolingHoist.build(kind, 42)
        for param, scale in zip(model.parameters(), scales):
            if param.any():
                param *= scale / np.abs(param).max()
        cfg = TrainConfig(learning_rate=learning_rate, epochs=3, seed=43)
        try:
            train(model, data, cfg)
            error = None
        except DivergenceError as exc:
            error = str(exc)
        return error, parameter_bytes(model), model.version

    @pytest.mark.parametrize(
        "kind, frame_scale, learning_rate",
        [
            ("average", 1e-3, 1e301),
            ("max", 1e-3, 1e301),
            ("pyramid", 1e-3, 1e301),
            ("oacp", 1e-300, 1.0),
        ],
    )
    def test_bounds_that_cross_the_limit_mid_run(
        self, monkeypatch, kind, frame_scale, learning_rate
    ):
        # the first step's bound stays below 2**1000 and a later step's does
        # not, so the scans resume mid-run: a head bound near 2**995 grows by
        # lr = 1e301 per step, and an oacp bound near 2**495 bounds logits
        # near P * 2**990 and grows sevenfold per step
        calls = counting(monkeypatch, "_train_step")
        scales = (2.0**495 if kind == "oacp" else 2.0**995,) * 4
        got = self.scaled_run(sgd_train, kind, frame_scale, learning_rate, scales)
        checks = [args[-1] for args in calls]  # the check flag of every step
        assert checks[0] is False and True in checks
        assert got == self.scaled_run(per_step_sgd, kind, frame_scale, learning_rate, scales)

    @pytest.mark.parametrize(
        "kind, head, frame, learning_rate, message",
        [
            ("oacp", 2.0**600, 2.0**500, 0.0, "divergence at epoch 0, instance 0: logits"),
            ("oacp", 2.0**-100, 2.0**100, 2.0**930, "non-finite parameters"),
            ("oacp", 2.0**40, 2.0**100, 2.0**890, "non-finite parameters"),
            ("oacp", 2.0**40, 2.0**-100, 2.0**990, "non-finite parameters"),
            ("average", 2.0**600, 2.0**500, 0.0, "divergence at epoch 0, instance 0: logits"),
            ("average", 2.0**-100, 2.0**100, 2.0**930, "non-finite parameters"),
        ],
        ids=[
            "oacp-logits", "oacp-w_head", "oacp-bank_weights", "oacp-bank_biases",
            "average-logits", "average-w_head",
        ],
    )
    def test_each_bound_catches_its_own_overflow(
        self, kind, head, frame, learning_rate, message
    ):
        # one dimension and, for oacp, one one-tap filter of weight 1 and one
        # segment, so the pooled value is the frame value; the head's rows
        # are +-head and the label is the class the head ranks last, so the
        # gradient bounds are tight.  The bound crosses 2**1000 and the step
        # really overflows in the named logits or parameter array.
        def run(train):
            model = ClassifierModel.build(
                kind, 1, 2, interval=1, n_filters=1, pyramid=(1,), seed=46
            )
            model.w_head[:] = [[head], [-head]]
            if model.filter_banks is not None:
                model.filter_banks.weights[:] = 1.0
            data = [LabeledSequence(FeatureSequence(np.full((2, 1), frame)), 1)]
            with pytest.raises(DivergenceError) as info:
                train(model, data, TrainConfig(learning_rate=learning_rate, epochs=1))
            return str(info.value), parameter_bytes(model)

        got = run(sgd_train)
        assert got[0].startswith(message)
        assert got == run(per_step_sgd)

    def test_a_nan_bound_scans_the_step(self):
        # a zero head over conv responses that overflow: p_inf = m*(l*F + 1)
        # is inf, so the updated bound m + 0 * inf (lr 0) is NaN, and the
        # step must still find the overflowed responses
        runs = [
            self.scaled_run(train, "oacp", 1e300, 0.0, scales=(0.0, 0.0, 1e300, 0.0))
            for train in (sgd_train, per_step_sgd)
        ]
        assert runs[0] == runs[1]
        assert re.match(
            r"^divergence at epoch 0, instance \d+: pooled responses contain NaN", runs[0][0]
        )

    @pytest.mark.parametrize(
        "bound, scale, learning_rate, geometry, want",
        [
            # hoisted (2M = 0): p_inf = F = 2**1000 = g, z = 2**980, m' = 1 + 2**-20
            (2.0**-20, 2.0**1000, 2.0**-1000, (8, 1, 0), None),
            (2.0**-20, 2.0**999, 2.0**-1000, (8, 1, 0), 2.0**-20 + 0.5),
            # z = 2**500 * (2 * 2**499 + 1) rounds to 2**1000
            (2.0**500, 2.0**499, 1.0, (8, 2, 0), None),
            # P * p_inf = 1, so z = m * (1 + 1) = 2**1000
            (2.0**999, 1.0, 1.0, (8, 1, 0), None),
            # g = 1 and m' = 2**999 + 2**999 = 2**1000
            (2.0**999, 0.0, 2.0**999, (8, 1, 0), None),
            # oacp: p_inf = 2**10 + 2**-20, and the routes term
            # 2 * 2**10 * max(2**-30, 1) = 2**11 is g, so m' = 2**10 + 1
            (2.0**10, 2.0**-30, 2.0**-11, (1, 1, 2), 2.0**10 + 1.0),
        ],
        ids=["g-at-limit", "g-below", "z-at-limit", "z-plus-one", "m-at-limit", "routes-g"],
    )
    def test_step_bound_follows_the_docstring(self, bound, scale, learning_rate, geometry, want):
        # p_inf = m*(l*F + 1) with banks, else F; z = m*(P*p_inf + 1);
        # g = max(p_inf, 1, 2M*m*max(F, 1)); m' = m + lr*g, returned only
        # while g, z and m' are all strictly below 2**1000
        assert oacpool.model._step_bound(bound, scale, learning_rate, geometry) == want

    @pytest.mark.parametrize("kind", POOLING_KINDS)
    def test_a_desk_shape_run_makes_no_finiteness_scan(self, monkeypatch, kind):
        train, _ = gen_synthetic(
            SyntheticSpec("trend-pair", n_train=50, n_test=2, num_frames=40, num_features=64)
        )
        model = ClassifierModel.from_spec(PoolingSpec(kind, sample_rate=1), 64, 2, seed=44)
        calls = counting(monkeypatch, "_all_finite")
        events = []
        for name in ("_parameter_bound", "_train_step"):
            logged(monkeypatch, name, events)
        sgd_train(model, train, TrainConfig(learning_rate=0.1, epochs=1, seed=45))
        assert calls == []
        # the bound is taken exactly once, before the first step, and carried
        assert events == ["_parameter_bound"] + ["_train_step"] * len(train)
        assert model.version == len(train)

    @staticmethod
    def third_step_unproved(monkeypatch):
        """Make sgd_train's third _step_bound call report an unproved step."""
        original = oacpool.model._step_bound
        calls = []

        def step_bound(*args):
            calls.append(args)
            return None if len(calls) == 3 else original(*args)

        monkeypatch.setattr(oacpool.model, "_step_bound", step_bound)

    @staticmethod
    def bound_case():
        data = [random_example(s, 12, 3, 2) for s in range(6)]
        return tiny_oacp_model(seed=47), data, TrainConfig(learning_rate=0.1, epochs=2, seed=48)

    def test_an_unproved_step_rederives_the_bound_once(self, monkeypatch):
        self.third_step_unproved(monkeypatch)
        bounds = counting(monkeypatch, "_parameter_bound")
        model, data, cfg = self.bound_case()
        sgd_train(model, data, cfg)
        assert len(bounds) == 2  # the run's start and the third step
        reference, data, cfg = self.bound_case()
        assert parameter_bytes(model) == parameter_bytes(per_step_sgd(reference, data, cfg))

    def test_a_nan_parameter_raises_from_the_rederived_bound(self, monkeypatch):
        # the third step, which the bound does not prove, leaves a NaN head weight
        self.third_step_unproved(monkeypatch)
        original = oacpool.model._train_step
        steps = []

        def train_step(model, *args):
            steps.append(args)
            result = original(model, *args)
            if len(steps) == 3:
                model.w_head[0, 0] = np.nan
            return result

        monkeypatch.setattr(oacpool.model, "_train_step", train_step)
        model, data, cfg = self.bound_case()
        with pytest.raises(DivergenceError, match=NON_FINITE_PARAMETERS):
            sgd_train(model, data, cfg)
        assert model.version == 3


class TestPaperShapeMemory:
    """tracemalloc bounds at the paper's shape: K=4096, T=30, 51 classes, default oacp.

    A training step peaks near 4.1 MiB: the conv buffers until the pooling
    is done, then the routed windows of the bank gradient and one row of
    the head update; no (num_classes, pooled_length) head gradient is
    built, and the (T_out, n, K) pre-activations are freed before the bank
    gradient (keeping them read 5.7 MiB).  Each step's temporaries die
    with the step, so two epochs over two instances peak as one step does;
    a step inlined into the epoch loop keeps the last step's routed
    windows alive and peaks near 7.2 MiB.
    An evaluated instance peaks near 2.4 MiB: the 2.2 MiB conv output and
    the ReLU'd piece maxima, with no argmax pass and no ForwardCache.  The
    conv buffer dies with its instance's pooling, so evaluating two
    instances peaks as one does, near 2.37 MiB.  Keeping the buffer alive
    until the segment maxima are taken reads 2.93 MiB, over the 2.7 MiB
    bounds; evaluation through forward() kept the last instance's cache
    alive and read 3.8 MiB for one instance, 6.5 MiB for two.  The bounds
    catch a per-step temporary coming back.
    """

    @pytest.fixture(scope="class")
    def paper_case(self):
        model = ClassifierModel.build("oacp", 4096, 51, seed=3)
        frames = np.random.default_rng(3).standard_normal((30, 4096))
        return model, [LabeledSequence(FeatureSequence(frames), 7)]

    def test_training_step(self, paper_case):
        model, data = paper_case
        cfg = TrainConfig(learning_rate=0.1, epochs=1)
        assert traced_peak_mib(lambda: sgd_train(model, data, cfg)) < 5

    def test_training_steps_free_their_buffers(self, paper_case):
        # a step's conv buffer and routed windows are freed before the next
        # step's forward, so two epochs over two instances peak as one step
        model, data = paper_case
        frames = np.random.default_rng(4).standard_normal((30, 4096))
        data = data + [LabeledSequence(FeatureSequence(frames), 8)]
        cfg = TrainConfig(learning_rate=0.1, epochs=2)
        assert traced_peak_mib(lambda: sgd_train(model, data, cfg)) < 5

    def test_evaluated_instance(self, paper_case):
        model, data = paper_case
        assert traced_peak_mib(lambda: evaluate(model, data)) < 2.7

    def test_evaluation_holds_one_instance(self, paper_case):
        model, data = paper_case
        frames = np.random.default_rng(4).standard_normal((30, 4096))
        data = data + [LabeledSequence(FeatureSequence(frames), 8)]
        assert traced_peak_mib(lambda: evaluate(model, data)) < 2.7


class TestEvaluate:
    def test_constant_predictor_on_balanced_data(self):
        model = ClassifierModel(
            PoolingSpec("average"), 3, 2, w_head=np.zeros((2, 3)), b_head=np.zeros(2)
        )  # zero logits: argmax tie always resolves to class 0
        rng = np.random.default_rng(50)
        data = [
            LabeledSequence(FeatureSequence(rng.standard_normal((4, 3))), label)
            for label in (0, 1) * 10
        ]
        accuracy, confusion = evaluate(model, data)
        assert accuracy == 0.5
        assert confusion[:, 0].sum() == 20 and confusion[:, 1].sum() == 0

    def test_rejects_unusable_instances_up_front(self):
        model = tiny_oacp_model(seed=54)
        ok = random_example(0, 6, 3, 2)
        with pytest.raises(ShapeMismatchError, match="instance 1 has 4 features, model expects 3"):
            evaluate(model, [ok, random_example(1, 6, 4, 2)])
        with pytest.raises(TooShortSequenceError, match="instance 1 has 2 frames, model needs 3"):
            evaluate(model, [ok, random_example(1, 2, 3, 2)])
        with pytest.raises(ValueError, match="evaluation data is empty"):
            evaluate(model, [])

    def test_confusion_counts_all_instances(self):
        model = tiny_oacp_model(seed=51)
        data = [random_example(s, 6, 3, 2) for s in range(12)]
        _, confusion = evaluate(model, data)
        assert confusion.sum() == 12

    def test_perfect_separator(self):
        model = ClassifierModel(
            PoolingSpec("average"),
            2,
            2,
            w_head=np.array([[-5.0, -5.0], [5.0, 5.0]]),
            b_head=np.array([2.0, -2.0]),
        )
        data = mean_separable_dataset(10, 5, 2, seed=52)
        accuracy, confusion = evaluate(model, data)
        assert accuracy == 1.0
        assert confusion[0, 1] == 0 and confusion[1, 0] == 0

    @pytest.mark.parametrize("kind", POOLING_KINDS)
    def test_confusion_matches_forward_predictions(self, kind):
        model = TestPoolingHoist.build(kind, 55)
        data = [random_example(s, 6 + s % 3, 3, 2) for s in range(16)]
        want = np.zeros((2, 2), dtype=np.int64)
        for item in data:
            want[item.label, forward(model, item.sequence)[0].argmax()] += 1
        accuracy, confusion = evaluate(model, data)
        assert confusion.tobytes() == want.tobytes()
        assert accuracy == np.trace(want) / len(data)

    def test_runs_no_forward_and_no_argmax_pass(self, monkeypatch):
        calls = {name: counting(monkeypatch, name) for name in ("forward", "oacp_forward_details")}
        model = tiny_oacp_model(seed=56)
        evaluate(model, [random_example(s, 6, 3, 2) for s in range(3)])
        assert {name: len(made) for name, made in calls.items()} == {
            "forward": 0,
            "oacp_forward_details": 0,
        }

    def test_prediction_invariant_under_logit_shift(self):
        model = tiny_oacp_model(seed=53)
        data = [random_example(s, 6, 3, 2) for s in range(10)]
        before = [int(np.argmax(forward(model, d.sequence)[0])) for d in data]
        model.b_head += 3.7
        model.version += 1
        after = [int(np.argmax(forward(model, d.sequence)[0])) for d in data]
        assert before == after


class TestSpecGeometry:
    FIXED = [
        ("average", 8, 1, 3, (1, 2)),
        ("max", 8, 1, 3, (1, 2)),
        ("pyramid", 8, 1, 3, (1, 2, 4)),
        ("oacp", 8, 1, 3, (1, 2)),
        ("oacp", 8, 2, 3, (1, 2, 4)),
        ("oacp", 3, 3, 2, (1, 4)),
    ]

    def _geometries(self, rng):
        yield from self.FIXED
        for _ in range(200):
            kind = POOLING_KINDS[int(rng.integers(len(POOLING_KINDS)))]
            levels = [1] + [int(rng.integers(1, 5)) for _ in range(int(rng.integers(0, 3)))]
            yield (
                kind,
                int(rng.integers(1, 6)),
                int(rng.integers(1, 4)),
                int(rng.integers(1, 4)),
                tuple(levels),
            )

    def test_spec_matches_every_kind_stride_and_pyramid(self):
        rng = np.random.default_rng(67)
        for kind, interval, stride, n_filters, pyramid in self._geometries(rng):
            k = int(rng.integers(1, 5))
            c = int(rng.integers(1, 4))
            sample_rate = int(rng.integers(1, 4))
            model = ClassifierModel.build(
                kind, k, c, interval=interval, stride=stride, n_filters=n_filters,
                pyramid=pyramid, sample_rate=sample_rate, seed=int(rng.integers(1000)),
            )
            spec = model.spec
            where = f"{kind} l={interval} s={stride} n={n_filters} pyramid={pyramid}"
            minimum = spec.minimum_frames

            shortest = FeatureSequence(rng.standard_normal((minimum, k)))
            _, cache = forward(model, shortest)
            assert len(cache.pooled) == spec.pooled_length(k) == model.pooled_length, where
            bank = param_count_perdim(k, interval, n_filters) if kind == "oacp" else 0
            assert model.parameter_total() == bank + c * spec.pooled_length(k) + c, where
            if minimum > 1:
                with pytest.raises(TooShortSequenceError):
                    forward(model, FeatureSequence(rng.standard_normal((minimum - 1, k))))

            # (minimum - 1) * sample_rate raw frames sample down to minimum - 1
            raw_frames = max((minimum - 1) * sample_rate, 1)
            raw = LabeledSequence(FeatureSequence(rng.standard_normal((raw_frames, k))), 0)
            prepared = prepare_dataset([raw], spec)[0].sequence
            assert prepared.num_frames == minimum, where
            forward(model, prepared)

    def test_spec_reads_model_settings(self):
        model = ClassifierModel.build(
            "oacp", 4, 2, interval=3, stride=2, n_filters=5, pyramid=(1, 2, 4),
            sample_rate=7,
        )
        assert model.spec == PoolingSpec(
            "oacp", interval=3, stride=2, n_filters=5, pyramid=(1, 2, 4),
            sample_rate=7,
        )
        assert model.spec is model.spec

    def test_unread_fields_take_their_defaults(self):
        # a field a kind does not read holds its no-op value
        for kind in ("average", "max", "pyramid"):
            spec = PoolingSpec(kind, interval=3, stride=2, n_filters=5)
            assert (spec.interval, spec.stride, spec.n_filters) == (1, 1, 1), kind
        for kind in ("average", "max"):
            assert PoolingSpec(kind, pyramid=(1, 4)).pyramid == PyramidConfig((1,)), kind
        assert PoolingSpec("pyramid", pyramid=(1, 4)).pyramid == PyramidConfig((1, 4))
        oacp = PoolingSpec("oacp")
        assert (oacp.interval, oacp.stride, oacp.n_filters) == (8, 1, 3)
        assert oacp.pyramid == PyramidConfig((1, 2))
        assert PoolingSpec("average", interval=3) == PoolingSpec("average")
        assert PoolingSpec("max", stride=2, pyramid=(1, 4)) == PoolingSpec("max")
        assert PoolingSpec("pyramid", n_filters=5) == PoolingSpec("pyramid")
        assert PoolingSpec("oacp", interval=3) != PoolingSpec("oacp")
        assert PoolingSpec("average", sample_rate=2) != PoolingSpec("average")
        # unread fields are still validated first
        for geometry in (dict(interval=0), dict(pyramid=(2,))):
            with pytest.raises(ValueError):
                PoolingSpec("average", **geometry)

    @pytest.mark.parametrize("kind", ["oacp", "average"])
    @pytest.mark.parametrize("name", ["interval", "stride", "n_filters", "sample_rate"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(3.0)])
    def test_rejects_non_integer_settings(self, kind, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            PoolingSpec(kind, **{name: value})

    @pytest.mark.parametrize("pyramid", [(1, 2.5), (1, True)])
    def test_rejects_non_integer_pyramid(self, pyramid):
        with pytest.raises(ValueError, match="must be an integer"):
            PoolingSpec("pyramid", pyramid=pyramid)

    def test_numpy_integers_become_ints(self):
        spec = PoolingSpec(
            "oacp", interval=np.int64(3), stride=np.int32(2), n_filters=np.uint8(2),
            sample_rate=np.int16(4), pyramid=np.array([1, 2]),
        )
        assert spec == PoolingSpec(
            "oacp", interval=3, stride=2, n_filters=2, sample_rate=4, pyramid=(1, 2)
        )
        for name in ("interval", "stride", "n_filters", "sample_rate"):
            assert type(getattr(spec, name)) is int, name

    def test_pyramid_is_a_pyramid_config(self):
        spec = PoolingSpec("pyramid", pyramid=[1, 2, 4])
        assert spec.pyramid == PyramidConfig((1, 2, 4))
        assert spec == PoolingSpec("pyramid", pyramid=PyramidConfig((1, 2, 4)))

    # Specs and builds below are rejected before any array is sized by them,
    # so the oversized values allocate nothing.
    @pytest.mark.parametrize(
        "geometry",
        [
            dict(kind="oacp", stride=10**30),
            dict(kind="oacp", interval=MAX_MINIMUM_FRAMES + 1, pyramid=(1,)),
            dict(kind="oacp", interval=2, stride=MAX_MINIMUM_FRAMES, pyramid=(1, 2)),
            dict(kind="pyramid", pyramid=(1, MAX_MINIMUM_FRAMES + 1)),
        ],
    )
    def test_rejects_geometry_past_the_frame_limit(self, geometry):
        with pytest.raises(ValueError, match="minimum_frames"):
            PoolingSpec(**geometry)

    def test_geometry_at_the_frame_limit_is_accepted(self):
        spec = PoolingSpec("oacp", interval=2, stride=MAX_MINIMUM_FRAMES - 2, pyramid=(1, 2))
        assert spec.minimum_frames == MAX_MINIMUM_FRAMES

    def test_build_rejects_oversized_stride(self):
        with pytest.raises(ValueError, match="minimum_frames"):
            ClassifierModel.build("oacp", 4, 2, stride=10**30)

    def test_build_rejects_a_model_over_the_parameter_limit(self):
        # head 2 * (4 * 10**9 * 3 + 1), banks 4 * 10**9 * (8 + 1): rejected
        # before anything is drawn
        with pytest.raises(
            ValueError, match=f"60000000002 parameters, over the limit of {MAX_PARAMETERS}"
        ):
            ClassifierModel.build("oacp", 4, 2, n_filters=10**9)
        with pytest.raises(ValueError, match="2000000002 parameters"):
            ClassifierModel.build("average", 10**9, 2)

    @pytest.mark.parametrize("kind", POOLING_KINDS)
    def test_parameter_limit_counts_every_parameter(self, monkeypatch, kind):
        geometry = dict(interval=2, n_filters=2, pyramid=(1, 2))
        total = ClassifierModel.build(kind, 3, 2, **geometry).parameter_total()
        monkeypatch.setattr("oacpool.model.MAX_PARAMETERS", total)
        ClassifierModel.build(kind, 3, 2, **geometry)
        monkeypatch.setattr("oacpool.model.MAX_PARAMETERS", total - 1)
        with pytest.raises(ValueError, match=f"{total} parameters"):
            ClassifierModel.build(kind, 3, 2, **geometry)


class TestCheckpoint:
    @pytest.mark.parametrize(
        "kind,geometry",
        [(kind, dict(interval=2, n_filters=2, pyramid=(1, 2))) for kind in POOLING_KINDS]
        + [("oacp", dict(interval=3, stride=2, pyramid=(1, 2, 4)))],
        ids=[*POOLING_KINDS, "oacp-stride2"],
    )
    def test_roundtrip_is_bit_exact(self, kind, geometry, tmp_path):
        model = ClassifierModel.build(kind, 4, 3, sample_rate=5, seed=60, **geometry)
        path = tmp_path / "model.oacm"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.spec == model.spec
        assert loaded.spec.sample_rate == 5
        assert parameter_bytes(loaded) == parameter_bytes(model)

    @pytest.mark.parametrize(
        "kind,geometry",
        [("oacp", dict(interval=2, n_filters=2, pyramid=[1, 2])), ("average", {})],
        ids=["oacp", "average"],
    )
    def test_writes_version_3_header_and_raw_parameters(self, kind, geometry, tmp_path):
        model = ClassifierModel.build(
            kind, 3, 2, interval=2, n_filters=2, pyramid=(1, 2), sample_rate=1, seed=68
        )
        path = tmp_path / "model.oacm"
        save_model(model, path)
        raw = path.read_bytes()
        assert raw[:5] == b"OACM\x03"
        length = int.from_bytes(raw[5:9], "little")
        # the in-memory spec: settings a kind does not read hold their no-op values
        assert json.loads(raw[9 : 9 + length]) == {
            "pooling_kind": kind,
            "num_features": 3,
            "num_classes": 2,
            **dict(interval=1, stride=1, n_filters=1, pyramid=[1]),
            **geometry,
            "sample_rate": 1,
        }
        payload = np.frombuffer(raw, dtype="<f8", offset=9 + length)
        assert payload.tobytes() == b"".join(
            p.astype("<f8").tobytes() for p in model.parameters()
        )

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "model.oacm"
        save_model(tiny_oacp_model(seed=71), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 2
        path.write_bytes(raw)
        with pytest.raises(ParseError, match="version 2"):
            load_model(path)

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = tiny_oacp_model(seed=61)
        path = tmp_path / "model.oacm"
        save_model(model, path)
        loaded = load_model(path)
        seq = random_example(62, 6, 3, 2).sequence
        assert forward(model, seq)[0].tobytes() == forward(loaded, seq)[0].tobytes()

    def test_loaded_model_trains_like_the_saved_one(self, tmp_path):
        # the loaded arrays are writable, and training them gives the same bytes
        model = tiny_oacp_model(seed=73)
        path = tmp_path / "model.oacm"
        save_model(model, path)
        loaded = load_model(path)
        data = [random_example(74 + i, 6, 3, 2) for i in range(4)]
        cfg = TrainConfig(learning_rate=0.1, epochs=2, seed=3)
        sgd_train(model, data, cfg)
        sgd_train(loaded, data, cfg)
        assert parameter_bytes(loaded) == parameter_bytes(model)

    def test_rejects_garbage_and_foreign_files(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            load_model(bad)
        foreign = tmp_path / "foreign.json"
        foreign.write_text('{"format": "something-else"}')
        with pytest.raises(ParseError):
            load_model(foreign)

    def test_rejects_non_utf8_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"format": "\xff"}\n')
        with pytest.raises(ParseError):
            load_model(bad)
        header = b'{"pooling_kind": "\xff"}'
        bad.write_bytes(b"OACM\x03" + len(header).to_bytes(4, "little") + header)
        with pytest.raises(ParseError, match="utf-8"):
            load_model(bad)

    def test_rejects_a_json_checkpoint(self, tmp_path):
        # a version 2 checkpoint no longer loads
        path = tmp_path / "model.json"
        path.write_text(json.dumps(json_v2_checkpoint(tiny_oacp_model(seed=75))))
        with pytest.raises(ParseError, match="JSON checkpoints no longer load"):
            load_model(path)

    def test_rejects_a_truncated_header(self, tmp_path):
        path = tmp_path / "model.oacm"
        save_model(tiny_oacp_model(seed=76), path)
        raw = path.read_bytes()
        for size in range(9):
            path.write_bytes(raw[:size])
            with pytest.raises(ParseError, match="truncated" if size >= 4 else "not a"):
                load_model(path)

    def test_a_preamble_alone_is_measured_against_its_header_length(self, tmp_path):
        # exactly the preamble's 9 bytes is not truncated; one byte less is
        path = tmp_path / "model.oacm"
        preamble = oacpool.model._PREAMBLE.pack(b"OACM", 3, 5)
        path.write_bytes(preamble)
        with pytest.raises(
            ParseError, match="a header of 5 bytes runs past the end of the file"
        ):
            load_model(path)
        path.write_bytes(preamble[:8])
        with pytest.raises(ParseError, match="truncated checkpoint header"):
            load_model(path)

    def test_rejects_a_header_length_past_the_end(self, tmp_path):
        path = tmp_path / "model.oacm"
        save_model(tiny_oacp_model(seed=77), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:5] + (len(raw) - 8).to_bytes(4, "little") + raw[9:])
        with pytest.raises(ParseError, match="runs past the end"):
            load_model(path)

    def test_rejects_a_deeply_nested_header(self, tmp_path):
        path = tmp_path / "model.oacm"
        header = b"[" * 100_000
        path.write_bytes(b"OACM\x03" + len(header).to_bytes(4, "little") + header)
        with pytest.raises(ParseError, match="recursion"):
            load_model(path)

    @pytest.mark.parametrize("edit", ["short", "long"])
    def test_rejects_a_payload_off_by_one_double(self, edit, tmp_path):
        path = tmp_path / "model.oacm"
        save_model(tiny_oacp_model(seed=78), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8] if edit == "short" else raw + raw[-8:])
        with pytest.raises(ParseError, match="payload"):
            load_model(path)

    @pytest.mark.parametrize(
        "edits,drop,key",
        [({"normalize": False}, (), "normalize"), ({}, ("stride",), "stride")],
        ids=["extra", "missing"],
    )
    def test_rejects_an_extra_or_a_missing_header_key(self, edits, drop, key, tmp_path):
        path = tmp_path / "model.oacm"
        save_edited(tiny_oacp_model(seed=79), path, drop, **edits)
        with pytest.raises(ParseError, match=key):
            load_model(path)

    @pytest.mark.parametrize("position", [0, -1], ids=["head-weight", "bank-bias"])
    def test_rejects_a_nan_in_the_payload(self, position, tmp_path):
        path = tmp_path / "model.oacm"
        save_model(tiny_oacp_model(seed=80), path)
        raw = bytearray(path.read_bytes())
        length = int.from_bytes(raw[5:9], "little")
        offset = 9 + length if position == 0 else len(raw) - 8
        raw[offset : offset + 8] = np.array([np.nan]).astype("<f8").tobytes()
        path.write_bytes(raw)
        with pytest.raises(ParseError, match="NaN"):
            load_model(path)

    def test_rejects_tampered_pooled_length(self, tmp_path):
        # a derived field of the JSON formats; format 3 has no such field
        model = tiny_oacp_model(seed=63)
        path = tmp_path / "model.oacm"
        save_edited(model, path, pooled_length=model.pooled_length)
        with pytest.raises(ParseError, match="unknown header field 'pooled_length'"):
            load_model(path)

    @pytest.mark.parametrize(
        "kind,key,value",
        [
            ("oacp", "interval", 3),
            ("oacp", "n_filters", 5),
            ("oacp", "effective_receptive_field", 99),
            ("average", "interval", 8),
            ("max", "stride", 2),
            ("pyramid", "n_filters", 3),
            ("average", "effective_receptive_field", 1),
            ("max", "pyramid", [1, 2]),
        ],
    )
    def test_rejects_tampered_geometry(self, kind, key, value, tmp_path):
        model = ClassifierModel.build(kind, 3, 2, interval=2, n_filters=2, seed=65)
        path = tmp_path / "model.oacm"
        save_edited(model, path, **{key: value})
        with pytest.raises(ParseError, match=key):
            load_model(path)

    @pytest.mark.parametrize(
        "kind,key,value",
        [
            ("oacp", "num_features", 3.0),
            ("oacp", "num_classes", 2.0),
            ("average", "sample_rate", 2.5),
            ("max", "sample_rate", True),
            ("oacp", "sample_rate", 1.0),
            ("oacp", "stride", 1.0),
            ("oacp", "pyramid", [1, 2.0]),
            ("pyramid", "pyramid", [True, 2]),
        ],
    )
    def test_rejects_non_integer_fields(self, kind, key, value, tmp_path):
        model = ClassifierModel.build(kind, 3, 2, interval=2, n_filters=2, seed=72)
        path = tmp_path / "model.oacm"
        save_edited(model, path, **{key: value})
        with pytest.raises(ParseError, match=f"{key} must be an integer"):
            load_model(path)

    def test_rejects_oversized_geometry(self, tmp_path):
        path = tmp_path / "model.oacm"
        save_edited(tiny_oacp_model(seed=66), path, stride=10**30)
        with pytest.raises(ParseError, match="minimum_frames"):
            load_model(path)
