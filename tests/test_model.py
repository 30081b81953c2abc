import json
import math
import tracemalloc

import numpy as np
import pytest

from helpers import dense_reference_gradients, mean_separable_dataset

from oacpool.convpool import FilterBankSet, param_count_perdim
from oacpool.errors import (
    DivergenceError,
    ParseError,
    ShapeMismatchError,
    StaleCacheError,
    TooShortSequenceError,
)
from oacpool.harness import prepare_dataset
from oacpool.model import (
    MAX_MINIMUM_FRAMES,
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
    softmax,
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


def save_edited(model, path, **edits):
    """Save model as a checkpoint, then overwrite top-level fields with edits."""
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc.update(edits)
    path.write_text(json.dumps(doc))


class TestSoftmax:
    def test_symmetric_pair(self):
        assert softmax([0.0, 0.0]).tolist() == [0.5, 0.5]

    def test_equal_logits_uniform(self):
        np.testing.assert_allclose(softmax([7.0, 7.0, 7.0]), [1 / 3] * 3, rtol=1e-15)

    def test_large_logit_gap_does_not_overflow(self):
        out = softmax([1000.0, 0.0])
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    def test_sums_to_one_and_strictly_positive(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            z = rng.uniform(-50, 50, int(rng.integers(2, 8)))
            out = softmax(z)
            assert abs(out.sum() - 1.0) <= 1e-12
            assert (out > 0).all()

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([np.inf, 0.0])


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


class TestInstanceLoss:
    def test_perfect_prediction_is_zero_loss(self):
        assert instance_loss(np.array([1.0, 0.0]), 0) == pytest.approx(0.0, abs=1e-12)

    def test_even_split_is_log_two(self):
        assert instance_loss(np.array([0.5, 0.5]), 1) == pytest.approx(math.log(2), rel=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            instance_loss(np.array([0.5, 0.5]), 2)


class TestBackward:
    def test_uniform_probs_logit_gradient(self):
        model = ClassifierModel(
            PoolingSpec("average"), 3, 2, w_head=np.zeros((2, 3)), b_head=np.zeros(2)
        )
        _, cache = forward(model, FeatureSequence(np.ones((4, 3))))
        grads = backward(model, cache, 0)
        assert grads.b_head.tolist() == [-0.5, 0.5]

    def test_logit_gradient_sums_to_zero(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            model = tiny_oacp_model(seed=int(rng.integers(1000)))
            example = random_example(int(rng.integers(1000)), 6, 3, 2)
            _, cache = forward(model, example.sequence)
            grads = backward(model, cache, example.label)
            assert abs(grads.b_head.sum()) <= 1e-12

    def test_dead_relu_region_gives_zero_filter_gradients(self):
        model = tiny_oacp_model(seed=1)
        model.filter_banks.biases[:] = -100.0  # every pre-activation negative
        model.version += 1
        example = random_example(2, 6, 3, 2)
        _, cache = forward(model, example.sequence)
        grads = backward(model, cache, example.label)
        assert not grads.bank_weights.any()
        assert not grads.bank_biases.any()

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
        assert grads.bank_weights is None and grads.bank_biases is None
        assert grads.w_head.shape == (2, 9)  # P = K * (1 + 2) segments


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
        assert grads.w_head.tobytes() == w_head.tobytes()
        assert grads.b_head.tobytes() == b_head.tobytes()
        np.testing.assert_allclose(grads.bank_weights, bank_w, rtol=1e-12, atol=0)
        np.testing.assert_allclose(grads.bank_biases, bank_b, rtol=1e-12, atol=0)
        if case == "dead":
            assert not grads.bank_weights.any() and not grads.bank_biases.any()
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
        assert not grads.bank_weights.any()
        assert grad_check(model, example, 1e-5, seed=2) < 1e-4

    def test_does_not_modify_the_model(self):
        model = tiny_oacp_model(seed=13)
        before = parameter_bytes(model)
        grad_check(model, random_example(14, 6, 3, 2), 1e-5, seed=3)
        assert parameter_bytes(model) == before

    def test_eps_range_enforced(self):
        model = tiny_oacp_model(seed=15)
        with pytest.raises(ValueError):
            grad_check(model, random_example(16, 6, 3, 2), 1e-2)


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
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError, match=r"epoch \d+, instance \d+"):
                sgd_train(model, data, cfg)

    def test_rejects_bad_labels_and_empty_data(self):
        model = ClassifierModel.build("average", 3, 2, seed=0)
        with pytest.raises(ValueError):
            sgd_train(model, [], TrainConfig(learning_rate=0.1, epochs=1))
        bad = [LabeledSequence(FeatureSequence(np.zeros((3, 3))), 2)]
        with pytest.raises(ValueError):
            sgd_train(model, bad, TrainConfig(learning_rate=0.1, epochs=1))


def traced_peak_mib(call) -> float:
    """Peak of the memory call() allocates, in MiB, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


class TestPaperShapeMemory:
    """tracemalloc bounds at the paper's shape: K=4096, T=30, 51 classes, default oacp.

    A training step peaks near 21.6 MiB: the head's 15 MiB outer-product
    gradient plus the conv buffers.  An evaluated instance needs about
    5.4 MiB.  The bounds catch a per-step temporary coming back.
    """

    @pytest.fixture(scope="class")
    def paper_case(self):
        model = ClassifierModel.build("oacp", 4096, 51, seed=3)
        frames = np.random.default_rng(3).standard_normal((30, 4096))
        return model, [LabeledSequence(FeatureSequence(frames), 7)]

    def test_training_step(self, paper_case):
        model, data = paper_case
        cfg = TrainConfig(learning_rate=0.1, epochs=1)
        assert traced_peak_mib(lambda: sgd_train(model, data, cfg)) < 24

    def test_evaluated_instance(self, paper_case):
        model, data = paper_case
        assert traced_peak_mib(lambda: evaluate(model, data)) < 8


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


class TestCheckpoint:
    @pytest.mark.parametrize(
        "kind,geometry",
        [(kind, dict(interval=2, n_filters=2, pyramid=(1, 2))) for kind in POOLING_KINDS]
        + [("oacp", dict(interval=3, stride=2, pyramid=(1, 2, 4)))],
        ids=[*POOLING_KINDS, "oacp-stride2"],
    )
    def test_roundtrip_is_bit_exact(self, kind, geometry, tmp_path):
        model = ClassifierModel.build(kind, 4, 3, sample_rate=5, seed=60, **geometry)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.spec == model.spec
        assert loaded.spec.sample_rate == 5
        assert parameter_bytes(loaded) == parameter_bytes(model)

    def test_writes_version_2_without_normalize(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(tiny_oacp_model(seed=68), path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 2
        assert "normalize" not in doc

    @pytest.mark.parametrize("kind", ["average", "max", "pyramid", "oacp"])
    def test_loads_version_1_with_normalize_false(self, kind, tmp_path):
        model = ClassifierModel.build(
            kind, 4, 3, interval=2, n_filters=2, pyramid=(1, 2), sample_rate=5, seed=69
        )
        path = tmp_path / "model.json"
        save_edited(model, path, format_version=1, normalize=False)
        loaded = load_model(path)
        assert loaded.spec == model.spec
        assert parameter_bytes(loaded) == parameter_bytes(model)

    @pytest.mark.parametrize(
        "fields", [{"normalize": True}, {"normalize": 0}, {}], ids=["true", "zero", "missing"]
    )
    def test_rejects_version_1_unless_normalize_false(self, fields, tmp_path):
        path = tmp_path / "model.json"
        save_edited(tiny_oacp_model(seed=70), path, format_version=1, **fields)
        with pytest.raises(ParseError, match="normalize"):
            load_model(path)

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "model.json"
        save_edited(tiny_oacp_model(seed=71), path, format_version=3)
        with pytest.raises(ParseError, match="version 3"):
            load_model(path)

    def test_loaded_model_predicts_identically(self, tmp_path):
        model = tiny_oacp_model(seed=61)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        seq = random_example(62, 6, 3, 2).sequence
        assert forward(model, seq)[0].tobytes() == forward(loaded, seq)[0].tobytes()

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

    def test_rejects_tampered_pooled_length(self, tmp_path):
        model = tiny_oacp_model(seed=63)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc["pooled_length"] += 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_model(path)

    @pytest.mark.parametrize(
        "kind,key,value",
        [
            ("oacp", "interval", 3),
            ("oacp", "n_filters", 5),
            ("oacp", "effective_receptive_field", 99),
            ("average", "interval", 8),
            ("max", "stride", 1),
            ("pyramid", "n_filters", 3),
            ("average", "effective_receptive_field", 1),
            ("max", "pyramid", [1, 2]),
        ],
    )
    def test_rejects_tampered_geometry(self, kind, key, value, tmp_path):
        model = ClassifierModel.build(kind, 3, 2, interval=2, n_filters=2, seed=65)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
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
        path = tmp_path / "model.json"
        save_edited(model, path, **{key: value})
        with pytest.raises(ParseError, match=f"{key} must be an integer"):
            load_model(path)

    def test_rejects_oversized_geometry(self, tmp_path):
        path = tmp_path / "model.json"
        save_edited(tiny_oacp_model(seed=66), path, stride=10**30)
        with pytest.raises(ParseError, match="minimum_frames"):
            load_model(path)
