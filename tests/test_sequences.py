import re

import numpy as np
import pytest

from helpers import traced_peak_mib
from oacpool.convpool import FilterBankSet
from oacpool.dimreduce import lloyd_kmeans
from oacpool.errors import ShapeMismatchError
from oacpool.harness import SyntheticSpec
from oacpool.model import ClassifierModel, PoolingSpec, TrainConfig, grad_check, instance_loss
from oacpool.pooling import partition_segments
from oacpool.sequences import (
    FeatureSequence,
    LabeledSequence,
    _checked_floats,
    replicate_pad,
    sample_frames,
)


class TestFeatureSequence:
    def test_stores_float64_readonly(self):
        seq = FeatureSequence([[1, 2], [3, 4]])
        assert seq.frames.dtype == np.float64
        assert not seq.frames.flags.writeable
        with pytest.raises(ValueError):
            seq.frames[0, 0] = 9.0

    def test_shape_accessors(self):
        seq = FeatureSequence(np.zeros((5, 3)))
        assert seq.num_frames == 5
        assert seq.num_features == 3

    @pytest.mark.parametrize(
        "bad",
        [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros(4), np.zeros((2, 2, 2))],
    )
    def test_rejects_bad_shapes(self, bad):
        with pytest.raises(ValueError):
            FeatureSequence(bad)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FeatureSequence([[1.0, np.nan]])
        with pytest.raises(ValueError):
            FeatureSequence([[np.inf], [0.0]])

    def test_value_equality(self):
        a = FeatureSequence([[1.0, 2.0]])
        assert a == FeatureSequence([[1.0, 2.0]])
        assert a != FeatureSequence([[1.0, 3.0]])
        assert a != FeatureSequence([[1.0, 2.0], [1.0, 2.0]])


class TestLabeledSequence:
    def test_label_coerced_to_int(self):
        item = LabeledSequence(FeatureSequence([[0.0]]), np.int64(2))
        assert item.label == 2 and type(item.label) is int

    def test_rejects_negative_and_bool_labels(self):
        # one error type for every bad label, as DatasetManifest raises
        seq = FeatureSequence([[0.0]])
        with pytest.raises(ValueError, match="label must be >= 0"):
            LabeledSequence(seq, -1)
        for label in (True, 1.7, 2.0, "1"):
            with pytest.raises(ValueError, match="label must be an integer"):
                LabeledSequence(seq, label)

    @pytest.mark.parametrize(
        "sequence, type_name",
        [([[1.0, 2.0]], "list"), (np.ones((2, 2)), "ndarray"), (None, "NoneType")],
    )
    def test_rejects_a_sequence_that_is_not_a_record(self, sequence, type_name):
        message = f"sequence must be a FeatureSequence, got {type_name}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            LabeledSequence(sequence, 0)


class TestSampleFrames:
    def test_every_fifth_frame(self):
        seq = FeatureSequence(np.arange(20.0).reshape(10, 2))
        out = sample_frames(seq, 5)
        assert out.num_frames == 2
        assert np.array_equal(out.frames, seq.frames[[0, 5]])

    def test_rate_one_returns_the_same_sequence(self):
        seq = FeatureSequence(np.arange(6.0).reshape(3, 2))
        assert sample_frames(seq, 1) is seq

    def test_rate_one_is_identity(self):
        seq = FeatureSequence(np.random.default_rng(0).standard_normal((7, 3)))
        assert sample_frames(seq, 1) == seq

    def test_indices_follow_stride_formula(self):
        seq = FeatureSequence(np.arange(7.0)[:, None])
        out = sample_frames(seq, 3)
        assert out.frames.ravel().tolist() == [0.0, 3.0, 6.0]

    def test_rate_beyond_length_keeps_first_frame(self):
        seq = FeatureSequence(np.arange(4.0)[:, None])
        out = sample_frames(seq, 100)
        assert out.num_frames == 1
        assert out.frames[0, 0] == 0.0

    def test_rejects_rate_below_one(self):
        with pytest.raises(ValueError):
            sample_frames(FeatureSequence([[0.0]]), 0)

    @pytest.mark.parametrize("rate", [True, 2.5, 2.0, "2", None])
    def test_rejects_a_rate_that_is_not_an_integer_by_name(self, rate):
        with pytest.raises(ValueError, match="sampling rate must be an integer"):
            sample_frames(FeatureSequence(np.zeros((4, 2))), rate)

    def test_numpy_integer_rate(self):
        seq = FeatureSequence(np.arange(6.0)[:, None])
        assert sample_frames(seq, np.int64(2)) == sample_frames(seq, 2)

    def test_composition_of_rates(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            t = int(rng.integers(1, 30))
            r1 = int(rng.integers(1, 5))
            r2 = int(rng.integers(1, 5))
            seq = FeatureSequence(rng.standard_normal((t, 2)))
            assert sample_frames(seq, r1 * r2) == sample_frames(
                sample_frames(seq, r1), r2
            )


class TestReplicatePad:
    def test_repeats_last_frame(self):
        seq = FeatureSequence([[1.0, 2.0], [3.0, 4.0]])
        out = replicate_pad(seq, 5)
        assert out.num_frames == 5
        assert np.array_equal(out.frames[2:], np.tile([3.0, 4.0], (3, 1)))

    def test_noop_when_long_enough(self):
        seq = FeatureSequence(np.zeros((4, 2)))
        assert replicate_pad(seq, 3) is seq

    @pytest.mark.parametrize("min_frames", [True, 2.5, 3.0, "3", None])
    def test_rejects_a_count_that_is_not_an_integer_by_name(self, min_frames):
        with pytest.raises(ValueError, match="min_frames must be an integer"):
            replicate_pad(FeatureSequence(np.zeros((2, 2))), min_frames)

    def test_rejects_a_count_below_one(self):
        with pytest.raises(ValueError, match="min_frames must be >= 1, got 0"):
            replicate_pad(FeatureSequence(np.zeros((2, 2))), 0)

    def test_numpy_integer_count(self):
        seq = FeatureSequence([[1.0], [2.0]])
        assert replicate_pad(seq, np.int32(4)) == replicate_pad(seq, 4)


# Each intake site: name -> (good shape, call taking the values to check).  The
# bank and head calls give every other argument a valid value.
INTAKE_SITES = {
    "frames": ((4, 3), FeatureSequence),
    "weights": ((3, 2, 2), lambda v: FilterBankSet(v, np.zeros((3, 2)))),
    "biases": ((3, 2), lambda v: FilterBankSet(np.ones((3, 2, 2)), v)),
    "w_head": (
        (2, 3),
        lambda v: ClassifierModel(PoolingSpec("average"), 3, 2, w_head=v, b_head=np.zeros(2)),
    ),
    "b_head": (
        (2,),
        lambda v: ClassifierModel(PoolingSpec("average"), 3, 2, w_head=np.ones((2, 3)), b_head=v),
    ),
    "points": ((4, 3), lambda v: lloyd_kmeans(v, 1)),
    "probs": ((2,), lambda v: instance_loss(v, 0)),
}


def _with(shape, value):
    """A ones array of shape holding value at its last position."""
    arr = np.ones(shape)
    arr.flat[-1] = value
    return arr


# Each bad input: case -> (values made from the good shape, expected text).
BAD_INTAKE = {
    "axes": (lambda shape: np.ones(shape + (1,)), "{name} must be {ndim}-D, got shape "),
    "empty": (lambda shape: np.ones((0,) + shape[1:]), "{name} must be nonempty"),
    "nan": (lambda shape: _with(shape, np.nan), "{name} contains NaN or infinite values"),
    "inf": (lambda shape: _with(shape, np.inf), "{name} contains NaN or infinite values"),
    "nested-list": (
        lambda shape: _with(shape, -np.inf).tolist(),
        "{name} contains NaN or infinite values",
    ),
}


# Values of a dtype that holds no real numbers, made from the good shape.
NOT_REAL = {
    "str": lambda shape: np.full(shape, "1.5"),
    "str-list": lambda shape: np.full(shape, "2").tolist(),
    "bytes": lambda shape: np.full(shape, b"1"),
    "object": lambda shape: np.ones(shape, dtype=object),
    "datetime": lambda shape: np.full(shape, np.datetime64("2020-01-02", "D")),
    "timedelta": lambda shape: np.full(shape, np.timedelta64(1, "s")),
    "complex": lambda shape: np.ones(shape, dtype=complex),
    "void": lambda shape: np.zeros(shape, dtype="V8"),
}


class TestIntakeRule:
    """Frames, filter banks, head parameters, k-means points and probabilities share one rule."""

    @pytest.mark.parametrize("site", sorted(INTAKE_SITES))
    @pytest.mark.parametrize("case", list(BAD_INTAKE))
    def test_bad_values_raise_the_shared_texts(self, site, case):
        shape, call = INTAKE_SITES[site]
        make, text = BAD_INTAKE[case]
        call(np.ones(shape))  # the good values pass
        if site.endswith("_head") and case in ("axes", "empty"):
            # the head's shape is fixed by the model, so its own check, which
            # runs first, names the expected shape
            expected, text = ShapeMismatchError, "{name} shape "
        else:
            expected = ValueError
        message = text.format(name=site, ndim=len(shape))
        with pytest.raises(expected, match="^" + re.escape(message)):
            call(make(shape))

    @pytest.mark.parametrize("site", sorted(INTAKE_SITES))
    @pytest.mark.parametrize("case", list(NOT_REAL))
    def test_values_that_are_not_real_numbers_name_their_dtype(self, site, case):
        shape, call = INTAKE_SITES[site]
        values = NOT_REAL[case](shape)
        message = f"{site} must hold real numbers, got dtype {np.asarray(values).dtype}"
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call(values)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint16, np.int64, np.float32])
    def test_bool_integer_and_float_values_pass(self, dtype):
        values = np.arange(12).reshape(4, 3).astype(dtype)
        assert np.array_equal(FeatureSequence(values).frames, values.astype(np.float64))

    def test_float64_values_are_checked_without_a_copy(self):
        values = np.arange(12.0).reshape(4, 3)
        assert np.shares_memory(_checked_floats(values, 2, "frames"), values)

    def test_a_sequence_keeps_no_reference_to_its_input(self):
        values = np.arange(12.0).reshape(4, 3)
        seq = FeatureSequence(values)
        values[...] = -1.0
        assert np.array_equal(seq.frames, np.arange(12.0).reshape(4, 3))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(3, 2, 4), (1, 1, 4)], ids=["K3-n2", "K1-n1"])
    def test_a_bank_set_keeps_no_reference_to_its_input(self, shape, order):
        # the taps' transpose of Fortran-ordered weights, or of any weights
        # at K = n = 1, is already C-contiguous, so only an unconditional
        # copy owns it
        weights = np.array(np.arange(np.prod(shape), dtype=float).reshape(shape), order=order)
        biases = np.array(np.ones(shape[:2]), order=order)
        banks = FilterBankSet(weights, biases)
        expected = weights.copy(), biases.copy()
        weights[...] = -1.0
        biases[...] = -1.0
        assert np.array_equal(banks.weights, expected[0])
        assert np.array_equal(banks.biases, expected[1])
        banks.weights[...] = 7.0  # and training writes only the set's storage
        assert (weights == -1.0).all()

    def test_a_model_keeps_no_reference_to_its_head_input(self):
        w_head, b_head = np.ones((2, 3)), np.zeros(2)
        model = ClassifierModel(PoolingSpec("average"), 3, 2, w_head=w_head, b_head=b_head)
        w_head[...] = -1.0
        b_head[...] = -1.0
        assert (model.w_head == 1.0).all() and (model.b_head == 0.0).all()

    def test_a_paper_shape_bank_set_is_copied_once(self):
        # (4096, 3, 8) taps: the check adds a bool array of 1/8 their bytes,
        # and a second copy of the weights would read over 2x
        rng = np.random.default_rng(29)
        weights, biases = rng.uniform(-1.0, 1.0, (4096, 3, 8)), np.zeros((4096, 3))
        peak = traced_peak_mib(lambda: FilterBankSet(weights, biases))
        assert peak <= 1.3 * weights.nbytes / 2**20


def _grad_check_eps(eps):
    example = LabeledSequence(FeatureSequence(np.arange(6.0).reshape(3, 2)), 1)
    return grad_check(ClassifierModel.build("average", 2, 2), example, eps)


# Each scalar site: (call taking the value, a bad value, the text it raises).
# The first three take real numbers (see real_number), partition_segments
# takes a frame count (see positive_int).
SCALAR_SITES = {
    "learning_rate": (lambda v: TrainConfig(v, 1), "0.1", "learning_rate must be a real number"),
    "noise_sigma": (
        lambda v: SyntheticSpec("trend-pair", noise_sigma=v),
        "0.1",
        "noise_sigma must be a real number",
    ),
    "eps": (_grad_check_eps, "1e-5", "eps must be a real number"),
    "num_frames-float": (lambda v: partition_segments(v, 2), 10.5, "num_frames must be an integer"),
    "num_frames-bool": (lambda v: partition_segments(v, 1), True, "num_frames must be an integer"),
}


class TestScalarSettings:
    """A scalar setting that is not a number of its kind is a ValueError naming it."""

    @pytest.mark.parametrize("site", list(SCALAR_SITES))
    def test_bad_scalars_raise_value_errors_naming_the_setting(self, site):
        call, value, text = SCALAR_SITES[site]
        with pytest.raises(ValueError, match="^" + re.escape(text)):
            call(value)

    @pytest.mark.parametrize("value", [None, 1j, b"1", [0.1], np.array([0.1])])
    def test_other_non_real_values(self, value):
        with pytest.raises(ValueError, match="^learning_rate must be a real number, got "):
            TrainConfig(value, 1)

    @pytest.mark.parametrize("value", [np.float32(0.5), np.int64(1), np.float64(0.25), 0])
    def test_numpy_and_python_reals_pass(self, value):
        assert TrainConfig(value, 1).learning_rate is value
        assert SyntheticSpec("trend-pair", noise_sigma=value).noise_sigma is value
