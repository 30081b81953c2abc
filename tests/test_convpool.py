import numpy as np
import pytest

from helpers import conv_oracle

from oacpool.convpool import (
    FilterBankSet,
    conv_responses,
    oacp_forward_details,
    param_count_joint,
    param_count_perdim,
)
from oacpool.errors import DivergenceError, ShapeMismatchError, TooShortSequenceError
from oacpool.model import ClassifierModel, TrainConfig, sgd_train
from oacpool.pooling import PyramidConfig, average_pool, max_pool, segment_ranges
from oacpool.sequences import FeatureSequence, LabeledSequence

RISING_DETECTOR = FilterBankSet([[[-1.0, 1.0]]], [[0.0]])


def one_dim_bank(weights, biases, stride=1):
    """A one-dimension bank set from (n_filters, interval) weights and (n_filters,) biases."""
    return FilterBankSet(np.asarray(weights)[None], np.asarray(biases)[None], stride)


def one_dim_responses(signal, banks):
    """Post-ReLU responses (T_out, n_filters) of a one-dimension bank set on a 1D signal."""
    seq = FeatureSequence(np.asarray(signal, dtype=np.float64)[:, None])
    return oacp_forward_details(seq, banks, PyramidConfig((1,))).responses[:, :, 0]


class TestFilterBankTypes:
    def test_bank_shape_accessors(self):
        fbs = FilterBankSet(np.zeros((2, 3, 8)), np.zeros((2, 3)))
        assert fbs.num_dims == 2 and fbs.n_filters == 3 and fbs.interval == 8

    def test_bank_rejects_bias_count_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            FilterBankSet(np.zeros((1, 3, 8)), np.zeros((1, 2)))

    @pytest.mark.parametrize(
        "stride", [2.5, 2.0, True, np.float64(3.0)], ids=["2.5", "2.0", "True", "np.float64"]
    )
    def test_rejects_non_integer_stride(self, stride):
        with pytest.raises(ValueError, match="stride must be an integer"):
            FilterBankSet(np.zeros((1, 1, 2)), np.zeros((1, 1)), stride=stride)

    def test_numpy_integer_stride_becomes_int(self):
        fbs = FilterBankSet(np.zeros((1, 1, 2)), np.zeros((1, 1)), stride=np.int64(2))
        assert type(fbs.stride) is int and fbs.stride == 2

    def test_parameter_count_matches_formula(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            k = int(rng.integers(1, 7))
            n = int(rng.integers(1, 5))
            length = int(rng.integers(1, 6))
            fbs = FilterBankSet(np.zeros((k, n, length)), np.zeros((k, n)))
            assert fbs.weights.size + fbs.biases.size == param_count_perdim(k, length, n)


class TestConvDimForward:
    """The conv on one dimension's signal, through a one-dimension bank set."""

    def test_rising_ramp_detected(self):
        out = one_dim_responses([0.0, 1.0, 2.0, 3.0], RISING_DETECTOR)
        assert out.ravel().tolist() == [1.0, 1.0, 1.0]

    def test_falling_ramp_suppressed_by_relu(self):
        out = one_dim_responses([3.0, 2.0, 1.0, 0.0], RISING_DETECTOR)
        assert out.ravel().tolist() == [0.0, 0.0, 0.0]

    def test_signal_of_filter_length_gives_one_row(self):
        out = one_dim_responses(np.arange(5.0), one_dim_bank(np.ones((2, 5)), np.zeros(2)))
        assert out.shape == (1, 2)

    def test_too_short_signal(self):
        with pytest.raises(TooShortSequenceError):
            one_dim_responses([1.0], RISING_DETECTOR)

    def test_step_count_follows_stride_formula(self):
        rng = np.random.default_rng(35)
        for t in range(2, 12):
            for length in range(1, t + 1):
                for stride in (1, 2, 3):
                    bank = one_dim_bank(rng.standard_normal((1, length)), np.zeros(1), stride)
                    out = one_dim_responses(rng.standard_normal(t), bank)
                    assert out.shape[0] == len(range(0, t - length + 1, stride))

    def test_responses_nonnegative(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            bank = one_dim_bank(rng.standard_normal((3, 4)), rng.standard_normal(3))
            out = one_dim_responses(rng.standard_normal(12), bank)
            assert (out >= 0).all()

    def test_linear_before_activation_power_of_two_scaling(self):
        # scaling by a power of two is exact in floating point
        rng = np.random.default_rng(23)
        bank = one_dim_bank(rng.standard_normal((3, 4)), np.zeros(3))
        signal = rng.standard_normal(10)
        base = one_dim_responses(signal, bank)
        doubled = one_dim_responses(2.0 * signal, bank)
        assert np.array_equal(doubled, 2.0 * base)

    def test_linear_before_activation_general_scaling(self):
        rng = np.random.default_rng(24)
        bank = one_dim_bank(rng.standard_normal((3, 4)), np.zeros(3))
        signal = rng.standard_normal(10)
        base = one_dim_responses(signal, bank)
        scaled = one_dim_responses(1.7 * signal, bank)
        np.testing.assert_allclose(scaled, 1.7 * base, rtol=1e-12, atol=1e-15)

    def test_matches_naive_oracle_bit_exactly(self):
        rng = np.random.default_rng(25)
        for t in range(1, 7):
            for length in range(1, 4):
                if t < length:
                    continue
                for stride in (1, 2):
                    signal = rng.standard_normal(t)
                    weights = rng.standard_normal((2, length))
                    biases = rng.standard_normal(2)
                    got = one_dim_responses(signal, one_dim_bank(weights, biases, stride))
                    want = conv_oracle(signal, weights, biases, stride)
                    assert got.tobytes() == want.tobytes()


class TestConvResponsesAllDims:
    def test_matches_per_dimension_path_bit_exactly(self):
        rng = np.random.default_rng(26)
        frames = rng.standard_normal((9, 4))
        fbs = FilterBankSet(rng.standard_normal((4, 3, 2)), rng.standard_normal((4, 3)), stride=2)
        stacked = conv_responses(frames, fbs)
        for k in range(fbs.num_dims):
            single = FilterBankSet(fbs.weights[k : k + 1], fbs.biases[k : k + 1], fbs.stride)
            alone = conv_responses(frames[:, k : k + 1], single)
            assert stacked[:, :, k : k + 1].tobytes() == alone.tobytes()

    def test_row_blocks_match_the_oracle(self):
        # n * K = 6000 puts several blocks of output rows, the last one
        # partial, into one call
        rng = np.random.default_rng(32)
        frames = rng.standard_normal((40, 1500))
        fbs = FilterBankSet(rng.standard_normal((1500, 4, 3)), rng.standard_normal((1500, 4)))
        responses = np.maximum(conv_responses(frames, fbs), 0.0)
        for k in (0, 1, 777, 1499):
            want = conv_oracle(frames[:, k], fbs.weights[k], fbs.biases[k], fbs.stride)
            assert responses[:, :, k].tobytes() == want.tobytes()


class TestOacpForward:
    def test_identity_filter_reduces_to_max_pool(self):
        rng = np.random.default_rng(27)
        seq = FeatureSequence(rng.uniform(0.0, 1.0, (7, 1)))
        fbs = FilterBankSet(np.ones((1, 1, 1)), np.zeros((1, 1)))
        out = oacp_forward_details(seq, fbs, PyramidConfig((1,))).pooled
        assert np.array_equal(out, max_pool(seq))

    def test_output_length_for_high_dimensional_input(self):
        k = 10000
        seq = FeatureSequence(np.random.default_rng(28).standard_normal((9, k)))
        fbs = FilterBankSet(np.zeros((k, 3, 8)), np.zeros((k, 3)))
        assert oacp_forward_details(seq, fbs, PyramidConfig((1, 2))).pooled.shape == (90000,)

    def test_opposite_ramps_become_separable(self):
        fbs = RISING_DETECTOR
        cfg = PyramidConfig((1,))
        rising = FeatureSequence(np.array([0.0, 1.0, 2.0, 3.0])[:, None])
        falling = FeatureSequence(rising.frames[::-1])
        assert oacp_forward_details(rising, fbs, cfg).pooled.tolist() == [1.0]
        assert oacp_forward_details(falling, fbs, cfg).pooled.tolist() == [0.0]

    def test_output_length_property(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            n = int(rng.integers(1, 4))
            length = int(rng.integers(1, 4))
            levels = [1] + [int(rng.integers(1, 4)) for _ in range(int(rng.integers(0, 3)))]
            cfg = PyramidConfig(tuple(levels))
            t = length + cfg.max_segments + int(rng.integers(0, 10))
            seq = FeatureSequence(rng.standard_normal((t, k)))
            fbs = FilterBankSet(
                rng.standard_normal((k, n, length)), rng.standard_normal((k, n))
            )
            pooled = oacp_forward_details(seq, fbs, cfg).pooled
            assert pooled.shape == (k * n * cfg.total_segments,)

    def test_order_sensitive_where_plain_pooling_is_not(self):
        rng = np.random.default_rng(30)
        values = np.sort(rng.uniform(0.0, 1.0, 12))  # strictly increasing w.p. 1
        seq = FeatureSequence(values[:, None])
        rev = FeatureSequence(values[::-1][:, None])
        fbs = RISING_DETECTOR
        cfg = PyramidConfig((1, 2))
        assert not np.array_equal(
            oacp_forward_details(seq, fbs, cfg).pooled,
            oacp_forward_details(rev, fbs, cfg).pooled,
        )
        assert average_pool(seq).tobytes() == average_pool(rev).tobytes()
        assert max_pool(seq).tobytes() == max_pool(rev).tobytes()

    def test_dimension_mismatch(self):
        seq = FeatureSequence(np.zeros((6, 2)))
        fbs = FilterBankSet(np.zeros((3, 1, 2)), np.zeros((3, 1)))
        with pytest.raises(ShapeMismatchError):
            oacp_forward_details(seq, fbs, PyramidConfig((1,)))

    def test_propagates_too_short(self):
        seq = FeatureSequence(np.zeros((2, 1)))
        fbs = FilterBankSet(np.zeros((1, 1, 2)), np.zeros((1, 1)))
        with pytest.raises(TooShortSequenceError):
            # T_out = 1 cannot be split into 2 segments
            oacp_forward_details(seq, fbs, PyramidConfig((1, 2)))


def numpy_segment_pooling(responses, cfg):
    """(argmax, maxima) of every pyramid segment by np.argmax and np.max, each (M, n, K)."""
    ranges = segment_ranges(responses.shape[0], cfg)
    argmax = np.stack([a + responses[a:b].argmax(axis=0) for a, b in ranges])
    maxima = np.stack([responses[a:b].max(axis=0) for a, b in ranges])
    return argmax, maxima


def overflowing_conv_case():
    """Finite frames and banks whose conv overflows to inf and to inf - inf = NaN.

    Dimensions 0 and 2 get NaN responses from filter 0 (2 * 1e308 - 2 * 1e308)
    and inf from filter 1; dimension 2 has two NaN rows in level 1's segment.
    Dimension 1 stays finite.
    """
    frames = np.ones((12, 3))
    frames[[4, 5, 8], 0] = 1e308
    frames[:, 1] = np.arange(12.0)
    frames[[2, 3, 9, 10], 2] = 1e308
    weights = np.tile([[2.0, -2.0], [1.0, 1.0]], (3, 1, 1))
    return FeatureSequence(frames), FilterBankSet(weights, np.zeros((3, 2)))


class TestSegmentArgmax:
    """The segment argmax and maxima equal np.argmax's and np.max's, bytewise."""

    # 255 and 256 rows straddle the uint8 row weights, 65536 the uint16 ones
    @pytest.mark.parametrize("num_frames", [255, 256, 600, 65536])
    @pytest.mark.parametrize("levels", [(1,), (1, 2)])
    def test_long_segments(self, num_frames, levels):
        rng = np.random.default_rng(num_frames)
        frames = np.zeros((num_frames, 4))
        frames[[num_frames - 5, num_frames - 3], 0] = 1.0  # first maximum past row 255
        frames[:, 2] = rng.choice([-1.0, 0.0, 1.0], num_frames)
        frames[:, 3] = rng.standard_normal(num_frames)
        identity = FilterBankSet(np.ones((4, 1, 1)), np.zeros((4, 1)))
        cfg = PyramidConfig(levels)
        details = oacp_forward_details(FeatureSequence(frames), identity, cfg)
        argmax, maxima = numpy_segment_pooling(details.responses, cfg)
        assert details.segment_argmax.tobytes() == argmax.tobytes()
        assert details.pooled.tobytes() == maxima.transpose(2, 0, 1).ravel().tobytes()
        assert details.segment_argmax[0, 0, 0] == num_frames - 5
        assert details.segment_argmax[0, 0, 1] == 0
        for buffer in (details.pre_activation, details.responses, details.segment_argmax):
            assert buffer.flags.c_contiguous

    def test_overflow_to_nan_takes_the_first_nan_as_argmax(self):
        seq, banks = overflowing_conv_case()
        cfg = PyramidConfig((1, 2))
        with np.errstate(over="ignore", invalid="ignore"):
            details = oacp_forward_details(seq, banks, cfg)
        argmax, maxima = numpy_segment_pooling(details.responses, cfg)
        assert np.isnan(details.responses).any() and np.isinf(details.responses).any()
        assert details.segment_argmax.tobytes() == argmax.tobytes()
        assert np.array_equal(
            details.pooled, maxima.transpose(2, 0, 1).ravel(), equal_nan=True
        )
        assert details.segment_argmax[:, 0, 2].tolist() == [2, 2, 9]

    def test_overflow_to_nan_is_a_training_divergence(self):
        seq, banks = overflowing_conv_case()
        model = ClassifierModel.build("oacp", 3, 2, interval=2, n_filters=2, seed=0)
        model.filter_banks = banks
        data = [LabeledSequence(seq, 0)]
        cfg = TrainConfig(learning_rate=0.1, epochs=1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError, match="epoch 0, instance 0"):
                sgd_train(model, data, cfg)


class TestParameterCounts:
    def test_joint_counts_from_reference_shapes(self):
        assert param_count_joint(10000, 8, 4000) == 320_004_000
        assert param_count_joint(10000, 5, 4000) == 200_004_000
        assert param_count_joint(1, 1, 1) == 2

    def test_perdim_counts_include_biases(self):
        assert param_count_perdim(10000, 8, 3) == 270_000
        assert param_count_perdim(10000, 5, 3) == 180_000
        assert param_count_perdim(1, 1, 1) == 2

    def test_perdim_stays_below_joint_beyond_bias_threshold(self):
        # perdim <= joint iff n*(l*K + 1) >= K*n_bar*(l + 1); n >= n_bar alone
        # is not enough because perdim carries K*n_bar biases vs the joint
        # layer's n.  Both counts are monotone in n, so checking the exact
        # threshold covers everything above it.
        rng = np.random.default_rng(31)
        for _ in range(200):
            k = int(rng.integers(1, 10000))
            length = int(rng.integers(1, 20))
            n_bar = int(rng.integers(1, 10))
            threshold = -(-k * n_bar * (length + 1) // (length * k + 1))  # ceil division
            n = threshold + int(rng.integers(0, 5000))
            assert param_count_perdim(k, length, n_bar) <= param_count_joint(k, length, n)
            if threshold > 1:
                assert param_count_perdim(k, length, n_bar) > param_count_joint(
                    k, length, threshold - 1
                )

    def test_reference_shapes_give_three_orders_of_magnitude_reduction(self):
        ratio = param_count_joint(10000, 8, 4000) / param_count_perdim(10000, 8, 3)
        assert ratio > 1000

    def test_rejects_non_positive_arguments(self):
        with pytest.raises(ValueError):
            param_count_joint(0, 1, 1)
        with pytest.raises(ValueError):
            param_count_perdim(1, 0, 1)
