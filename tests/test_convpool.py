import numpy as np
import pytest

from helpers import (
    conv_oracle,
    conv_pre_oracle,
    numpy_segment_pooling,
    overflowing_conv_case,
    traced_peak_mib,
)

from oacpool.convpool import (
    FilterBankSet,
    _oacp_pooled,
    conv_responses,
    oacp_forward_details,
    param_count_joint,
    param_count_perdim,
)
from oacpool.errors import DivergenceError, ShapeMismatchError, TooShortSequenceError
from oacpool.model import ClassifierModel, TrainConfig, evaluate, forward, sgd_train
from oacpool.pooling import (
    PyramidConfig,
    average_pool,
    max_pool,
    segment_ranges,
    temporal_pyramid_pool,
)
from oacpool.sequences import FeatureSequence, LabeledSequence

RISING_DETECTOR = FilterBankSet([[[-1.0, 1.0]]], [[0.0]])


def one_dim_bank(weights, biases, stride=1):
    """A one-dimension bank set from (n_filters, interval) weights and (n_filters,) biases."""
    return FilterBankSet(np.asarray(weights)[None], np.asarray(biases)[None], stride)


def one_dim_responses(signal, banks):
    """Post-ReLU responses (T_out, n_filters) of a one-dimension bank set on a 1D signal."""
    seq = FeatureSequence(np.asarray(signal, dtype=np.float64)[:, None])
    details = oacp_forward_details(seq, banks, PyramidConfig((1,)))
    return np.maximum(details.pre_activation, 0.0)[:, :, 0]


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
        stacked = conv_responses(FeatureSequence(frames), fbs)
        for k in range(fbs.num_dims):
            single = FilterBankSet(fbs.weights[k : k + 1], fbs.biases[k : k + 1], fbs.stride)
            alone = conv_responses(FeatureSequence(frames[:, k : k + 1]), single)
            assert stacked[:, :, k : k + 1].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("width, num_dims", [(1, 4), (3, 4), (2, 1)])
    def test_rejects_frames_of_another_width(self, width, num_dims):
        # one column against four dimensions would broadcast to all four
        fbs = FilterBankSet(np.ones((num_dims, 2, 3)), np.zeros((num_dims, 2)))
        message = f"sequence has {width} dimensions but the bank set has {num_dims}"
        with pytest.raises(ShapeMismatchError, match=message):
            conv_responses(FeatureSequence(np.ones((6, width))), fbs)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("t_out", [32, 33])
    def test_desk_width_matches_the_oracle(self, stride, t_out):
        # K = 64, n = 4, l = 8, negative sums included
        rng = np.random.default_rng(40 + stride)
        frames = rng.standard_normal((8 + (t_out - 1) * stride, 64))
        fbs = FilterBankSet(rng.standard_normal((64, 4, 8)), rng.standard_normal((64, 4)), stride)
        pre = conv_responses(FeatureSequence(frames), fbs)
        assert pre.shape == (t_out, 4, 64) and pre.flags.c_contiguous
        for k in range(64):
            want = conv_pre_oracle(frames[:, k], fbs.weights[k], fbs.biases[k], stride)
            assert pre[:, :, k].tobytes() == want.tobytes()

    @pytest.mark.parametrize("interval", range(8, 17))
    def test_one_dimension_matches_the_oracle(self, interval):
        # K = n = 1 leaves only the tap axis to sum over, the corner where
        # NumPy's own reduction order would differ from the oracle's
        rng = np.random.default_rng(60 + interval)
        for num_frames in range(interval, interval + 3):
            for stride in (1, 2, 3):
                frames = rng.standard_normal((num_frames, 1))
                fbs = FilterBankSet(
                    rng.standard_normal((1, 1, interval)), rng.standard_normal((1, 1)), stride
                )
                pre = conv_responses(FeatureSequence(frames), fbs)
                want = conv_pre_oracle(frames[:, 0], fbs.weights[0], fbs.biases[0], stride)
                assert pre.flags.c_contiguous
                assert pre[:, :, 0].tobytes() == want.tobytes(), (num_frames, stride)

    @pytest.mark.parametrize(
        "num_frames, num_dims, ratio", [(30, 4096, 1.1), (150, 4096, 1.1), (40, 64, 3.0)]
    )
    def test_allocates_little_beyond_its_output(self, num_frames, num_dims, ratio):
        rng = np.random.default_rng(61)
        seq = FeatureSequence(rng.standard_normal((num_frames, num_dims)))
        fbs = FilterBankSet(
            rng.standard_normal((num_dims, 3, 8)), rng.standard_normal((num_dims, 3))
        )
        output_mib = conv_responses(seq, fbs).nbytes / 2**20  # and a warm-up call
        assert traced_peak_mib(lambda: conv_responses(seq, fbs)) <= ratio * output_mib

    @pytest.mark.parametrize("t_out", [32, 33])
    @pytest.mark.parametrize("bias", [0.0, -0.0])
    def test_negative_zero_products_sum_to_positive_zero(self, t_out, bias):
        # every tap product is 1.0 * -0.0; the oracle sums them onto +0.0,
        # and +0.0 plus a bias of either sign stays +0.0
        frames = np.full((8 + t_out - 1, 64), -0.0)
        fbs = FilterBankSet(np.ones((64, 4, 8)), np.full((64, 4), bias))
        pre = conv_responses(FeatureSequence(frames), fbs)
        want = conv_pre_oracle(frames[:, 0], fbs.weights[0], fbs.biases[0], 1)
        assert not np.signbit(want).any()
        assert not np.signbit(pre).any() and not pre.any()

    def test_wide_bank_matches_the_oracle(self):
        # n * K = 6000 responses per output row, negative sums included
        rng = np.random.default_rng(32)
        frames = rng.standard_normal((40, 1500))
        fbs = FilterBankSet(rng.standard_normal((1500, 4, 3)), rng.standard_normal((1500, 4)))
        pre = conv_responses(FeatureSequence(frames), fbs)
        for k in (0, 1, 777, 1499):
            want = conv_pre_oracle(frames[:, k], fbs.weights[k], fbs.biases[k], fbs.stride)
            assert pre[:, :, k].tobytes() == want.tobytes()


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


# Each site that reads a pyramid, called with a (10, 3) sequence, two filters of two taps.
PYRAMID_SITES = {
    "segment_ranges": lambda seq, banks, cfg: segment_ranges(seq.num_frames, cfg),
    "temporal_pyramid_pool": lambda seq, banks, cfg: temporal_pyramid_pool(seq, cfg),
    "oacp_forward_details": oacp_forward_details,
    "_oacp_pooled": _oacp_pooled,
}


class TestPyramidType:
    """A pyramid that is not a PyramidConfig is a ValueError naming its type."""

    @pytest.mark.parametrize("site", list(PYRAMID_SITES))
    @pytest.mark.parametrize("levels", [(1, 2), [1, 2]], ids=["tuple", "list"])
    def test_bare_levels_are_refused(self, site, levels):
        seq = FeatureSequence(np.ones((10, 3)))
        banks = FilterBankSet(np.ones((3, 2, 2)), np.zeros((3, 2)))
        call = PYRAMID_SITES[site]
        call(seq, banks, PyramidConfig(tuple(levels)))  # the same levels as a config pass
        message = f"cfg must be a PyramidConfig, got {type(levels).__name__}"
        with pytest.raises(ValueError, match="^" + message + "$"):
            call(seq, banks, levels)


class TestSegmentArgmax:
    """The segment argmax and maxima equal np.argmax's and np.max's, bytewise.

    A pooled maximum of inf or NaN has no argmax to route: it raises.
    """

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
        argmax, maxima = numpy_segment_pooling(np.maximum(details.pre_activation, 0.0), cfg)
        assert details.segment_argmax.tobytes() == argmax.tobytes()
        assert details.pooled.tobytes() == maxima.transpose(2, 0, 1).ravel().tobytes()
        assert details.segment_argmax[0, 0, 0] == num_frames - 5
        assert details.segment_argmax[0, 0, 1] == 0
        for buffer in (details.pre_activation, details.segment_argmax):
            assert buffer.flags.c_contiguous

    # (1, 2, 3) over 11 rows cuts pieces that levels 2 and 3 do not share
    @pytest.mark.parametrize("levels", [(1, 2), (1, 2, 3)], ids=["1-2", "1-2-3"])
    def test_overflow_raises(self, levels):
        seq, banks = overflowing_conv_case()
        model = ClassifierModel.build("oacp", 3, 2, interval=2, n_filters=2, pyramid=levels)
        model.filter_banks = banks
        message = "pooled responses contain NaN or infinite values"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=message):
                oacp_forward_details(seq, banks, PyramidConfig(levels))
            with pytest.raises(ValueError, match=message):
                forward(model, seq)
        data = [LabeledSequence(FeatureSequence(np.ones((12, 3))), 0), LabeledSequence(seq, 1)]
        with pytest.raises(DivergenceError, match=f"^evaluation of instance 1: {message}$"):
            evaluate(model, data)

    @staticmethod
    def saturated_case(weight):
        """Frames of 1e308 under taps of weight, so every response is inf or every one -inf."""
        frames = np.full((9, 2), 1e308)
        return FeatureSequence(frames), FilterBankSet(np.full((2, 2, 2), weight), np.zeros((2, 2)))

    def test_infinite_responses_raise(self):
        seq, banks = self.saturated_case(2.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="pooled responses contain NaN or infinite"):
                oacp_forward_details(seq, banks, PyramidConfig((1, 2)))

    def test_all_negative_infinite_responses_pool_to_zero(self):
        seq, banks = self.saturated_case(-2.0)
        cfg = PyramidConfig((1, 2))
        with np.errstate(over="ignore"):
            details = oacp_forward_details(seq, banks, cfg)
        assert np.isneginf(details.pre_activation).all()
        argmax, maxima = numpy_segment_pooling(np.maximum(details.pre_activation, 0.0), cfg)
        assert details.segment_argmax.tobytes() == argmax.tobytes()
        assert details.pooled.tobytes() == maxima.transpose(2, 0, 1).ravel().tobytes()
        assert details.pooled.shape == (12,) and not details.pooled.any()
        assert (details.segment_argmax == np.array([0, 0, 4])[:, None, None]).all()

    def test_an_overflow_raises_before_the_argmax_pass(self):
        # the conv's output and two (1, n, K) piece arrays read 1.09 times
        # the output; the argmax pass would add its row hits, near 1.4
        rng = np.random.default_rng(62)
        frames = rng.standard_normal((30, 4096))
        frames[5, 0] = 1e308
        weights = rng.standard_normal((4096, 3, 8))
        weights[0] = 2.0
        seq, banks = FeatureSequence(frames), FilterBankSet(weights, np.zeros((4096, 3)))
        output_mib = conv_responses(seq, banks).nbytes / 2**20

        def overflowing_forward():
            with pytest.raises(ValueError, match="pooled responses"):
                oacp_forward_details(seq, banks, PyramidConfig((1,)))

        with np.errstate(over="ignore"):
            overflowing_forward()  # a warm-up call
            assert traced_peak_mib(overflowing_forward) <= 1.2 * output_mib

    def test_overflow_to_nan_is_a_training_divergence(self):
        seq, banks = overflowing_conv_case()
        model = ClassifierModel.build("oacp", 3, 2, interval=2, n_filters=2, seed=0)
        model.filter_banks = banks
        data = [LabeledSequence(seq, 0)]
        cfg = TrainConfig(learning_rate=0.1, epochs=1)
        with pytest.raises(DivergenceError, match="epoch 0, instance 0: pooled responses"):
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

    @pytest.mark.parametrize("count", [param_count_joint, param_count_perdim])
    @pytest.mark.parametrize(
        "args, message",
        [
            ((2.5, 8, 3), "num_dims must be an integer, got 2.5"),
            ((True, 8, 3), "num_dims must be an integer, got True"),
            ((4, 0, 3), "interval must be >= 1, got 0"),
            ((4, 8, 3.0), "n_filters must be an integer, got 3.0"),
        ],
        ids=["num_dims-2.5", "num_dims-True", "interval-0", "n_filters-3.0"],
    )
    def test_checks_each_count_by_name(self, count, args, message):
        with pytest.raises(ValueError, match=message):
            count(*args)
