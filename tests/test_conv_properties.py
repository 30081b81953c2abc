"""Property tests of the conv and pooled maxima; skipped when hypothesis is missing."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import conv_oracle, numpy_segment_pooling

from oacpool.convpool import (
    FilterBankSet,
    _oacp_pooled,
    conv_responses,
    oacp_forward_details,
)
from oacpool.pooling import PyramidConfig, segment_ranges, temporal_pyramid_pool
from oacpool.sequences import FeatureSequence


# Few distinct values: tied rows, and segments that the ReLU zeroes out
# entirely, are common.
TIE_HEAVY = st.sampled_from([-1.0, 0.0, 1.0])


@st.composite
def conv_cases(draw, values=st.floats(-4.0, 4.0), bias_values=None, at_minimum=False):
    """Frames, a bank set and a poolable pyramid over small random geometries.

    bias_values, if given, draws the biases.  With at_minimum the pyramid is
    drawn first and T is exactly the minimum_frames it needs.
    """
    num_dims = draw(st.integers(1, 6))
    stride = draw(st.integers(1, 3))
    interval = draw(st.integers(1, 8))
    n_filters = draw(st.integers(1, 4))
    if at_minimum:
        levels = draw(st.lists(st.integers(1, 6), max_size=2))
        num_frames = interval + stride * (max(levels, default=1) - 1)
    else:
        num_frames = draw(st.integers(interval, 40))
        t_out = (num_frames - interval) // stride + 1
        levels = draw(st.lists(st.integers(1, t_out), max_size=2))
    frames = draw(hnp.arrays(np.float64, (num_frames, num_dims), elements=values))
    weights = draw(hnp.arrays(np.float64, (num_dims, n_filters, interval), elements=values))
    bias_elements = values if bias_values is None else bias_values
    biases = draw(hnp.arrays(np.float64, (num_dims, n_filters), elements=bias_elements))
    return frames, FilterBankSet(weights, biases, stride), PyramidConfig((1, *levels))


def check_against_oracles(frames, banks, cfg):
    """Conv against the naive oracle, pooled maxima and argmax against NumPy's, bytewise."""
    responses = np.maximum(conv_responses(FeatureSequence(frames), banks), 0.0)
    for k in range(banks.num_dims):
        want = conv_oracle(frames[:, k], banks.weights[k], banks.biases[k], banks.stride)
        assert responses[:, :, k].tobytes() == want.tobytes()
    details = oacp_forward_details(FeatureSequence(frames), banks, cfg)
    responses = np.maximum(details.pre_activation, 0.0)
    ranges = segment_ranges(responses.shape[0], cfg)
    maxima = np.stack([responses[a:b].max(axis=0) for a, b in ranges])
    assert details.pooled.tobytes() == maxima.transpose(2, 0, 1).ravel().tobytes()
    want = np.stack([a + responses[a:b].argmax(axis=0) for a, b in ranges])
    got = details.segment_argmax
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def one_dimension_eight_taps():
    # K = n = T_out = 1: the tap axis is the only one the conv sums over, and
    # a positive response whose last bit depends on the order of the sum
    rng = np.random.default_rng(2)
    frames = rng.uniform(-4.0, 4.0, (8, 1))
    weights = rng.uniform(-4.0, 4.0, (1, 1, 8))
    biases = rng.uniform(-4.0, 4.0, (1, 1))
    return frames, FilterBankSet(weights, biases), PyramidConfig((1,))


class TestConvProperties:
    """Several dimensions at once, where the conv accumulates with K innermost."""

    @settings(derandomize=True, deadline=None)
    @given(conv_cases())
    @example(one_dimension_eight_taps())
    def test_every_dimension_matches_the_oracle_and_maxima_are_exact(self, case):
        check_against_oracles(*case)

    @settings(derandomize=True, deadline=None)
    @given(conv_cases(values=TIE_HEAVY))
    def test_tied_and_all_zero_segments_match_the_oracles(self, case):
        check_against_oracles(*case)


def pooled_bytes_agree(frames, banks, cfg):
    """The pooled-only forward's vector, and oacp_forward_details' pooled, bytewise; the vector."""
    seq = FeatureSequence(frames)
    pooled = _oacp_pooled(seq, banks, cfg)
    want = oacp_forward_details(seq, banks, cfg).pooled
    assert pooled.dtype == want.dtype and pooled.shape == want.shape
    assert pooled.tobytes() == want.tobytes()
    return pooled


# Whole numbers: tied responses, and ties across piece boundaries, are frequent.
WHOLE = st.integers(-3, 3).map(float)


class TestPooledOnlyForward:
    """The forward without an argmax pass pools the bytes the training forward pools."""

    @settings(derandomize=True, deadline=None)
    @given(conv_cases())
    @example(one_dimension_eight_taps())
    def test_random_geometries(self, case):
        pooled_bytes_agree(*case)

    @settings(derandomize=True, deadline=None)
    @given(conv_cases(at_minimum=True))
    def test_sequences_of_exactly_minimum_frames(self, case):
        frames, banks, cfg = case
        assert (frames.shape[0] - banks.interval) // banks.stride + 1 == cfg.max_segments
        pooled_bytes_agree(*case)

    @settings(derandomize=True, deadline=None)
    @given(conv_cases(values=WHOLE))
    def test_whole_number_frames_and_banks(self, case):
        pooled_bytes_agree(*case)

    @settings(derandomize=True, deadline=None)
    @given(conv_cases(bias_values=st.floats(-1e3, -200.0)))
    def test_strongly_negative_biases_pool_every_slot_to_zero(self, case):
        # l <= 8 taps of |w * x| <= 16 stay far above a bias of -200
        pooled = pooled_bytes_agree(*case)
        assert pooled.tobytes() == np.zeros_like(pooled).tobytes()


# Levels whose boundaries do not nest cut segments into several pieces.
PYRAMIDS = [(1, 2), (1, 2, 3), (1, 3, 4), (1, 2, 4), (1, 4, 3)]


@st.composite
def pooling_cases(draw, values=TIE_HEAVY):
    """(T, K) frames of few distinct values, and a pyramid over those rows."""
    levels = draw(st.sampled_from(PYRAMIDS))
    num_frames = draw(st.integers(max(levels), 30))
    num_dims = draw(st.integers(1, 4))
    frames = draw(hnp.arrays(np.float64, (num_frames, num_dims), elements=values))
    return frames, levels


def tie_across_a_piece_boundary():
    # (1, 2, 3) over 12 rows cuts the pieces [0, 4), [4, 6), [6, 8), [8, 12):
    # dimension 0 ties at rows 5 and 6 and at rows 3 and 4, and dimension
    # 1 is non-positive over the level-2 segment [0, 6)
    frames = np.zeros((12, 2))
    frames[[3, 4], 0] = 1.0
    frames[[5, 6], 0] = 2.0
    frames[:6, 1] = [-1.0, 0.0, -1.0, 0.0, -1.0, -1.0]
    frames[6:, 1] = [1.0, 3.0, 3.0, 0.0, 3.0, -1.0]
    return frames, (1, 2, 3)


@settings(derandomize=True, deadline=None)
@given(pooling_cases())
@example(tie_across_a_piece_boundary())
def test_piece_pooling_matches_numpy_segment_pooling(case):
    """Maxima and first argmax over pieces equal np.max's and np.argmax's per segment."""
    frames, levels = case
    cfg = PyramidConfig(levels)
    # interval 1 with weights 1 and -1: the responses are the frames and
    # their negation, so every all-positive segment has an all-negative twin
    num_dims = frames.shape[1]
    banks = FilterBankSet(np.tile([[1.0], [-1.0]], (num_dims, 1, 1)), np.zeros((num_dims, 2)))
    details = oacp_forward_details(FeatureSequence(frames), banks, cfg)
    responses = np.maximum(details.pre_activation, 0.0)
    argmax, maxima = numpy_segment_pooling(responses, cfg)
    assert details.segment_argmax.tobytes() == argmax.tobytes()
    assert details.pooled.tobytes() == maxima.transpose(2, 0, 1).ravel().tobytes()


@settings(derandomize=True, deadline=None)
@given(pooling_cases(values=st.sampled_from([-1.0, -0.0, 0.0, 1.0])))
def test_temporal_pyramid_pool_matches_numpy_segment_pooling(case):
    """The pyramid baseline's segment maxima are np.max's, bytewise, dimension-major."""
    frames, levels = case
    cfg = PyramidConfig(levels)
    _, maxima = numpy_segment_pooling(frames, cfg)
    pooled = temporal_pyramid_pool(FeatureSequence(frames), cfg)
    assert pooled.tobytes() == maxima.T.ravel().tobytes()
