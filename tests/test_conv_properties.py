"""Property tests of the conv and pooled maxima; skipped when hypothesis is missing."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import conv_oracle

from oacpool.convpool import FilterBankSet, conv_responses, oacp_forward_details
from oacpool.pooling import PyramidConfig, segment_ranges
from oacpool.sequences import FeatureSequence


# Few distinct values: tied rows, and segments that the ReLU zeroes out
# entirely, are common.
TIE_HEAVY = st.sampled_from([-1.0, 0.0, 1.0])


@st.composite
def conv_cases(draw, values=st.floats(-4.0, 4.0)):
    """Frames, a bank set and a poolable pyramid over small random geometries."""
    num_dims = draw(st.integers(1, 6))
    stride = draw(st.integers(1, 3))
    interval = draw(st.integers(1, 8))
    n_filters = draw(st.integers(1, 4))
    num_frames = draw(st.integers(interval, 40))
    t_out = (num_frames - interval) // stride + 1
    levels = draw(st.lists(st.integers(1, t_out), max_size=2))
    frames = draw(hnp.arrays(np.float64, (num_frames, num_dims), elements=values))
    weights = draw(hnp.arrays(np.float64, (num_dims, n_filters, interval), elements=values))
    biases = draw(hnp.arrays(np.float64, (num_dims, n_filters), elements=values))
    return frames, FilterBankSet(weights, biases, stride), PyramidConfig((1, *levels))


def check_against_oracles(frames, banks, cfg):
    """Conv against the naive oracle, pooled maxima and argmax against NumPy's, bytewise."""
    responses = np.maximum(conv_responses(frames, banks), 0.0)
    for k in range(banks.num_dims):
        want = conv_oracle(frames[:, k], banks.weights[k], banks.biases[k], banks.stride)
        assert responses[:, :, k].tobytes() == want.tobytes()
    details = oacp_forward_details(FeatureSequence(frames), banks, cfg)
    ranges = segment_ranges(details.responses.shape[0], cfg)
    maxima = np.stack([details.responses[a:b].max(axis=0) for a, b in ranges])
    assert details.pooled.tobytes() == maxima.transpose(2, 0, 1).ravel().tobytes()
    want = np.stack([a + details.responses[a:b].argmax(axis=0) for a, b in ranges])
    got = details.segment_argmax
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestConvProperties:
    """Several dimensions at once, where the conv accumulates with K innermost."""

    @settings(derandomize=True, deadline=None)
    @given(conv_cases())
    def test_every_dimension_matches_the_oracle_and_maxima_are_exact(self, case):
        check_against_oracles(*case)

    @settings(derandomize=True, deadline=None)
    @given(conv_cases(values=TIE_HEAVY))
    def test_tied_and_all_zero_segments_match_the_oracles(self, case):
        check_against_oracles(*case)
