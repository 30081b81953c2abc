"""Per-dimension 1D convolutional filter banks over the temporal axis.

Each feature dimension gets its own bank of n_filters length-l filters.
The bank slides along that dimension's 1D signal, a ReLU is applied, and
the response sequence is aggregated with temporal pyramid pooling.  This
keeps the parameter count at l*K*n + K*n instead of the l*K*n + n of a
single joint convolution over all K dimensions with n >> n_filters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeMismatchError, TooShortSequenceError
from .pooling import PyramidConfig, positive_int, segment_maxima, segment_ranges
from .sequences import FeatureSequence


def _as_param_array(values, ndim: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, order="C")
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


@dataclass(eq=False)
class FilterBankSet:
    """One filter bank per feature dimension, all sharing (interval, n_filters).

    weights has shape (num_dims, n_filters, interval) and biases
    (num_dims, n_filters).  The arrays are the trainable parameters and are
    mutated in place by the SGD loop; treat a set as immutable elsewhere.
    """

    weights: np.ndarray
    biases: np.ndarray
    stride: int = 1

    def __post_init__(self):
        self.weights = _as_param_array(self.weights, 3, "weights")
        self.biases = _as_param_array(self.biases, 2, "biases")
        if self.biases.shape != self.weights.shape[:2]:
            raise ShapeMismatchError(
                f"biases shape {self.biases.shape} does not match "
                f"weights shape {self.weights.shape}"
            )
        self.stride = positive_int(self.stride, "stride")

    @property
    def num_dims(self) -> int:
        return self.weights.shape[0]

    @property
    def n_filters(self) -> int:
        return self.weights.shape[1]

    @property
    def interval(self) -> int:
        return self.weights.shape[2]


# Output rows per conv block: 2**16 doubles keep the block and its product
# buffer (512 KiB each) in a core's L2 cache at the paper shape, where one
# (T_out, n, K) buffer alone is 2.2 MiB.  Desk shapes fit in one block.
_BLOCK_ELEMENTS = 1 << 16


def conv_responses(frames: np.ndarray, banks: FilterBankSet) -> np.ndarray:
    """Contiguous pre-activation responses (T_out, n_filters, K) for all dimensions.

    pre[t][j][k] = sum_i weights[k][j][i] * frames[t*stride + i][k] + biases[k][j],
    with T_out = floor((T - l) / stride) + 1.  Taps accumulate in ascending
    i order and the bias is added last, so results are reproducible
    bit-for-bit regardless of BLAS backend and each dimension's responses
    equal those of a one-dimension bank set on that dimension alone.  The
    sums accumulate a block of output rows at a time, with the K dimensions
    innermost.
    """
    num_frames = frames.shape[0]
    interval = banks.interval
    if num_frames < interval:
        raise TooShortSequenceError(
            f"sequence has {num_frames} frames but the filters need {interval}"
        )
    windows = sliding_window_view(frames, interval, axis=0)[:: banks.stride]
    taps = np.ascontiguousarray(banks.weights.transpose(2, 1, 0))  # (l, n, K)
    acc = np.zeros((windows.shape[0], banks.n_filters, banks.num_dims))
    rows = max(1, _BLOCK_ELEMENTS // (banks.n_filters * banks.num_dims))
    term = np.empty_like(acc[:rows])
    for start in range(0, acc.shape[0], rows):
        block = acc[start : start + rows]
        block_windows = windows[start : start + rows, None]
        block_term = term[: block.shape[0]]
        for i in range(interval):
            np.multiply(block_windows[..., i], taps[i], out=block_term)
            block += block_term
    acc += banks.biases.T
    return acc


class OacpForward(NamedTuple):
    """Everything the forward pass produces that backpropagation needs.

    pooled, pre_activation, responses and segment_argmax are contiguous,
    the last three with K innermost; windows is a strided view of the input
    frames.
    """

    pooled: np.ndarray          # (K * n_filters * M,)
    pre_activation: np.ndarray  # (T_out, n_filters, K)
    responses: np.ndarray       # (T_out, n_filters, K), post-ReLU
    windows: np.ndarray         # (T_out, K, interval) view of the input frames
    segment_argmax: np.ndarray  # (M, n_filters, K) absolute response-row indices


@functools.lru_cache(maxsize=256)
def _row_weights(length: int) -> np.ndarray:
    """Read-only (length, 1, 1) weights [length, ..., 1] in the narrowest unsigned type.

    uint8 up to 255 rows, uint16 up to 65535, and so on; built once per length.
    """
    weights = np.arange(length, 0, -1, dtype=np.min_scalar_type(length))[:, None, None]
    weights.flags.writeable = False
    return weights


def oacp_forward_details(
    seq: FeatureSequence, banks: FilterBankSet, cfg: PyramidConfig
) -> OacpForward:
    """Convolve every dimension, ReLU, pyramid-pool the responses, concatenate.

    The pooled layout is dimension k outermost, then level, then segment,
    then filter channel; length K * n_filters * M.  The maxima are
    segment_maxima over the (T_out, n_filters, K) responses.  Each segment
    [a, b)'s argmax is the first row equal to its maximum, found as b minus
    the largest of the weights [b-a, ..., 1] over the equal rows; when a
    maximum is NaN, NaN rows count as equal too, so a segment holding a NaN
    takes its first NaN row, as np.argmax does.
    """
    if seq.num_features != banks.num_dims:
        raise ShapeMismatchError(
            f"sequence has {seq.num_features} dimensions but the bank set has {banks.num_dims}"
        )
    pre = conv_responses(seq.frames, banks)
    responses = np.maximum(pre, 0.0)
    windows = sliding_window_view(seq.frames, banks.interval, axis=0)[:: banks.stride]
    maxima = segment_maxima(responses, cfg)
    any_nan = np.isnan(maxima).any()
    argmax = np.empty(maxima.shape, dtype=np.intp)
    for m, (a, b) in enumerate(segment_ranges(responses.shape[0], cfg)):
        seg = responses[a:b]
        hits = seg == maxima[m]
        if any_nan:
            hits |= np.isnan(seg)
        argmax[m] = b
        argmax[m] -= (hits.view(np.uint8) * _row_weights(b - a)).max(axis=0)
    # (M, n, K) -> dimension-major: k outermost, then (level, segment), then channel
    pooled = maxima.transpose(2, 0, 1).ravel()
    return OacpForward(pooled, pre, responses, windows, argmax)


def param_count_joint(num_dims: int, interval: int, n_filters: int) -> int:
    """Parameter count of a single joint convolution over all dimensions: l*K*n + n.

    Analysis only; the joint layer is intentionally not implemented because
    it needs a huge n to be useful and the count explodes.
    """
    if min(num_dims, interval, n_filters) < 1:
        raise ValueError("all arguments must be >= 1")
    return interval * num_dims * n_filters + n_filters


def param_count_perdim(num_dims: int, interval: int, n_filters: int) -> int:
    """Parameter count of per-dimension banks: l*K*n + K*n.

    Equals weights.size + biases.size of a FilterBankSet with matching
    shapes.  Note the K*n bias term: quoting only the weight count (l*K*n) understates this
    by one bias per filter per dimension.
    """
    if min(num_dims, interval, n_filters) < 1:
        raise ValueError("all arguments must be >= 1")
    return interval * num_dims * n_filters + num_dims * n_filters
