"""Per-dimension 1D convolutional filter banks over the temporal axis.

Each feature dimension gets its own bank of n_filters length-l filters.
The bank slides along that dimension's 1D signal, and the ReLU'd responses
are max-pooled over a temporal pyramid (the monotone ReLU is applied to the
maxima).  This keeps the parameter count at l*K*n + K*n instead of the
l*K*n + n of a single joint convolution over all K dimensions with n >> n_filters.
The layer's backward lives here too: _bank_gradient routes the pooled
vector's gradient through the ReLU and the segment max into the banks, and
_update_banks takes their SGD step, so the banks' storage and the pooled
layout are known to this module alone.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError, TooShortSequenceError
from .pooling import PyramidConfig, _checked_pyramid, positive_int, segment_ranges
from .sequences import FeatureSequence, _checked_floats


class FilterBankSet:
    """One filter bank per feature dimension, all sharing (interval, n_filters).

    weights has shape (num_dims, n_filters, interval) and biases
    (num_dims, n_filters).  Both are writable views of the set's own
    storage, which is laid out as the conv and the bank gradient read it:
    the taps as a C-contiguous (interval, n_filters, num_dims) array and the
    biases as C-contiguous (n_filters, num_dims) rows, dimensions innermost.
    Writing through a view writes the storage, and a copy of the set copies
    the storage alone.  Weights and biases are checked once (3-D and 2-D,
    nonempty, finite) and copied once, into that storage, so the set shares
    no memory with its caller.  The arrays are the trainable parameters and
    are mutated in place by the SGD loop; treat a set as immutable elsewhere.
    """

    def __init__(self, weights, biases, stride: int = 1):
        weights = _checked_floats(weights, 3, "weights")
        biases = _checked_floats(biases, 2, "biases")
        if biases.shape != weights.shape[:2]:
            raise ShapeMismatchError(
                f"biases shape {biases.shape} does not match weights shape {weights.shape}"
            )
        self.stride = positive_int(stride, "stride")
        # np.array copies even a transpose already C-contiguous (Fortran order, K = n = 1)
        self._taps = np.array(weights.transpose(2, 1, 0), order="C")  # (l, n, K)
        self._bias_rows = np.array(biases.T, order="C")  # (n, K)

    @property
    def weights(self) -> np.ndarray:
        """The (num_dims, n_filters, interval) taps, a writable view of the storage."""
        return self._taps.transpose(2, 1, 0)

    @property
    def biases(self) -> np.ndarray:
        """The (num_dims, n_filters) biases, a writable view of the storage."""
        return self._bias_rows.T

    @property
    def num_dims(self) -> int:
        return self._taps.shape[2]

    @property
    def n_filters(self) -> int:
        return self._taps.shape[1]

    @property
    def interval(self) -> int:
        return self._taps.shape[0]


def _windows(frames: np.ndarray, interval: int, stride: int) -> np.ndarray:
    """The (T_out, K, interval) view windows[t, k, i] = frames[t*stride + i, k].

    frames must be C-contiguous; the view is read-only if they are.
    """
    row_step, dim_step = frames.strides
    t_out = (frames.shape[0] - interval) // stride + 1
    shape = (t_out, frames.shape[1], interval)
    return np.ndarray(shape, frames.dtype, frames, 0, (row_step * stride, dim_step, row_step))


def conv_responses(seq: FeatureSequence, banks: FilterBankSet) -> np.ndarray:
    """Contiguous pre-activation responses (T_out, n_filters, K) for all dimensions.

    pre[t][j][k] = sum_i weights[k][j][i] * frames[t*stride + i][k] + biases[k][j],
    with T_out = floor((T - l) / stride) + 1.  Taps accumulate in ascending
    i order onto zero and the bias is added last, so results are
    reproducible bit-for-bit regardless of BLAS backend and each
    dimension's responses equal those of a one-dimension bank set on that
    dimension alone.  One einsum of the (T_out, K, l) sliding windows of
    the frames with the (l, n, K) taps forms every sum.  NumPy adds the
    reduced tap axis in ascending order only while another axis, here K,
    is the innermost loop.  A one-dimension input would leave the tap axis
    innermost and summed in another order, so it is widened to two
    identical columns and the first column's responses are kept.  A
    sequence whose width is not K raises ShapeMismatchError; finite frames
    and banks may still overflow, and the inf or NaN responses are returned
    as they are.
    """
    frames = seq.frames
    num_frames, width = frames.shape
    interval, stride = banks.interval, banks.stride
    if width != banks.num_dims:
        raise ShapeMismatchError(
            f"sequence has {width} dimensions but the bank set has {banks.num_dims}"
        )
    if num_frames < interval:
        raise TooShortSequenceError(
            f"sequence has {num_frames} frames but the filters need {interval}"
        )
    taps = banks._taps
    if banks.num_dims == 1:
        frames, taps = np.repeat(frames, 2, axis=1), np.repeat(taps, 2, axis=2)
    windows = _windows(frames, interval, stride)
    acc = np.einsum("tki,ijk->tjk", windows, taps)
    if banks.num_dims == 1:
        acc = acc[:, :, :1].copy()
    acc += banks._bias_rows
    return acc


class OacpForward(NamedTuple):
    """Everything the forward pass produces that backpropagation needs.

    pooled, pre_activation and segment_argmax are contiguous, the last two
    with K innermost; windows is a strided view of the input frames.  No
    array holds the ReLU'd responses, np.maximum(pre_activation, 0.0).
    """

    pooled: np.ndarray          # (K * n_filters * M,), post-ReLU
    pre_activation: np.ndarray  # (T_out, n_filters, K)
    windows: np.ndarray         # (T_out, K, interval) view of the input frames
    segment_argmax: np.ndarray  # (M, n_filters, K) absolute response-row indices


class _PoolingPlan(NamedTuple):
    """How the pyramid max pooling reads T_out response rows of K dimensions.

    The boundaries of every level cut [0, T_out) into atomic pieces, and
    each segment is a run of consecutive pieces.  Row r weighs T_out - r,
    so a piece's row weights are its slice of row_weights.  All arrays are
    read-only.
    """

    pieces: tuple[tuple[int, int], ...]        # [a, b) row ranges, in row order
    row_weights: np.ndarray                    # (T_out, 1, 1) weights [T_out, ..., 1]
    first_piece: np.ndarray                    # (M,) each segment's first piece
    later_pieces: tuple[tuple[int, int], ...]  # (segment, piece) for its other pieces


@functools.lru_cache(maxsize=256)
def _pooling_plan(t_out: int, cfg: PyramidConfig) -> _PoolingPlan:
    """The plan of (t_out, cfg), built once; too few rows raise TooShortSequenceError.

    Row weights take the narrowest unsigned type: uint8 up to 255 rows,
    uint16 up to 65535, and so on.
    """
    ranges = segment_ranges(t_out, cfg)
    bounds = sorted({a for a, _ in ranges} | {t_out})
    pieces = tuple(zip(bounds[:-1], bounds[1:]))
    row_weights = np.arange(t_out, 0, -1, dtype=np.min_scalar_type(t_out))[:, None, None]
    piece_at = {a: q for q, (a, _) in enumerate(pieces)}
    first_piece = np.array([piece_at[a] for a, _ in ranges], dtype=np.intp)
    later_pieces = tuple(
        (m, q)
        for m, (a, b) in enumerate(ranges)
        for q in range(piece_at[a] + 1, len(pieces))
        if pieces[q][1] <= b
    )
    for array in (row_weights, first_piece):
        array.flags.writeable = False
    return _PoolingPlan(pieces, row_weights, first_piece, later_pieces)


def _relu_piece_maxima(pre: np.ndarray, plan: _PoolingPlan) -> np.ndarray:
    """The ReLU'd maximum of each atomic piece of the plan, (Q, n, K).

    Bitwise the maximum of the piece's ReLU'd responses, since the ReLU is
    monotone and the conv never yields -0.0.  A ReLU'd maximum of inf or
    NaN raises ValueError; a piece whose responses are all -inf pools to 0.
    """
    piece_max = np.empty((len(plan.pieces),) + pre.shape[1:])
    for q, (a, b) in enumerate(plan.pieces):
        np.maximum.reduce(pre[a:b], axis=0, out=piece_max[q])
    np.maximum(piece_max, 0.0, out=piece_max)
    if not math.isfinite(np.maximum.reduce(piece_max, axis=None)):
        raise ValueError("pooled responses contain NaN or infinite values")
    return piece_max


def _segment_maxima(
    relu: np.ndarray, plan: _PoolingPlan, piece_top: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray | None]:
    """The (M, n, K) segment maxima of the ReLU'd piece maxima, and their pieces' weights.

    A segment takes its first piece's maximum and, given piece_top, its
    weight; each later piece of the segment replaces the weight only where
    its maximum is strictly larger, so the first piece wins a tie.  Without
    piece_top the weights are None.
    """
    maxima = relu.take(plan.first_piece, axis=0)
    top = None if piece_top is None else piece_top.take(plan.first_piece, axis=0)
    for m, q in plan.later_pieces:
        if top is not None:
            np.copyto(top[m], piece_top[q], where=relu[q] > maxima[m])
        np.maximum(maxima[m], relu[q], out=maxima[m])
    return maxima, top


def _dimension_major(maxima: np.ndarray) -> np.ndarray:
    """(M, n, K) maxima as the pooled vector: k outermost, then (level, segment), then channel."""
    return maxima.transpose(2, 0, 1).ravel()


def _oacp_pooled(seq: FeatureSequence, banks: FilterBankSet, cfg: PyramidConfig) -> np.ndarray:
    """The pooled vector of oacp_forward_details alone, byte for byte.

    The forward for a caller that backpropagates nothing: it takes the
    ReLU'd piece maxima and the segment maxima as oacp_forward_details
    does, but runs no argmax pass, builds no windows view and frees the
    (T_out, n_filters, K) conv buffer once the piece maxima are taken.  It
    raises as oacp_forward_details does.
    """
    pre = conv_responses(seq, banks)
    plan = _pooling_plan(pre.shape[0], _checked_pyramid(cfg))
    relu = _relu_piece_maxima(pre, plan)
    del pre
    maxima, _ = _segment_maxima(relu, plan)
    return _dimension_major(maxima)


def oacp_forward_details(
    seq: FeatureSequence, banks: FilterBankSet, cfg: PyramidConfig
) -> OacpForward:
    """Convolve every dimension, pyramid-pool, ReLU the maxima, concatenate.

    The pooled layout is dimension k outermost, then level, then segment,
    then filter channel; length K * n_filters * M.  Each atomic piece [a, b)
    of the pooling plan (see _PoolingPlan) is read twice.  The first read
    takes its ReLU'd maximum (see _relu_piece_maxima).  The second finds its
    argmax, the first row holding its maximal ReLU'd response, as the
    largest row weight T_out - r over the rows r at or above the maximum,
    or over all rows if the ReLU zeroes it.  _segment_maxima then combines
    the pieces of each segment, the first piece winning a tie, and the
    argmax is T_out minus the weight.  A ReLU'd maximum of inf or NaN raises
    ValueError (an all -inf piece pools to 0); conv_responses alone returns
    them.  _oacp_pooled computes the pooled vector alone.
    """
    pre = conv_responses(seq, banks)
    t_out = pre.shape[0]
    plan = _pooling_plan(t_out, _checked_pyramid(cfg))
    windows = _windows(seq.frames, banks.interval, banks.stride)
    relu = _relu_piece_maxima(pre, plan)
    floor = np.where(relu == 0.0, -np.inf, relu)
    piece_top = np.empty(relu.shape, dtype=plan.row_weights.dtype)
    for q, (a, b) in enumerate(plan.pieces):
        hits = pre[a:b] >= floor[q]
        np.maximum.reduce(hits.view(np.uint8) * plan.row_weights[a:b], axis=0, out=piece_top[q])
    maxima, top = _segment_maxima(relu, plan, piece_top)
    argmax = np.subtract(t_out, top, dtype=np.intp)
    return OacpForward(_dimension_major(maxima), pre, windows, argmax)


def _bank_gradient(
    d_pooled: np.ndarray, pooled: np.ndarray, windows: np.ndarray, segment_argmax: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The banks' weight and bias gradients, given d_pooled, the gradient of the pooled vector.

    The ReLU zeroes d_pooled, in place, where the pooled maximum is not
    positive.  Each slot routes to its segment_argmax row, and a (dimension,
    filter) sums its M slots in (level, segment) order, each its gradient
    times that row's input window.  The gradients have the storage's axes,
    (l, n, K) and (n, K).  NumPy lays the (l, M, n, K) gather out as
    (M, n, K, l); a C-contiguous gather was slower at the desk shape, where
    the calls, not the bytes, set the cost.
    """
    # pooled holds each slot's ReLU'd maximum in d_pooled's (K, M, n) layout,
    # so it is positive exactly where the routed row's pre-activation is
    d_pooled *= pooled > 0
    segments, _, num_dims = segment_argmax.shape
    coef = d_pooled.reshape(num_dims, segments, -1).transpose(1, 2, 0).copy()
    # gather with the tap axis first, windows.transpose(2, 0, 1)[i, t, k] =
    # frames[t*stride + i, k], then scale and sum over the M segments in order
    routed = windows.transpose(2, 0, 1)[:, segment_argmax, np.arange(num_dims)]  # (l, M, n, K)
    routed *= coef
    g_w, g_b = routed[:, 0], coef[0]
    for m in range(1, segments):
        g_w += routed[:, m]
        g_b += coef[m]
    return g_w, g_b


def _update_banks(
    banks: FilterBankSet, learning_rate: float, g_w: np.ndarray, g_b: np.ndarray
) -> None:
    """_taps -= learning_rate * g_w and _bias_rows -= learning_rate * g_b, each scaled in place.

    Subtracting through the transposed weights and biases views is slower.
    """
    for param, grad in ((banks._taps, g_w), (banks._bias_rows, g_b)):
        grad *= learning_rate
        param -= grad


def _counts(num_dims, interval, n_filters) -> tuple[int, int, int]:
    """The three counts of a parameter count, each checked by positive_int."""
    return (
        positive_int(num_dims, "num_dims"),
        positive_int(interval, "interval"),
        positive_int(n_filters, "n_filters"),
    )


def param_count_joint(num_dims: int, interval: int, n_filters: int) -> int:
    """Parameter count of a single joint convolution over all dimensions: l*K*n + n.

    Analysis only; the joint layer is intentionally not implemented because
    it needs a huge n to be useful and the count explodes.
    """
    num_dims, interval, n_filters = _counts(num_dims, interval, n_filters)
    return interval * num_dims * n_filters + n_filters


def param_count_perdim(num_dims: int, interval: int, n_filters: int) -> int:
    """Parameter count of per-dimension banks: l*K*n + K*n.

    Equals weights.size + biases.size of a FilterBankSet with matching
    shapes.  Note the K*n bias term: quoting only the weight count (l*K*n) understates this
    by one bias per filter per dimension.
    """
    num_dims, interval, n_filters = _counts(num_dims, interval, n_filters)
    return interval * num_dims * n_filters + num_dims * n_filters
