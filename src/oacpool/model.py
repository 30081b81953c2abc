"""Softmax classification head, backpropagation, SGD, and gradient verification.

The model pools a variable-length sequence into a fixed vector p (by one of
four pooling kinds), computes probs = softmax(W p + b), and trains all
parameters with per-instance SGD on the negative log-likelihood.  For the
convolutional pooling kind the gradient flows through the segment max
pooling (to the first maximal response of each segment) and the ReLU (zero
at nonpositive pre-activations) into the filter banks.  One private
_gradient forms that gradient: sgd_train's fused _train_step applies it
through _apply_update, and backward() returns it densely, in parameters()
order, for grad_check and any other caller that inspects it.  Nothing
backpropagates from evaluate() or from grad_check's loss evaluations, so
they pool through the one dispatch _pool without details: an oacp model
then runs no segment argmax, and they build no ForwardCache.
"""

from __future__ import annotations

import copy
import json
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .convpool import FilterBankSet, _oacp_pooled, _pooling_plan, oacp_forward_details
from .errors import (
    DivergenceError,
    ParseError,
    ShapeMismatchError,
    StaleCacheError,
    TooShortSequenceError,
)
from .pooling import (
    PyramidConfig,
    average_pool,
    max_pool,
    positive_int,
    seed_value,
    temporal_pyramid_pool,
)
from .sequences import FeatureSequence, LabeledSequence, _checked_floats

POOLING_KINDS = ("average", "max", "pyramid", "oacp")

# Floor inside the log of the instance loss; softmax output is strictly
# positive so this never changes results measurably.
LOG_EPS = 1e-15

# Magnitude of the seeded noise grad_check adds to the parameters first.
GRAD_CHECK_NUDGE = 1e-2

# A checkpoint starts with the magic, a version byte and a little-endian
# uint32 header length; the JSON header and the float64 parameters follow.
CHECKPOINT_MAGIC = b"OACM"
CHECKPOINT_VERSION = 3
_PREAMBLE = struct.Struct("<4sBI")

# Largest minimum_frames a geometry may demand, in frames after sampling.
# Real geometries need a few dozen; padding one paper-scale (K=4096)
# sequence to this many frames takes 128 MiB.
MAX_MINIMUM_FRAMES = 4096

# Largest parameter count ClassifierModel.from_spec will draw.  The
# paper-scale model has about 2M parameters; 2**27 float64 values take 1 GiB.
MAX_PARAMETERS = 2**27


@dataclass(frozen=True)
class PoolingSpec:
    """A model's geometry: pooling kind plus the settings that shape it.

    interval, stride and n_filters describe the filter banks, pyramid (a
    PyramidConfig, converted from any int sequence) the segment count per
    level, sample_rate how raw sequences are sampled.  Every field is
    validated (the settings must be integers >= 1, NumPy integers included,
    and are stored as ints), then those a kind does not read take their
    no-op values: interval = stride = n_filters = 1 unless the kind is oacp,
    and pyramid (1,) for average and max.  The baselines then read as
    one-tap, one-filter conv pooling over a one-level pyramid, so each
    formula below has one expression for every kind, and equal geometries
    compare equal.  A model holds its geometry as ClassifierModel.spec, and
    every length and frame count derives from here, and every parameter
    shape from _parameter_shapes(spec, num_features, num_classes).  A
    geometry whose minimum_frames exceeds MAX_MINIMUM_FRAMES is rejected.
    """

    kind: str
    interval: int = 8
    stride: int = 1
    n_filters: int = 3
    pyramid: PyramidConfig = PyramidConfig((1, 2))
    sample_rate: int = 5

    def __post_init__(self):
        if self.kind not in POOLING_KINDS:
            raise ValueError(f"unknown pooling kind {self.kind!r}")
        for name in ("interval", "stride", "n_filters", "sample_rate"):
            object.__setattr__(self, name, positive_int(getattr(self, name), name))
        if not isinstance(self.pyramid, PyramidConfig):
            object.__setattr__(self, "pyramid", PyramidConfig(self.pyramid))
        if self.kind != "oacp":
            for name in ("interval", "stride", "n_filters"):
                object.__setattr__(self, name, 1)
        if self.kind in ("average", "max"):
            object.__setattr__(self, "pyramid", PyramidConfig((1,)))
        if self.minimum_frames > MAX_MINIMUM_FRAMES:
            raise ValueError(
                f"minimum_frames {self.minimum_frames} exceeds the limit of "
                f"{MAX_MINIMUM_FRAMES} frames"
            )

    @property
    def minimum_frames(self) -> int:
        """Frames needed after sampling so every pyramid level is poolable."""
        return self.interval + self.stride * (self.pyramid.max_segments - 1)

    @property
    def receptive_field(self) -> int:
        """Original frames covered by one filter interval (one sample unless oacp)."""
        return self.interval * self.sample_rate

    def pooled_length(self, num_features: int) -> int:
        """P: length of the pooled representation of num_features dimensions."""
        return num_features * self.n_filters * self.pyramid.total_segments


@dataclass
class TrainConfig:
    """Hyperparameters of the per-instance SGD loop: theta <- theta - lr * grad.

    learning_rate must be finite; 0 is allowed and performs null updates
    (useful as a determinism check).  seed, an integer >= 0, fixes the
    instance order of every epoch.
    """

    learning_rate: float
    epochs: int
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(
                f"learning_rate must be finite and >= 0, got {self.learning_rate}"
            )
        self.epochs = positive_int(self.epochs, "epochs")
        self.seed = positive_int(self.seed, "seed", minimum=0)


def _parameter_shapes(
    spec: PoolingSpec, num_features: int, num_classes: int
) -> list[tuple[int, ...]]:
    """Shapes of a model's parameters in ClassifierModel.parameters() order."""
    shapes = [(num_classes, spec.pooled_length(num_features)), (num_classes,)]
    if spec.kind == "oacp":
        shapes += [(num_features, spec.n_filters, spec.interval), (num_features, spec.n_filters)]
    return shapes


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    accuracy: float


@dataclass(eq=False)
class ClassifierModel:
    """Pooling stage plus softmax head; the trainable artifact.

    spec is the model's whole geometry, sample_rate included so evaluation
    can reproduce how training data was sampled; oacp banks must agree with
    it, and other kinds have none.  Parameters are mutated in place only by
    sgd_train; `version` is bumped on every update so stale forward caches
    can be detected.
    """

    spec: PoolingSpec
    num_features: int
    num_classes: int
    w_head: np.ndarray  # (num_classes, pooled_length)
    b_head: np.ndarray  # (num_classes,)
    filter_banks: FilterBankSet | None = None
    version: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        self.num_features = positive_int(self.num_features, "num_features")
        self.num_classes = positive_int(self.num_classes, "num_classes")
        spec, banks = self.spec, self.filter_banks
        shapes = _parameter_shapes(spec, self.num_features, self.num_classes)
        if spec.kind == "oacp":
            if banks is None:
                raise ValueError("oacp pooling needs a FilterBankSet")
            actual = (banks.weights.shape, banks.stride)
            if actual != (shapes[2], spec.stride):
                raise ShapeMismatchError(
                    f"bank set has (weights shape, stride) {actual}, "
                    f"spec and num_features give {(shapes[2], spec.stride)}"
                )
        elif banks is not None:
            raise ValueError(f"{spec.kind} pooling takes no filter banks")
        for name, shape in zip(("w_head", "b_head"), shapes):
            values = np.asarray(getattr(self, name))
            if values.shape != shape:
                raise ShapeMismatchError(f"{name} shape {values.shape}, expected {shape}")
            setattr(self, name, np.array(_checked_floats(values, len(shape), name), order="C"))

    @property
    def pooled_length(self) -> int:
        """P: length of the pooled representation implied by kind and shapes."""
        return self.spec.pooled_length(self.num_features)

    @classmethod
    def from_spec(
        cls, spec: PoolingSpec, num_features: int, num_classes: int, seed=0
    ) -> "ClassifierModel":
        """Seeded initialization: weights uniform in +-sqrt(6/(fan_in+fan_out)), biases 0.

        Filter banks are drawn before the head, so a given seed (an integer
        >= 0 or an np.random.SeedSequence) fixes every parameter of the model.
        A model of more than MAX_PARAMETERS parameters is rejected with a
        ValueError before anything is drawn.
        """
        num_features = positive_int(num_features, "num_features")
        num_classes = positive_int(num_classes, "num_classes")
        shapes = _parameter_shapes(spec, num_features, num_classes)
        total = sum(map(math.prod, shapes))
        if total > MAX_PARAMETERS:
            raise ValueError(
                f"the model would have {total} parameters, "
                f"over the limit of {MAX_PARAMETERS}"
            )
        rng = np.random.default_rng(seed_value(seed))
        banks = None
        if spec.kind == "oacp":
            bound = math.sqrt(6.0 / (spec.interval + spec.n_filters))
            banks = FilterBankSet(
                weights=rng.uniform(-bound, bound, shapes[2]),
                biases=np.zeros(shapes[3]),
                stride=spec.stride,
            )
        bound = math.sqrt(6.0 / sum(shapes[0]))  # fan-out plus fan-in
        return cls(
            spec,
            num_features,
            num_classes,
            w_head=rng.uniform(-bound, bound, shapes[0]),
            b_head=np.zeros(shapes[1]),
            filter_banks=banks,
        )

    @classmethod
    def build(
        cls,
        pooling_kind: str,
        num_features: int,
        num_classes: int,
        *,
        seed=0,
        **geometry,
    ) -> "ClassifierModel":
        """from_spec with PoolingSpec's fields as keywords, defaulting as PoolingSpec does."""
        spec = PoolingSpec(pooling_kind, **geometry)
        return cls.from_spec(spec, num_features, num_classes, seed=seed)

    def parameters(self) -> list[np.ndarray]:
        """Trainable arrays in checkpoint order: head weights, head biases, then banks."""
        params = [self.w_head, self.b_head]
        if self.filter_banks is not None:
            params.extend([self.filter_banks.weights, self.filter_banks.biases])
        return params

    def parameter_total(self) -> int:
        return sum(p.size for p in self.parameters())


@dataclass(eq=False)
class ForwardCache:
    """Opaque forward state consumed by backward()."""

    version: int
    pooled: np.ndarray
    probs: np.ndarray
    pre_activation: np.ndarray | None = None
    windows: np.ndarray | None = None
    segment_argmax: np.ndarray | None = None


def _all_finite(values: np.ndarray) -> bool:
    """True if no value is NaN or infinite."""
    return np.count_nonzero(np.isfinite(values)) == values.size


def _softmax_in_place(z: np.ndarray, check: bool = True) -> np.ndarray:
    """softmax of a float64 array that no caller shares, computed in its buffer.

    Non-finite logits raise ValueError unless check is False, which only a
    caller that has proved them finite passes.
    """
    if check and not _all_finite(z):
        raise ValueError("logits contain NaN or infinite values")
    z -= z.max()
    np.exp(z, out=z)
    z /= z.sum()
    return z


def softmax(z) -> np.ndarray:
    """Max-shifted softmax: strictly positive, sums to 1, overflow-safe."""
    return _softmax_in_place(np.array(z, dtype=np.float64))


def _probabilities(model: ClassifierModel, pooled: np.ndarray, check: bool = True) -> np.ndarray:
    """softmax(w_head @ pooled + b_head) as a new array; see _softmax_in_place for check."""
    logits = model.w_head @ pooled
    logits += model.b_head
    return _softmax_in_place(logits, check)


def _pool(
    model: ClassifierModel, seq: FeatureSequence, details: bool = True
) -> tuple[np.ndarray, Sequence]:
    """The pooled vector of seq and, for oacp with details, the forward arrays backward() reads.

    Without details, for a caller that backpropagates nothing, an oacp model
    pools through _oacp_pooled: the same bytes, with no argmax pass and no
    conv buffer kept, and () comes back as for the other kinds.
    """
    kind, pyramid = model.spec.kind, model.spec.pyramid
    if kind == "average":
        return average_pool(seq), ()
    if kind == "max":
        return max_pool(seq), ()
    if kind == "pyramid":
        return temporal_pyramid_pool(seq, pyramid), ()
    if not details:
        return _oacp_pooled(seq, model.filter_banks, pyramid), ()
    # pre_activation, windows, segment_argmax: ForwardCache's last three fields
    pooled, *arrays = oacp_forward_details(seq, model.filter_banks, pyramid)
    return pooled, arrays


def forward(model: ClassifierModel, seq: FeatureSequence) -> tuple[np.ndarray, ForwardCache]:
    """Class probabilities for one sequence plus the state backward() needs."""
    if seq.num_features != model.num_features:
        raise ShapeMismatchError(
            f"sequence has {seq.num_features} features, model expects {model.num_features}"
        )
    pooled, details = _pool(model, seq)
    probs = _probabilities(model, pooled)
    return probs, ForwardCache(model.version, pooled, probs, *details)


def _nll(probs: np.ndarray, label: int) -> float:
    """instance_loss without its checks."""
    return float(-np.log(probs[label] + LOG_EPS))


def instance_loss(probs, label: int) -> float:
    """Negative log-likelihood of the true class: -log(probs[label] + LOG_EPS)."""
    probs = np.asarray(probs, dtype=np.float64)
    if not 0 <= label < probs.shape[0]:
        raise ValueError(f"label {label} out of range for {probs.shape[0]} classes")
    return _nll(probs, label)


def _bank_gradient(
    model: ClassifierModel,
    dlogits: np.ndarray,
    pooled: np.ndarray,
    windows: np.ndarray,
    segment_argmax: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The bank weight and bias gradients of an oacp forward, given the logit gradient.

    See backward() for the routing.  The gradients come with the axes of
    the banks' storage, (l, n, K) and (n, K), so the update subtracts them
    from the storage with no transpose.  The weight gradient is the sums
    held in the first segment of the routed windows, whose (l, M, n, K)
    gather NumPy lays out as (M, n, K, l), taps innermost; a C-contiguous
    gather (a copy of it, or a take from flat offsets) was slower at the
    desk shape, where the calls, not the bytes, set the cost.
    """
    # pooled holds each slot's ReLU'd maximum in d_pooled's (K, M, n) layout,
    # so it is positive exactly where the routed row's pre-activation is
    d_pooled = model.w_head.T @ dlogits
    d_pooled *= pooled > 0
    segments = segment_argmax.shape[0]
    coef = d_pooled.reshape(model.num_features, segments, -1).transpose(1, 2, 0).copy()
    # gather with the tap axis first, windows.transpose(2, 0, 1)[i, t, k] =
    # frames[t*stride + i, k], then scale and sum over the M segments in order
    plan = _pooling_plan(windows.shape[0], model.num_features, model.spec.pyramid)
    routed = windows.transpose(2, 0, 1)[:, segment_argmax, plan.dims]  # (l, M, n, K)
    routed *= coef
    g_bank_w = routed[:, 0]
    g_bank_b = coef[0]
    for m in range(1, segments):
        g_bank_w += routed[:, m]
        g_bank_b += coef[m]
    return g_bank_w, g_bank_b


def _gradient(
    model: ClassifierModel, dlogits: np.ndarray, label: int, pooled: np.ndarray, routing: Sequence
) -> tuple[np.ndarray, np.ndarray] | tuple[()]:
    """One instance's loss gradient, the one every training step and check uses.

    dlogits, the instance's probabilities, becomes probs - onehot(label) in
    place: the head bias gradient, and with pooled the factors of the head
    weight gradient outer(dlogits, pooled).  For routing, an oacp forward's
    (windows, segment_argmax), the bank gradients follow as _bank_gradient
    returns them; the other kinds pass and get ().
    """
    dlogits[label] -= 1.0
    if routing:
        return _bank_gradient(model, dlogits, pooled, *routing)
    return ()


def backward(model: ClassifierModel, cache: ForwardCache, label: int) -> list[np.ndarray]:
    """_gradient as dense arrays in ClassifierModel.parameters() order.

    That is outer(probs - onehot(label), pooled), probs - onehot(label),
    then for oacp the bank weight and bias gradients in the banks' (K, n, l)
    and (K, n) shapes: what a training step on the instance subtracts,
    before its learning-rate scaling.  The segment max routes each pooled
    slot's gradient to its first maximal response row; ReLU passes gradient
    only where the pre-activation is strictly positive.  The bank gradient
    is therefore summed over the M routed rows of each (dimension, filter)
    only, in (level, segment) order: each routed slot adds its gradient
    times that row's input window, and a row routed by two segments adds
    twice.
    """
    if cache.version != model.version:
        raise StaleCacheError(
            f"cache built at version {cache.version}, model is at {model.version}"
        )
    if not 0 <= label < model.num_classes:
        raise ValueError(f"label {label} out of range for {model.num_classes} classes")
    dlogits = cache.probs.copy()
    routing = () if cache.windows is None else (cache.windows, cache.segment_argmax)
    bank = _gradient(model, dlogits, label, cache.pooled, routing)
    return [np.outer(dlogits, cache.pooled), dlogits, *(grad.T for grad in bank)]


# Elements per block of head-update rows: 2**16 doubles (512 KiB) keep a
# block and its slice of w_head in a core's L2 cache.  The paper shape's
# rows, P = 36,864 long, go one at a time; a desk-shape head is one block.
_BLOCK_ELEMENTS = 1 << 16


def _update_buffer(model: ClassifierModel) -> np.ndarray:
    """The block of head-update rows _apply_update forms at a time, uninitialised."""
    pooled_length = model.w_head.shape[1]
    rows = max(1, _BLOCK_ELEMENTS // pooled_length)
    return np.empty((min(rows, model.num_classes), pooled_length))


def _apply_update(
    model: ClassifierModel,
    learning_rate: float,
    term: np.ndarray,
    dlogits: np.ndarray,
    pooled: np.ndarray,
    bank: tuple[np.ndarray, np.ndarray] | tuple[()] = (),
) -> None:
    """theta <- theta - learning_rate * grad, in place.

    The head weights take their rank-one update a block of term's rows at
    a time: each block's slice of outer(dlogits, pooled) is formed in
    term, scaled and subtracted while the block is in cache.  Every
    element is rounded as np.outer, then *= learning_rate, then -= would
    round it.  dlogits is the head bias gradient too; it and the bank
    gradients, (l, n, K) taps and (n, K) bias rows in the banks' storage
    layout, are then scaled in place and subtracted.
    """
    w_head = model.w_head
    rows = term.shape[0]
    for start in range(0, w_head.shape[0], rows):
        block = w_head[start : start + rows]
        block_term = term[: block.shape[0]]
        np.multiply(dlogits[start : start + rows, None], pooled, out=block_term)
        block_term *= learning_rate
        block -= block_term
    # b_head, then the bank pair, which only oacp models have
    rest = ((model.b_head, dlogits),)
    if bank:
        banks = model.filter_banks
        rest += tuple(zip((banks._taps, banks._bias_rows), bank))
    for param, grad in rest:
        grad *= learning_rate
        param -= grad


def _train_step(
    model: ClassifierModel,
    item: LabeledSequence,
    hoisted: np.ndarray | None,
    learning_rate: float,
    term: np.ndarray,
    check: bool,
) -> tuple[float, bool]:
    """One SGD step on one checked instance: (loss, prediction correct).

    The pooled vector is hoisted, or for oacp comes from _pool.  Then the
    head and softmax, the loss and the prediction, _gradient in the
    probabilities' own buffer and the update of _apply_update into term:
    the arithmetic of forward(), instance_loss() and backward() followed
    by theta -= learning_rate * grad, with no ForwardCache, no dense head
    gradient and no re-check.  With check, non-finite logits raise
    ValueError before any parameter changes; without it, which sgd_train
    passes only for a step its bounds prove finite, they are not scanned.
    Non-finite oacp pooled responses raise ValueError either way.
    The step is a function of its own so that its temporaries, the routed
    windows among them, are freed before the next step's forward.
    """
    label = item.label
    if hoisted is None:
        pooled, (pre, *routing) = _pool(model, item.sequence)
        del pre  # frees the (T_out, n, K) conv buffer before the bank gradient
    else:
        pooled, routing = hoisted, ()
    dlogits = _probabilities(model, pooled, check)
    loss = _nll(dlogits, label)
    correct = int(dlogits.argmax()) == label
    bank = _gradient(model, dlogits, label, pooled, routing)
    _apply_update(model, learning_rate, term, dlogits, pooled, bank)
    return loss, correct


# sgd_train skips a step's finiteness scans while its magnitude bound stays
# below this: 2**24 under the float64 overflow threshold.
_BOUND_LIMIT = 2.0**1000


def _magnitude(values: np.ndarray) -> float:
    """max|values| with no np.abs temporary; NaN if any value is NaN."""
    return float(max(values.max(), -values.min()))


def _parameter_bound(model: ClassifierModel) -> float:
    """max|theta| over every parameter: NaN if one is NaN, else inf if one is infinite."""
    return float(np.max([_magnitude(param) for param in model.parameters()]))


def _step_bound(
    bound: float, scale: float, learning_rate: float, geometry: tuple[int, int, int]
) -> float | None:
    """sgd_train's bound after one step, or None if the step is not proved finite.

    geometry is (l, P, 2M), with 2M = 0 for a kind without banks; scale
    is max|frame| for oacp and the hoisted vector's max|p| otherwise.  See
    sgd_train.
    """
    interval, pooled_length, routes = geometry
    p_inf = bound * (interval * scale + 1.0) if routes else scale
    z = bound * (pooled_length * p_inf + 1.0)
    # a NaN p_inf stays NaN as max()'s first argument
    g = max(p_inf, 1.0, routes * bound * max(scale, 1.0))
    bound += learning_rate * g
    # one comparison each, since max() would drop a NaN bound
    limit = _BOUND_LIMIT
    if g < limit and z < limit and bound < limit:
        return bound
    return None


def _check_instances(model: ClassifierModel, data: list[LabeledSequence], use: str) -> None:
    """Reject data the model cannot take before any instance is worked on.

    The data must be non-empty, and every instance needs a label below
    num_classes, exactly num_features features and at least
    spec.minimum_frames frames.
    """
    if not data:
        raise ValueError(f"{use} data is empty")
    minimum = model.spec.minimum_frames
    for i, item in enumerate(data):
        seq = item.sequence
        if item.label >= model.num_classes:
            raise ValueError(
                f"instance {i} has label {item.label}, model has {model.num_classes} classes"
            )
        if seq.num_features != model.num_features:
            raise ShapeMismatchError(
                f"instance {i} has {seq.num_features} features, "
                f"model expects {model.num_features}"
            )
        if seq.num_frames < minimum:
            raise TooShortSequenceError(
                f"instance {i} has {seq.num_frames} frames, model needs {minimum}"
            )


def sgd_train(
    model: ClassifierModel, data: list[LabeledSequence], cfg: TrainConfig
) -> tuple[ClassifierModel, list[EpochStats]]:
    """Plain per-instance SGD: theta <- theta - lr * grad after every instance.

    Every instance is checked before the first update, so data the model
    cannot take leaves it untouched.  A model without filter banks
    (average, max or pyramid pooling) has nothing to learn before its head,
    so each instance is pooled once, before the first epoch, into a
    read-only vector that every epoch's step reuses; the vectors are the
    arrays forward() would compute, so the result is the same bytes.  An
    oacp model runs oacp_forward_details on every step.  Each step of
    every kind is one _train_step: the arithmetic of forward() and of
    _gradient, the gradient backward() returns, in one pass, into one
    head-update buffer per run.  Instance order is reshuffled each epoch
    by a generator seeded from cfg.seed, so a given (seed, data order, cfg)
    is bit-deterministic, and each parameter takes the bytes of
    param -= learning_rate * grad for backward()'s dense grad of each
    instance in turn.  `model.version` is bumped on every update.  History
    records each epoch's mean loss and online accuracy (prediction taken
    before the update) as Python floats.  The head weights take the
    rank-one update outer(probs - onehot, pooled) a block of rows at a
    time, rounded as the dense update would be, and no dense head gradient
    is built.

    Non-finite pooled responses (oacp) or logits raise DivergenceError
    before the step's update, and a non-finite parameter raises
    DivergenceError once the whole step is applied, as scanning the logits
    and every updated parameter on every step would find them.  An
    overflow on the way prints no NumPy warning, since each one ends in
    that DivergenceError.  The scans run only on steps that might fail.
    The run carries one bound m on max|theta|,
    taken exactly at its start, and per instance F: max|frame| for oacp,
    max|p| of a hoisted vector.  Before each step, every pooled value is
    at most p_inf = m*(l*F + 1) for oacp (l taps and a bias) or F; every
    logit at most z = m*(P*p_inf + 1); d = probs - onehot has |d| <= 1
    and sum|d| <= 2, so w_head.T @ d is at most 2m and each bank gradient,
    a sum of M routed products, at most 2M*m*max(F, 1).  So no gradient
    exceeds g = max(p_inf, 1, 2M*m*max(F, 1)) and no updated parameter
    m' = m + lr*g.  Each value the step computes is bounded by g, z or m',
    or 2z for the shifted logits, times a rounding factor below 1 + 2**-26
    (1 + n*eps for a sum of up to n = 2**27 terms).  While g, z and m' are
    below 2**1000, 2**24 under the float64 overflow threshold, nothing can
    overflow or turn NaN: the step runs unscanned and m' becomes the bound.
    Otherwise, a NaN bound included (lr = 0 times an infinite g), the step
    scans its logits and m is taken exactly again; that re-derivation is
    the parameter scan, and a NaN or infinite m raises.
    """
    _check_instances(model, data, "training")
    rng = np.random.default_rng(cfg.seed)
    order = np.arange(len(data))
    history: list[EpochStats] = []
    term = _update_buffer(model)
    spec, learning_rate = model.spec, cfg.learning_rate
    # an overflow ends in a DivergenceError below, not in a NumPy warning;
    # entered once per run, since desk-scale steps are short
    with np.errstate(over="ignore", invalid="ignore"):
        hoisted = [None] * len(data)
        if model.filter_banks is None:
            hoisted = [_pool(model, item.sequence)[0] for item in data]
            for vector in hoisted:
                vector.flags.writeable = False
            scales = list(map(_magnitude, hoisted))
            routes = 0
        else:
            scales = [_magnitude(item.sequence.frames) for item in data]
            routes = 2 * spec.pyramid.total_segments
        geometry = (spec.interval, model.pooled_length, routes)
        bound = _parameter_bound(model)
        for epoch in range(cfg.epochs):
            rng.shuffle(order)
            total_loss = 0.0
            correct = 0
            for idx in order.tolist():
                step = _step_bound(bound, scales[idx], learning_rate, geometry)
                try:
                    # the instances were checked up front, so the only ValueErrors
                    # left say that the pooled responses or the logits are not finite
                    loss, hit = _train_step(
                        model, data[idx], hoisted[idx], learning_rate, term, step is None
                    )
                except ValueError as exc:
                    raise DivergenceError(
                        f"divergence at epoch {epoch}, instance {idx}: {exc}"
                    ) from None
                model.version += 1
                bound = _parameter_bound(model) if step is None else step
                if not bound < math.inf:  # NaN or infinite
                    raise DivergenceError(
                        f"non-finite parameters after epoch {epoch}, instance {idx}"
                    )
                total_loss += loss
                correct += hit
            history.append(EpochStats(epoch, total_loss / len(data), correct / len(data)))
    return model, history


def evaluate(
    model: ClassifierModel, data: list[LabeledSequence]
) -> tuple[float, np.ndarray]:
    """Accuracy and a (true, predicted) confusion count matrix.

    Each instance is pooled without details (see _pool) and classified by
    _probabilities, the arithmetic of forward() with no argmax pass and no
    ForwardCache, so only one instance's arrays are alive at a time.
    Prediction is argmax of the probabilities; exact ties go to the lowest
    class index.  Non-finite pooled responses or logits raise
    DivergenceError naming the instance, with no NumPy warning on the way.
    """
    _check_instances(model, data, "evaluation")
    confusion = np.zeros((model.num_classes, model.num_classes), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, item in enumerate(data):
            try:
                # the instances were checked up front: only non-finite values raise
                probs = _probabilities(model, _pool(model, item.sequence, details=False)[0])
            except ValueError as exc:
                raise DivergenceError(f"evaluation of instance {i}: {exc}") from None
            confusion[item.label, probs.argmax()] += 1
    accuracy = float(np.trace(confusion)) / len(data)
    return accuracy, confusion


def _loss_at(model: ClassifierModel, example: LabeledSequence) -> float:
    """The instance loss of forward()'s probabilities, pooled without details (see _pool)."""
    pooled, _ = _pool(model, example.sequence, details=False)
    return instance_loss(_probabilities(model, pooled), example.label)


def grad_check(
    model: ClassifierModel,
    example: LabeledSequence,
    eps: float = 1e-5,
    *,
    seed=0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The analytic side is backward()'s list, the gradient a training step
    applies, from one forward().  Each of the two loss evaluations per
    scalar pools without details (see _pool) and builds no ForwardCache.
    The model's parameters are first nudged by seeded uniform noise in
    +-GRAD_CHECK_NUDGE; finite differences are meaningless exactly at ReLU
    and max-pool ties, and the nudge moves the model off them.  The
    original model is not modified.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps must be in [1e-7, 1e-3], got {eps}")
    rng = np.random.default_rng(seed_value(seed))
    work = copy.deepcopy(model)
    for p in work.parameters():
        p += rng.uniform(-GRAD_CHECK_NUDGE, GRAD_CHECK_NUDGE, p.shape)

    _, cache = forward(work, example.sequence)
    grads = backward(work, cache, example.label)

    worst = 0.0
    for param, grad in zip(work.parameters(), grads):
        # index the parameter itself: reshape(-1) of the banks' transposed
        # views would be a copy, and perturbing it would change nothing
        for j in np.ndindex(param.shape):
            saved = param[j]
            param[j] = saved + eps
            loss_plus = _loss_at(work, example)
            param[j] = saved - eps
            loss_minus = _loss_at(work, example)
            param[j] = saved
            fd = (loss_plus - loss_minus) / (2.0 * eps)
            denom = max(abs(grad[j]), abs(fd), 1e-8)
            worst = max(worst, abs(grad[j] - fd) / denom)
    return worst


def _header(model: ClassifierModel) -> dict:
    """The checkpoint header: the model's sizes and the spec it holds in memory."""
    spec = model.spec
    return {
        "pooling_kind": spec.kind,
        "num_features": model.num_features,
        "num_classes": model.num_classes,
        "interval": spec.interval,
        "stride": spec.stride,
        "n_filters": spec.n_filters,
        "pyramid": list(spec.pyramid.segments_per_level),
        "sample_rate": spec.sample_rate,
    }


def save_model(model: ClassifierModel, path) -> None:
    """Write a checkpoint: the JSON header, then the raw parameters; round-trips bit-exactly.

    Each parameter is written in C order of its documented shape, so the
    banks go out as (K, n, l) weights and (K, n) biases.
    """
    header = json.dumps(_header(model)).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREAMBLE.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(header)) + header)
        for param in model.parameters():
            np.ascontiguousarray(param, dtype="<f8").tofile(fh)


def load_model(path) -> ClassifierModel:
    """Read a checkpoint written by save_model; anything else is a ParseError.

    The header must hold exactly the fields save_model writes, with the
    values of the model built from it: JSON integers (not ``2.0`` or
    ``true``), and the no-op values of the settings a kind does not read.
    The payload must hold exactly the parameters that geometry implies.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise ValueError("not a checkpoint (JSON checkpoints no longer load)")
        if len(raw) < _PREAMBLE.size:
            raise ValueError("truncated checkpoint header")
        _, version, length = _PREAMBLE.unpack_from(raw)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        end = _PREAMBLE.size + length
        if end > len(raw):
            raise ValueError(f"a header of {length} bytes runs past the end of the file")
        header = json.loads(raw[_PREAMBLE.size : end].decode("utf-8"))
        if not isinstance(header, dict):
            raise ValueError("the header is not a JSON object")
        settings = ("interval", "stride", "n_filters", "pyramid", "sample_rate")
        spec = PoolingSpec(header["pooling_kind"], *(header[key] for key in settings))
        num_features = positive_int(header["num_features"], "num_features")
        num_classes = positive_int(header["num_classes"], "num_classes")
        shapes = _parameter_shapes(spec, num_features, num_classes)
        sizes = [math.prod(shape) for shape in shapes]
        if len(raw) - end != 8 * sum(sizes):
            raise ValueError(f"the payload does not hold the {sum(sizes)} parameters of {header}")
        values = np.split(np.frombuffer(raw, "<f8", offset=end), np.cumsum(sizes)[:-1])
        w_head, b_head, *bank = map(np.reshape, values, shapes)
        banks = FilterBankSet(*bank, stride=spec.stride) if bank else None
        model = ClassifierModel(spec, num_features, num_classes, w_head, b_head, banks)
        expected = _header(model)
        extra = sorted(header.keys() - expected.keys())
        if extra:
            raise ValueError(f"unknown header field {extra[0]!r}")
        for key, value in expected.items():
            if header[key] != value:
                raise ValueError(f"{key} {header[key]!r} does not match the model's {value!r}")
    except KeyError as exc:
        raise ParseError(f"{path}: the checkpoint header has no {exc} field") from None
    except (TypeError, ValueError, RecursionError) as exc:  # RecursionError: deep JSON
        raise ParseError(f"{path}: malformed checkpoint: {exc}") from None
    return model
