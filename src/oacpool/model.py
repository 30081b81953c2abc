"""Softmax classification head, backpropagation, SGD, and gradient verification.

The model pools a variable-length sequence into a fixed vector p (by one of
four pooling kinds), computes probs = softmax(W p + b), and trains all
parameters with per-instance SGD on the negative log-likelihood.  For the
convolutional pooling kind the gradient flows through the segment max
pooling (to the first maximal response of each segment) and the ReLU (zero
at nonpositive pre-activations) into the filter banks.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .convpool import FilterBankSet, oacp_forward_details
from .errors import DivergenceError, ParseError, ShapeMismatchError, StaleCacheError
from .pooling import (
    PyramidConfig,
    average_pool,
    max_pool,
    positive_int,
    temporal_pyramid_pool,
)
from .sequences import FeatureSequence, LabeledSequence

POOLING_KINDS = ("average", "max", "pyramid", "oacp")

# Floor inside the log of the instance loss; softmax output is strictly
# positive so this never changes results measurably.
LOG_EPS = 1e-15

# Magnitude of the seeded noise grad_check adds to the parameters first.
GRAD_CHECK_NUDGE = 1e-2

CHECKPOINT_FORMAT = "oacpool-model"
CHECKPOINT_VERSION = 2

# Largest minimum_frames a geometry may demand, in frames after sampling.
# Real geometries need a few dozen; padding one paper-scale (K=4096)
# sequence to this many frames takes 128 MiB.
MAX_MINIMUM_FRAMES = 4096


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
    every length and frame count derives from here; parameter counts come
    from the arrays a model holds (ClassifierModel.parameter_total).  A
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
    version: int = field(default=0, repr=False)

    def __post_init__(self):
        self.num_features = positive_int(self.num_features, "num_features")
        self.num_classes = positive_int(self.num_classes, "num_classes")
        spec, banks = self.spec, self.filter_banks
        if spec.kind == "oacp":
            if banks is None:
                raise ValueError("oacp pooling needs a FilterBankSet")
            if banks.num_dims != self.num_features:
                raise ShapeMismatchError(
                    f"bank set covers {banks.num_dims} dimensions, "
                    f"model expects {self.num_features}"
                )
            actual = (banks.interval, banks.n_filters, banks.stride)
            expected = (spec.interval, spec.n_filters, spec.stride)
            if actual != expected:
                raise ShapeMismatchError(
                    f"bank set has (interval, n_filters, stride) {actual}, spec has {expected}"
                )
        elif banks is not None:
            raise ValueError(f"{spec.kind} pooling takes no filter banks")
        self.w_head = np.array(self.w_head, dtype=np.float64, order="C")
        self.b_head = np.array(self.b_head, dtype=np.float64, order="C")
        expected = (self.num_classes, self.pooled_length)
        if self.w_head.shape != expected:
            raise ShapeMismatchError(f"w_head shape {self.w_head.shape}, expected {expected}")
        if self.b_head.shape != (self.num_classes,):
            raise ShapeMismatchError(
                f"b_head shape {self.b_head.shape}, expected ({self.num_classes},)"
            )
        if not (np.isfinite(self.w_head).all() and np.isfinite(self.b_head).all()):
            raise ValueError("head parameters contain NaN or infinite values")

    @property
    def pooled_length(self) -> int:
        """P: length of the pooled representation implied by kind and shapes."""
        return self.spec.pooled_length(self.num_features)

    @classmethod
    def from_spec(
        cls, spec: PoolingSpec, num_features: int, num_classes: int, seed=0
    ) -> "ClassifierModel":
        """Seeded initialization: weights uniform in +-sqrt(6/(fan_in+fan_out)), biases 0.

        Filter banks are drawn before the head, so a given seed fixes every
        parameter of the model.
        """
        num_features = positive_int(num_features, "num_features")
        num_classes = positive_int(num_classes, "num_classes")
        rng = np.random.default_rng(seed)
        banks = None
        if spec.kind == "oacp":
            interval, n_filters = spec.interval, spec.n_filters
            bound = math.sqrt(6.0 / (interval + n_filters))
            banks = FilterBankSet(
                weights=rng.uniform(-bound, bound, (num_features, n_filters, interval)),
                biases=np.zeros((num_features, n_filters)),
                stride=spec.stride,
            )
        pooled_len = spec.pooled_length(num_features)
        bound = math.sqrt(6.0 / (pooled_len + num_classes))
        return cls(
            spec,
            num_features,
            num_classes,
            w_head=rng.uniform(-bound, bound, (num_classes, pooled_len)),
            b_head=np.zeros(num_classes),
            filter_banks=banks,
        )

    @classmethod
    def build(
        cls,
        pooling_kind: str,
        num_features: int,
        num_classes: int,
        *,
        sample_rate: int = 1,
        seed=0,
        **geometry,
    ) -> "ClassifierModel":
        """from_spec with PoolingSpec's fields as keywords; sample_rate defaults to 1."""
        spec = PoolingSpec(pooling_kind, sample_rate=sample_rate, **geometry)
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


@dataclass(eq=False)
class Gradients:
    """Loss gradients, same shapes as the trainable parameters."""

    w_head: np.ndarray
    b_head: np.ndarray
    bank_weights: np.ndarray | None = None
    bank_biases: np.ndarray | None = None

    def arrays(self) -> list[np.ndarray]:
        out = [self.w_head, self.b_head]
        if self.bank_weights is not None:
            out.extend([self.bank_weights, self.bank_biases])
        return out


def softmax(z) -> np.ndarray:
    """Max-shifted softmax: strictly positive, sums to 1, overflow-safe."""
    z = np.asarray(z, dtype=np.float64)
    if not np.isfinite(z).all():
        raise ValueError("logits contain NaN or infinite values")
    shifted = np.exp(z - z.max())
    return shifted / shifted.sum()


def forward(model: ClassifierModel, seq: FeatureSequence) -> tuple[np.ndarray, ForwardCache]:
    """Class probabilities for one sequence plus the state backward() needs."""
    if seq.num_features != model.num_features:
        raise ShapeMismatchError(
            f"sequence has {seq.num_features} features, model expects {model.num_features}"
        )
    extras = {}
    kind, pyramid = model.spec.kind, model.spec.pyramid
    if kind == "average":
        pooled = average_pool(seq)
    elif kind == "max":
        pooled = max_pool(seq)
    elif kind == "pyramid":
        pooled = temporal_pyramid_pool(seq, pyramid)
    else:
        details = oacp_forward_details(seq, model.filter_banks, pyramid)
        pooled = details.pooled
        extras = dict(
            pre_activation=details.pre_activation,
            windows=details.windows,
            segment_argmax=details.segment_argmax,
        )
    probs = softmax(model.w_head @ pooled + model.b_head)
    return probs, ForwardCache(model.version, pooled, probs, **extras)


def instance_loss(probs, label: int) -> float:
    """Negative log-likelihood of the true class: -log(probs[label] + LOG_EPS)."""
    probs = np.asarray(probs, dtype=np.float64)
    if not 0 <= label < probs.shape[0]:
        raise ValueError(f"label {label} out of range for {probs.shape[0]} classes")
    return float(-np.log(probs[label] + LOG_EPS))


def backward(model: ClassifierModel, cache: ForwardCache, label: int) -> Gradients:
    """Gradients of the instance loss for every trainable parameter.

    Logit gradient is probs - onehot(label).  The segment max routes each
    pooled slot's gradient to its first maximal response row; ReLU passes
    gradient only where the pre-activation is strictly positive.  The bank
    gradient is therefore summed over the M routed rows of each (dimension,
    filter) only, in (level, segment) order: each routed slot adds its
    gradient times that row's input window, and a row routed by two
    segments adds twice.
    """
    if cache.version != model.version:
        raise StaleCacheError(
            f"cache built at version {cache.version}, model is at {model.version}"
        )
    if not 0 <= label < model.num_classes:
        raise ValueError(f"label {label} out of range for {model.num_classes} classes")
    dlogits = cache.probs.copy()
    dlogits[label] -= 1.0
    g_w_head = np.outer(dlogits, cache.pooled)
    g_b_head = dlogits
    if model.spec.kind != "oacp":
        return Gradients(g_w_head, g_b_head)

    # pooled holds each slot's ReLU'd maximum in d_pooled's (K, M, n) layout,
    # so it is positive exactly where the routed row's pre-activation is
    d_pooled = model.w_head.T @ dlogits
    coef = (d_pooled * (cache.pooled > 0)).reshape(
        model.num_features, cache.segment_argmax.shape[0], -1
    )
    # gather and sum with K innermost, as the forward's buffers hold it
    routed = cache.windows[cache.segment_argmax, np.arange(model.num_features)]  # (M, n, K, l)
    coef_nk = coef.transpose(1, 2, 0)[..., None]  # (M, n, K, 1)
    g_bank_w = coef_nk[0] * routed[0]
    g_bank_b = coef[:, 0].copy()
    for m in range(1, coef.shape[1]):
        g_bank_w += coef_nk[m] * routed[m]
        g_bank_b += coef[:, m]
    g_bank_w = g_bank_w.transpose(1, 0, 2)  # (K, n, l) view of the (n, K, l) sums
    return Gradients(g_w_head, g_b_head, g_bank_w, g_bank_b)


def _finite_parameters(model: ClassifierModel) -> bool:
    return all(np.isfinite(p).all() for p in model.parameters())


def sgd_train(
    model: ClassifierModel, data: list[LabeledSequence], cfg: TrainConfig
) -> tuple[ClassifierModel, list[EpochStats]]:
    """Plain per-instance SGD: theta <- theta - lr * grad after every instance.

    Instance order is reshuffled each epoch by a generator seeded from
    cfg.seed, so a given (seed, data order, cfg) is bit-deterministic.
    History records each epoch's mean loss and online accuracy (prediction
    taken before the update).
    """
    if not data:
        raise ValueError("training data is empty")
    for i, item in enumerate(data):
        if item.label >= model.num_classes:
            raise ValueError(
                f"instance {i} has label {item.label}, model has {model.num_classes} classes"
            )
        if item.sequence.num_features != model.num_features:
            raise ShapeMismatchError(
                f"instance {i} has {item.sequence.num_features} features, "
                f"model expects {model.num_features}"
            )
    rng = np.random.default_rng(cfg.seed)
    order = np.arange(len(data))
    history: list[EpochStats] = []
    for epoch in range(cfg.epochs):
        rng.shuffle(order)
        total_loss = 0.0
        correct = 0
        for idx in order:
            item = data[idx]
            try:
                # shapes were validated upfront, so a ValueError here means
                # the numbers blew up (e.g. overflowing logits)
                probs, cache = forward(model, item.sequence)
                loss = instance_loss(probs, item.label)
            except ValueError as exc:
                raise DivergenceError(
                    f"divergence at epoch {epoch}, instance {int(idx)}: {exc}"
                ) from None
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch}, instance {int(idx)}"
                )
            total_loss += loss
            if int(np.argmax(probs)) == item.label:
                correct += 1
            grads = backward(model, cache, item.label)
            for param, grad in zip(model.parameters(), grads.arrays()):
                grad *= cfg.learning_rate
                param -= grad
            model.version += 1
            if not _finite_parameters(model):
                raise DivergenceError(
                    f"non-finite parameters after epoch {epoch}, instance {int(idx)}"
                )
        history.append(EpochStats(epoch, total_loss / len(data), correct / len(data)))
    return model, history


def evaluate(
    model: ClassifierModel, data: list[LabeledSequence]
) -> tuple[float, np.ndarray]:
    """Accuracy and a (true, predicted) confusion count matrix.

    Prediction is argmax of the probabilities; exact ties go to the lowest
    class index.
    """
    if not data:
        raise ValueError("evaluation data is empty")
    confusion = np.zeros((model.num_classes, model.num_classes), dtype=np.int64)
    for i, item in enumerate(data):
        if item.label >= model.num_classes:
            raise ValueError(
                f"instance {i} has label {item.label}, model has {model.num_classes} classes"
            )
        probs, _ = forward(model, item.sequence)
        confusion[item.label, int(np.argmax(probs))] += 1
    accuracy = float(np.trace(confusion)) / len(data)
    return accuracy, confusion


def _loss_at(model: ClassifierModel, example: LabeledSequence) -> float:
    probs, _ = forward(model, example.sequence)
    return instance_loss(probs, example.label)


def grad_check(
    model: ClassifierModel,
    example: LabeledSequence,
    eps: float = 1e-5,
    *,
    seed=0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The model's parameters are first nudged by seeded uniform noise in
    +-GRAD_CHECK_NUDGE; finite differences are meaningless exactly at ReLU and
    max-pool ties, and the nudge moves the model off them.  The original
    model is not modified.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps must be in [1e-7, 1e-3], got {eps}")
    work = copy.deepcopy(model)
    rng = np.random.default_rng(seed)
    for p in work.parameters():
        p += rng.uniform(-GRAD_CHECK_NUDGE, GRAD_CHECK_NUDGE, p.shape)
    work.version += 1

    probs, cache = forward(work, example.sequence)
    grads = backward(work, cache, example.label)

    worst = 0.0
    for param, grad in zip(work.parameters(), grads.arrays()):
        flat_p = param.reshape(-1)
        flat_g = grad.reshape(-1)
        for j in range(flat_p.size):
            saved = flat_p[j]
            flat_p[j] = saved + eps
            loss_plus = _loss_at(work, example)
            flat_p[j] = saved - eps
            loss_minus = _loss_at(work, example)
            flat_p[j] = saved
            fd = (loss_plus - loss_minus) / (2.0 * eps)
            denom = max(abs(flat_g[j]), abs(fd), 1e-8)
            worst = max(worst, abs(flat_g[j] - fd) / denom)
    return worst


def _geometry_fields(model: ClassifierModel) -> dict:
    """Checkpoint fields describing the model's shape; null where a kind has none."""
    spec = model.spec
    banks = spec.kind == "oacp"
    pyramid = spec.kind in ("pyramid", "oacp")
    return {
        "pooled_length": model.pooled_length,
        "pyramid": list(spec.pyramid.segments_per_level) if pyramid else None,
        "interval": spec.interval if banks else None,
        "stride": spec.stride if banks else None,
        "n_filters": spec.n_filters if banks else None,
        "sample_rate": spec.sample_rate,
        "effective_receptive_field": spec.receptive_field if banks else None,
    }


def save_model(model: ClassifierModel, path) -> None:
    """Write a self-describing JSON checkpoint; round-trips bit-exactly."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "pooling_kind": model.spec.kind,
        "num_features": model.num_features,
        "num_classes": model.num_classes,
        **_geometry_fields(model),
        "w_head": model.w_head.tolist(),
        "b_head": model.b_head.tolist(),
        "bank_weights": model.filter_banks.weights.tolist() if model.filter_banks else None,
        "bank_biases": model.filter_banks.biases.tolist() if model.filter_banks else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path) -> ClassifierModel:
    """Read a checkpoint written by save_model.

    The model's spec takes interval and n_filters from the bank arrays and
    the other settings from their fields; num_features, num_classes,
    sample_rate, stride and the pyramid entries must be JSON integers.
    Every geometry field must agree with what the parameter shapes and
    settings imply; a mismatch is a ParseError.  A version 1 checkpoint
    loads only if its normalize field is false.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: not a valid checkpoint: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ParseError(f"{path}: not a {CHECKPOINT_FORMAT} checkpoint")
    version = doc.get("format_version")
    if version == 1:
        if doc.get("normalize") is not False:
            raise ParseError(f"{path}: version 1 checkpoint must have normalize false")
    elif version != CHECKPOINT_VERSION:
        raise ParseError(f"{path}: unsupported checkpoint version {version!r}")
    try:
        banks = None
        geometry = {}
        if doc["bank_weights"] is not None:
            banks = FilterBankSet(
                weights=doc["bank_weights"],
                biases=doc["bank_biases"],
                stride=doc["stride"],
            )
            geometry.update(
                interval=banks.interval, stride=banks.stride, n_filters=banks.n_filters
            )
        if doc["pyramid"]:
            geometry["pyramid"] = [positive_int(m, "pyramid") for m in doc["pyramid"]]
        spec = PoolingSpec(doc["pooling_kind"], sample_rate=doc["sample_rate"], **geometry)
        model = ClassifierModel(
            spec,
            num_features=doc["num_features"],
            num_classes=doc["num_classes"],
            w_head=np.asarray(doc["w_head"], dtype=np.float64),
            b_head=np.asarray(doc["b_head"], dtype=np.float64),
            filter_banks=banks,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed checkpoint: {exc}") from None
    for key, value in _geometry_fields(model).items():
        if doc.get(key) != value:
            raise ParseError(
                f"{path}: {key} {doc.get(key)!r} does not match the model's {value!r}"
            )
    return model
