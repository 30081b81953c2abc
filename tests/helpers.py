"""Independent oracles shared by the test modules."""

from __future__ import annotations

import itertools
import json
import math
import struct
import tracemalloc
from math import comb

import numpy as np

from oacpool.convpool import FilterBankSet
from oacpool.dimreduce import KMEANS_MAX_ITERS
from oacpool.errors import DivergenceError
from oacpool.model import backward, forward
from oacpool.pooling import segment_ranges
from oacpool.sequences import FeatureSequence, LabeledSequence


def conv_pre_oracle(signal, weights, biases, stride: int) -> np.ndarray:
    """Naive double-loop convolution: scalar taps summed in order onto 0.0, bias last."""
    signal = np.asarray(signal, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    biases = np.asarray(biases, dtype=np.float64)
    n_filters, length = weights.shape
    t_out = (signal.shape[0] - length) // stride + 1
    out = np.empty((t_out, n_filters))
    for t in range(t_out):
        for j in range(n_filters):
            acc = 0.0
            for i in range(length):
                acc += weights[j][i] * signal[t * stride + i]
            acc += biases[j]
            out[t, j] = acc
    return out


def conv_oracle(signal, weights, biases, stride: int) -> np.ndarray:
    """conv_pre_oracle followed by the ReLU, which maps every nonpositive or NaN value to 0.0."""
    pre = conv_pre_oracle(signal, weights, biases, stride)
    return np.where(pre > 0.0, pre, 0.0)


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


def numpy_segment_pooling(responses, cfg):
    """(argmax, maxima) of every pyramid segment by np.argmax and np.max, each (M, n, K)."""
    ranges = segment_ranges(responses.shape[0], cfg)
    argmax = np.stack([a + responses[a:b].argmax(axis=0) for a, b in ranges])
    maxima = np.stack([responses[a:b].max(axis=0) for a, b in ranges])
    return argmax, maxima


def dense_reference_gradients(model, cache, label: int):
    """Gradients (w_head, b_head, bank weights, bank biases) by dense backprop.

    Every pooled slot's gradient is scattered into a zeroed (T_out, n, K)
    array at its segment's argmax row, masked by the ReLU, and contracted
    with the input windows over all T_out rows.
    """
    dlogits = cache.probs.copy()
    dlogits[label] -= 1.0
    head = (np.outer(dlogits, cache.pooled), dlogits)
    pre = cache.pre_activation
    segments, n_filters, num_dims = cache.segment_argmax.shape
    d_slots = (model.w_head.T @ dlogits).reshape(num_dims, segments, n_filters)
    d_resp = np.zeros(pre.shape)
    chan_idx = np.arange(n_filters)[:, None]
    dim_idx = np.arange(num_dims)[None, :]
    for m in range(segments):
        np.add.at(d_resp, (cache.segment_argmax[m], chan_idx, dim_idx), d_slots[:, m, :].T)
    d_resp *= pre > 0
    bank_w = np.einsum("tjk,tki->kji", d_resp, cache.windows)
    return (*head, bank_w, d_resp.sum(axis=0).T)


def per_step_sgd(model, data, cfg):
    """sgd_train's instance loop with forward, backward and a dense update on every step.

    The same per-epoch default_rng(cfg.seed) shuffle, then for each
    instance, whatever the pooling kind, forward, backward's dense
    gradients, and param -= lr * grad for each parameter, the head weights'
    whole np.outer included; then sgd_train's two DivergenceError checks:
    non-finite logits before the update, and a scan of every parameter
    after it.  Returns the model.
    """
    rng = np.random.default_rng(cfg.seed)
    order = np.arange(len(data))
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            rng.shuffle(order)
            for idx in order:
                item = data[idx]
                try:
                    _, cache = forward(model, item.sequence)
                except ValueError as exc:
                    raise DivergenceError(
                        f"divergence at epoch {epoch}, instance {idx}: {exc}"
                    ) from None
                for param, grad in zip(model.parameters(), backward(model, cache, item.label)):
                    grad *= cfg.learning_rate
                    param -= grad
                model.version += 1
                if not all(np.isfinite(param).all() for param in model.parameters()):
                    raise DivergenceError(
                        f"non-finite parameters after epoch {epoch}, instance {idx}"
                    )
    return model


def reference_kmeans_pp_init(points, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding that computes every point's exact distance to each new centroid."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            r = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        else:
            idx = int(rng.integers(n))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def unblocked_lloyd_kmeans(points, k: int, seed=0):
    """Lloyd's algorithm with the whole (n, k, c) distance array built at once.

    The same seeding, tie-breaking, empty-cluster reseeding and stopping
    rule as dimreduce.lloyd_kmeans, which screens the distances and computes
    only the candidates' exactly.  Here every distance is exact, seeding
    included, and each centroid is the mean of a boolean mask's rows.  An
    empty cluster takes the point farthest from its own centroid among
    clusters with at least two members.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    centroids = reference_kmeans_pp_init(points, k, np.random.default_rng(seed))
    previous = None
    objectives = []
    point_idx = np.arange(n)
    for _ in range(KMEANS_MAX_ITERS):
        dist2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assignment = dist2.argmin(axis=1)
        for g in range(k):
            if not (assignment == g).any():
                own = dist2[point_idx, assignment]
                shared = np.bincount(assignment, minlength=k)[assignment] > 1
                moved = int(np.where(shared, own, -np.inf).argmax())
                assignment[moved] = g
                centroids[g] = points[moved]
                dist2[:, g] = ((points - centroids[g]) ** 2).sum(axis=1)
        objectives.append(float(dist2[point_idx, assignment].sum()))
        if previous is not None and np.array_equal(assignment, previous):
            break
        previous = assignment.copy()
        for g in range(k):
            centroids[g] = points[assignment == g].mean(axis=0)
    return assignment, centroids, np.asarray(objectives)


def float_reference_rows(text: str):
    """Read the body of a feature text file one float() per token.

    The header must be well formed and declare as many rows as there are
    non-blank body lines.  Returns (frames, None), or (None, message) where
    message is 'line N: reason' for the first bad line, as a reader that
    checks width, then numbers, then finiteness line by line reports it.
    """
    lines = text.splitlines()
    num_dims = int(lines[0].split()[1][2:])
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != num_dims:
            return None, f"line {lineno}: expected {num_dims} values, got {len(parts)}"
        try:
            row = [float(p) for p in parts]
        except ValueError:
            return None, f"line {lineno}: non-numeric value"
        if not all(math.isfinite(v) for v in row):
            return None, f"line {lineno}: non-finite value"
        rows.append(row)
    return np.array(rows, dtype=np.float64), None


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Adjusted Rand index from the contingency table."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    classes_a = np.unique(labels_a)
    classes_b = np.unique(labels_b)
    contingency = np.zeros((classes_a.size, classes_b.size), dtype=np.int64)
    for i, ca in enumerate(classes_a):
        for j, cb in enumerate(classes_b):
            contingency[i, j] = int(np.sum((labels_a == ca) & (labels_b == cb)))
    sum_comb = sum(comb(int(n), 2) for n in contingency.ravel())
    sum_a = sum(comb(int(n), 2) for n in contingency.sum(axis=1))
    sum_b = sum(comb(int(n), 2) for n in contingency.sum(axis=0))
    total = comb(labels_a.size, 2)
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_comb - expected) / (max_index - expected)


def brute_force_partition_optimum(points, k: int) -> tuple[np.ndarray, float]:
    """Exhaustive minimum within-cluster sum of squares over all assignments."""
    points = np.asarray(points, dtype=np.float64)
    best_obj = np.inf
    best = None
    for assign in itertools.product(range(k), repeat=points.shape[0]):
        if len(set(assign)) < k:
            continue
        assign = np.asarray(assign)
        obj = 0.0
        for g in range(k):
            members = points[assign == g]
            obj += float(((members - members.mean(axis=0)) ** 2).sum())
        if obj < best_obj:
            best_obj = obj
            best = assign
    return best, best_obj


def canonical_labels(assignment) -> np.ndarray:
    """Relabel groups by first occurrence so partitions compare label-free."""
    mapping: dict[int, int] = {}
    out = np.empty(len(assignment), dtype=np.int64)
    for i, g in enumerate(assignment):
        mapping.setdefault(int(g), len(mapping))
        out[i] = mapping[int(g)]
    return out


def mean_separable_dataset(
    n_per_class: int, num_frames: int, num_features: int, seed: int
) -> list[LabeledSequence]:
    """Two classes whose frame values differ in mean: easy for average pooling."""
    rng = np.random.default_rng(seed)
    data = []
    for label, offset in enumerate((0.0, 1.0)):
        for _ in range(n_per_class):
            frames = offset + 0.1 * rng.standard_normal((num_frames, num_features))
            data.append(LabeledSequence(FeatureSequence(frames), label))
    return data


def traced_peak_mib(call) -> float:
    """Peak of the memory call() allocates, in MiB, as tracemalloc sees it."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def edit_checkpoint(path, drop=(), **edits) -> None:
    """Rewrite a checkpoint's JSON header in place: set edits, delete the keys in drop."""
    raw = path.read_bytes()
    (length,) = struct.unpack_from("<I", raw, 5)
    header = json.loads(raw[9 : 9 + length])
    header.update(edits)
    for key in drop:
        del header[key]
    text = json.dumps(header).encode("utf-8")
    path.write_bytes(raw[:5] + struct.pack("<I", len(text)) + text + raw[9 + length :])


def json_v2_checkpoint(model) -> dict:
    """The JSON document a format 2 checkpoint of model held (before format 3)."""
    spec, banks = model.spec, model.filter_banks
    return {
        "format": "oacpool-model",
        "format_version": 2,
        "pooling_kind": spec.kind,
        "num_features": model.num_features,
        "num_classes": model.num_classes,
        "pooled_length": model.pooled_length,
        "pyramid": (
            list(spec.pyramid.segments_per_level) if spec.kind in ("pyramid", "oacp") else None
        ),
        "interval": spec.interval if banks else None,
        "stride": spec.stride if banks else None,
        "n_filters": spec.n_filters if banks else None,
        "sample_rate": spec.sample_rate,
        "effective_receptive_field": spec.receptive_field if banks else None,
        "w_head": model.w_head.tolist(),
        "b_head": model.b_head.tolist(),
        "bank_weights": banks.weights.tolist() if banks else None,
        "bank_biases": banks.biases.tolist() if banks else None,
    }
