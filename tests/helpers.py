"""Independent oracles shared by the test modules."""

from __future__ import annotations

import itertools
import math
from math import comb

import numpy as np

from oacpool.dimreduce import KMEANS_MAX_ITERS, _kmeans_pp_init
from oacpool.sequences import FeatureSequence, LabeledSequence


def conv_oracle(signal, weights, biases, stride: int) -> np.ndarray:
    """Naive double-loop convolution + ReLU, scalar accumulation in tap order."""
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
            out[t, j] = acc if acc > 0.0 else 0.0
    return out


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


def unblocked_lloyd_kmeans(points, k: int, seed=0):
    """Lloyd's algorithm with the whole (n, k, c) distance array built at once.

    The same seeding, tie-breaking, empty-cluster reseeding and stopping
    rule as dimreduce.lloyd_kmeans, which fills the distances in row blocks.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    centroids = _kmeans_pp_init(points, k, np.random.default_rng(seed))
    previous = None
    objectives = []
    point_idx = np.arange(n)
    for _ in range(KMEANS_MAX_ITERS):
        dist2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assignment = dist2.argmin(axis=1)
        for g in range(k):
            if not (assignment == g).any():
                own = dist2[point_idx, assignment]
                moved = int(own.argmax())
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
