"""Signature-based supervised dimensionality reduction.

Each of the D feature dimensions gets a 'signature': the c-vector of its
per-class mean values.  Clustering the D signatures into k groups with
k-means yields a partition, and a vector is reduced by summing the
coordinates of each group.  Compared with PCA this needs only class means
and one clustering pass, which is what makes it practical for reducing
very high-dimensional encodings to medium dimensionality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .convpool import _BLOCK_ELEMENTS
from .errors import (
    InvalidTargetError,
    MissingClassError,
    ParseError,
    ShapeMismatchError,
    SumOverflowError,
)
from .pooling import seed_value
from .sequences import FeatureSequence

# Lloyd rounds before lloyd_kmeans stops even if assignments still move.
KMEANS_MAX_ITERS = 100


@dataclass(frozen=True, eq=False)
class ReductionPartition:
    """Assignment of each original dimension to one of k nonempty, summed groups."""

    assignment: np.ndarray
    k: int

    def __post_init__(self):
        assignment = np.array(self.assignment, dtype=np.int64)
        if assignment.ndim != 1 or assignment.size == 0:
            raise ValueError("assignment must be a nonempty 1-D array")
        if not 1 <= self.k <= assignment.size:
            raise ValueError(f"k must be in [1, {assignment.size}], got {self.k}")
        if assignment.min() < 0 or assignment.max() >= self.k:
            raise ValueError(f"group indices must lie in [0, {self.k})")
        counts = np.bincount(assignment, minlength=self.k)
        if (counts == 0).any():
            empty = int(np.flatnonzero(counts == 0)[0])
            raise ValueError(f"group {empty} is empty")
        assignment.flags.writeable = False
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "_counts", counts)

    @property
    def num_dims(self) -> int:
        return self.assignment.shape[0]

    @property
    def group_sizes(self) -> np.ndarray:
        return self._counts


def class_signatures(data, num_classes: int) -> np.ndarray:
    """The (D, c) signatures from (vector, label) pairs: row i holds dimension i's class means.

    Every class in [0, num_classes) must contribute at least one vector, and
    every class sum must be finite: the first (class, dimension) whose sum
    is not raises SumOverflowError.
    """
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    sums = None
    counts = np.zeros(num_classes, dtype=np.int64)
    # a sum that overflows is reported below, naming its class and dimension
    with np.errstate(over="ignore", invalid="ignore"):
        for vector, label in data:
            vector = np.asarray(vector, dtype=np.float64)
            if vector.ndim != 1:
                raise ValueError(f"expected 1-D vectors, got shape {vector.shape}")
            label = int(label)
            if not 0 <= label < num_classes:
                raise ValueError(f"label {label} out of range for {num_classes} classes")
            if sums is None:
                sums = np.zeros((num_classes, vector.shape[0]))
            elif vector.shape[0] != sums.shape[1]:
                raise ShapeMismatchError(
                    f"vector of length {vector.shape[0]}, expected {sums.shape[1]}"
                )
            sums[label] += vector
            counts[label] += 1
    if sums is None:
        raise ValueError("no data")
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise MissingClassError(f"class {missing} has no training vectors")
    finite = np.isfinite(sums)
    if not finite.all():
        label, dim = np.unravel_index(int(finite.argmin()), sums.shape)
        raise SumOverflowError(
            f"class {label} sums to a non-finite value in dimension {dim}"
        )
    return np.ascontiguousarray((sums / counts[:, None]).T)


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: squared-distance-weighted draws from the given generator."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[int(rng.integers(n))]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        else:
            # all remaining points coincide with chosen centroids
            idx = int(rng.integers(n))
        centroids[j] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))
    return centroids


def lloyd_kmeans(points, k: int, seed=0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding, at most KMEANS_MAX_ITERS rounds.

    points must be finite.  Ties in the nearest-centroid assignment go to
    the lowest centroid index.  A cluster that comes up empty is reseeded
    to the point farthest from its own centroid among clusters with at
    least two members, so no cluster is ever empty and the objective never
    increases.  Returns (assignment, centroids, per-iteration objective),
    with the objective recorded after each assignment step; the sequence
    is non-increasing.
    """
    # C order makes each distance a sum over a contiguous row, so the
    # rounding does not depend on the caller's memory layout
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.size == 0:
        raise ValueError(f"points must be a nonempty 2-D array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError("points contain NaN or infinite values")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidTargetError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed_value(seed))
    centroids = _kmeans_pp_init(points, k, rng)
    previous = None
    objectives = []
    # rows of points per distance block, so the (rows, k, c) temporary
    # stays within the conv's 2**16-double block budget
    rows = max(1, _BLOCK_ELEMENTS // (k * points.shape[1]))
    assignment = np.empty(n, dtype=np.intp)
    own = np.empty(n)  # squared distance of each point to its centroid
    for _ in range(KMEANS_MAX_ITERS):
        for a in range(0, n, rows):
            dist2 = ((points[a : a + rows, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            dist2.argmin(axis=1, out=assignment[a : a + rows])
            dist2.min(axis=1, out=own[a : a + rows])
        counts = np.bincount(assignment, minlength=k)
        for g in np.flatnonzero(counts == 0):
            # n >= k, so some cluster has a member to spare
            moved = int(np.where(counts[assignment] > 1, own, -np.inf).argmax())
            counts[assignment[moved]] -= 1
            counts[g] = 1
            assignment[moved] = g
            own[moved] = 0.0
            centroids[g] = points[moved]
        objectives.append(float(own.sum()))
        if previous is not None and np.array_equal(assignment, previous):
            break
        previous = assignment.copy()
        for g in range(k):
            centroids[g] = points[assignment == g].mean(axis=0)
    return assignment, centroids, np.asarray(objectives)


def kmeans_partition(signatures, k: int, seed=0) -> ReductionPartition:
    """Cluster the rows of the (D, c) signatures into k summed groups; deterministic given seed."""
    num_dims = len(signatures)
    if not 1 <= k <= num_dims:
        raise InvalidTargetError(f"target dimensionality must be in [1, {num_dims}], got {k}")
    assignment, _, _ = lloyd_kmeans(signatures, k, seed=seed)
    return ReductionPartition(assignment, k)


def reduce(x, partition: ReductionPartition) -> np.ndarray:
    """Sum each group's coordinates of a D-vector into one value.

    Group sums accumulate in ascending dimension order (fixed summation
    order).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != partition.num_dims:
        raise ShapeMismatchError(
            f"vector of shape {x.shape}, partition covers {partition.num_dims} dimensions"
        )
    return np.bincount(partition.assignment, weights=x, minlength=partition.k)


def reduce_sequence(seq: FeatureSequence, partition: ReductionPartition) -> FeatureSequence:
    """Apply reduce() to every frame; a T x D sequence becomes T x k.

    Only the k-wide rows are allocated, never a T x D array.
    """
    num_dims = seq.num_features
    if num_dims != partition.num_dims:
        raise ShapeMismatchError(
            f"frames of width {num_dims}, partition covers {partition.num_dims} dimensions"
        )
    return FeatureSequence(np.stack([reduce(frame, partition) for frame in seq.frames]))


def save_partition(partition: ReductionPartition, path) -> None:
    """Text format: header `k=<k> D=<D> aggregation=sum`, then one group index per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"k={partition.k} D={partition.num_dims} aggregation=sum\n")
        for g in partition.assignment:
            fh.write(f"{int(g)}\n")


def load_partition(path) -> ReductionPartition:
    """Read a partition written by save_partition; the header must declare aggregation=sum."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not utf-8 text: {exc}") from None
    if not lines:
        raise ParseError(f"{path}: empty partition file")
    fields = dict(
        token.split("=", 1) for token in lines[0].split() if "=" in token
    )
    missing = {"k", "D", "aggregation"} - fields.keys()
    if len(fields) != len(lines[0].split()) or missing:
        raise ParseError(f"{path}: line 1: malformed header {lines[0]!r}")
    if fields["aggregation"] != "sum":
        raise ParseError(
            f"{path}: line 1: aggregation must be sum, got {fields['aggregation']!r}"
        )
    try:
        k = int(fields["k"])
        num_dims = int(fields["D"])
    except ValueError:
        raise ParseError(f"{path}: line 1: non-integer k or D") from None
    body = lines[1:]
    if len(body) != num_dims:
        raise ParseError(
            f"{path}: header declares D={num_dims} but found {len(body)} assignment lines"
        )
    assignment = np.empty(num_dims, dtype=np.int64)
    for i, line in enumerate(body):
        try:
            assignment[i] = int(line.strip())
        except (ValueError, OverflowError):
            raise ParseError(f"{path}: line {i + 2}: not a group index: {line!r}") from None
    try:
        return ReductionPartition(assignment, k)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
