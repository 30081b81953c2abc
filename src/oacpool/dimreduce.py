"""Signature-based supervised dimensionality reduction.

Each of the D feature dimensions gets a 'signature': the c-vector of its
per-class mean values.  Clustering the D signatures into k groups with
k-means yields a partition, and a vector is reduced by aggregating (sum or
mean) the coordinates of each group.  Compared with PCA this needs only
class means and one clustering pass, which is what makes it practical for
reducing very high-dimensional encodings to medium dimensionality.
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
)
from .sequences import FeatureSequence

AGGREGATIONS = ("sum", "mean")

# Lloyd rounds before lloyd_kmeans stops even if assignments still move.
KMEANS_MAX_ITERS = 100


@dataclass(eq=False)
class SignatureMatrix:
    """Per-class mean feature vectors, one row per class: shape (c, D).

    Column i is the signature of feature dimension i.
    """

    means: np.ndarray

    def __post_init__(self):
        self.means = np.array(self.means, dtype=np.float64, order="C")
        if self.means.ndim != 2 or self.means.size == 0:
            raise ValueError(f"means must be a nonempty 2-D array, got shape {self.means.shape}")
        if not np.isfinite(self.means).all():
            raise ValueError("means contain NaN or infinite values")

    @property
    def num_classes(self) -> int:
        return self.means.shape[0]

    @property
    def num_dims(self) -> int:
        return self.means.shape[1]

    @property
    def signatures(self) -> np.ndarray:
        """The D signatures as rows: shape (D, c)."""
        return self.means.T


@dataclass(frozen=True, eq=False)
class ReductionPartition:
    """Assignment of each original dimension to one of k nonempty groups."""

    assignment: np.ndarray
    k: int
    aggregation: str = "sum"

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
        if self.aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation must be one of {AGGREGATIONS}")
        assignment.flags.writeable = False
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "_counts", counts)

    @property
    def num_dims(self) -> int:
        return self.assignment.shape[0]

    @property
    def group_sizes(self) -> np.ndarray:
        return self._counts


def class_signatures(data, num_classes: int) -> SignatureMatrix:
    """Mean feature vector of every class from (vector, label) pairs.

    Every class in [0, num_classes) must contribute at least one vector.
    """
    if num_classes < 1:
        raise ValueError(f"num_classes must be >= 1, got {num_classes}")
    sums = None
    counts = np.zeros(num_classes, dtype=np.int64)
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
    return SignatureMatrix(sums / counts[:, None])


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

    Ties in the nearest-centroid assignment go to the lowest centroid index.
    A cluster that comes up empty is reseeded to the point currently
    farthest from its own centroid, which keeps every cluster nonempty and
    never increases the objective.  Returns (assignment, centroids,
    per-iteration objective), with the objective recorded after each
    assignment step; the sequence is non-increasing.
    """
    # C order makes each distance a sum over a contiguous row, so the
    # rounding does not depend on the caller's memory layout
    points = np.ascontiguousarray(points, dtype=np.float64)
    if points.ndim != 2 or points.size == 0:
        raise ValueError(f"points must be a nonempty 2-D array, got shape {points.shape}")
    n = points.shape[0]
    if not 1 <= k <= n:
        raise InvalidTargetError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(points, k, rng)
    previous = None
    objectives = []
    point_idx = np.arange(n)
    # rows of points per distance block, so the (rows, k, c) temporary
    # stays within the conv's 2**16-double block budget
    rows = max(1, _BLOCK_ELEMENTS // (k * points.shape[1]))
    dist2 = np.empty((n, k))
    for _ in range(KMEANS_MAX_ITERS):
        for a in range(0, n, rows):
            block = points[a : a + rows, None, :] - centroids[None, :, :]
            dist2[a : a + rows] = (block**2).sum(axis=2)
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


def kmeans_partition(sig: SignatureMatrix, k: int, seed=0) -> ReductionPartition:
    """Cluster the D signatures into k summed groups; deterministic given seed."""
    if not 1 <= k <= sig.num_dims:
        raise InvalidTargetError(
            f"target dimensionality must be in [1, {sig.num_dims}], got {k}"
        )
    assignment, _, _ = lloyd_kmeans(sig.signatures, k, seed=seed)
    return ReductionPartition(assignment, k)


def reduce(x, partition: ReductionPartition) -> np.ndarray:
    """Aggregate each group's coordinates of a D-vector into one value.

    Group sums accumulate in ascending dimension order (fixed summation
    order); 'mean' divides each sum by the group size.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != partition.num_dims:
        raise ShapeMismatchError(
            f"vector of shape {x.shape}, partition covers {partition.num_dims} dimensions"
        )
    sums = np.bincount(partition.assignment, weights=x, minlength=partition.k)
    if partition.aggregation == "mean":
        return sums / partition.group_sizes
    return sums


def reduce_sequence(seq: FeatureSequence, partition: ReductionPartition) -> FeatureSequence:
    """Apply reduce() to every frame; a T x D sequence becomes T x k.

    One bincount over all frames: frame t's values land in bins
    [k*t, k*t + k), each summed in ascending dimension order as reduce() does.
    """
    num_frames, num_dims = seq.frames.shape
    if num_dims != partition.num_dims:
        raise ShapeMismatchError(
            f"frames of width {num_dims}, partition covers {partition.num_dims} dimensions"
        )
    k = partition.k
    bins = partition.assignment + k * np.arange(num_frames)[:, None]
    sums = np.bincount(
        bins.ravel(), weights=seq.frames.ravel(), minlength=num_frames * k
    ).reshape(num_frames, k)
    if partition.aggregation == "mean":
        sums /= partition.group_sizes
    return FeatureSequence(sums)


def save_partition(partition: ReductionPartition, path) -> None:
    """Text format: header `k=<k> D=<D> aggregation=<sum|mean>`, then one group index per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"k={partition.k} D={partition.num_dims} aggregation={partition.aggregation}\n"
        )
        for g in partition.assignment:
            fh.write(f"{int(g)}\n")


def load_partition(path) -> ReductionPartition:
    """Read a partition written by save_partition."""
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
        return ReductionPartition(assignment, k, fields["aggregation"])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
