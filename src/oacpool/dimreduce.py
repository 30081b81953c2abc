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

from .errors import (
    InvalidTargetError,
    MissingClassError,
    ParseError,
    ShapeMismatchError,
    SumOverflowError,
)
from .pooling import positive_int, seed_value
from .sequences import FeatureSequence, _checked_floats

# Lloyd rounds before lloyd_kmeans stops even if assignments still move.
KMEANS_MAX_ITERS = 100

# Doubles per block of k-means temporaries: 2**16 (512 KiB) stay in a
# core's L2 cache.
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True, eq=False)
class ReductionPartition:
    """Assignment of each original dimension to one of k nonempty, summed groups."""

    assignment: np.ndarray
    k: int

    def __post_init__(self):
        assignment = np.asarray(self.assignment)
        if assignment.ndim != 1 or assignment.size == 0:
            raise ValueError("assignment must be a nonempty 1-D array")
        if not np.issubdtype(assignment.dtype, np.integer):  # bool is not an integer dtype
            raise ValueError(f"group indices must be integers, got dtype {assignment.dtype}")
        assignment = np.array(assignment, dtype=np.int64)
        object.__setattr__(self, "k", positive_int(self.k, "k", minimum=-np.inf))
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
    """The (D, c) signatures of LabeledSequences: row i holds dimension i's class means.

    Every frame is a vector of its sequence's class.  data is read once, a
    sequence at a time, and each frame is added to its class sum in
    sequence order, then frame order.  Every sequence must have the first
    one's width, every class in [0, num_classes) must contribute at least
    one frame, and every class sum must be finite: the first (class,
    dimension) whose sum is not raises SumOverflowError.
    """
    num_classes = positive_int(num_classes, "num_classes")
    sums = None
    counts = np.zeros(num_classes, dtype=np.int64)
    # a sum that overflows is reported below, naming its class and dimension
    with np.errstate(over="ignore", invalid="ignore"):
        for item in data:
            label, frames = item.label, item.sequence.frames
            if label >= num_classes:
                raise ValueError(f"label {label} out of range for {num_classes} classes")
            if sums is None:
                sums = np.zeros((num_classes, frames.shape[1]))
            elif frames.shape[1] != sums.shape[1]:
                raise ShapeMismatchError(
                    f"frames of width {frames.shape[1]}, expected {sums.shape[1]}"
                )
            total = sums[label]
            for frame in frames:
                total += frame
            counts[label] += frames.shape[0]
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


# The distance screen's error bound is γ(‖x‖ + ‖c‖)² with γ = (c + 4) times
# this unit, plus the underflow slack; lloyd_kmeans derives both.
_SCREEN_UNIT = 2.0**-50
_UNDERFLOW_SLACK = 2.0**-1021


def _row_norms(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Squared Euclidean norms of the rows, in any summation order, and their square roots."""
    squares = np.einsum("ij,ij->i", points, points)
    return squares, np.sqrt(squares)


def _exact_sums(rows: np.ndarray, centroids: np.ndarray, out=None) -> np.ndarray:
    """The exact row sums ``((x - c) ** 2).sum()`` that every decision reads.

    rows is a fresh (pairs, c) array of points, which this overwrites;
    centroids holds their centroids, row for row or broadcast.
    """
    rows -= centroids
    rows *= rows
    return rows.sum(axis=1, out=out)


def _screen(points, norms, scaled, c_squares) -> tuple[np.ndarray, np.ndarray]:
    """(h, E) for the rows of points against the centroids ``scaled / -2``.

    h[i, j] = ‖c_j‖² − 2x_i·c_j comes from one GEMM, and c_squares holds
    the ‖c_j‖².  E[i] bounds |‖x_i‖² + h[i, j] − r[i, j]| for every j, where
    ‖x_i‖² is the squared norm as _row_norms computes it and r[i, j] the
    exact row sum; lloyd_kmeans derives the bound.  It holds wherever h and
    E are finite.
    """
    h = points @ scaled.T
    h += c_squares
    slack = norms + np.sqrt(c_squares.max())
    slack *= slack
    slack *= (points.shape[1] + 4) * _SCREEN_UNIT
    slack += _UNDERFLOW_SLACK
    return h, slack


def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: squared-distance-weighted draws from the given generator.

    d2 holds each point's exact squared distance to its nearest chosen
    centroid, the row sum ``((x - c) ** 2).sum()``, and the draws read
    nothing else.  Each new centroid is screened by one GEMV (_screen): by
    the bound derived in lloyd_kmeans, ‖x‖² + h − E is at most the exact
    row sum.  A point whose lower bound is finite and at least its d2
    cannot come closer, so its d2 keeps its bytes.  Every other point gets
    the exact row sum, and its d2 becomes the minimum of the two, as if
    every point had been re-scored.
    """
    n, c = points.shape
    squares, norms = _row_norms(points)
    chunk = max(1, _BLOCK_ELEMENTS // (4 * c))  # re-scored rows at a time
    centroids = np.empty((k, c))
    d2 = np.full(n, np.inf)
    idx = int(rng.integers(n))
    for j in range(k):
        if j:
            total = d2.sum()
            if total > 0:
                r = rng.random() * total
                idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
                idx = min(idx, n - 1)
            else:
                # all remaining points coincide with chosen centroids
                idx = int(rng.integers(n))
        centroids[j] = points[idx]
        h, slack = _screen(points, norms, -2.0 * centroids[j : j + 1], squares[idx : idx + 1])
        lower = h[:, 0]
        lower += squares
        lower -= slack
        near = np.flatnonzero(~(np.isfinite(lower) & (lower >= d2)))
        for p in range(0, near.size, chunk):
            rows = near[p : p + chunk]
            d2[rows] = np.minimum(d2[rows], _exact_sums(points[rows], centroids[j]))
    return centroids


def _assign(points, norms, centroids, assignment, own) -> None:
    """Fill assignment and own with each point's nearest centroid and exact distance.

    A block of rows at a time, _screen estimates every distance and only
    the candidates get their exact row sums (see lloyd_kmeans).  The
    block's temporaries stay about _BLOCK_ELEMENTS doubles: the
    (rows, k) estimates take 1/4 of it, the candidate pairs' indices and
    sums at most 3/4 (when every centroid is a candidate), and each chunk
    of re-scored (pairs, c) rows 1/4.
    """
    n, c = points.shape
    k = centroids.shape[0]
    scaled = -2.0 * centroids
    c_squares = np.einsum("ij,ij->i", centroids, centroids)
    rows = max(1, _BLOCK_ELEMENTS // (4 * k))
    chunk = max(1, _BLOCK_ELEMENTS // (8 * c))
    for a in range(0, n, rows):
        block = points[a : a + rows]
        h, slack = _screen(block, norms[a : a + rows], scaled, c_squares)
        threshold = h[np.arange(block.shape[0]), h.argmin(axis=1)]
        slack *= 2.0
        threshold += slack
        candidate = h <= threshold[:, None]
        # the bound can fail where the screen overflows: such a row takes
        # every centroid
        candidate[~np.isfinite(h.sum(axis=1) + threshold)] = True
        del h
        row, col = np.divmod(np.flatnonzero(candidate), k)
        exact = np.empty(row.size)
        for p in range(0, row.size, chunk):
            pairs = slice(p, p + chunk)
            _exact_sums(block[row[pairs]], centroids[col[pairs]], out=exact[pairs])
        # candidates come row by row in ascending centroid order, and every
        # row has one.  No sum is NaN: the points are finite, and each
        # centroid coordinate is a mean of them, finite or infinite.
        starts = np.searchsorted(row, np.arange(block.shape[0]))
        nearest = np.minimum.reduceat(exact, starts)
        hits = np.flatnonzero(exact == nearest[row])
        assignment[a : a + rows] = col[hits[np.searchsorted(hits, starts)]]
        own[a : a + rows] = nearest


def lloyd_kmeans(points, k: int, seed=0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd's algorithm with k-means++ seeding, at most KMEANS_MAX_ITERS rounds.

    points must be finite.  Ties in the nearest-centroid assignment go to
    the lowest centroid index.  A cluster that comes up empty is reseeded
    to the point farthest from its own centroid among clusters with at
    least two members, so no cluster is ever empty and the objective never
    increases.  Returns (assignment, centroids, per-iteration objective),
    with the objective recorded after each assignment step; the sequence
    is non-increasing.

    Every distance that decides anything is the exact row sum
    r = ``((x - c) ** 2).sum()`` over a contiguous c-long row, so the result
    does not depend on the BLAS, which only screens the candidates.  Per
    block of rows, one GEMM gives h = ‖c‖² − 2x·c for every pair.  Let
    u = 2⁻⁵³, γₙ = nu/(1 − nu), and s the squared distance in exact
    arithmetic:

    - In any summation order, with or without FMA, the computed ‖x‖², x·c
      and ‖c‖² are off by at most γ_c‖x‖², γ_c‖x‖‖c‖ and γ_c‖c‖², and
      forming h rounds once more.  So the computed ‖x‖² plus h is within
      (γ_c + 2u)(‖x‖ + ‖c‖)² of s.
    - r rounds each difference and each square once and adds c
      non-negative terms, so |r − s| ≤ γ_{c+2}·s ≤ γ_{c+2}(‖x‖ + ‖c‖)².

    So |‖x‖² + h − r| ≤ E = γ(‖x‖ + maxⱼ‖cⱼ‖)² + 2⁻¹⁰²¹ for every centroid of
    the row, with γ = (c + 4)·2⁻⁵⁰, four times the sum of the two factors.
    The margin covers computing E from rounded norms and the few roundings
    of the comparisons below; the last term covers underflow.  If centroid
    j is the row's exact nearest and l has the smallest h, then
    ‖x‖² + hⱼ − E ≤ rⱼ ≤ r_l ≤ ‖x‖² + h_l + E, so hⱼ ≤ min h + 2E, and
    ‖x‖² cancels.  Only the centroids within that threshold get their exact
    r, and the lowest index among the exact minima wins.  A row whose
    estimates or threshold are not finite (an overflow) takes every
    centroid as a candidate.
    """
    # C order makes each distance a sum over a contiguous row, so the
    # rounding does not depend on the caller's memory layout
    points = np.ascontiguousarray(_checked_floats(points, 2, "points"))
    n = points.shape[0]
    k = positive_int(k, "k", minimum=-np.inf)  # out of range is an InvalidTargetError
    if not 1 <= k <= n:
        raise InvalidTargetError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed_value(seed))
    _, norms = _row_norms(points)
    previous = None
    objectives = []
    assignment = np.empty(n, dtype=np.intp)
    own = np.empty(n)  # squared distance of each point to its centroid
    # an overflowing estimate, distance or mean is inf and compares as one
    with np.errstate(over="ignore", invalid="ignore"):
        centroids = _kmeans_pp_init(points, k, rng)
        for _ in range(KMEANS_MAX_ITERS):
            _assign(points, norms, centroids, assignment, own)
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
            # each group's rows in ascending order, as a boolean mask selects
            # them, so that every mean keeps its bytes
            members = np.argsort(assignment, kind="stable")
            ends = np.cumsum(counts).tolist()
            for g, (start, end) in enumerate(zip([0] + ends[:-1], ends)):
                centroids[g] = points[members[start:end]].mean(axis=0)
    return assignment, centroids, np.asarray(objectives)


def kmeans_partition(signatures, k: int, seed=0) -> ReductionPartition:
    """Cluster the rows of the (D, c) signatures into k summed groups; deterministic given seed."""
    k = positive_int(k, "k", minimum=-np.inf)  # out of range is an InvalidTargetError
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
    """Reduce every frame as reduce() does; a T x D sequence becomes T x k.

    Only the k-wide rows are allocated, never a T x D array.  The first
    (frame, group) whose sum is not finite raises SumOverflowError.
    """
    num_dims = seq.num_features
    if num_dims != partition.num_dims:
        raise ShapeMismatchError(
            f"frames of width {num_dims}, partition covers {partition.num_dims} dimensions"
        )
    assignment, k = partition.assignment, partition.k
    reduced = np.stack(
        [np.bincount(assignment, weights=frame, minlength=k) for frame in seq.frames]
    )
    finite = np.isfinite(reduced)
    if not finite.all():
        frame, group = np.unravel_index(int(finite.argmin()), reduced.shape)
        raise SumOverflowError(f"frame {frame} sums to a non-finite value in group {group}")
    return FeatureSequence(reduced)


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
