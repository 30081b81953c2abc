"""Property tests of k-means against the unblocked oracle; skipped when hypothesis is missing."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import unblocked_lloyd_kmeans

from oacpool.dimreduce import lloyd_kmeans


@st.composite
def duplicate_point_fits(draw):
    """(points, k, seed): n points picked with repeats from at most n integer-valued rows."""
    n = draw(st.integers(1, 12))
    shape = (draw(st.integers(1, n)), draw(st.integers(1, 3)))
    rows = draw(hnp.arrays(np.float64, shape, elements=st.integers(-2, 2).map(float)))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=n, max_size=n))
    return rows[picks], draw(st.integers(1, n)), draw(st.integers(0, 2**32))


@st.composite
def scaled_fits(draw, offsets, scales):
    """(points, k, seed): n points of c <= 60 coordinates, offset + scale * noise.

    Half the cases round the noise to integers and repeat rows, so that
    distances tie exactly.
    """
    n = draw(st.integers(1, 60))
    c = draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    noise = rng.standard_normal((n, c)) * 3
    if draw(st.booleans()):
        noise = np.round(noise)[rng.integers(0, max(1, n // 2), n)]
    points = draw(offsets) + draw(scales) * noise
    return points, draw(st.integers(1, min(n, 12))), draw(st.integers(0, 2**32))


def assert_matches_oracle(points, k, seed):
    got = lloyd_kmeans(points, k, seed=seed)
    # the oracle's distances overflow where the points' squares do
    with np.errstate(over="ignore", invalid="ignore"):
        want = unblocked_lloyd_kmeans(points, k, seed=seed)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(duplicate_point_fits())
def test_every_cluster_filled_and_objective_non_increasing(case):
    points, k, seed = case
    got = lloyd_kmeans(points, k, seed=seed)
    assignment, centroids, objectives = got
    assert (np.bincount(assignment, minlength=k) > 0).all()
    assert np.isfinite(centroids).all()
    assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
    for a, b in zip(got, unblocked_lloyd_kmeans(points, k, seed=seed)):
        assert a.tobytes() == b.tobytes()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(scaled_fits(st.just(0.0), st.sampled_from([1e-3, 1.0, 1e3])))
def test_matches_the_oracle_for_up_to_60_classes(case):
    assert_matches_oracle(*case)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(scaled_fits(st.floats(1e6, 1e8), st.sampled_from([1e-3, 1.0, 10.0])))
def test_matches_the_oracle_under_a_large_common_offset(case):
    # the screen's error bound grows with ‖x‖², so it is wide here next to
    # the distances and keeps many candidates
    assert_matches_oracle(*case)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(scaled_fits(st.just(0.0), st.floats(3e154, 3e155)))
def test_matches_the_oracle_where_squares_overflow(case):
    assert_matches_oracle(*case)
