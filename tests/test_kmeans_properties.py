"""Property test of k-means on duplicate points; skipped when hypothesis is missing."""

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
