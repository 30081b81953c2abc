import tracemalloc

import numpy as np
import pytest

from helpers import (
    adjusted_rand_index,
    reference_kmeans_pp_init,
    brute_force_partition_optimum,
    canonical_labels,
    group_sum_oracle,
    traced_peak_mib,
    unblocked_lloyd_kmeans,
)

from oacpool import dimreduce
from oacpool.dimreduce import (
    ReductionPartition,
    class_signatures,
    kmeans_partition,
    lloyd_kmeans,
    load_partition,
    reduce_sequence,
    save_partition,
)
from oacpool.errors import (
    InvalidTargetError,
    MissingClassError,
    ParseError,
    ShapeMismatchError,
    SumOverflowError,
)
from oacpool.sequences import FeatureSequence, LabeledSequence


def planted_signatures(rng, dims_per_group, centers, spread):
    """(D, c) signatures clustered around given centers; returns (signatures, truth)."""
    points = []
    truth = []
    for g, center in enumerate(centers):
        for _ in range(dims_per_group):
            points.append(center + spread * rng.standard_normal(len(center)))
            truth.append(g)
    points = np.asarray(points)
    return np.asarray(points), np.asarray(truth)


def labeled(frames, label):
    return LabeledSequence(FeatureSequence(frames), label)


def reduced_frame(x, partition):
    """The one row reduce_sequence gives for the one-frame record of x."""
    return reduce_sequence(FeatureSequence(x[None, :]), partition).frames[0]


class TestClassSignatures:
    def test_single_vector_per_class(self):
        data = [labeled([[1.0, 2.0]], 0), labeled([[3.0, 4.0]], 1)]
        sig = class_signatures(data, 2)
        assert sig.tolist() == [[1.0, 3.0], [2.0, 4.0]]

    def test_class_mean_is_midpoint(self):
        data = [labeled([[0.0, 2.0], [2.0, 0.0]], 0), labeled([[5.0, 5.0]], 1)]
        sig = class_signatures(data, 2)
        assert sig[:, 0].tolist() == [1.0, 1.0]

    def test_class_mean_weighs_every_frame_alike(self):
        # a mean over frames, not over sequence means
        data = [labeled([[0.0], [0.0], [0.0]], 0), labeled([[4.0]], 0)]
        assert class_signatures(data, 1).tolist() == [[1.0]]

    def test_frames_are_added_one_at_a_time_in_sequence_order(self):
        # a class sum over frames of very different magnitudes rounds one
        # way frame by frame and another way sequence by sequence
        rng = np.random.default_rng(90)
        data = []
        for c in range(12):
            frames = rng.standard_normal((int(rng.integers(1, 6)), 5))
            data.append(labeled(frames * 10.0 ** rng.integers(-8, 9, 5), c % 2))
        sums, per_sequence, counts = np.zeros((2, 5)), np.zeros((2, 5)), np.zeros((2, 1))
        for item in data:
            for frame in item.sequence.frames:
                sums[item.label] += frame
            per_sequence[item.label] += item.sequence.frames.sum(axis=0)
            counts[item.label] += item.sequence.num_frames
        assert sums.tobytes() != per_sequence.tobytes()
        sig = class_signatures(iter(data), 2)
        assert sig.tobytes() == np.ascontiguousarray((sums / counts).T).tobytes()

    def test_missing_class_rejected(self):
        data = [labeled([[1.0]], 0), labeled([[2.0]], 1)]
        with pytest.raises(MissingClassError, match="class 2"):
            class_signatures(data, 3)

    def test_inconsistent_vector_lengths(self):
        data = [labeled([[1.0, 2.0]], 0), labeled([[1.0]], 0)]
        with pytest.raises(ShapeMismatchError, match="frames of width 1, expected 2"):
            class_signatures(data, 1)

    def test_overflowing_class_sum_names_class_and_dimension(self):
        # finite frames whose class-1 sum overflows in dimension 2 only
        data = [labeled([[0.0, 1.0, 2.0]], 0), labeled([[1.0, 1.0, 1e308], [2.0, 3.0, 1e308]], 1)]
        with pytest.raises(SumOverflowError, match="class 1 .*dimension 2"):
            class_signatures(data, 2)

    @pytest.mark.parametrize("num_classes", [True, 2.5, 2.0, "2", None])
    def test_rejects_a_class_count_that_is_not_an_integer_by_name(self, num_classes):
        with pytest.raises(ValueError, match="num_classes must be an integer"):
            class_signatures([labeled([[1.0, 2.0]], 0), labeled([[3.0, 4.0]], 1)], num_classes)

    def test_rejects_a_class_count_below_one(self):
        with pytest.raises(ValueError, match="num_classes must be >= 1, got 0"):
            class_signatures([labeled([[1.0]], 0)], 0)

    def test_rejects_a_label_out_of_range(self):
        data = [labeled([[1.0, 2.0]], 0), labeled([[3.0, 4.0]], 2)]
        with pytest.raises(ValueError, match="label 2 out of range for 2 classes"):
            class_signatures(data, 2)

    def test_signature_columns(self):
        sig = class_signatures([labeled([[1.0, 2.0]], 0), labeled([[3.0, 4.0]], 1)], 2)
        assert sig.shape == (2, 2) and sig.flags.c_contiguous
        assert sig.tolist() == [[1.0, 3.0], [2.0, 4.0]]


class TestLloydKmeans:
    def test_objective_is_monotone_non_increasing(self):
        rng = np.random.default_rng(70)
        for seed in range(10):
            points = rng.standard_normal((30, 3))
            _, _, objectives = lloyd_kmeans(points, 4, seed=seed)
            assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_deterministic_given_seed(self):
        points = np.random.default_rng(71).standard_normal((25, 2))
        a1, _, _ = lloyd_kmeans(points, 5, seed=42)
        a2, _, _ = lloyd_kmeans(points, 5, seed=42)
        assert np.array_equal(a1, a2)

    def test_duplicate_points_still_fill_every_cluster(self):
        points = np.array([[0.0, 0.0]] * 4 + [[10.0, 10.0]] * 2)
        for seed in range(8):
            assignment, _, objectives = lloyd_kmeans(points, 3, seed=seed)
            assert set(np.unique(assignment)) == {0, 1, 2}
            assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))

    def test_fewer_distinct_points_than_k_fills_every_cluster(self):
        # every own distance is 0, so only members of shared clusters may move
        assignment, centroids, objectives = lloyd_kmeans(np.zeros((3, 1)), 3, seed=0)
        assert sorted(assignment.tolist()) == [0, 1, 2]
        assert np.isfinite(centroids).all()
        assert objectives.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_points(self, bad):
        with pytest.raises(ValueError, match="NaN or infinite"):
            lloyd_kmeans(np.array([[0.0], [bad]]), 1)

    def test_rejects_bad_k(self):
        points = np.zeros((4, 2))
        with pytest.raises(InvalidTargetError):
            lloyd_kmeans(points, 5)
        with pytest.raises(InvalidTargetError):
            lloyd_kmeans(points, 0)

    def test_rejects_non_integer_k_and_keeps_range_errors(self):
        points = np.zeros((4, 2))
        for k in (True, 2.0):
            with pytest.raises(ValueError, match="k must be an integer"):
                lloyd_kmeans(points, k)
        with pytest.raises(InvalidTargetError, match="k must be in"):
            lloyd_kmeans(points, -1)

    @pytest.mark.parametrize(
        "n, k, c",
        [
            (2047, 4, 8),    # blocks of 2048 rows: n below one block
            (2048, 4, 8),    # exactly one block
            (2049, 4, 8),    # one block and a one-row block
            (270, 260, 260),  # k*c above 2**16: one-row blocks
        ],
    )
    def test_blocked_distances_match_the_unblocked_oracle(self, n, k, c):
        rng = np.random.default_rng(n + k + c)
        points = rng.standard_normal((n, c))
        got = lloyd_kmeans(points, k, seed=3)
        want = unblocked_lloyd_kmeans(points, k, seed=3)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    def test_result_does_not_depend_on_memory_layout(self):
        rng = np.random.default_rng(69)
        for case in range(40):
            c = int(rng.integers(1, 60))
            n = int(rng.integers(2, 80))
            k = int(rng.integers(1, min(n, 12) + 1))
            view = rng.standard_normal((c, n)).T
            copy = np.ascontiguousarray(view)
            for a, b in zip(lloyd_kmeans(view, k, seed=case), lloyd_kmeans(copy, k, seed=case)):
                assert a.tobytes() == b.tobytes(), (case, n, k, c)

    @staticmethod
    def screen_cases():
        """(points, k, seed): plain, far-offset and integer-tied fits of up to 60 classes."""
        rng = np.random.default_rng(63)
        for case in range(30):
            n = int(rng.integers(2, 90))
            c = int(rng.integers(1, 61))
            points = rng.standard_normal((n, c))
            if case % 3 == 1:
                points += 10.0 ** rng.uniform(6, 8)
            elif case % 3 == 2:
                points = np.round(3 * points)[rng.integers(0, n // 2 + 1, n)]
            yield points, int(rng.integers(1, min(n, 16) + 1)), case

    def test_estimates_off_by_half_their_bound_give_the_same_bytes(self, monkeypatch):
        # another BLAS may sum x·c in another order; moving every estimate by
        # up to half its error bound, either way, stands in for it
        rng = np.random.default_rng(62)
        screen = dimreduce._screen

        def shifted(*args):
            estimates, bound = screen(*args)
            shape = estimates.shape
            extreme = rng.choice([-0.5, 0.5], shape)
            shift = np.where(rng.random(shape) < 0.5, extreme, rng.uniform(-0.5, 0.5, shape))
            return estimates + shift * bound[:, None], bound

        monkeypatch.setattr(dimreduce, "_screen", shifted)
        for points, k, seed in self.screen_cases():
            got = lloyd_kmeans(points, k, seed=seed)
            for a, b in zip(got, unblocked_lloyd_kmeans(points, k, seed=seed)):
                assert a.tobytes() == b.tobytes(), seed

    def test_exact_estimates_with_a_zero_bound_give_the_same_bytes(self, monkeypatch):
        # the exact row sums less ‖x‖², with no error at all, are a screen
        # of zero width: each row's nearest centroids lie on its threshold
        # and must stay candidates.  Integer points keep the seeding's
        # ‖x‖² + h equal to the row sum.
        def exact(points, norms, scaled, c_squares):
            exact = ((points[:, None, :] + scaled[None, :, :] / 2) ** 2).sum(axis=2)
            squares = np.einsum("ij,ij->i", points, points)
            return exact - squares[:, None], np.zeros(len(points))

        monkeypatch.setattr(dimreduce, "_screen", exact)
        rng = np.random.default_rng(61)
        for seed in range(20):
            n = int(rng.integers(2, 60))
            points = rng.integers(-3, 4, (n // 2 + 1, int(rng.integers(1, 61))))
            points = points[rng.integers(0, n // 2 + 1, n)].astype(np.float64)
            k = int(rng.integers(1, min(n, 16) + 1))
            got = lloyd_kmeans(points, k, seed=seed)
            for a, b in zip(got, unblocked_lloyd_kmeans(points, k, seed=seed)):
                assert a.tobytes() == b.tobytes(), seed

    def test_seeding_rescores_points_whose_bound_overflows(self):
        # x and y lie 1.7976931348623155e308 apart squared, a finite row
        # sum, but the screen's ‖x‖² + h overflows to inf.  Seeded with the
        # first point, which x is infinitely far from, y comes next, and x
        # must then get its exact distance to y.
        x, y = 2.7266420580806127e153, -1.0681165871861983e154
        points = np.array([[y - 1e150], [x], [y]])
        for seed in (11, 14):  # seeds whose first draw is the first point
            with np.errstate(over="ignore", invalid="ignore"):
                got = dimreduce._kmeans_pp_init(points, 3, np.random.default_rng(seed))
                want = reference_kmeans_pp_init(points, 3, np.random.default_rng(seed))
            assert got[0] == points[0]
            assert got.tobytes() == want.tobytes(), seed

    def test_memory_stays_bounded_at_the_benchmark_shape(self):
        # D=4096 signatures of 51 classes into 128 groups: one (D, k, c)
        # distance array would be 214 MB
        rng = np.random.default_rng(68)
        prototypes = rng.standard_normal((128, 51))
        points = prototypes[rng.integers(0, 128, 4096)] + 0.2 * rng.standard_normal((4096, 51))
        tracemalloc.start()
        try:
            lloyd_kmeans(points, 128, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_memory_stays_bounded_with_many_clusters(self):
        # D=4096 one-class signatures into 1024 groups: a (D, k) distance
        # array alone would be 32 MiB
        points = np.random.default_rng(66).standard_normal((4096, 1))
        tracemalloc.start()
        try:
            lloyd_kmeans(points, 1024, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestKmeansPartition:
    def test_k_equals_d_gives_singletons(self):
        rng = np.random.default_rng(72)
        sig = rng.standard_normal((3, 6)).T
        partition = kmeans_partition(sig, 6, seed=0)
        assert (partition.group_sizes == 1).all()

    def test_k_one_groups_everything(self):
        sig = np.random.default_rng(73).standard_normal((2, 5)).T
        partition = kmeans_partition(sig, 1, seed=0)
        assert partition.assignment.tolist() == [0] * 5

    def test_matches_exhaustive_enumeration_on_planted_groups(self):
        rng = np.random.default_rng(74)
        sig, _ = planted_signatures(
            rng,
            dims_per_group=2,
            centers=[np.array([0.0, 0.0]), np.array([50.0, 0.0]), np.array([0.0, 50.0])],
            spread=0.5,
        )
        assert len(sig) == 6
        best_assign, best_obj = brute_force_partition_optimum(sig, 3)
        partition = kmeans_partition(sig, 3, seed=1)
        assert np.array_equal(
            canonical_labels(partition.assignment), canonical_labels(best_assign)
        )
        _, _, objectives = lloyd_kmeans(sig, 3, seed=1)
        assert objectives[-1] == pytest.approx(best_obj, rel=1e-12, abs=1e-12)

    def test_recovers_planted_structure_across_seeds(self):
        rng = np.random.default_rng(75)
        centers = [np.zeros(3), np.full(3, 10.0), np.array([10.0, -10.0, 0.0])]
        sig, truth = planted_signatures(rng, dims_per_group=10, centers=centers, spread=1.0)
        scores = [
            adjusted_rand_index(kmeans_partition(sig, 3, seed=s).assignment, truth)
            for s in range(20)
        ]
        assert np.mean(scores) >= 0.9

    @pytest.mark.parametrize("k", [True, 2.0], ids=["True", "2.0"])
    def test_rejects_non_integer_k(self, k):
        sig = np.random.default_rng(77).standard_normal((6, 2))
        with pytest.raises(ValueError, match="k must be an integer"):
            kmeans_partition(sig, k)

    @pytest.mark.parametrize("k", ["3", None], ids=["str", "None"])
    def test_rejects_k_that_is_not_a_number(self, k):
        sig = np.random.default_rng(77).standard_normal((6, 2))
        with pytest.raises(ValueError, match="k must be an integer") as raised:
            kmeans_partition(sig, k)
        assert not isinstance(raised.value, InvalidTargetError)

    @pytest.mark.parametrize("k", [0, 7])
    def test_out_of_range_k_keeps_its_target_error(self, k):
        sig = np.random.default_rng(77).standard_normal((6, 2))
        message = rf"target dimensionality must be in \[1, 6\], got {k}$"
        with pytest.raises(InvalidTargetError, match=message):
            kmeans_partition(sig, k)

    def test_numpy_integer_k_becomes_int(self):
        sig = np.random.default_rng(78).standard_normal((6, 2))
        partition = kmeans_partition(sig, np.int64(3))
        assert type(partition.k) is int and partition.k == 3

    def test_rejects_target_above_dimensionality(self):
        sig = np.zeros((2, 4)).T
        with pytest.raises(InvalidTargetError):
            kmeans_partition(sig, 5)

    def test_deterministic_assignment(self):
        sig = np.random.default_rng(76).standard_normal((3, 12)).T
        a = kmeans_partition(sig, 4, seed=9).assignment
        b = kmeans_partition(sig, 4, seed=9).assignment
        assert np.array_equal(a, b)


class TestReductionPartition:
    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="group 1 is empty"):
            ReductionPartition(np.array([0, 0, 2]), 3)

    def test_rejects_out_of_range_assignment(self):
        with pytest.raises(ValueError):
            ReductionPartition(np.array([0, 3]), 2)

    @pytest.mark.parametrize("k", [True, 1.0], ids=["True", "1.0"])
    def test_rejects_non_integer_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            ReductionPartition([0, 0, 0], k)

    def test_numpy_integer_k_becomes_int(self):
        partition = ReductionPartition([0, 1], np.int64(2))
        assert type(partition.k) is int and partition.k == 2

    @pytest.mark.parametrize(
        "assignment", [[0, 1.7, 1], [True, False], np.array([0.0, 1.0])],
        ids=["1.7", "bool", "whole-floats"],
    )
    def test_rejects_group_indices_that_are_not_integers(self, assignment):
        with pytest.raises(ValueError, match="group indices must be integers"):
            ReductionPartition(assignment, 2)

    def test_rejects_more_groups_than_dimensions(self):
        with pytest.raises(ValueError, match="k must be in"):
            ReductionPartition(np.array([0, 1]), 10**23)


class TestReduce:
    """A frame reduced as a one-frame record."""

    def test_identity_partition_copies_vector(self):
        partition = ReductionPartition(np.arange(4), 4)
        x = np.array([1.5, -2.0, 0.25, 9.0])
        assert reduced_frame(x, partition).tolist() == x.tolist()

    def test_single_group_sums(self):
        partition = ReductionPartition(np.zeros(4, dtype=int), 1)
        assert reduced_frame(np.array([1.0, 2.0, 3.0, 4.0]), partition).tolist() == [10.0]

    def test_linearity(self):
        rng = np.random.default_rng(77)
        assignment = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2, 0])
        partition = ReductionPartition(assignment, 3)
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        lhs = reduced_frame(2.5 * x + 0.5 * y, partition)
        rhs = 2.5 * reduced_frame(x, partition) + 0.5 * reduced_frame(y, partition)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-14)


class TestReduceSequence:
    def test_single_frame(self):
        partition = ReductionPartition(np.array([0, 0, 1]), 2)
        seq = FeatureSequence([[1.0, 2.0, 5.0]])
        assert reduce_sequence(seq, partition).frames.tolist() == [[3.0, 5.0]]

    def test_identity_partition_preserves_sequence(self):
        seq = FeatureSequence(np.random.default_rng(78).standard_normal((4, 5)))
        partition = ReductionPartition(np.arange(5), 5)
        assert reduce_sequence(seq, partition) == seq

    def test_k_one_gives_frame_sums(self):
        seq = FeatureSequence([[1.0, 2.0], [3.0, 4.0]])
        partition = ReductionPartition(np.zeros(2, dtype=int), 1)
        assert reduce_sequence(seq, partition).frames.tolist() == [[3.0], [7.0]]

    def test_rows_match_the_oracle_bit_exactly(self):
        rng = np.random.default_rng(79)
        seq = FeatureSequence(rng.standard_normal((6, 8)))
        assignment = np.array([0, 1, 2, 0, 1, 2, 0, 1])
        partition = ReductionPartition(assignment, 3)
        out = reduce_sequence(seq, partition)
        want = group_sum_oracle(seq.frames, assignment, 3)
        for t in range(6):
            assert out.frames[t].tobytes() == want[t].tobytes()

    def test_equals_the_oracle(self):
        rng = np.random.default_rng(67)
        for num_frames, num_dims, k in [(1, 1, 1), (3, 50, 7), (30, 4096, 128)]:
            assignment = np.concatenate([np.arange(k), rng.integers(0, k, num_dims - k)])
            partition = ReductionPartition(rng.permutation(assignment), k)
            seq = FeatureSequence(rng.standard_normal((num_frames, num_dims)) * 1e3)
            want = group_sum_oracle(seq.frames, partition.assignment, k)
            assert reduce_sequence(seq, partition).frames.tobytes() == want.tobytes()

    def test_width_mismatch(self):
        partition = ReductionPartition(np.array([0, 1, 1]), 2)
        with pytest.raises(ShapeMismatchError):
            reduce_sequence(FeatureSequence(np.ones((2, 4))), partition)

    def test_overflowing_group_sum_names_frame_and_group(self):
        # every value is finite, but frame 1's group 0 sum is not
        partition = ReductionPartition(np.array([1, 0, 0]), 2)
        seq = FeatureSequence([[1.0, 1.0, 1.0], [1.0, 1e308, 1e308]])
        with pytest.raises(SumOverflowError, match="frame 1 sums .* in group 0"):
            reduce_sequence(seq, partition)

    def test_peak_memory_is_the_reduced_rows(self):
        # a (30, 4096) input is 0.94 MiB; only its (30, 128) result is allocated
        rng = np.random.default_rng(68)
        assignment = np.concatenate([np.arange(128), rng.integers(0, 128, 4096 - 128)])
        partition = ReductionPartition(rng.permutation(assignment), 128)
        seq = FeatureSequence(rng.standard_normal((30, 4096)))
        assert traced_peak_mib(lambda: reduce_sequence(seq, partition)) < 0.5


class TestPartitionFile:
    def test_roundtrip_exact(self, tmp_path):
        partition = ReductionPartition(np.array([2, 0, 1, 1, 0, 2]), 3)
        path = tmp_path / "partition.txt"
        save_partition(partition, path)
        loaded = load_partition(path)
        assert np.array_equal(loaded.assignment, partition.assignment)
        assert loaded.k == 3

    def test_header_format(self, tmp_path):
        partition = ReductionPartition(np.array([0, 1]), 2)
        path = tmp_path / "partition.txt"
        save_partition(partition, path)
        assert path.read_text().splitlines()[0] == "k=2 D=2 aggregation=sum"

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "k=2 aggregation=sum\n0\n1\n",
            "k=2 D=3 aggregation=sum\n0\n1\n",
            "k=2 D=2 aggregation=sum\n0\nx\n",
            "k=2 D=2 aggregation=sum\n0\n5\n",
            "k=99999999999999999999999 D=2 aggregation=sum\n0\n1\n",
            "k=2 D=2 aggregation=sum\n0\n99999999999999999999999\n",
            "k=2 D=2 aggregation=sum\n0\n-99999999999999999999999\n",
            "k=2 D=2 aggregation=mean\n0\n1\n",
        ],
    )
    def test_malformed_files_rejected(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(ParseError):
            load_partition(path)

    def test_non_utf8_file_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"k=2 D=2 aggregation=sum\n0\n\xff\n")
        with pytest.raises(ParseError):
            load_partition(path)
