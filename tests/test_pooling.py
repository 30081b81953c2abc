import numpy as np
import pytest

from oacpool.errors import TooShortSequenceError
from oacpool.pooling import (
    PyramidConfig,
    average_pool,
    max_pool,
    partition_segments,
    segment_ranges,
    temporal_pyramid_pool,
)
from oacpool.sequences import FeatureSequence


class TestPyramidConfig:
    def test_totals(self):
        cfg = PyramidConfig((1, 2, 4))
        assert cfg.segments_per_level == (1, 2, 4)
        assert cfg.total_segments == 7
        assert cfg.max_segments == 4

    @pytest.mark.parametrize("bad", [(), (2,), (1, 0), (0, 2)])
    def test_rejects_invalid_levels(self, bad):
        with pytest.raises(ValueError):
            PyramidConfig(bad)

    @pytest.mark.parametrize(
        "bad", [(1, 2.5), (1, 2.0), (1.0,), (True,), (1, True), (1, np.float64(2.0)), (1, np.True_)]
    )
    def test_rejects_non_integer_counts(self, bad):
        with pytest.raises(ValueError, match="must be an integer"):
            PyramidConfig(bad)

    def test_numpy_integer_counts_become_ints(self):
        cfg = PyramidConfig(np.array([1, 2, 4]))
        assert cfg == PyramidConfig((1, 2, 4))
        assert all(type(m) is int for m in cfg.segments_per_level)


class TestAveragePool:
    def test_arithmetic_mean(self):
        assert average_pool(FeatureSequence([[1.0, 2.0], [3.0, 4.0]])).tolist() == [2.0, 3.0]

    def test_single_frame_identity(self):
        frame = [2.5, -1.0, 7.0]
        assert average_pool(FeatureSequence([frame])).tolist() == frame

    def test_ramp_and_reverse_share_mean(self):
        ramp = FeatureSequence(np.array([0.0, 1.0, 2.0, 3.0])[:, None])
        rev = FeatureSequence(ramp.frames[::-1])
        assert average_pool(ramp).tolist() == [1.5]
        assert average_pool(ramp).tobytes() == average_pool(rev).tobytes()


class TestMaxPool:
    def test_columnwise_max(self):
        assert max_pool(FeatureSequence([[1.0, 5.0], [3.0, 2.0]])).tolist() == [3.0, 5.0]

    def test_single_frame_identity(self):
        frame = [2.5, -1.0, 7.0]
        assert max_pool(FeatureSequence([frame])).tolist() == frame


def test_average_and_max_are_bit_exact_under_permutation():
    rng = np.random.default_rng(10)
    for _ in range(50):
        t = int(rng.integers(1, 20))
        k = int(rng.integers(1, 6))
        seq = FeatureSequence(rng.standard_normal((t, k)))
        shuffled = FeatureSequence(seq.frames[rng.permutation(t)])
        assert average_pool(seq).tobytes() == average_pool(shuffled).tobytes()
        assert max_pool(seq).tobytes() == max_pool(shuffled).tobytes()


class TestPartitionSegments:
    def test_even_split(self):
        assert partition_segments(10, 2) == [(0, 5), (5, 10)]
        assert partition_segments(np.int64(10), 2) == [(0, 5), (5, 10)]

    def test_uneven_split_follows_floor_rule(self):
        # floor(j*7/2) boundaries: 0, 3, 7
        assert partition_segments(7, 2) == [(0, 3), (3, 7)]

    def test_too_short(self):
        with pytest.raises(TooShortSequenceError):
            partition_segments(1, 2)

    @pytest.mark.parametrize(
        "m, message",
        [
            (True, "segment count must be an integer, got True"),
            (2.5, "segment count must be an integer, got 2.5"),
            (2.0, "segment count must be an integer, got 2.0"),
            (0, "segment count must be >= 1, got 0"),
        ],
        ids=["True", "2.5", "2.0", "0"],
    )
    def test_rejects_a_segment_count_that_is_not_a_positive_integer(self, m, message):
        with pytest.raises(ValueError, match=message):
            partition_segments(10, m)

    def test_segments_cover_and_are_disjoint(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = int(rng.integers(1, 8))
            t = int(rng.integers(m, m + 40))
            segs = partition_segments(t, m)
            assert len(segs) == m
            assert segs[0][0] == 0 and segs[-1][1] == t
            for (a0, b0), (a1, _) in zip(segs, segs[1:]):
                assert b0 == a1
            assert all(b > a for a, b in segs)


class TestTemporalPyramidPool:
    def test_single_level_equals_max_pool(self):
        seq = FeatureSequence(np.random.default_rng(12).standard_normal((9, 4)))
        assert np.array_equal(
            temporal_pyramid_pool(seq, PyramidConfig((1,))), max_pool(seq)
        )

    def test_two_level_hand_example(self):
        seq = FeatureSequence(np.array([0.0, 1.0, 2.0, 3.0])[:, None])
        out = temporal_pyramid_pool(seq, PyramidConfig((1, 2)))
        # global max 3, first-half max 1, second-half max 3
        assert out.tolist() == [3.0, 1.0, 3.0]

    def test_output_length_is_k_times_total_segments(self):
        seq = FeatureSequence(np.random.default_rng(13).standard_normal((4, 2)))
        assert temporal_pyramid_pool(seq, PyramidConfig((1, 2))).shape == (6,)

    def test_output_length_property(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            levels = [1] + [int(rng.integers(1, 5)) for _ in range(int(rng.integers(0, 3)))]
            cfg = PyramidConfig(tuple(levels))
            k = int(rng.integers(1, 5))
            t = int(rng.integers(cfg.max_segments, cfg.max_segments + 20))
            seq = FeatureSequence(rng.standard_normal((t, k)))
            assert temporal_pyramid_pool(seq, cfg).shape == (k * cfg.total_segments,)

    def test_dimension_major_layout(self):
        # K=2: dimension 0's three slots come before dimension 1's
        frames = np.array([[0.0, 10.0], [1.0, 11.0], [2.0, 12.0], [3.0, 13.0]])
        out = temporal_pyramid_pool(FeatureSequence(frames), PyramidConfig((1, 2)))
        assert out.tolist() == [3.0, 1.0, 3.0, 13.0, 11.0, 13.0]

    def test_segment_max_dominates_member_frames(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            t = int(rng.integers(2, 9))
            seq = FeatureSequence(rng.standard_normal((t, 3)))
            cfg = PyramidConfig((1, 2))
            out = temporal_pyramid_pool(seq, cfg).reshape(3, cfg.total_segments)
            for m, (a, b) in enumerate(segment_ranges(t, cfg)):
                for row in seq.frames[a:b]:
                    assert (out[:, m] >= row).all()

    def test_propagates_too_short(self):
        seq = FeatureSequence(np.zeros((1, 2)))
        with pytest.raises(TooShortSequenceError):
            temporal_pyramid_pool(seq, PyramidConfig((1, 2)))
