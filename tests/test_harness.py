import math
from dataclasses import replace

import numpy as np
import pytest

from helpers import mean_separable_dataset

from oacpool.convpool import param_count_perdim
from oacpool.errors import ParseError, ShapeMismatchError
from oacpool.harness import (
    DatasetManifest,
    SyntheticSpec,
    gen_synthetic,
    labeled_frames,
    load_dataset,
    load_features,
    load_manifest,
    prepare_dataset,
    run_comparison,
    save_features,
    save_manifest,
)
from oacpool.model import PoolingSpec, TrainConfig
from oacpool.pooling import average_pool, max_pool
from oacpool.sequences import FeatureSequence, LabeledSequence


class TestSyntheticSpec:
    def test_class_names_per_task(self):
        assert SyntheticSpec("trend-pair").class_names == ("rising", "falling")
        assert SyntheticSpec("multiclass-trend").num_classes == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(task_kind="nope"),
            dict(task_kind="trend-pair", num_frames=1),
            dict(task_kind="trend-pair", n_train=0),
            dict(task_kind="trend-pair", noise_sigma=-0.1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SyntheticSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(seed=-1), "seed must be >= 0"),
            (dict(seed=2.5), "seed must be an integer"),
            (dict(seed=True), "seed must be an integer"),
            (dict(noise_sigma=math.nan), "noise_sigma must be finite"),
            (dict(noise_sigma=math.inf), "noise_sigma must be finite"),
            (dict(n_train=2.5), "n_train must be an integer"),
            (dict(n_test=True), "n_test must be an integer"),
            (dict(num_features=True), "num_features must be an integer"),
            (dict(num_frames=5.0), "num_frames must be an integer"),
            (dict(num_frames=1), "num_frames must be >= 2"),
        ],
        ids=[
            "seed=-1", "seed=2.5", "seed=True", "noise=nan", "noise=inf", "n_train=2.5",
            "n_test=True", "num_features=True", "num_frames=5.0", "num_frames=1",
        ],
    )
    def test_rejects_bad_fields_by_name(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SyntheticSpec("trend-pair", **kwargs)

    def test_numpy_integers_become_ints(self):
        spec = SyntheticSpec(
            "trend-pair", n_train=np.int64(2), n_test=np.int32(1), num_frames=np.int64(5),
            num_features=np.int16(3), seed=np.uint64(0),
        )
        for name in ("n_train", "n_test", "num_frames", "num_features", "seed"):
            assert type(getattr(spec, name)) is int, name


class TestGenSynthetic:
    def test_noiseless_trend_prototypes(self):
        spec = SyntheticSpec("trend-pair", n_train=1, n_test=1, num_frames=4,
                             num_features=1, noise_sigma=0.0, seed=0)
        train, _ = gen_synthetic(spec)
        rising, falling = train
        assert np.array_equal(rising.sequence.frames[:, 0], np.arange(4) / 3)
        assert np.array_equal(falling.sequence.frames, rising.sequence.frames[::-1])

    def test_noiseless_classes_share_mean_and_max_exactly(self):
        spec = SyntheticSpec("trend-pair", n_train=3, n_test=1, num_frames=10,
                             num_features=4, noise_sigma=0.0, seed=1)
        train, _ = gen_synthetic(spec)
        class0 = [d for d in train if d.label == 0]
        class1 = [d for d in train if d.label == 1]
        for a, b in zip(class0, class1):
            assert average_pool(a.sequence).tobytes() == average_pool(b.sequence).tobytes()
            assert max_pool(a.sequence).tobytes() == max_pool(b.sequence).tobytes()

    def test_deterministic_given_seed(self):
        spec = SyntheticSpec("trend-pair", n_train=5, n_test=3, num_frames=8,
                             num_features=2, noise_sigma=0.2, seed=99)
        first = gen_synthetic(spec)
        second = gen_synthetic(spec)
        for split_a, split_b in zip(first, second):
            assert len(split_a) == len(split_b)
            for a, b in zip(split_a, split_b):
                assert a.label == b.label
                assert a.sequence.frames.tobytes() == b.sequence.frames.tobytes()

    def test_split_sizes_and_labels(self):
        spec = SyntheticSpec("multiclass-trend", n_train=4, n_test=2, num_frames=6,
                             num_features=3, seed=5)
        train, test = gen_synthetic(spec)
        assert len(train) == 12 and len(test) == 6
        assert sorted({d.label for d in train}) == [0, 1, 2]

    def test_permuted_pair_shares_multisets(self):
        spec = SyntheticSpec("permuted-pair", n_train=3, n_test=2, num_frames=7,
                             num_features=2, seed=6)
        train, _ = gen_synthetic(spec)
        forward = [d for d in train if d.label == 0]
        reverse = [d for d in train if d.label == 1]
        for a, b in zip(forward, reverse):
            assert np.array_equal(a.sequence.frames, b.sequence.frames[::-1])
            assert np.array_equal(
                np.sort(a.sequence.frames, axis=0), np.sort(b.sequence.frames, axis=0)
            )

    def test_multiclass_shapes_share_value_multisets(self):
        spec = SyntheticSpec("multiclass-trend", n_train=1, n_test=1, num_frames=9,
                             num_features=1, noise_sigma=0.0, seed=7)
        train, _ = gen_synthetic(spec)
        sorted_columns = [np.sort(d.sequence.frames[:, 0]) for d in train]
        for other in sorted_columns[1:]:
            assert np.array_equal(sorted_columns[0], other)
        # and the shapes really differ
        raw = [d.sequence.frames[:, 0] for d in train]
        assert not np.array_equal(raw[0], raw[1])
        assert not np.array_equal(raw[0], raw[2])


class TestFeatureFiles:
    def test_text_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(80)
        values = np.concatenate(
            [rng.standard_normal(6), [1e-308, 1e300, -0.0, 1 / 3]]
        ).reshape(5, 2)
        seq = FeatureSequence(values)
        path = tmp_path / "seq.txt"
        save_features(seq, path)
        assert load_features(path).frames.tobytes() == seq.frames.tobytes()

    def test_binary_roundtrip_is_bit_exact(self, tmp_path):
        seq = FeatureSequence(np.random.default_rng(81).standard_normal((7, 3)))
        path = tmp_path / "seq.bin"
        save_features(seq, path, binary=True)
        assert load_features(path).frames.tobytes() == seq.frames.tobytes()
        assert path.read_bytes()[:4] == b"OACP"

    def test_wrong_width_row_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("T=2 K=3\n1 2 3\n4 5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_features(path)

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ParseError, match="empty"):
            load_features(path)

    @pytest.mark.parametrize(
        "content",
        [
            "K=2 T=3\n",                # header order fixed
            "T=x K=2\n1 2\n",
            "T=2 K=2\n1 2\n",           # missing row
            "T=1 K=2\n1 2\n3 4\n",      # extra row
            "T=1 K=2\n1 inf\n",         # non-finite
            "T=1 K=2\n1 abc\n",
            "T=1 K=2\n1 2 # x\n",      # '#' is no comment
            "T=1 K=99999999999999999999\n1 2\n",  # K beyond int64
            "T=1 K=1000000000000\n1 2\n",         # K that would size 8 TB
        ],
    )
    def test_malformed_text_rejected(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(ParseError):
            load_features(path)

    def test_truncated_binary_rejected(self, tmp_path):
        seq = FeatureSequence(np.ones((3, 2)))
        path = tmp_path / "seq.bin"
        save_features(seq, path, binary=True)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ParseError, match="payload"):
            load_features(path)

    def test_unknown_binary_version_rejected(self, tmp_path):
        seq = FeatureSequence(np.ones((2, 2)))
        path = tmp_path / "seq.bin"
        save_features(seq, path, binary=True)
        raw = bytearray(path.read_bytes())
        raw[4] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="version"):
            load_features(path)


class TestManifest:
    def _write_dataset(self, tmp_path, num=4, num_features=2):
        rng = np.random.default_rng(82)
        entries = []
        for i in range(num):
            seq = FeatureSequence(rng.standard_normal((3 + i, num_features)))
            path = tmp_path / f"seq_{i}.txt"
            save_features(seq, path)
            entries.append((path, i % 2))
        return DatasetManifest(entries, ("neg", "pos"), split_tag="train")

    def test_roundtrip(self, tmp_path):
        manifest = self._write_dataset(tmp_path)
        path = tmp_path / "data.manifest"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        assert loaded.class_names == ("neg", "pos")
        assert loaded.split_tag == "train"
        assert [(p.name, l) for p, l in loaded.entries] == [
            (p.name, l) for p, l in manifest.entries
        ]

    def test_relative_paths_resolve_against_manifest_dir(self, tmp_path):
        manifest = self._write_dataset(tmp_path)
        nested = tmp_path / "sub"
        nested.mkdir()
        path = nested / "data.manifest"
        save_manifest(manifest, path)
        loaded = load_manifest(path)
        data = load_dataset(loaded)
        assert len(data) == 4

    def test_missing_classes_line(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("a.txt 0\n")
        with pytest.raises(ParseError, match="classes"):
            load_manifest(path)

    def test_missing_feature_file(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("classes=a,b\nmissing.txt 0\n")
        with pytest.raises(ParseError, match="no such feature file"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "content",
        [b"classes=a,b\n\xff.txt 0\n", b"classes=a,b\nseq\x00.txt 0\n"],
        ids=["non-utf8", "nul-in-path"],
    )
    def test_undecodable_or_nul_bytes_rejected(self, tmp_path, content):
        path = tmp_path / "bad.manifest"
        path.write_bytes(content)
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_label_out_of_range(self, tmp_path):
        seq_path = tmp_path / "seq.txt"
        save_features(FeatureSequence(np.ones((2, 2))), seq_path)
        path = tmp_path / "bad.manifest"
        path.write_text(f"classes=a,b\n{seq_path.name} 2\n")
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_duplicate_class_names(self, tmp_path):
        seq_path = tmp_path / "seq.txt"
        save_features(FeatureSequence(np.ones((2, 2))), seq_path)
        path = tmp_path / "bad.manifest"
        path.write_text(f"classes=a,b,a\n{seq_path.name} 0\n")
        with pytest.raises(ParseError, match="duplicate class name 'a'"):
            load_manifest(path)
        with pytest.raises(ValueError):
            DatasetManifest([(seq_path, 0)], ("a", "a"))

    def test_dataset_dimensionality_must_be_uniform(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        save_features(FeatureSequence(np.ones((2, 2))), a)
        save_features(FeatureSequence(np.ones((2, 3))), b)
        manifest_path = tmp_path / "data.manifest"
        manifest_path.write_text(f"classes=x,y\n{a.name} 0\n{b.name} 1\n")
        with pytest.raises(ShapeMismatchError):
            load_dataset(load_manifest(manifest_path))

    def test_labeled_frames_flattens(self, tmp_path):
        manifest = self._write_dataset(tmp_path)
        data = load_dataset(manifest)
        pairs = labeled_frames(data)
        assert len(pairs) == sum(d.sequence.num_frames for d in data)
        assert pairs[0][1] == data[0].label


class TestPoolingSpec:
    def test_minimum_frames(self):
        assert PoolingSpec("average").minimum_frames == 1
        assert PoolingSpec("pyramid", pyramid=(1, 4)).minimum_frames == 4
        assert PoolingSpec("oacp", interval=8, stride=1, pyramid=(1, 2)).minimum_frames == 9
        assert PoolingSpec("oacp", interval=8, stride=3, pyramid=(1, 2)).minimum_frames == 11

    def test_receptive_field(self):
        assert PoolingSpec("oacp", interval=8, sample_rate=5).receptive_field == 40
        assert PoolingSpec("max", sample_rate=5).receptive_field == 5
        assert PoolingSpec("average", interval=8, sample_rate=5).receptive_field == 5
        assert PoolingSpec("pyramid", interval=8, sample_rate=3).receptive_field == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            PoolingSpec("median")
        with pytest.raises(ValueError):
            PoolingSpec("oacp", pyramid=(2, 1))


class TestPrepareDataset:
    def test_samples_then_pads(self):
        spec = PoolingSpec("oacp", interval=8, stride=1, pyramid=(1, 2), sample_rate=5)
        seq = FeatureSequence(np.arange(80.0).reshape(40, 2))
        out = prepare_dataset([LabeledSequence(seq, 0)], spec)[0].sequence
        # 40 frames sampled 1-in-5 gives 8; padded to interval + 1 = 9
        assert out.num_frames == 9
        assert np.array_equal(out.frames[8], out.frames[7])


class TestRunComparison:
    def test_average_pooling_solves_mean_separable_data(self):
        train = mean_separable_dataset(30, 8, 4, seed=90)
        test = mean_separable_dataset(10, 8, 4, seed=91)
        cfg = TrainConfig(learning_rate=0.1, epochs=20, seed=90)
        table = run_comparison(train, test, [PoolingSpec("average", sample_rate=1)], cfg)
        assert table.rows[0].accuracy >= 0.95
        assert table.rows[0].status == "ok"

    def test_order_blind_methods_are_at_chance_on_noiseless_trends(self):
        spec = SyntheticSpec("trend-pair", n_train=10, n_test=10, num_frames=12,
                             num_features=4, noise_sigma=0.0, seed=92)
        train, test = gen_synthetic(spec)
        cfg = TrainConfig(learning_rate=0.1, epochs=10, seed=92)
        methods = [PoolingSpec("average", sample_rate=1), PoolingSpec("max", sample_rate=1)]
        table = run_comparison(train, test, methods, cfg)
        # pooled features are identical across classes, so every prediction
        # lands on one class: exactly chance on balanced data
        assert [row.accuracy for row in table.rows] == [0.5, 0.5]

    def test_oacp_row_parameter_bookkeeping(self):
        spec = SyntheticSpec("trend-pair", n_train=5, n_test=5, num_frames=12,
                             num_features=4, seed=93)
        train, test = gen_synthetic(spec)
        cfg = TrainConfig(learning_rate=0.1, epochs=2, seed=93)
        methods = [
            PoolingSpec("oacp", interval=3, n_filters=2, pyramid=(1, 2), sample_rate=1),
            PoolingSpec("average", sample_rate=1),
        ]
        row, baseline = run_comparison(train, test, methods, cfg).rows
        pooled = 4 * 2 * 3
        assert row.pool_params == param_count_perdim(4, 3, 2)
        assert row.total_params == row.pool_params + 2 * pooled + 2
        assert row.receptive_field == 3
        assert baseline.pool_params == 0
        assert baseline.total_params == 2 * 4 + 2

    def test_multiclass_trend_end_to_end(self):
        spec = SyntheticSpec("multiclass-trend", n_train=60, n_test=30, num_frames=30,
                             num_features=8, noise_sigma=0.1, seed=2024)
        train, test = gen_synthetic(spec)
        methods = [
            PoolingSpec(kind, interval=6, n_filters=3, pyramid=(1, 2), sample_rate=1)
            for kind in ("average", "max", "oacp")
        ]
        cfg = TrainConfig(learning_rate=0.1, epochs=30, seed=2024)
        rows = run_comparison(train, test, methods, cfg).rows
        accuracy = {row.method: row.accuracy for row in rows}
        assert accuracy["average"] <= 0.45  # three classes, chance is 1/3
        assert accuracy["max"] <= 0.45
        assert accuracy["oacp"] >= 0.85

    def test_permuted_pair_end_to_end(self):
        spec = SyntheticSpec("permuted-pair", n_train=60, n_test=30, num_frames=30,
                             num_features=8, noise_sigma=0.0, seed=2025)
        train, test = gen_synthetic(spec)
        methods = [
            PoolingSpec(kind, interval=6, n_filters=3, pyramid=(1, 2), sample_rate=1)
            for kind in ("average", "max", "oacp")
        ]
        cfg = TrainConfig(learning_rate=0.1, epochs=30, seed=2025)
        rows = run_comparison(train, test, methods, cfg).rows
        accuracy = {row.method: row.accuracy for row in rows}
        assert accuracy["average"] == 0.5  # pooled features identical by construction
        assert accuracy["max"] == 0.5
        assert accuracy["oacp"] >= 0.95

    def test_divergence_tagged_without_aborting_others(self):
        # training frames of order 1e200 overflow the logits within a few steps
        train = [
            LabeledSequence(FeatureSequence(item.sequence.frames * 1e200), item.label)
            for item in mean_separable_dataset(5, 6, 3, seed=94)
        ]
        test = mean_separable_dataset(3, 6, 3, seed=95)
        cfg = TrainConfig(learning_rate=0.1, epochs=1, seed=94)
        methods = [PoolingSpec("average", sample_rate=1), PoolingSpec("max", sample_rate=1)]
        with np.errstate(over="ignore", invalid="ignore"):
            table = run_comparison(train, test, methods, cfg)
        assert [row.status for row in table.rows] == ["diverged", "diverged"]
        assert all(np.isnan(row.accuracy) for row in table.rows)

    def test_declared_class_count_sets_the_model_size(self):
        # class 2 is declared but has no instance in either split, so the
        # largest label seen would build the model for two classes
        train = mean_separable_dataset(5, 6, 3, seed=180)
        test = mean_separable_dataset(3, 6, 3, seed=181)
        cfg = TrainConfig(learning_rate=0.1, epochs=2, seed=180)
        methods = [PoolingSpec("average", sample_rate=1)]
        row = run_comparison(train, test, methods, cfg, num_classes=3).rows[0]
        assert row.status == "ok"
        assert row.total_params == 3 * 3 + 3
        inferred = run_comparison(train, test, methods, cfg).rows[0]
        assert inferred.total_params == 2 * 3 + 2

    def test_csv_shape_and_determinism(self):
        train = mean_separable_dataset(8, 6, 3, seed=96)
        test = mean_separable_dataset(4, 6, 3, seed=97)
        cfg = TrainConfig(learning_rate=0.05, epochs=3, seed=96)
        methods = [PoolingSpec("average", sample_rate=1), PoolingSpec("max", sample_rate=1)]
        a = run_comparison(train, test, methods, cfg).to_csv()
        b = run_comparison(train, test, methods, cfg).to_csv()
        assert a == b
        lines = a.strip().splitlines()
        assert lines[0] == "method,accuracy,pool_params,total_params,receptive_field,status"
        assert len(lines) == 3


class TestSweepFilters:
    def test_rows_scale_linearly_in_filter_count(self):
        spec = SyntheticSpec("trend-pair", n_train=6, n_test=4, num_frames=12,
                             num_features=3, seed=98)
        train, test = gen_synthetic(spec)
        cfg = TrainConfig(learning_rate=0.1, epochs=2, seed=98)
        base = PoolingSpec("oacp", interval=3, pyramid=(1, 2), sample_rate=1)
        methods = [replace(base, n_filters=n) for n in (1, 3, 5)]
        table = run_comparison(train, test, methods, cfg)
        assert [row.method for row in table.rows] == ["oacp", "oacp", "oacp"]
        counts = [row.pool_params for row in table.rows]
        assert counts[1] == 3 * counts[0] and counts[2] == 5 * counts[0]

    def test_duplicate_filter_counts_give_identical_rows(self):
        spec = SyntheticSpec("trend-pair", n_train=5, n_test=3, num_frames=10,
                             num_features=2, seed=99)
        train, test = gen_synthetic(spec)
        cfg = TrainConfig(learning_rate=0.1, epochs=2, seed=99)
        base = PoolingSpec("oacp", interval=3, pyramid=(1, 2), sample_rate=1)
        methods = [replace(base, n_filters=n) for n in (2, 2)]
        table = run_comparison(train, test, methods, cfg)
        a, b = table.rows
        assert (a.method, a.accuracy, a.pool_params, a.total_params) == (
            b.method,
            b.accuracy,
            b.pool_params,
            b.total_params,
        )
