import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    edit_checkpoint,
    json_v2_checkpoint,
    traced_peak_mib,
    unblocked_lloyd_kmeans,
)

import oacpool
import oacpool.model
from oacpool import cli
from oacpool.cli import _spec_from_flags, build_parser, main
from oacpool.dimreduce import (
    ReductionPartition,
    class_signatures,
    load_partition,
    save_partition,
)
from oacpool.errors import DataError, DivergenceError
from oacpool.harness import (
    load_dataset,
    load_features,
    load_manifest,
    save_features,
)
from oacpool.model import MAX_PARAMETERS, POOLING_KINDS, PoolingSpec, load_model
from oacpool.sequences import FeatureSequence


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def synth_dir(tmp_path):
    out = tmp_path / "data"
    code = run_cli(
        "synth", "--task", "trend-pair", "--t", "30", "--k", "4",
        "--n-train", "12", "--n-test", "6", "--noise", "0.1",
        "--seed", "5", "--out", str(out),
    )
    assert code == 0
    return out


class TestExitCodes:
    def test_usage_error_on_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli("synth", "--task", "trend-pair", "--frobnicate")
        assert err.value.code == 1

    def test_usage_error_on_missing_required(self):
        with pytest.raises(SystemExit) as err:
            run_cli("synth", "--task", "trend-pair")
        assert err.value.code == 1

    def test_usage_error_on_bad_pyramid(self, tmp_path, capsys):
        assert run_cli(
            "train", "--manifest", str(tmp_path / "x"), "--model-out", str(tmp_path / "y"),
            "--pyramid", "2,1",
        ) == 1
        assert capsys.readouterr().err == (
            "oacpool train: error: level 1 must have exactly one segment, got 2\n"
        )

    # a non-finite rate is a usage error, not a training divergence (exit 3)
    @pytest.mark.parametrize("lr", ["nan", "inf", "1e400"])
    def test_usage_error_on_non_finite_learning_rate(self, synth_dir, tmp_path, capsys, lr):
        assert run_cli(
            "train", "--manifest", str(synth_dir / "train.manifest"),
            "--model-out", str(tmp_path / "m.oacm"), "--lr", lr,
        ) == 1
        assert capsys.readouterr().err.startswith(
            "oacpool train: error: learning_rate must be finite"
        )
        assert not (tmp_path / "m.oacm").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["synth", "--task", "trend-pair", "--out", "unused"],
            ["train", "--manifest", "unused", "--model-out", "unused"],
            ["compare", "--train-manifest", "a", "--test-manifest", "b", "--methods", "oacp"],
            ["gradcheck"],
            ["reduce", "--manifest", "unused"],
        ],
        ids=["synth", "train", "compare", "gradcheck", "reduce"],
    )
    def test_usage_error_on_negative_seed(self, capsys, command):
        assert run_cli(*command, "--seed", "-1") == 1
        assert capsys.readouterr().err == (
            f"oacpool {command[0]}: error: seed must be >= 0, got -1\n"
        )

    def test_usage_error_on_invalid_config_values(self, tmp_path, capsys):
        # values that pass flag parsing but violate config invariants
        assert run_cli(
            "synth", "--task", "trend-pair", "--t", "1", "--out", str(tmp_path / "d")
        ) == 1
        assert run_cli("gradcheck", "--eps", "1.0") == 1
        capsys.readouterr()

    def test_usage_error_on_a_multiclass_trend_of_two_frames(self, tmp_path, capsys):
        out = tmp_path / "d"
        assert run_cli("synth", "--task", "multiclass-trend", "--t", "2", "--out", str(out)) == 1
        assert "num_frames must be >= 3, got 2" in capsys.readouterr().err
        assert not out.exists()

    def test_data_error_on_missing_manifest(self, tmp_path, capsys):
        code = run_cli(
            "train", "--manifest", str(tmp_path / "none.manifest"),
            "--model-out", str(tmp_path / "m.oacm"),
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_data_error_on_malformed_feature_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("T=2 K=2\n1 2\n3\n")
        manifest = tmp_path / "data.manifest"
        manifest.write_text(f"classes=a,b\n{bad.name} 0\n")
        code = run_cli(
            "train", "--manifest", str(manifest), "--model-out", str(tmp_path / "m.oacm")
        )
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b"classes=a,b\n\xff.txt 0\n", b"classes=a,b\nseq\x00.txt 0\n"],
        ids=["non-utf8", "nul-in-path"],
    )
    def test_data_error_on_undecodable_manifest(self, tmp_path, capsys, content):
        manifest = tmp_path / "data.manifest"
        manifest.write_bytes(content)
        code = run_cli(
            "train", "--manifest", str(manifest), "--model-out", str(tmp_path / "m.oacm")
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_data_error_on_non_utf8_checkpoint(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_bytes(b'{"format": "\xff"}\n')
        code = run_cli(
            "eval", "--manifest", str(synth_dir / "test.manifest"), "--model", str(bad)
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_data_error_on_an_out_path_that_is_a_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code = run_cli("synth", "--task", "trend-pair", "--out", str(taken))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("oacpool synth: error: ") and err.count("\n") == 1

    def test_data_error_on_a_path_component_the_os_refuses(self, tmp_path, capsys):
        # a 300-byte component is longer than any file system allows
        manifest = tmp_path / "data.manifest"
        manifest.write_text(f"classes=a,b\n{'x' * 300}/seq.txt 0\n")
        code = run_cli(
            "train", "--manifest", str(manifest), "--model-out", str(tmp_path / "m.oacm")
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"oacpool train: error: {manifest}: line 2: ")
        assert err.count("\n") == 1

    def test_usage_error_on_a_model_over_the_parameter_limit(self, synth_dir, tmp_path, capsys):
        # rejected before any parameter is drawn
        code = run_cli(
            "train", "--manifest", str(synth_dir / "train.manifest"),
            "--filters", "1000000000", "--model-out", str(tmp_path / "m.oacm"),
        )
        assert code == 1
        assert f"over the limit of {MAX_PARAMETERS}" in capsys.readouterr().err
        assert not (tmp_path / "m.oacm").exists()

    def test_numerical_failure_on_training_divergence(self, synth_dir, tmp_path, capsys):
        # the overflow on the way is reported once, as the divergence, with
        # no NumPy warning (pytest would raise one as an error)
        code = run_cli(
            "train", "--manifest", str(synth_dir / "train.manifest"),
            "--pooling", "oacp", "--interval", "4", "--filters", "2",
            "--lr", "1e200", "--epochs", "2", "--seed", "0",
            "--sample-rate", "1", "--model-out", str(tmp_path / "m.oacm"),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "divergence" in err
        assert "RuntimeWarning" not in err

    def test_numerical_failure_on_overflowing_evaluation(self, synth_dir, tmp_path, capsys):
        # finite features whose average overflows: one message naming the
        # instance, no NumPy warning (pytest would raise one as an error)
        model_path = tmp_path / "m.oacm"
        code = run_cli(
            "train", "--manifest", str(synth_dir / "train.manifest"),
            "--pooling", "average", "--epochs", "1", "--model-out", str(model_path),
        )
        assert code == 0
        save_features(FeatureSequence(np.full((30, 4), 1e308)), tmp_path / "big.txt")
        manifest = tmp_path / "big.manifest"
        manifest.write_text("classes=a,b\nbig.txt 0\n")
        capsys.readouterr()
        code = run_cli("eval", "--manifest", str(manifest), "--model", str(model_path))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("oacpool eval: error: evaluation of instance 0: ")
        assert err.count("\n") == 1


class TestSynth:
    def test_writes_manifests_and_features(self, synth_dir):
        train = load_manifest(synth_dir / "train.manifest")
        test = load_manifest(synth_dir / "test.manifest")
        assert len(train.entries) == 24 and len(test.entries) == 12
        assert train.class_names == ("rising", "falling")
        seq = load_features(train.entries[0][0])
        assert seq.num_frames == 30 and seq.num_features == 4

    def test_deterministic_output(self, tmp_path):
        args = [
            "synth", "--task", "permuted-pair", "--t", "10", "--k", "2",
            "--n-train", "3", "--n-test", "2", "--noise", "0", "--seed", "7",
        ]
        run_cli(*args, "--out", str(tmp_path / "a"))
        run_cli(*args, "--out", str(tmp_path / "b"))
        for name in ("train.manifest", "test.manifest", "train_forward_0000.txt"):
            assert (tmp_path / "a" / name).read_text() == (tmp_path / "b" / name).read_text()


class TestTrainEval:
    def test_full_cycle(self, synth_dir, tmp_path, capsys):
        model_path = tmp_path / "model.oacm"
        code = run_cli(
            "train", "--manifest", str(synth_dir / "train.manifest"),
            "--pooling", "oacp", "--interval", "8", "--stride", "1",
            "--filters", "3", "--pyramid", "1,2", "--lr", "0.1",
            "--epochs", "15", "--seed", "0", "--sample-rate", "1",
            "--model-out", str(model_path),
        )
        assert code == 0
        model = load_model(model_path)
        assert model.spec.kind == "oacp" and model.spec.sample_rate == 1
        capsys.readouterr()

        code = run_cli(
            "eval", "--manifest", str(synth_dir / "test.manifest"),
            "--model", str(model_path), "--confusion",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy=")
        accuracy = float(out.splitlines()[0].split("=")[1])
        assert accuracy >= 0.9
        confusion_rows = out.splitlines()[2:]
        assert len(confusion_rows) == 2
        assert sum(int(v) for row in confusion_rows for v in row.split()) == 12

    def test_eval_applies_model_sampling(self, synth_dir, tmp_path, capsys):
        # trained with sampling 5: eval must reproduce it from the checkpoint
        model_path = tmp_path / "model.oacm"
        code = run_cli(
            "train", "--manifest", str(synth_dir / "train.manifest"),
            "--pooling", "max", "--sample-rate", "5", "--epochs", "2",
            "--model-out", str(model_path),
        )
        assert code == 0
        assert load_model(model_path).spec.sample_rate == 5
        code = run_cli(
            "eval", "--manifest", str(synth_dir / "test.manifest"),
            "--model", str(model_path),
        )
        assert code == 0
        capsys.readouterr()

    @staticmethod
    def _trained_checkpoint(synth_dir, tmp_path, pooling="oacp", **edits):
        """Train a small model, then apply edits to its checkpoint header."""
        model_path = tmp_path / "model.oacm"
        code = run_cli(
            "train", "--manifest", str(synth_dir / "train.manifest"),
            "--pooling", pooling, "--interval", "4", "--sample-rate", "1",
            "--epochs", "1", "--model-out", str(model_path),
        )
        assert code == 0
        edit_checkpoint(model_path, **edits)
        return model_path

    def test_eval_rejects_checkpoint_with_tampered_geometry(self, synth_dir, tmp_path, capsys):
        # an average model holds interval 1, whatever --interval said
        model_path = self._trained_checkpoint(synth_dir, tmp_path, "average", interval=5)
        capsys.readouterr()
        code = run_cli(
            "eval", "--manifest", str(synth_dir / "test.manifest"),
            "--model", str(model_path),
        )
        assert code == 2
        assert "interval 5 does not match" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pooling,key,value",
        [("oacp", "num_classes", 2.0), ("average", "sample_rate", 2.5)],
    )
    def test_eval_rejects_checkpoint_with_non_integer_field(
        self, synth_dir, tmp_path, capsys, pooling, key, value
    ):
        model_path = self._trained_checkpoint(synth_dir, tmp_path, pooling, **{key: value})
        capsys.readouterr()
        code = run_cli(
            "eval", "--manifest", str(synth_dir / "test.manifest"),
            "--model", str(model_path),
        )
        assert code == 2
        assert f"{key} must be an integer" in capsys.readouterr().err

    # An oversized geometry must be refused before any sequence is padded to
    # it; the guard turns a regression into a failure instead of a huge array.
    @staticmethod
    def _refuse_padding(monkeypatch):
        def refuse(seq, min_frames):
            raise AssertionError(f"asked to pad a sequence to {min_frames} frames")

        monkeypatch.setattr("oacpool.harness.experiments.replicate_pad", refuse)

    def test_eval_rejects_checkpoint_with_oversized_geometry(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        model_path = self._trained_checkpoint(synth_dir, tmp_path, stride=10**30)
        capsys.readouterr()
        self._refuse_padding(monkeypatch)
        code = run_cli(
            "eval", "--manifest", str(synth_dir / "test.manifest"),
            "--model", str(model_path),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "minimum_frames" in err and err.count("\n") == 1

    def test_eval_rejects_a_json_checkpoint(self, synth_dir, tmp_path, capsys):
        model_path = self._trained_checkpoint(synth_dir, tmp_path)
        json_path = tmp_path / "model.json"
        json_path.write_text(json.dumps(json_v2_checkpoint(load_model(model_path))))
        capsys.readouterr()
        code = run_cli(
            "eval", "--manifest", str(synth_dir / "test.manifest"),
            "--model", str(json_path),
        )
        assert code == 2
        assert "JSON checkpoints no longer load" in capsys.readouterr().err

    def test_train_rejects_oversized_stride(self, synth_dir, tmp_path, capsys, monkeypatch):
        model_path = tmp_path / "model.oacm"
        self._refuse_padding(monkeypatch)
        code = run_cli(
            "train", "--manifest", str(synth_dir / "train.manifest"),
            "--pooling", "oacp", "--stride", "1000000000",
            "--epochs", "1", "--model-out", str(model_path),
        )
        assert code == 1
        assert "minimum_frames" in capsys.readouterr().err
        assert not model_path.exists()


    @staticmethod
    def _binary_manifest(directory, widths):
        """A manifest of one binary (150, width) file per entry of widths, and their payload bytes."""
        directory.mkdir()
        rng = np.random.default_rng(61)
        lines = ["classes=a,b"]
        for i, width in enumerate(widths):
            seq = FeatureSequence(rng.standard_normal((150, width)))
            save_features(seq, directory / f"seq_{i}.bin", binary=True)
            lines.append(f"seq_{i}.bin {i % 2}")
        manifest = directory / "data.manifest"
        manifest.write_text("\n".join(lines) + "\n")
        return manifest, 150 * 8 * sum(widths)

    def test_train_and_eval_read_one_raw_file_at_a_time(self, tmp_path, capsys):
        # the default 1-in-5 sampling keeps a fifth of each file, so the
        # prepared split is a fifth of the payload; holding every raw
        # sequence before sampling would take all of it
        manifest, payload = self._binary_manifest(tmp_path / "data", [256] * 20)
        model_path = tmp_path / "model.oacm"
        train = ["train", "--manifest", str(manifest), "--epochs", "1",
                 "--model-out", str(model_path)]
        evl = ["eval", "--manifest", str(manifest), "--model", str(model_path)]
        codes = []
        peaks = [traced_peak_mib(lambda: codes.append(main(argv))) for argv in (train, evl)]
        assert codes == [0, 0]
        assert max(peaks) < payload / 2 / 2**20
        capsys.readouterr()

    def test_a_later_file_of_another_width_exits_2(self, tmp_path, capsys):
        good, _ = self._binary_manifest(tmp_path / "good", [4, 4])
        bad, _ = self._binary_manifest(tmp_path / "bad", [4, 4, 5])
        model_path = tmp_path / "model.oacm"
        other_path = tmp_path / "other.oacm"
        code = run_cli("train", "--manifest", str(good), "--epochs", "1",
                       "--model-out", str(model_path))
        assert code == 0
        capsys.readouterr()
        for argv in (
            ["train", "--manifest", str(bad), "--epochs", "1", "--model-out", str(other_path)],
            ["eval", "--manifest", str(bad), "--model", str(model_path)],
        ):
            assert run_cli(*argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and "seq_2.bin: has 5 features, dataset uses 4" in err
        assert not other_path.exists()


class TestCompare:
    def test_csv_output_is_byte_identical_across_runs(self, synth_dir, capsys):
        args = [
            "compare",
            "--train-manifest", str(synth_dir / "train.manifest"),
            "--test-manifest", str(synth_dir / "test.manifest"),
            "--methods", "average,max,oacp",
            "--interval", "8", "--filters", "3", "--pyramid", "1,2",
            "--lr", "0.1", "--epochs", "10", "--seed", "3", "--sample-rate", "1",
        ]
        assert run_cli(*args) == 0
        first = capsys.readouterr().out
        assert run_cli(*args) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = first.strip().splitlines()
        assert lines[0] == "method,accuracy,pool_params,total_params,receptive_field,status"
        assert [line.split(",")[0] for line in lines[1:]] == ["average", "max", "oacp"]

    def _two_class_data(self, tmp_path, classes):
        # every instance is labeled 0 or 1, whatever the manifest declares
        rng = np.random.default_rng(56)
        lines = ["classes=" + ",".join(classes)]
        for i in range(4):
            name = f"seq_{i}.txt"
            save_features(FeatureSequence(rng.standard_normal((6, 4)) + i % 2), tmp_path / name)
            lines.append(f"{name} {i % 2}")
        path = tmp_path / f"{len(classes)}.manifest"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_uses_the_declared_class_count(self, tmp_path, capsys):
        manifest = self._two_class_data(tmp_path, ["a", "b", "c"])
        code = run_cli(
            "compare", "--train-manifest", str(manifest), "--test-manifest", str(manifest),
            "--methods", "average", "--epochs", "2", "--sample-rate", "1",
        )
        assert code == 0
        row = capsys.readouterr().out.strip().splitlines()[1].split(",")
        assert row[0] == "average" and int(row[3]) == 3 * 4 + 3

    def test_rejects_splits_declaring_different_class_counts(self, tmp_path, capsys):
        train = self._two_class_data(tmp_path, ["a", "b", "c"])
        test = self._two_class_data(tmp_path, ["a", "b"])
        code = run_cli(
            "compare", "--train-manifest", str(train), "--test-manifest", str(test),
            "--methods", "average", "--epochs", "1", "--sample-rate", "1",
        )
        assert code == 2
        assert "test manifest declares 2" in capsys.readouterr().err

    def test_rejects_a_test_split_of_another_width(self, synth_dir, tmp_path, capsys):
        save_features(FeatureSequence(np.ones((30, 5))), tmp_path / "wide.txt")
        test = tmp_path / "wide.manifest"
        test.write_text("classes=a,b\nwide.txt 1\n")
        code = run_cli(
            "compare", "--train-manifest", str(synth_dir / "train.manifest"),
            "--test-manifest", str(test), "--methods", "oacp,average", "--epochs", "1",
        )
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "oacpool compare: error: test instance 0 has 5 features, the training data has 4\n"
        )

    def test_rejects_unknown_method(self, tmp_path, capsys):
        assert run_cli(
            "compare", "--train-manifest", str(tmp_path / "a"),
            "--test-manifest", str(tmp_path / "b"), "--methods", "average,fancy",
        ) == 1
        assert capsys.readouterr().err == (
            "oacpool compare: error: unknown pooling kind 'fancy'\n"
        )


class TestGradcheckCommand:
    def test_passes_and_prints_error(self, capsys):
        code = run_cli(
            "gradcheck", "--k", "3", "--t", "6", "--interval", "2",
            "--filters", "2", "--classes", "3", "--seed", "0", "--eps", "1e-5",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("max_relative_error=")
        assert float(out.split("=")[1]) < 1e-4

    def test_zeroed_bank_gradients_fail(self, monkeypatch, capsys):
        # the finite differences perturb the bank parameters themselves, not
        # copies of them, so they disagree with planted zero gradients
        original = oacpool.model._bank_gradient

        def planted(*args):
            return tuple(gradient * 0.0 for gradient in original(*args))

        monkeypatch.setattr(oacpool.model, "_bank_gradient", planted)
        assert run_cli("gradcheck") == 3
        assert "gradient check FAILED" in capsys.readouterr().err

    def test_too_short_geometry_is_usage_error(self, capsys):
        code = run_cli("gradcheck", "--t", "2", "--interval", "2")
        assert code == 1
        assert capsys.readouterr().err == (
            "oacpool gradcheck: error: --t 2 is too short for --interval 2 "
            "with a 2-level pyramid (need t >= 3)\n"
        )


class TestReduceCommand:
    def _manifest_with_dims(self, tmp_path, dims=6):
        rng = np.random.default_rng(55)
        lines = ["classes=a,b"]
        for i in range(4):
            seq = FeatureSequence(rng.standard_normal((5, dims)) + (i % 2))
            name = f"seq_{i}.txt"
            save_features(seq, tmp_path / name)
            lines.append(f"{name} {i % 2}")
        path = tmp_path / "data.manifest"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_fit_then_apply(self, tmp_path, capsys):
        manifest = self._manifest_with_dims(tmp_path)
        partition_path = tmp_path / "partition.txt"
        code = run_cli(
            "reduce", "--manifest", str(manifest), "--target-dim", "3",
            "--seed", "1", "--partition-out", str(partition_path),
        )
        assert code == 0
        partition = load_partition(partition_path)
        assert partition.k == 3 and partition.num_dims == 6

        out_dir = tmp_path / "reduced"
        code = run_cli(
            "reduce", "--manifest", str(manifest),
            "--apply", str(partition_path), "--out-dir", str(out_dir),
        )
        assert code == 0
        reduced = load_manifest(out_dir / "data.manifest")
        assert reduced.class_names == ("a", "b")
        seq = load_features(reduced.entries[0][0])
        assert seq.num_features == 3 and seq.num_frames == 5

    def test_apply_keeps_class_names_with_inner_spaces(self, tmp_path, capsys):
        manifest = self._manifest_with_dims(tmp_path)
        manifest.write_text(manifest.read_text().replace("classes=a,b", "classes=a, b,c"))
        partition_path = tmp_path / "partition.txt"
        partition_path.write_text("k=3 D=6 aggregation=sum\n" + "0\n1\n2\n" * 2)
        out_dir = tmp_path / "reduced"
        code = run_cli(
            "reduce", "--manifest", str(manifest),
            "--apply", str(partition_path), "--out-dir", str(out_dir),
        )
        assert code == 0
        assert load_manifest(out_dir / "data.manifest").class_names == ("a", " b", "c")

    def test_apply_refuses_distinct_entries_of_one_file_name(self, tmp_path, capsys):
        # a/x.txt and b/x.txt would both be written to out/x.txt; a/y.txt is
        # not even a feature file, and the clash is found before it is read
        lines = ["classes=p,q"]
        for folder, label in (("a", 0), ("b", 1)):
            (tmp_path / folder).mkdir()
            for name in ("x.txt", "y.txt"):
                seq = FeatureSequence(np.full((3, 6), label + 1.0))
                save_features(seq, tmp_path / folder / name)
                lines.append(f"{folder}/{name} {label}")
        (tmp_path / "a" / "y.txt").write_text("not features\n")
        manifest = tmp_path / "data.manifest"
        manifest.write_text("\n".join(lines) + "\n")
        partition_path = tmp_path / "partition.txt"
        partition_path.write_text("k=3 D=6 aggregation=sum\n" + "0\n1\n2\n" * 2)
        out_dir = tmp_path / "reduced"
        apply = ("reduce", "--manifest", str(manifest), "--apply", str(partition_path))
        code = run_cli(*apply, "--out-dir", str(out_dir))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        first, second = (tmp_path / folder / "x.txt" for folder in "ab")
        assert f"entries {first} and {second} share the file name 'x.txt'" in captured.err
        assert not out_dir.exists()
        # one path listed twice is one input, written once under its name
        manifest.write_text("classes=p,q\nb/x.txt 1\nb/x.txt 1\n")
        assert run_cli(*apply, "--out-dir", str(out_dir)) == 0
        reduced = load_manifest(out_dir / "data.manifest")
        assert [(path.name, label) for path, label in reduced.entries] == [("x.txt", 1)] * 2

    def test_fit_on_tied_signatures_matches_the_exact_oracle(self, tmp_path, capsys):
        # integer frames, repeated within each sequence, whose 40 dimensions
        # copy 8 columns: at most 8 distinct signatures for 12 groups, so
        # distances tie and clusters come up empty and get reseeded
        rng = np.random.default_rng(56)
        columns = rng.integers(0, 8, 40)
        lines = ["classes=a,b,c"]
        for i in range(9):
            frames = rng.integers(0, 3, (2, 8))[rng.integers(0, 2, 6)][:, columns]
            save_features(FeatureSequence(frames.astype(np.float64)), tmp_path / f"s{i}.txt")
            lines.append(f"s{i}.txt {i % 3}")
        manifest = tmp_path / "data.manifest"
        manifest.write_text("\n".join(lines) + "\n")
        for seed in range(4):
            fitted = tmp_path / f"fitted_{seed}.txt"
            code = run_cli(
                "reduce", "--manifest", str(manifest), "--target-dim", "12",
                "--seed", str(seed), "--partition-out", str(fitted),
            )
            assert code == 0
            data = load_dataset(load_manifest(manifest))
            signatures = class_signatures(data, 3)
            assignment, _, _ = unblocked_lloyd_kmeans(signatures, 12, seed=seed)
            oracle = tmp_path / f"oracle_{seed}.txt"
            save_partition(ReductionPartition(assignment, 12), oracle)
            assert fitted.read_bytes() == oracle.read_bytes()

    def test_mixed_modes_are_usage_errors(self, tmp_path, capsys):
        manifest = self._manifest_with_dims(tmp_path)
        either = "use either --target-dim with --partition-out, or --apply with --out-dir"
        cases = [
            ([], either),
            (
                [
                    "--target-dim", "2", "--partition-out", str(tmp_path / "p.txt"),
                    "--apply", str(tmp_path / "p.txt"), "--out-dir", str(tmp_path / "r"),
                ],
                either,
            ),
            (["--target-dim", "2"], "fitting needs both --target-dim and --partition-out"),
            (["--out-dir", str(tmp_path / "r")], "applying needs both --apply and --out-dir"),
        ]
        for extra, message in cases:
            assert run_cli("reduce", "--manifest", str(manifest), *extra) == 1
            assert capsys.readouterr().err == f"oacpool reduce: error: {message}\n"

    def test_out_dir_that_is_a_file_is_data_error(self, tmp_path, capsys):
        manifest = self._manifest_with_dims(tmp_path)
        partition_path = tmp_path / "partition.txt"
        assert run_cli(
            "reduce", "--manifest", str(manifest), "--target-dim", "3",
            "--partition-out", str(partition_path),
        ) == 0
        capsys.readouterr()
        taken = tmp_path / "taken"
        taken.write_text("")
        code = run_cli(
            "reduce", "--manifest", str(manifest),
            "--apply", str(partition_path), "--out-dir", str(taken),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("oacpool reduce: error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "content",
        [
            b"k=99999999999999999999999 D=6 aggregation=sum\n0\n1\n2\n0\n1\n2\n",
            b"k=3 D=6 aggregation=sum\n0\n1\n2\n0\n1\n99999999999999999999999\n",
            b"k=3 D=6 aggregation=sum\n0\n1\n2\n0\n1\n\xff\n",
        ],
        ids=["huge-k", "huge-group", "non-utf8"],
    )
    def test_malformed_partition_is_data_error(self, tmp_path, capsys, content):
        manifest = self._manifest_with_dims(tmp_path)
        partition_path = tmp_path / "partition.txt"
        partition_path.write_bytes(content)
        code = run_cli(
            "reduce", "--manifest", str(manifest),
            "--apply", str(partition_path), "--out-dir", str(tmp_path / "reduced"),
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    # the inputs are read one at a time, but a bad last one still leaves no output
    @pytest.mark.parametrize(
        "content",
        [b"T=2 K=6\n1 2 3 4 5 6\n1 2 3\n", b"T=1 K=5\n1 2 3 4 5\n"],
        ids=["malformed", "other-k"],
    )
    def test_bad_last_input_writes_nothing(self, tmp_path, capsys, content):
        manifest = self._manifest_with_dims(tmp_path)
        (tmp_path / "bad.txt").write_bytes(content)
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write("bad.txt 1\n")
        partition_path = tmp_path / "partition.txt"
        partition_path.write_text("k=3 D=6 aggregation=sum\n" + "0\n1\n2\n" * 2)
        out_dir = tmp_path / "reduced"
        code = run_cli(
            "reduce", "--manifest", str(manifest),
            "--apply", str(partition_path), "--out-dir", str(out_dir),
        )
        assert code == 2
        assert "bad.txt" in capsys.readouterr().err
        assert not out_dir.exists()
        fitted = tmp_path / "fitted.txt"
        code = run_cli(
            "reduce", "--manifest", str(manifest), "--target-dim", "3",
            "--partition-out", str(fitted),
        )
        assert code == 2
        assert "bad.txt" in capsys.readouterr().err
        assert not fitted.exists()

    def test_peak_memory_does_not_grow_with_the_manifest(self, tmp_path, capsys):
        # fit and apply hold one (30, 1024) input (240 KiB) at a time and
        # keep only the 16-wide outputs, so 32 inputs peak as 8 do
        peaks = {}
        for count in (8, 32):
            rng = np.random.default_rng(60)
            lines = ["classes=a,b,c,d"]
            for i in range(count):
                seq = FeatureSequence(rng.standard_normal((30, 1024)))
                save_features(seq, tmp_path / f"seq_{i}.bin", binary=True)
                lines.append(f"seq_{i}.bin {i % 4}")
            manifest = tmp_path / f"data_{count}.manifest"
            manifest.write_text("\n".join(lines) + "\n")
            partition_path = tmp_path / f"partition_{count}.txt"
            fit = [
                "reduce", "--manifest", str(manifest), "--target-dim", "16",
                "--partition-out", str(partition_path),
            ]
            apply = [
                "reduce", "--manifest", str(manifest), "--apply", str(partition_path),
                "--out-dir", str(tmp_path / f"reduced_{count}"),
            ]
            codes = []
            peaks[count] = [
                traced_peak_mib(lambda: codes.append(main(argv))) for argv in (fit, apply)
            ]
            assert codes == [0, 0]
        for small, large in zip(peaks[8], peaks[32]):
            assert large < 3
            assert large - small < 0.5

    def test_fewer_distinct_dimensions_than_target(self, tmp_path, capsys):
        # seven dimensions with two distinct signatures, reduced to four groups
        save_features(FeatureSequence([[1, 1, 1, 1, 0, 0, 0]]), tmp_path / "one.txt")
        manifest = tmp_path / "data.manifest"
        manifest.write_text("classes=a\none.txt 0\n")
        partition_path = tmp_path / "p.txt"
        code = run_cli(
            "reduce", "--manifest", str(manifest), "--target-dim", "4",
            "--seed", "0", "--partition-out", str(partition_path),
        )
        assert code == 0
        partition = load_partition(partition_path)
        assert partition.k == 4 and (partition.group_sizes > 0).all()

    def test_feature_header_beyond_int64_is_data_error(self, tmp_path, capsys):
        (tmp_path / "huge.txt").write_text("T=1 K=99999999999999999999\n1 2\n")
        manifest = tmp_path / "data.manifest"
        manifest.write_text("classes=a\nhuge.txt 0\n")
        code = run_cli(
            "reduce", "--manifest", str(manifest), "--target-dim", "1",
            "--partition-out", str(tmp_path / "p.txt"),
        )
        assert code == 2
        assert "line 2" in capsys.readouterr().err

    def test_target_above_dims_is_data_error(self, tmp_path, capsys):
        manifest = self._manifest_with_dims(tmp_path, dims=3)
        code = run_cli(
            "reduce", "--manifest", str(manifest), "--target-dim", "9",
            "--partition-out", str(tmp_path / "p.txt"),
        )
        assert code == 2

    def test_overflowing_class_sum_is_data_error(self, tmp_path, capsys):
        # every value is finite, but class a's sum in dimension 0 is not
        save_features(FeatureSequence([[1e308, 1.0], [1e308, 2.0]]), tmp_path / "big.txt")
        save_features(FeatureSequence([[1.0, 1.0]]), tmp_path / "small.txt")
        manifest = tmp_path / "data.manifest"
        manifest.write_text("classes=a,b\nsmall.txt 1\nbig.txt 0\n")
        code = run_cli(
            "reduce", "--manifest", str(manifest), "--target-dim", "1",
            "--partition-out", str(tmp_path / "p.txt"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "class 0" in err and "dimension 0" in err
        assert not (tmp_path / "p.txt").exists()


    def test_apply_of_an_overflowing_group_is_data_error(self, tmp_path, capsys):
        # every value is finite, but frame 1's sum in group 0 is not
        save_features(FeatureSequence([[1.0, 1.0, 1.0], [1.0, 1e308, 1e308]]), tmp_path / "s.txt")
        manifest = tmp_path / "data.manifest"
        manifest.write_text("classes=a\ns.txt 0\n")
        save_partition(ReductionPartition(np.array([1, 0, 0]), 2), tmp_path / "p.txt")
        code = run_cli(
            "reduce", "--manifest", str(manifest), "--apply", str(tmp_path / "p.txt"),
            "--out-dir", str(tmp_path / "reduced"),
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "frame 1 sums to a non-finite value in group 0" in err
        assert not (tmp_path / "reduced").exists()


def _subclasses(kind):
    for sub in kind.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize(
    "exc, code",
    [
        *[
            pytest.param(kind("bad data"), 2, id=kind.__name__)
            for kind in (DataError, *_subclasses(DataError))
        ],
        pytest.param(
            OSError(errno.ENAMETOOLONG, "File name too long", "x" * 300), 2, id="OSError"
        ),
        pytest.param(DivergenceError("divergence"), 3, id="DivergenceError"),
        pytest.param(ValueError("bad value"), 1, id="ValueError"),
    ],
)
def test_exit_code_follows_the_exception_type(monkeypatch, capsys, exc, code):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_gradcheck", fail)
    assert main(["gradcheck"]) == code
    assert capsys.readouterr().err == f"oacpool gradcheck: error: {exc}\n"


@pytest.mark.parametrize("kind", POOLING_KINDS)
def test_bare_geometry_flags_give_the_default_spec(kind):
    parser = build_parser()
    bare = (
        ["train", "--manifest", "m", "--model-out", "o", "--pooling", kind],
        ["compare", "--train-manifest", "a", "--test-manifest", "b", "--methods", kind],
    )
    for argv in bare:
        assert _spec_from_flags(parser.parse_args(argv), kind) == PoolingSpec(kind)


# Each subcommand with its input paths (IN, which does not exist) and its
# output path (OUT, which must not be created), then each range-checked flag
# with a bad value and the record field its message names.
_IO_FLAGS = {
    "synth": ["--task", "trend-pair", "--out", "OUT"],
    "train": ["--manifest", "IN", "--model-out", "OUT"],
    "compare": ["--train-manifest", "IN", "--test-manifest", "IN", "--methods", "oacp"],
    "gradcheck": [],
    "reduce": ["--manifest", "IN", "--target-dim", "2", "--partition-out", "OUT"],
}
_SHARED_BAD_FLAGS = [
    ("--interval", "0", "interval"),
    ("--stride", "0", "stride"),
    ("--filters", "0", "n_filters"),
    ("--pyramid", "1,0", "pyramid"),
    ("--lr", "-0.5", "learning_rate"),
    ("--epochs", "0", "epochs"),
    ("--seed", "-1", "seed"),
    ("--sample-rate", "0", "sample_rate"),
]
_BAD_FLAGS = [
    ("synth", "--t", "1", "num_frames"),
    ("synth", "--k", "0", "num_features"),
    ("synth", "--n-train", "0", "n_train"),
    ("synth", "--n-test", "0", "n_test"),
    ("synth", "--noise", "-0.5", "noise_sigma"),
    ("synth", "--seed", "-1", "seed"),
    *[("train", *bad) for bad in _SHARED_BAD_FLAGS],
    *[("compare", *bad) for bad in _SHARED_BAD_FLAGS],
    ("compare", "--methods", ",", "methods"),
    ("gradcheck", "--k", "0", "num_features"),
    ("gradcheck", "--t", "0", "--t"),
    ("gradcheck", "--interval", "0", "interval"),
    ("gradcheck", "--filters", "0", "n_filters"),
    ("gradcheck", "--classes", "0", "num_classes"),
    ("gradcheck", "--seed", "-1", "seed"),
    ("reduce", "--target-dim", "0", "target_dim"),
    ("reduce", "--seed", "-1", "seed"),
    # value None: the flag is left out, so the fit mode is incomplete
    ("reduce", "--partition-out", None, "fitting"),
    ("reduce", "--target-dim", None, "fitting"),
]


@pytest.mark.parametrize(
    "command, flag, value, field",
    _BAD_FLAGS,
    ids=[" ".join(map(str, c[:3])) for c in _BAD_FLAGS],
)
def test_a_bad_flag_value_fails_before_any_file_is_read(
    tmp_path, capsys, command, flag, value, field
):
    paths = {"IN": str(tmp_path / "missing.manifest"), "OUT": str(tmp_path / "out")}
    argv = [paths.get(arg, arg) for arg in _IO_FLAGS[command]]
    if value is None:
        at = argv.index(flag)
        del argv[at : at + 2]
    else:
        argv += [flag, value]
    # a missing input read first would exit 2, not 1
    assert run_cli(command, *argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"oacpool {command}: error: {field} ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert list(tmp_path.iterdir()) == []


def _run_module(*argv, cwd=None):
    # the child interpreter does not see pytest's sys.path, so hand it the
    # directory this oacpool was imported from
    src = str(Path(oacpool.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "oacpool", *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point_runs():
    proc = _run_module("gradcheck", "--t", "6", "--interval", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("max_relative_error=")


def test_module_entry_point_exits_1_on_a_bad_flag_value(tmp_path):
    # the shell exit code is main's return value, not an argparse SystemExit
    proc = _run_module(
        "train", "--manifest", "missing", "--model-out", "m", "--filters", "0", cwd=tmp_path
    )
    assert proc.returncode == 1
    assert proc.stderr == "oacpool train: error: n_filters must be >= 1, got 0\n"
    assert list(tmp_path.iterdir()) == []
