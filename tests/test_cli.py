import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oacpool
from oacpool.cli import _spec_from_flags, build_parser, main
from oacpool.dimreduce import load_partition
from oacpool.harness import load_features, load_manifest, save_features
from oacpool.model import POOLING_KINDS, PoolingSpec, load_model
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

    def test_usage_error_on_bad_pyramid(self):
        with pytest.raises(SystemExit) as err:
            run_cli(
                "train", "--manifest", "x", "--model-out", "y", "--pyramid", "2,1"
            )
        assert err.value.code == 1

    # a non-finite rate is a usage error, not a training divergence (exit 3)
    @pytest.mark.parametrize("lr", ["nan", "inf", "1e400"])
    def test_usage_error_on_non_finite_learning_rate(self, synth_dir, tmp_path, capsys, lr):
        with pytest.raises(SystemExit) as err:
            run_cli(
                "train", "--manifest", str(synth_dir / "train.manifest"),
                "--model-out", str(tmp_path / "m.json"), "--lr", lr,
            )
        assert err.value.code == 1
        assert "must be finite" in capsys.readouterr().err

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
        with pytest.raises(SystemExit) as err:
            run_cli(*command, "--seed", "-1")
        assert err.value.code == 1
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err

    def test_usage_error_on_invalid_config_values(self, tmp_path, capsys):
        # values that pass flag parsing but violate config invariants
        assert run_cli(
            "synth", "--task", "trend-pair", "--t", "1", "--out", str(tmp_path / "d")
        ) == 1
        assert run_cli("gradcheck", "--eps", "1.0") == 1
        capsys.readouterr()

    def test_data_error_on_missing_manifest(self, tmp_path, capsys):
        code = run_cli(
            "train", "--manifest", str(tmp_path / "none.manifest"),
            "--model-out", str(tmp_path / "m.json"),
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_data_error_on_malformed_feature_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("T=2 K=2\n1 2\n3\n")
        manifest = tmp_path / "data.manifest"
        manifest.write_text(f"classes=a,b\n{bad.name} 0\n")
        code = run_cli(
            "train", "--manifest", str(manifest), "--model-out", str(tmp_path / "m.json")
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
            "train", "--manifest", str(manifest), "--model-out", str(tmp_path / "m.json")
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

    def test_numerical_failure_on_training_divergence(self, synth_dir, tmp_path, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(
                "train", "--manifest", str(synth_dir / "train.manifest"),
                "--pooling", "oacp", "--interval", "4", "--filters", "2",
                "--lr", "1e200", "--epochs", "2", "--seed", "0",
                "--sample-rate", "1", "--model-out", str(tmp_path / "m.json"),
            )
        assert code == 3
        assert "divergence" in capsys.readouterr().err


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
        model_path = tmp_path / "model.json"
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
        model_path = tmp_path / "model.json"
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
        """Train a small model, then apply edits to its checkpoint document."""
        model_path = tmp_path / "model.json"
        code = run_cli(
            "train", "--manifest", str(synth_dir / "train.manifest"),
            "--pooling", pooling, "--interval", "4", "--sample-rate", "1",
            "--epochs", "1", "--model-out", str(model_path),
        )
        assert code == 0
        doc = json.loads(model_path.read_text())
        doc.update(edits)
        model_path.write_text(json.dumps(doc))
        return model_path

    def test_eval_rejects_checkpoint_with_tampered_geometry(self, synth_dir, tmp_path, capsys):
        model_path = self._trained_checkpoint(synth_dir, tmp_path, interval=5)
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

    @pytest.mark.parametrize("normalize", [False, True])
    def test_eval_reads_version_1_checkpoint_only_without_normalize(
        self, synth_dir, tmp_path, capsys, normalize
    ):
        eval_args = ("eval", "--manifest", str(synth_dir / "test.manifest"), "--confusion")
        model_path = self._trained_checkpoint(synth_dir, tmp_path)
        capsys.readouterr()
        assert run_cli(*eval_args, "--model", str(model_path)) == 0
        expected = capsys.readouterr().out
        doc = json.loads(model_path.read_text())
        doc.update(format_version=1, normalize=normalize)
        model_path.write_text(json.dumps(doc))
        code = run_cli(*eval_args, "--model", str(model_path))
        out, err = capsys.readouterr()
        if normalize:
            assert code == 2 and "normalize" in err
        else:
            assert code == 0 and out == expected

    def test_train_rejects_oversized_stride(self, synth_dir, tmp_path, capsys, monkeypatch):
        model_path = tmp_path / "model.json"
        self._refuse_padding(monkeypatch)
        code = run_cli(
            "train", "--manifest", str(synth_dir / "train.manifest"),
            "--pooling", "oacp", "--stride", "1000000000",
            "--epochs", "1", "--model-out", str(model_path),
        )
        assert code == 1
        assert "minimum_frames" in capsys.readouterr().err
        assert not model_path.exists()


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

    def test_rejects_unknown_method(self):
        with pytest.raises(SystemExit) as err:
            run_cli(
                "compare", "--train-manifest", "a", "--test-manifest", "b",
                "--methods", "average,fancy",
            )
        assert err.value.code == 1


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

    def test_too_short_geometry_is_usage_error(self, capsys):
        code = run_cli("gradcheck", "--t", "2", "--interval", "2")
        assert code == 1


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

    def test_mixed_modes_are_usage_errors(self, tmp_path, capsys):
        manifest = self._manifest_with_dims(tmp_path)
        assert run_cli("reduce", "--manifest", str(manifest)) == 1
        assert (
            run_cli(
                "reduce", "--manifest", str(manifest), "--target-dim", "2",
                "--partition-out", str(tmp_path / "p.txt"),
                "--apply", str(tmp_path / "p.txt"), "--out-dir", str(tmp_path / "r"),
            )
            == 1
        )
        assert run_cli("reduce", "--manifest", str(manifest), "--target-dim", "2") == 1

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


@pytest.mark.parametrize("kind", POOLING_KINDS)
def test_bare_geometry_flags_give_the_default_spec(kind):
    parser = build_parser()
    bare = (
        ["train", "--manifest", "m", "--model-out", "o", "--pooling", kind],
        ["compare", "--train-manifest", "a", "--test-manifest", "b", "--methods", kind],
    )
    for argv in bare:
        assert _spec_from_flags(parser.parse_args(argv), kind) == PoolingSpec(kind)


def test_module_entry_point_runs():
    # the child interpreter does not see pytest's sys.path, so hand it the
    # directory this oacpool was imported from
    src = str(Path(oacpool.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "oacpool", "gradcheck", "--t", "6", "--interval", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("max_relative_error=")
