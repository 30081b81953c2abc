"""Golden digests of the CLI outputs that depend on neither the BLAS nor the SIMD level.

Each case runs CLI commands in-process on small inputs and hashes, with
SHA-256, the exit codes, the stdout and stderr (with the scratch directory
written as ``<dir>``) and every written file, by its path relative to that
directory.  The digests were committed from a run of these commands; an
intentional change to these outputs updates them in the same change.
`train`, `eval`, `compare`, `gradcheck` and the training demos run the
head's BLAS products, so their digests wait until training bytes no
longer depend on the BLAS.  The checkpoint of an untrained model depends
on the seeded draws alone; its digest pins the checkpoint layout,
whatever layout the model keeps its parameters in.
"""

import contextlib
import hashlib
import io

import pytest

from oacpool.cli import main
from oacpool.harness import TASK_KINDS
from oacpool.model import ClassifierModel, PoolingSpec, save_model

SYNTH = ["--t", "12", "--k", "6", "--n-train", "6", "--n-test", "4", "--seed", "3"]

GOLDEN = {
    "synth trend-pair": "2c93bb32a0ae2e6cc1d0ed8dddf3bda149afcdfebbb9f5d3b802b03e70f0b63c",
    "synth permuted-pair": "6666ce6ebbaa2f8c52760501aaceccccc915413caa2d67df61bf4564caa8300b",
    "synth multiclass-trend": "3bbfa0b287ba648967707160b680ea9a0a6571af4a5a936c51627644cdfd8914",
    "reduce fit and apply": "9053a8c8fa53912e5f7ee790a3da41240d7d0ef7e106405ae23751cb9a0fb248",
    "untrained oacp checkpoint": "de5655cb70129f5c4885ecc114a375492a61b966873d497a1be8f15843b2a790",
}


def run_digest(root, commands) -> str:
    """SHA-256 over each command's exit code and output, then over every file under root."""
    digest = hashlib.sha256()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(arg) for arg in argv])
        for text in (str(code), out.getvalue(), err.getvalue()):
            digest.update(text.replace(str(root), "<dir>").encode() + b"\0")
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


@pytest.mark.parametrize("task", TASK_KINDS)
def test_synth(tmp_path, task):
    got = run_digest(tmp_path, [["synth", "--task", task, *SYNTH, "--out", tmp_path / "data"]])
    assert got == GOLDEN[f"synth {task}"]


def test_reduce_fit_and_apply(tmp_path):
    data, partition = tmp_path / "data", tmp_path / "partition.json"
    commands = [
        ["synth", "--task", "multiclass-trend", *SYNTH, "--out", data],
        ["reduce", "--manifest", data / "train.manifest", "--target-dim", "3",
         "--seed", "4", "--partition-out", partition],
        ["reduce", "--manifest", data / "test.manifest", "--apply", partition,
         "--out-dir", tmp_path / "reduced"],
    ]
    assert run_digest(tmp_path, commands) == GOLDEN["reduce fit and apply"]


def test_untrained_oacp_checkpoint(tmp_path):
    spec = PoolingSpec("oacp", interval=3, stride=2, n_filters=2, pyramid=(1, 2, 4), sample_rate=1)
    save_model(ClassifierModel.from_spec(spec, 5, 3, seed=24), tmp_path / "model.bin")
    digest = hashlib.sha256((tmp_path / "model.bin").read_bytes()).hexdigest()
    assert digest == GOLDEN["untrained oacp checkpoint"]
