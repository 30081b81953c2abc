"""One SHA-256 per CLI call of an oacpool source tree, to compare two trees' outputs.

Usage, from the repository root::

    python3 tools/cli_outputs.py TREE

TREE is a directory holding ``src/oacpool`` (a checkout of the repository).
The script runs a fixed list of ``python -m oacpool`` calls one at a time,
each under ``PYTHONPATH=TREE/src`` in one temporary directory that later
calls read from: ``synth`` of each task and of a noisier trend-pair split,
``train`` of each pooling kind plus an oacp model of stride 2, pyramid
1,2,4 and interval 3, ``eval --confusion`` of each of those models on the
noisier test split (no two of them print the same confusion matrix), a
``train`` that diverges (exit 3), a four-method ``compare``,
``gradcheck``, a ``reduce`` fit and apply, four calls on bad inputs that
the script writes under ``bad/`` first, and a usage error:

1. ``train`` on a manifest declaring ``classes=a,,b``;
2. ``train`` on a manifest with a second ``classes=`` line;
3. ``train`` on a manifest listing a text feature file that holds ``nan``;
4. a ``compare`` whose test split has 5 features and training split 6;
5. a ``train`` given ``--epochs ten``, which argparse refuses (exit 1).

For each call it prints the call's name, its exit code and one SHA-256
over its stdout, its stderr, its exit code and the files it wrote or
changed, with the temporary directory's path replaced by a placeholder.  Two trees agree
when their printed lines are equal, for example::

    diff <(python3 tools/cli_outputs.py OLD) <(python3 tools/cli_outputs.py NEW)

The script uses the standard library only.  ``tests/test_golden.py``
imports its calls, its bad inputs and its digest, and pins the digests of
the calls whose bytes depend on neither the BLAS nor the SIMD level.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TASKS = ("trend-pair", "permuted-pair", "multiclass-trend")
KINDS = ("average", "max", "pyramid", "oacp")
# a small training set of 60-frame sequences, 12 frames at the default
# sample rate of 5, so every geometry below is long enough
SYNTH = ("--t", "60", "--k", "6", "--n-train", "16", "--n-test", "8", "--seed", "3")
TRAIN = ("--manifest", "trend-pair/train.manifest", "--epochs", "4", "--seed", "1")
STRIDED = ("--stride", "2", "--pyramid", "1,2,4", "--interval", "3")
# the bad inputs' files, by path relative to the temporary directory
BAD_INPUTS = {
    "bad/one.txt": "T=2 K=3\n0.5 1 2\n1 0 0.25\n",
    "bad/nan.txt": "T=2 K=3\n0.5 1 2\nnan 0 0.25\n",
    "bad/wide.txt": "T=2 K=5\n0.5 1 2 3 4\n1 0 0.25 0 1\n",
    "bad/empty-name.manifest": "classes=a,,b\none.txt 0\none.txt 1\n",
    "bad/two-class-lines.manifest": "classes=a,b\none.txt 0\nclasses=b,a\none.txt 1\n",
    "bad/nan.manifest": "classes=a,b\none.txt 0\nnan.txt 1\n",
    "bad/wide.manifest": "classes=a,b\nwide.txt 0\n",
}


def calls() -> list[tuple[str, tuple[str, ...]]]:
    """(name, CLI arguments) of every call, in the order they run."""
    runs = [(f"synth {task}", ("synth", "--task", task, *SYNTH, "--out", task)) for task in TASKS]
    noisy = ("synth", "--task", "trend-pair", *SYNTH, "--noise", "1", "--out", "noisy-trend-pair")
    runs.append(("synth noisy-trend-pair", noisy))
    models = [(kind, kind, ()) for kind in KINDS] + [("oacp-strided", "oacp", STRIDED)]
    for name, kind, flags in models:
        model = ("--pooling", kind, *flags, "--model-out", f"{name}.oacm")
        runs.append((f"train {name}", ("train", *TRAIN, *model)))
    for name, _, _ in models:
        evaluated = ("--manifest", "noisy-trend-pair/test.manifest", "--model", f"{name}.oacm")
        runs.append((f"eval {name}", ("eval", *evaluated, "--confusion")))
    runs += [
        ("train diverging", ("train", *TRAIN, "--lr", "1e308", "--model-out", "diverged.oacm")),
        (
            "compare",
            (
                "compare", "--train-manifest", "multiclass-trend/train.manifest",
                "--test-manifest", "multiclass-trend/test.manifest",
                "--methods", ",".join(KINDS), "--epochs", "3", "--sample-rate", "1",
            ),
        ),
        ("gradcheck", ("gradcheck",)),
        (
            "reduce fit",
            (
                "reduce", "--manifest", "permuted-pair/train.manifest", "--target-dim", "3",
                "--seed", "2", "--partition-out", "partition.txt",
            ),
        ),
        (
            "reduce apply",
            (
                "reduce", "--manifest", "permuted-pair/test.manifest",
                "--apply", "partition.txt", "--out-dir", "reduced",
            ),
        ),
    ]
    for name in ("empty-name", "two-class-lines", "nan"):
        bad = ("--manifest", f"bad/{name}.manifest", "--epochs", "1")
        runs.append((f"train {name}", ("train", *bad, "--model-out", f"{name}.oacm")))
    wide = (
        "compare", "--train-manifest", "trend-pair/train.manifest",
        "--test-manifest", "bad/wide.manifest", "--methods", "oacp,average", "--epochs", "1",
    )
    runs.append(("compare wide", wide))
    epochs = ("train", *TRAIN, "--epochs", "ten", "--model-out", "epochs-ten.oacm")
    runs.append(("train epochs-ten", epochs))
    return runs


def write_bad_inputs(work: Path) -> None:
    """Write BAD_INPUTS under the work directory, which the bad-input calls read."""
    (work / "bad").mkdir()
    for name, text in BAD_INPUTS.items():
        (work / name).write_text(text)


def file_digests(root: Path) -> dict[str, str]:
    """SHA-256 of every file under root, by path relative to root."""
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def call_digest(tree: Path, work: Path, argv: tuple[str, ...]) -> tuple[int, str]:
    """One call's exit code and the SHA-256 of its stdout, stderr, exit code and written files."""
    # argparse wraps a usage message to the width COLUMNS names
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0", COLUMNS="80")
    before = file_digests(work)
    done = subprocess.run(
        [sys.executable, "-m", "oacpool", *argv], cwd=work, env=env, capture_output=True
    )
    after = file_digests(work)
    placeholder = b"<TMP>"
    digest = hashlib.sha256()

    def add(data: bytes) -> None:
        data = data.replace(os.fsencode(work), placeholder)
        digest.update(len(data).to_bytes(8, "little") + data)

    add(done.stdout)
    add(done.stderr)
    add(str(done.returncode).encode())
    for name in sorted(after):
        if before.get(name) != after[name]:
            add(name.encode())
            add((work / name).read_bytes())
    return done.returncode, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path)
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    if not (tree / "src" / "oacpool").is_dir():
        parser.error(f"{tree} holds no src/oacpool package")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp).resolve()
        write_bad_inputs(work)
        for name, call in calls():
            code, digest = call_digest(tree, work, call)
            print(f"{name} (exit {code}): {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
