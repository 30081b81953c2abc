"""Paired A/B timing of two oacpool source trees in one process.

Usage, from the repository root::

    python3 tools/paired_steps.py BASE_TREE NEW_TREE [--trials N] [--cpu C] [--json OUT]

Each tree is a directory holding ``src/oacpool`` (a checkout of the
repository).  The package imports itself only relatively, so both trees load
side by side under the names ``tree_a`` and ``tree_b``.  For every pooling
kind at two shapes, the desk shape (K=64, T=40, 2 classes) and the paper
shape (K=4096, T=30, 51 classes), both with interval 8, 3 filters and
pyramid 1,2, a trial times with ``time.process_time``:

- ``sgd_train`` per step: one run of a few epochs at learning rate 0.1 from
  a copy of one seeded model, divided by the number of steps;
- ``evaluate`` per instance: five evaluations of the model that run trained.

Trials are short and alternate which tree runs first, so that the two
sides of a pair see the same speed of a host whose speed drifts.  After
every trial the SHA-256 of the trained parameters and of every evaluation's
accuracy and confusion matrix is compared between the trees, so a timing of
code that computes something else is refused with exit status 1.  BLAS runs
one thread, as in ``bench/run.py``: ``process_time`` adds up the CPU time of
every thread, so a second BLAS thread would read as a slower step.  The
script prints that cap, then one line per measurement with each tree's
median, the change of the medians and the pairs the new tree won.  After
the timed trials, so that tracing does not slow them, it prints each tree's
``tracemalloc`` peak for one ``evaluate`` of a paper-shape oacp model over
two instances, and with ``--json`` writes every figure to a file.  A shared host drifts between sessions: compare the two
sides of one run only.  This is a development tool, not part of the test
suite or the benchmark.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib.util
import json
import os
import statistics
import struct
import sys
import time
import tracemalloc
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for var in BLAS_THREAD_VARS:  # must precede the first numpy import
    os.environ[var] = "1"

import numpy as np  # noqa: E402

KINDS = ("average", "max", "pyramid", "oacp")
# (K, T, classes, instances, epochs); the paper shape trains on fewer
# instances so that a trial stays near a second
SHAPES = {
    "desk": (64, 40, 2, 30, 10),
    "paper": (4096, 30, 51, 4, 2),
}
LEARNING_RATE = 0.1
EVAL_REPEATS = 5


def load_tree(root: Path, name: str):
    """The oacpool package of the tree at root, imported as the package name."""
    package_dir = root / "src" / "oacpool"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)]
    )
    if spec is None:
        raise SystemExit(f"{root} holds no src/oacpool package")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def make_data(pkg, shape: str):
    """Seeded (frames, label) instances of the shape, built with pkg's own classes."""
    num_features, num_frames, num_classes, count, _ = SHAPES[shape]
    rng = np.random.default_rng(24)
    return [
        pkg.LabeledSequence(
            pkg.FeatureSequence(rng.standard_normal((num_frames, num_features))),
            i % num_classes,
        )
        for i in range(count)
    ]


def outcome_digest(model, evaluations) -> str:
    """SHA-256 of the trained parameters, then of each (accuracy, confusion) evaluation."""
    digest = hashlib.sha256()
    for param in model.parameters():
        digest.update(np.ascontiguousarray(param).tobytes())
    for accuracy, confusion in evaluations:
        digest.update(struct.pack("<d", accuracy))
        digest.update(np.ascontiguousarray(confusion).tobytes())
    return digest.hexdigest()


def one_trial(pkg, initial, data, shape: str) -> tuple[float, float, str]:
    """(seconds per sgd_train step, seconds per evaluated instance, outcome digest).

    One training run from a copy of initial, then EVAL_REPEATS evaluations
    of the trained model.
    """
    epochs = SHAPES[shape][4]
    cfg = pkg.TrainConfig(learning_rate=LEARNING_RATE, epochs=epochs, seed=5)
    model = copy.deepcopy(initial)
    started = time.process_time()
    pkg.sgd_train(model, data, cfg)
    train_s = (time.process_time() - started) / (epochs * len(data))
    started = time.process_time()
    evaluations = [pkg.evaluate(model, data) for _ in range(EVAL_REPEATS)]
    eval_s = (time.process_time() - started) / (EVAL_REPEATS * len(data))
    return train_s, eval_s, outcome_digest(model, evaluations)


def evaluate_peak_mib(pkg) -> float:
    """tracemalloc peak, in MiB, of evaluate over two paper-shape instances of an oacp model."""
    num_features, _, num_classes, _, _ = SHAPES["paper"]
    model = pkg.ClassifierModel.build(
        "oacp", num_features, num_classes, interval=8, n_filters=3, pyramid=(1, 2), seed=7
    )
    data = make_data(pkg, "paper")[:2]
    tracemalloc.start()
    try:
        pkg.evaluate(model, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


def summary(base: list[float], new: list[float]) -> dict:
    """Medians in microseconds, the change of the medians and the pairs the new tree won."""
    base_median, new_median = statistics.median(base), statistics.median(new)
    return {
        "base_us": round(base_median * 1e6, 1),
        "new_us": round(new_median * 1e6, 1),
        "delta_frac": round((new_median - base_median) / base_median, 4),
        "new_wins": sum(b > n for b, n in zip(base, new)),
        "pairs": len(base),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--trials", type=int, default=41)
    parser.add_argument("--cpu", type=int, default=None, help="pin the process to this CPU")
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    print("BLAS thread cap: " + ", ".join(f"{var}={os.environ[var]}" for var in BLAS_THREAD_VARS))
    trees = (load_tree(args.base, "tree_a"), load_tree(args.new, "tree_b"))
    results = {}
    for shape in SHAPES:
        datasets = [make_data(pkg, shape) for pkg in trees]
        num_features, _, num_classes, _, _ = SHAPES[shape]
        for kind in KINDS:
            initial = [
                pkg.ClassifierModel.build(
                    kind, num_features, num_classes, interval=8, n_filters=3,
                    pyramid=(1, 2), seed=7,
                )
                for pkg in trees
            ]
            times = {"sgd_train_step": ([], []), "evaluate": ([], [])}
            for trial in range(args.trials + 1):
                order = (0, 1) if trial % 2 else (1, 0)
                digests = {}
                for side in order:
                    train_s, eval_s, digests[side] = one_trial(
                        trees[side], initial[side], datasets[side], shape
                    )
                    if trial:  # the first trial warms caches and is not recorded
                        times["sgd_train_step"][side].append(train_s)
                        times["evaluate"][side].append(eval_s)
                if digests[0] != digests[1]:
                    print(
                        f"{shape} {kind}: the trees train or evaluate differently",
                        file=sys.stderr,
                    )
                    return 1
            for name, (base, new) in times.items():
                key = f"{shape}.{kind}.{name}"
                results[key] = summary(base, new)
                row = results[key]
                print(
                    f"{key}: {row['base_us']} -> {row['new_us']} us "
                    f"({row['delta_frac']:+.1%}, new wins {row['new_wins']}/{row['pairs']})",
                    flush=True,
                )
    base_mib, new_mib = (round(evaluate_peak_mib(pkg), 2) for pkg in trees)
    results["paper.oacp.evaluate_peak_two_instances"] = {"base_mib": base_mib, "new_mib": new_mib}
    print(f"paper.oacp.evaluate_peak_two_instances: {base_mib} -> {new_mib} MiB", flush=True)
    if args.json is not None:
        args.json.write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
