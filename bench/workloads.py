"""The benchmark's workloads: inputs made from a seed, timed rounds, output checks.

Every workload is a closed loop with one caller: a round starts only after
the previous one has returned, and nothing here starts a thread or a
process.  The workload seed stays in the benchmark: the library sees only
the inputs and the seeds derived from it.

A workload has three steps.  ``setup()`` makes the inputs (and the model or
files they need).  ``run_round()`` makes the timed calls into the package and
returns their raw outputs with the wall time of each phase.  ``check()``
verifies those outputs afterwards, outside the timed and traced window, and
turns them into attempted and failed operation counts plus named figures.
An operation is an SGD instance step, an evaluated instance, a comparison
method or a CLI call; a failure is an exception, a non-zero exit or a
failed output check.
"""

from __future__ import annotations

import contextlib
import copy
import io
import math
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oacpool
import oacpool.cli


@dataclass
class Checked:
    """What one round did, as judged by the workload's output checks."""

    attempted: int
    failed: int
    figures: dict[str, float]
    problems: list[str]


def _seeds(seed: int, count: int) -> list[int]:
    """Independent integer seeds derived from the workload seed."""
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(count)]


def _timed(call):
    """Run call(); return (result, seconds, error text or None)."""
    started = time.perf_counter()
    try:
        result = call()
    except Exception:
        return None, time.perf_counter() - started, traceback.format_exc(limit=3)
    return result, time.perf_counter() - started, None


class PaperSgd:
    """The paper's shape: K=4096 fc-style dimensions, T=30 sampled frames, 51 classes.

    Every class permutes one shared per-dimension ramp in time, plus noise,
    so the classes differ only in frame order.  The oacp model (interval 8,
    3 filters, pyramid 1,2) holds about 1.99M parameters.
    """

    name = "paper-sgd"
    num_features = 4096
    num_frames = 30
    num_classes = 51
    per_class = 2
    epochs = 2
    noise = 0.1
    learning_rate = 0.1
    min_accuracy = 0.9

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def _split(self, rng, ramp, perms):
        shape = (self.per_class, self.num_frames, self.num_features)
        return [
            oacpool.LabeledSequence(oacpool.FeatureSequence(frames), label)
            for label, perm in enumerate(perms)
            for frames in ramp[perm] + rng.normal(0.0, self.noise, shape)
        ]

    def setup(self) -> None:
        data_seed, self.model_seed = _seeds(self.seed, 2)
        rng = np.random.default_rng(data_seed)
        slopes = rng.uniform(0.5, 1.5, self.num_features)
        ramp = np.linspace(0.0, 1.0, self.num_frames)[:, None] * slopes[None, :]
        perms = [rng.permutation(self.num_frames) for _ in range(self.num_classes)]
        self.train = self._split(rng, ramp, perms)
        self.test = self._split(rng, ramp, perms)
        self.initial_model = oacpool.ClassifierModel.build(
            "oacp",
            self.num_features,
            self.num_classes,
            interval=8,
            n_filters=3,
            pyramid=(1, 2),
            sample_rate=1,
            seed=self.model_seed,
        )

    def run_round(self) -> dict:
        model = copy.deepcopy(self.initial_model)
        cfg = oacpool.TrainConfig(
            learning_rate=self.learning_rate, epochs=self.epochs, seed=self.model_seed
        )
        trained, train_s, train_error = _timed(lambda: oacpool.sgd_train(model, self.train, cfg))
        scored, eval_s, eval_error = _timed(lambda: oacpool.evaluate(model, self.test))
        return {
            "phases": {"train_s": train_s, "eval_s": eval_s},
            "history": None if trained is None else trained[1],
            "accuracy": None if scored is None else scored[0],
            "errors": [e for e in (train_error, eval_error) if e],
        }

    def check(self, out: dict) -> Checked:
        steps = len(self.train) * self.epochs
        evals = len(self.test)
        problems = list(out["errors"])
        failed = 0
        history = out["history"]
        if history is None or not all(math.isfinite(h.mean_loss) for h in history):
            problems.append("training raised or produced a non-finite loss")
            failed += steps
        accuracy = out["accuracy"]
        if accuracy is None or not accuracy >= self.min_accuracy:
            problems.append(f"oacp test accuracy {accuracy} is below {self.min_accuracy}")
            failed += evals
        phases = out["phases"]
        return Checked(
            attempted=steps + evals,
            failed=failed,
            figures={
                "train_inst_per_s": steps / phases["train_s"],
                "eval_inst_per_s": evals / phases["eval_s"],
                "accuracy": float("nan") if accuracy is None else accuracy,
            },
            problems=problems,
        )


class DeskCompare:
    """run_comparison on the three synthetic order-only tasks at desk shape.

    K=64, T=40, 50 train and 50 test sequences per class, all four pooling
    methods, 10 epochs.  The arrays are tiny, so per-call overhead,
    validation, prepare_dataset and the baseline pooling functions weigh
    as much as the convolution.
    """

    name = "desk-compare"
    tasks = ("trend-pair", "permuted-pair", "multiclass-trend")
    pair_tasks = ("trend-pair", "permuted-pair")
    kinds = ("average", "max", "pyramid", "oacp")
    min_oacp_accuracy = 0.95

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        *task_seeds, self.train_seed = _seeds(self.seed, len(self.tasks) + 1)
        self.data = {
            task: oacpool.gen_synthetic(
                oacpool.SyntheticSpec(
                    task,
                    n_train=50,
                    n_test=50,
                    num_frames=40,
                    num_features=64,
                    noise_sigma=0.1,
                    seed=task_seed,
                )
            )
            for task, task_seed in zip(self.tasks, task_seeds)
        }
        self.methods = [oacpool.PoolingSpec(kind, sample_rate=1) for kind in self.kinds]

    def run_round(self) -> dict:
        cfg = oacpool.TrainConfig(learning_rate=0.1, epochs=10, seed=self.train_seed)
        tables, phases, errors = {}, {}, []
        for task in self.tasks:
            train, test = self.data[task]
            table, phases[task], error = _timed(
                lambda: oacpool.run_comparison(train, test, self.methods, cfg)
            )
            tables[task] = table
            if error:
                errors.append(f"{task}: {error}")
        return {"phases": phases, "tables": tables, "errors": errors}

    def check(self, out: dict) -> Checked:
        problems = list(out["errors"])
        failed = 0
        oacp_accuracy = []
        for task, table in out["tables"].items():
            if table is None:
                failed += len(self.kinds)
                continue
            num_classes = 1 + max(item.label for item in self.data[task][0])
            for row in table.rows:
                ok = row.status == "ok" and math.isfinite(row.accuracy)
                if ok and task in self.pair_tasks:
                    if row.method == "oacp":
                        ok = row.accuracy >= self.min_oacp_accuracy
                    elif row.method in ("average", "max"):
                        ok = row.accuracy == 1.0 / num_classes
                if not ok:
                    failed += 1
                    problems.append(f"{task}/{row.method}: {row.status}, accuracy {row.accuracy}")
                if row.method == "oacp":
                    oacp_accuracy.append(row.accuracy)
        return Checked(
            attempted=len(self.tasks) * len(self.kinds),
            failed=failed,
            figures={
                "compare_s": sum(out["phases"].values()),
                "accuracy": float(np.mean(oacp_accuracy)) if oacp_accuracy else float("nan"),
            },
            problems=problems,
        )


class ReduceCli:
    """Two in-process CLI calls: ``reduce`` fit to 128 dimensions, then apply.

    The inputs are 51 text feature files, one per class, with D=4096 and
    28 to 32 frames each.  They look like fc features: non-negative after a
    ReLU, about half exactly zero, exported with six decimals.  The
    dimensions fall into 128 latent groups whose class signatures agree up
    to noise, the structure the signature reducer exists to find.

    How many Lloyd iterations the fit takes depends on the k-means seed (5
    to 8 here).  Each round therefore fits with the next of a run of seeds,
    so that the median round, not the iteration count one seed happens to
    need, sets the run's figure.
    """

    name = "reduce-cli"
    num_classes = 51
    num_dims = 4096
    target_dim = 128
    latent_groups = 128

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.rounds_run = 0

    def setup(self) -> None:
        data_seed, self.kmeans_seed = _seeds(self.seed, 2)
        rng = np.random.default_rng(data_seed)
        prototypes = rng.normal(0.0, 1.0, (self.latent_groups, self.num_classes))
        groups = rng.integers(0, self.latent_groups, self.num_dims)
        signatures = prototypes[groups] + rng.normal(0.0, 0.2, (self.num_dims, self.num_classes))
        features = self.workdir / "features"
        features.mkdir(parents=True, exist_ok=True)
        names = [f"class{c:02d}" for c in range(self.num_classes)]
        self.frame_counts = {}
        lines = ["classes=" + ",".join(names), "split=train"]
        for label, name in enumerate(names):
            num_frames = int(rng.integers(28, 33))
            frames = signatures[:, label] + rng.normal(0.0, 1.0, (num_frames, self.num_dims))
            frames = np.round(np.maximum(frames, 0.0), 6)
            with open(features / f"{name}.txt", "w", encoding="utf-8") as fh:
                fh.write(f"T={num_frames} K={self.num_dims}\n")
                fh.writelines(" ".join(map(repr, row)) + "\n" for row in frames.tolist())
            self.frame_counts[f"{name}.txt"] = num_frames
            lines.append(f"{name}.txt {label}")
        self.manifest = features / "train.manifest"
        self.manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def _cli(self, argv: list[str]) -> tuple[int | None, str]:
        """Call oacpool.cli.main in-process; return (exit code, captured stderr)."""
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = oacpool.cli.main(argv)
            except SystemExit as exc:  # argparse exits on a usage error
                code = exc.code
            except Exception:
                code = None
                stderr.write(traceback.format_exc(limit=3))
        return code, stderr.getvalue()

    def run_round(self) -> dict:
        partition = self.workdir / "partition.txt"
        reduced = self.workdir / "reduced"
        partition.unlink(missing_ok=True)
        shutil.rmtree(reduced, ignore_errors=True)
        kmeans_seed = self.kmeans_seed + self.rounds_run
        self.rounds_run += 1
        fit_argv = [
            "reduce", "--manifest", str(self.manifest),
            "--target-dim", str(self.target_dim), "--seed", str(kmeans_seed),
            "--partition-out", str(partition),
        ]
        apply_argv = [
            "reduce", "--manifest", str(self.manifest),
            "--apply", str(partition), "--out-dir", str(reduced),
        ]
        started = time.perf_counter()
        fit_code, fit_err = self._cli(fit_argv)
        fitted = time.perf_counter()
        apply_code, apply_err = self._cli(apply_argv)
        applied = time.perf_counter()
        return {
            "phases": {"reduce_fit_s": fitted - started, "reduce_apply_s": applied - fitted},
            "codes": (fit_code, apply_code),
            "stderr": (fit_err, apply_err),
            "partition": partition,
            "reduced": reduced,
        }

    def check(self, out: dict) -> Checked:
        problems = []
        failed = 0
        fit_code, apply_code = out["codes"]
        fit_ok = fit_code == 0
        if fit_ok:
            try:
                part = oacpool.load_partition(out["partition"])
                fit_ok = (
                    part.k == self.target_dim
                    and part.num_dims == self.num_dims
                    and bool((part.group_sizes > 0).all())
                )
            except (OSError, ValueError) as exc:
                fit_ok = False
                problems.append(f"partition unreadable: {exc}")
        if not fit_ok:
            failed += 1
            problems.append(f"fit exited {fit_code} or gave a bad partition: {out['stderr'][0]}")
        apply_ok = apply_code == 0
        if apply_ok:
            try:
                for name, num_frames in self.frame_counts.items():
                    seq = oacpool.load_features(out["reduced"] / name)
                    if seq.num_features != self.target_dim or seq.num_frames != num_frames:
                        apply_ok = False
                        problems.append(f"{name} reduced to {seq!r}")
            except (OSError, ValueError) as exc:
                apply_ok = False
                problems.append(f"reduced file unreadable: {exc}")
        if not apply_ok:
            failed += 1
            problems.append(f"apply exited {apply_code} or gave bad files: {out['stderr'][1]}")
        return Checked(attempted=2, failed=failed, figures=dict(out["phases"]), problems=problems)


WORKLOADS = {w.name: w for w in (PaperSgd, DeskCompare, ReduceCli)}
