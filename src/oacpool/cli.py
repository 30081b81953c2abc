"""Command-line interface: synth, train, eval, compare, gradcheck, reduce.

Flags are only parsed here; the library records validate their values, and
each command builds its records before it opens a file.  Exit codes: 0
success, 1 usage error, 2 data/parse error or a file the OS refuses, 3
numerical failure (divergence in training or evaluation, or a gradient
check above threshold).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .dimreduce import (
    class_signatures,
    kmeans_partition,
    load_partition,
    reduce_sequence,
    save_partition,
)
from .errors import DataError, DivergenceError, ShapeMismatchError
from .harness import (
    DatasetManifest,
    SyntheticSpec,
    TASK_KINDS,
    gen_synthetic,
    load_dataset,
    load_manifest,
    prepare_dataset,
    run_comparison,
    save_features,
    save_manifest,
)
from .harness.manifest import iter_dataset
from .model import (
    POOLING_KINDS,
    ClassifierModel,
    PoolingSpec,
    TrainConfig,
    evaluate,
    grad_check,
    load_model,
    save_model,
    sgd_train,
)
from .pooling import seed_value
from .sequences import FeatureSequence, LabeledSequence, positive_int

GRADCHECK_THRESHOLD = 1e-4


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",")]


def _methods(text: str) -> list[str]:
    kinds = [m.strip() for m in text.split(",") if m.strip()]
    if not kinds:
        raise ValueError(f"methods must name at least one pooling kind, got {text!r}")
    return kinds


def _add_shared_training_flags(sub) -> None:
    # the geometry defaults are PoolingSpec's field defaults (its class attributes)
    sub.add_argument("--interval", type=int, default=PoolingSpec.interval)
    sub.add_argument("--stride", type=int, default=PoolingSpec.stride)
    sub.add_argument("--filters", type=int, default=PoolingSpec.n_filters)
    sub.add_argument("--pyramid", type=_int_list, default=PoolingSpec.pyramid)
    sub.add_argument("--lr", type=float, default=0.1)
    sub.add_argument("--epochs", type=int, default=50)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--sample-rate", type=int, default=PoolingSpec.sample_rate)


def build_parser() -> _Parser:
    parser = _Parser(prog="oacpool", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="generate a synthetic order-only dataset")
    synth.add_argument("--task", choices=TASK_KINDS, required=True)
    synth.add_argument("--t", type=int, default=40)
    synth.add_argument("--k", type=int, default=16)
    synth.add_argument("--n-train", type=int, default=200)
    synth.add_argument("--n-test", type=int, default=100)
    synth.add_argument("--noise", type=float, default=0.1)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=_cmd_synth)

    train = subs.add_parser("train", help="train a classifier on a manifest")
    train.add_argument("--manifest", required=True)
    train.add_argument("--pooling", choices=POOLING_KINDS, default="oacp")
    _add_shared_training_flags(train)
    train.add_argument("--model-out", required=True)
    train.set_defaults(func=_cmd_train)

    evl = subs.add_parser("eval", help="evaluate a saved model on a manifest")
    evl.add_argument("--manifest", required=True)
    evl.add_argument("--model", required=True)
    evl.add_argument("--confusion", action="store_true")
    evl.set_defaults(func=_cmd_eval)

    compare = subs.add_parser("compare", help="train several pooling methods and print a CSV table")
    compare.add_argument("--train-manifest", required=True)
    compare.add_argument("--test-manifest", required=True)
    compare.add_argument("--methods", required=True)
    _add_shared_training_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    gradcheck = subs.add_parser("gradcheck", help="finite-difference gradient verification")
    gradcheck.add_argument("--k", type=int, default=3)
    gradcheck.add_argument("--t", type=int, default=6)
    gradcheck.add_argument("--interval", type=int, default=2)
    gradcheck.add_argument("--filters", type=int, default=2)
    gradcheck.add_argument("--classes", type=int, default=3)
    gradcheck.add_argument("--seed", type=int, default=0)
    gradcheck.add_argument("--eps", type=float, default=1e-5)
    gradcheck.set_defaults(func=_cmd_gradcheck)

    reduce_cmd = subs.add_parser("reduce", help="fit or apply a dimensionality-reduction partition")
    reduce_cmd.add_argument("--manifest", required=True)
    reduce_cmd.add_argument("--target-dim", type=int)
    reduce_cmd.add_argument("--seed", type=int, default=0)
    reduce_cmd.add_argument("--partition-out")
    reduce_cmd.add_argument("--apply", metavar="PARTITION")
    reduce_cmd.add_argument("--out-dir")
    reduce_cmd.set_defaults(func=_cmd_reduce)

    return parser


def _write_dataset(path: Path, named_items, class_names, split_tag) -> None:
    """Save each (file name, LabeledSequence) beside the manifest path, then the manifest."""
    path.parent.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, item in named_items:
        save_features(item.sequence, path.parent / name)
        entries.append((path.parent / name, item.label))
    save_manifest(DatasetManifest(entries, class_names, split_tag), path)


def _cmd_synth(args) -> int:
    spec = SyntheticSpec(
        task_kind=args.task,
        n_train=args.n_train,
        n_test=args.n_test,
        num_frames=args.t,
        num_features=args.k,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    train, test = gen_synthetic(spec)
    out = Path(args.out)
    for split, data in (("train", train), ("test", test)):
        named = []
        counters = [0] * spec.num_classes
        for item in data:
            name = f"{split}_{spec.class_names[item.label]}_{counters[item.label]:04d}.txt"
            named.append((name, item))
            counters[item.label] += 1
        _write_dataset(out / f"{split}.manifest", named, spec.class_names, split)
    print(
        f"wrote {len(train)} train and {len(test)} test sequences "
        f"({args.task}, T={args.t}, K={args.k}) to {out}"
    )
    return 0


def _spec_from_flags(args, kind: str) -> PoolingSpec:
    return PoolingSpec(
        kind=kind,
        interval=args.interval,
        stride=args.stride,
        n_filters=args.filters,
        pyramid=args.pyramid,
        sample_rate=args.sample_rate,
    )


def _train_cfg(args) -> TrainConfig:
    return TrainConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed)


def _cmd_train(args) -> int:
    spec, cfg = _spec_from_flags(args, args.pooling), _train_cfg(args)
    manifest = load_manifest(args.manifest)
    prepared = prepare_dataset(iter_dataset(manifest), spec)
    model = ClassifierModel.from_spec(
        spec, prepared[0].sequence.num_features, manifest.num_classes, seed=args.seed
    )
    model, history = sgd_train(model, prepared, cfg)
    for stats in history:
        print(f"epoch {stats.epoch}: loss={stats.mean_loss:.6f} acc={stats.accuracy:.4f}")
    save_model(model, args.model_out)
    print(f"saved {args.pooling} model ({model.parameter_total()} parameters) to {args.model_out}")
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    manifest = load_manifest(args.manifest)
    if manifest.num_classes != model.num_classes:
        raise ShapeMismatchError(
            f"manifest declares {manifest.num_classes} classes, model has {model.num_classes}"
        )
    data = prepare_dataset(iter_dataset(manifest), model.spec)
    accuracy, confusion = evaluate(model, data)
    print(f"accuracy={accuracy:.6f}")
    if args.confusion:
        print("confusion (rows=true, cols=predicted):")
        for row in confusion:
            print(" ".join(str(int(v)) for v in row))
    return 0


def _cmd_compare(args) -> int:
    methods = [_spec_from_flags(args, kind) for kind in _methods(args.methods)]
    cfg = _train_cfg(args)
    train_manifest = load_manifest(args.train_manifest)
    test_manifest = load_manifest(args.test_manifest)
    if test_manifest.num_classes != train_manifest.num_classes:
        raise ShapeMismatchError(
            f"train manifest declares {train_manifest.num_classes} classes, "
            f"test manifest declares {test_manifest.num_classes}"
        )
    train_data = load_dataset(train_manifest)
    test_data = load_dataset(test_manifest)
    table = run_comparison(
        train_data, test_data, methods, cfg,
        num_classes=train_manifest.num_classes,
    )
    sys.stdout.write(table.to_csv())
    return 0


def _cmd_gradcheck(args) -> int:
    model_seed, data_seed, noise_seed = np.random.SeedSequence(seed_value(args.seed)).spawn(3)
    model = ClassifierModel.build(
        "oacp",
        num_features=args.k,
        num_classes=args.classes,
        interval=args.interval,
        stride=1,
        n_filters=args.filters,
        pyramid=(1, 2),
        seed=model_seed,
    )
    if args.t < model.spec.minimum_frames:
        raise ValueError(
            f"--t {args.t} is too short for --interval {args.interval} "
            f"with a 2-level pyramid (need t >= {model.spec.minimum_frames})"
        )
    rng = np.random.default_rng(data_seed)
    example = LabeledSequence(
        FeatureSequence(rng.standard_normal((args.t, args.k))),
        int(rng.integers(args.classes)),
    )
    error = grad_check(model, example, eps=args.eps, seed=noise_seed)
    print(f"max_relative_error={error:.6e}")
    if error > GRADCHECK_THRESHOLD:
        print(
            f"gradient check FAILED: {error:.6e} exceeds {GRADCHECK_THRESHOLD:.0e}",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_reduce(args) -> int:
    seed = seed_value(args.seed)
    fit_mode = args.target_dim is not None or args.partition_out is not None
    apply_mode = args.apply is not None or args.out_dir is not None
    if fit_mode == apply_mode:
        raise ValueError(
            "use either --target-dim with --partition-out, or --apply with --out-dir"
        )
    if fit_mode and (args.target_dim is None or args.partition_out is None):
        raise ValueError("fitting needs both --target-dim and --partition-out")
    if apply_mode and (args.apply is None or args.out_dir is None):
        raise ValueError("applying needs both --apply and --out-dir")
    if args.target_dim is not None:  # only a fit sets it
        positive_int(args.target_dim, "target_dim")
    manifest = load_manifest(args.manifest)
    if fit_mode:
        signatures = class_signatures(iter_dataset(manifest), manifest.num_classes)
        partition = kmeans_partition(signatures, args.target_dim, seed=seed)
        save_partition(partition, args.partition_out)
        print(
            f"partitioned {partition.num_dims} dimensions into {partition.k} groups; "
            f"wrote {args.partition_out}"
        )
        return 0
    # every output is named after its input, so two distinct inputs of one
    # name would overwrite each other; nothing is read or written then
    named = {}
    for path, _ in manifest.entries:
        other = named.setdefault(path.name, path)
        if other != path:
            raise DataError(
                f"{args.manifest}: entries {other} and {path} share the file name "
                f"{path.name!r}, so their reduced files would overwrite each other"
            )
    partition = load_partition(args.apply)
    # each input is reduced as it is read and only the k-wide results are
    # kept; nothing is written until every input has been read
    reduced = [
        (path.name, LabeledSequence(reduce_sequence(item.sequence, partition), item.label))
        for (path, _), item in zip(manifest.entries, iter_dataset(manifest))
    ]
    path = Path(args.out_dir) / Path(args.manifest).name
    _write_dataset(path, reduced, manifest.class_names, manifest.split_tag)
    print(f"reduced {len(reduced)} sequences to {partition.k} dimensions; wrote {path}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DivergenceError) as exc:
        # the exception type alone picks the exit code: bad data or a file
        # the OS refuses exits 2, a numerical failure 3, any other bad value 1
        print(f"oacpool {args.command}: error: {exc}", file=sys.stderr)
        if isinstance(exc, (DataError, OSError)):
            return 2
        return 3 if isinstance(exc, DivergenceError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
