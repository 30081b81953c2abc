"""Command-line interface.

Subcommands: synth, train, eval, compare, gradcheck, reduce.
Exit codes: 0 success, 1 usage error, 2 data/parse error, 3 numerical
failure (training divergence or a gradient check above threshold).
"""

from __future__ import annotations

import argparse
import functools
import math
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
from .errors import (
    DivergenceError,
    InvalidTargetError,
    MissingClassError,
    ParseError,
    ShapeMismatchError,
    TooShortSequenceError,
)
from .harness import (
    DatasetManifest,
    SyntheticSpec,
    TASK_KINDS,
    gen_synthetic,
    labeled_frames,
    load_dataset,
    load_manifest,
    prepare_dataset,
    run_comparison,
    save_features,
    save_manifest,
)
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
from .pooling import PyramidConfig
from .sequences import FeatureSequence, LabeledSequence

GRADCHECK_THRESHOLD = 1e-4

_DATA_ERRORS = (
    ParseError,
    ShapeMismatchError,
    TooShortSequenceError,
    MissingClassError,
    InvalidTargetError,
    FileNotFoundError,
    IsADirectoryError,
    NotADirectoryError,
    PermissionError,
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str, minimum: int = 1) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


_seed = functools.partial(_positive_int, minimum=0)


def _nonneg_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def _pyramid(text: str) -> PyramidConfig:
    try:
        segments = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}") from None
    try:
        return PyramidConfig(segments)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _methods(text: str) -> list[str]:
    kinds = [m.strip() for m in text.split(",") if m.strip()]
    if not kinds:
        raise argparse.ArgumentTypeError("empty method list")
    for kind in kinds:
        if kind not in POOLING_KINDS:
            raise argparse.ArgumentTypeError(
                f"unknown method {kind!r}, expected one of {','.join(POOLING_KINDS)}"
            )
    return kinds


def _add_shared_training_flags(sub) -> None:
    # the geometry defaults are PoolingSpec's field defaults (its class attributes)
    sub.add_argument("--interval", type=_positive_int, default=PoolingSpec.interval)
    sub.add_argument("--stride", type=_positive_int, default=PoolingSpec.stride)
    sub.add_argument("--filters", type=_positive_int, default=PoolingSpec.n_filters)
    sub.add_argument("--pyramid", type=_pyramid, default=PoolingSpec.pyramid)
    sub.add_argument("--lr", type=_nonneg_float, default=0.1)
    sub.add_argument("--epochs", type=_positive_int, default=50)
    sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument("--sample-rate", type=_positive_int, default=PoolingSpec.sample_rate)


def build_parser() -> _Parser:
    parser = _Parser(prog="oacpool", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="generate a synthetic order-only dataset")
    synth.add_argument("--task", choices=TASK_KINDS, required=True)
    synth.add_argument("--t", type=_positive_int, default=40)
    synth.add_argument("--k", type=_positive_int, default=16)
    synth.add_argument("--n-train", type=_positive_int, default=200)
    synth.add_argument("--n-test", type=_positive_int, default=100)
    synth.add_argument("--noise", type=_nonneg_float, default=0.1)
    synth.add_argument("--seed", type=_seed, default=0)
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
    compare.add_argument("--methods", type=_methods, required=True)
    _add_shared_training_flags(compare)
    compare.set_defaults(func=_cmd_compare)

    gradcheck = subs.add_parser("gradcheck", help="finite-difference gradient verification")
    gradcheck.add_argument("--k", type=_positive_int, default=3)
    gradcheck.add_argument("--t", type=_positive_int, default=6)
    gradcheck.add_argument("--interval", type=_positive_int, default=2)
    gradcheck.add_argument("--filters", type=_positive_int, default=2)
    gradcheck.add_argument("--classes", type=_positive_int, default=3)
    gradcheck.add_argument("--seed", type=_seed, default=0)
    gradcheck.add_argument("--eps", type=float, default=1e-5)
    gradcheck.set_defaults(func=_cmd_gradcheck)

    reduce_cmd = subs.add_parser("reduce", help="fit or apply a dimensionality-reduction partition")
    reduce_cmd.add_argument("--manifest", required=True)
    reduce_cmd.add_argument("--target-dim", type=_positive_int)
    reduce_cmd.add_argument("--seed", type=_seed, default=0)
    reduce_cmd.add_argument("--partition-out")
    reduce_cmd.add_argument("--apply", metavar="PARTITION")
    reduce_cmd.add_argument("--out-dir")
    reduce_cmd.set_defaults(func=_cmd_reduce)

    return parser


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
    out.mkdir(parents=True, exist_ok=True)
    for split, data in (("train", train), ("test", test)):
        entries = []
        counters = [0] * spec.num_classes
        for item in data:
            name = f"{split}_{spec.class_names[item.label]}_{counters[item.label]:04d}.txt"
            counters[item.label] += 1
            save_features(item.sequence, out / name)
            entries.append((out / name, item.label))
        manifest = DatasetManifest(entries, spec.class_names, split_tag=split)
        save_manifest(manifest, out / f"{split}.manifest")
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
    manifest = load_manifest(args.manifest)
    data = load_dataset(manifest)
    spec = _spec_from_flags(args, args.pooling)
    prepared = prepare_dataset(data, spec)
    model = ClassifierModel.from_spec(
        spec, prepared[0].sequence.num_features, manifest.num_classes, seed=args.seed
    )
    model, history = sgd_train(model, prepared, _train_cfg(args))
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
    data = prepare_dataset(load_dataset(manifest), model.spec)
    accuracy, confusion = evaluate(model, data)
    print(f"accuracy={accuracy:.6f}")
    if args.confusion:
        print("confusion (rows=true, cols=predicted):")
        for row in confusion:
            print(" ".join(str(int(v)) for v in row))
    return 0


def _cmd_compare(args) -> int:
    train_manifest = load_manifest(args.train_manifest)
    test_manifest = load_manifest(args.test_manifest)
    if test_manifest.num_classes != train_manifest.num_classes:
        raise ShapeMismatchError(
            f"train manifest declares {train_manifest.num_classes} classes, "
            f"test manifest declares {test_manifest.num_classes}"
        )
    train_data = load_dataset(train_manifest)
    test_data = load_dataset(test_manifest)
    methods = [_spec_from_flags(args, kind) for kind in args.methods]
    table = run_comparison(
        train_data, test_data, methods, _train_cfg(args),
        num_classes=train_manifest.num_classes,
    )
    sys.stdout.write(table.to_csv())
    return 0


def _cmd_gradcheck(args) -> int:
    model_seed, data_seed, noise_seed = np.random.SeedSequence(args.seed).spawn(3)
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
        print(
            f"oacpool gradcheck: error: --t {args.t} is too short for --interval "
            f"{args.interval} with a 2-level pyramid (need t >= {model.spec.minimum_frames})",
            file=sys.stderr,
        )
        return 1
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
    fit_mode = args.target_dim is not None or args.partition_out is not None
    apply_mode = args.apply is not None or args.out_dir is not None
    if fit_mode == apply_mode:
        print(
            "oacpool reduce: error: use either --target-dim with --partition-out, "
            "or --apply with --out-dir",
            file=sys.stderr,
        )
        return 1
    manifest = load_manifest(args.manifest)
    data = load_dataset(manifest)
    if fit_mode:
        if args.target_dim is None or args.partition_out is None:
            print(
                "oacpool reduce: error: fitting needs both --target-dim and --partition-out",
                file=sys.stderr,
            )
            return 1
        signatures = class_signatures(labeled_frames(data), manifest.num_classes)
        partition = kmeans_partition(signatures, args.target_dim, seed=args.seed)
        save_partition(partition, args.partition_out)
        print(
            f"partitioned {partition.num_dims} dimensions into {partition.k} groups; "
            f"wrote {args.partition_out}"
        )
        return 0
    if args.apply is None or args.out_dir is None:
        print(
            "oacpool reduce: error: applying needs both --apply and --out-dir",
            file=sys.stderr,
        )
        return 1
    partition = load_partition(args.apply)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for (path, label), item in zip(manifest.entries, data):
        reduced = reduce_sequence(item.sequence, partition)
        save_features(reduced, out_dir / path.name)
        entries.append((out_dir / path.name, label))
    reduced_manifest = DatasetManifest(entries, manifest.class_names, manifest.split_tag)
    manifest_name = Path(args.manifest).name
    save_manifest(reduced_manifest, out_dir / manifest_name)
    print(
        f"reduced {len(entries)} sequences to {partition.k} dimensions; "
        f"wrote {out_dir / manifest_name}"
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"oacpool {args.command}: error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"oacpool {args.command}: error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        # data-file problems raise ParseError (exit 2) and numerical failures
        # DivergenceError (exit 3); anything else is a bad argument value
        print(f"oacpool {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
