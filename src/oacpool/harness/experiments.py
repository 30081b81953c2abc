"""Desk-scale experiment runner: train each pooling method, compare accuracies.

Defaults mirror the reference configuration for conv pooling: interval 8,
stride 1, 3 filters per dimension, a 2-level pyramid [1, 2], and 1-in-5
frame sampling.  Sampling happens before convolution, so one filter
application covers interval * sample_rate original frames; that effective
receptive field is reported alongside each result row.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..errors import DivergenceError, ShapeMismatchError
from ..model import ClassifierModel, PoolingSpec, TrainConfig, evaluate, sgd_train
from ..sequences import LabeledSequence, replicate_pad, sample_frames


def prepare_dataset(
    data: Iterable[LabeledSequence], spec: PoolingSpec
) -> list[LabeledSequence]:
    """Sample frames and edge-pad short sequences to the spec's minimum_frames.

    Each item is taken from data only as it is prepared, so an iter_dataset
    generator holds one raw sequence at a time.
    """
    out = []
    for item in data:
        seq = sample_frames(item.sequence, spec.sample_rate)
        seq = replicate_pad(seq, spec.minimum_frames)
        out.append(LabeledSequence(seq, item.label))
    return out


@dataclass
class ComparisonRow:
    method: str
    accuracy: float
    pool_params: int
    total_params: int
    receptive_field: int
    status: str  # "ok" or "diverged"


@dataclass
class ResultTable:
    """Rows in the order the methods were requested.

    ``to_csv`` holds no wall time, so identical runs produce byte-identical
    output.
    """

    rows: list[ComparisonRow]

    def to_csv(self) -> str:
        lines = ["method,accuracy,pool_params,total_params,receptive_field,status"]
        for row in self.rows:
            lines.append(
                f"{row.method},{row.accuracy:.6f},{row.pool_params},"
                f"{row.total_params},{row.receptive_field},{row.status}"
            )
        return "\n".join(lines) + "\n"


def _run_method(
    spec: PoolingSpec,
    train: list[LabeledSequence],
    test: list[LabeledSequence],
    train_cfg: TrainConfig,
    num_classes: int,
) -> ComparisonRow:
    model = ClassifierModel.from_spec(
        spec, train[0].sequence.num_features, num_classes, seed=train_cfg.seed
    )
    try:
        sgd_train(model, prepare_dataset(train, spec), train_cfg)
        accuracy, _ = evaluate(model, prepare_dataset(test, spec))
        status = "ok"
    except DivergenceError:
        accuracy = float("nan")
        status = "diverged"
    banks = model.filter_banks
    return ComparisonRow(
        method=spec.kind,
        accuracy=accuracy,
        pool_params=banks.weights.size + banks.biases.size if banks else 0,
        total_params=model.parameter_total(),
        receptive_field=spec.receptive_field,
        status=status,
    )


def run_comparison(
    train: list[LabeledSequence],
    test: list[LabeledSequence],
    methods: list[PoolingSpec],
    train_cfg: TrainConfig,
    *,
    num_classes: int | None = None,
) -> ResultTable:
    """Train and evaluate each method with the same seed and data.

    A method whose training or evaluation diverges is tagged in its row;
    the remaining methods still run.  Row order follows the methods
    argument.  Pass the class count a manifest declares as num_classes;
    without it the count is one more than the largest label in either
    split, which is too few when no instance has the last class.  A test
    instance whose feature count is not train[0]'s raises ShapeMismatchError
    before anything trains.
    """
    if not train or not test:
        raise ValueError("train and test data must be nonempty")
    if not methods:
        raise ValueError("need at least one method")
    num_features = train[0].sequence.num_features
    for i, item in enumerate(test):
        if item.sequence.num_features != num_features:
            raise ShapeMismatchError(
                f"test instance {i} has {item.sequence.num_features} features, "
                f"the training data has {num_features}"
            )
    if num_classes is None:
        num_classes = 1 + max(item.label for item in list(train) + list(test))
    rows = [_run_method(spec, train, test, train_cfg, num_classes) for spec in methods]
    return ResultTable(rows)
