"""The public surface, pinned: adding or dropping a public name shows up here."""

import dataclasses

import pytest

import oacpool
import oacpool.harness
from oacpool.convpool import OacpForward

PUBLIC_NAMES = {
    oacpool: [
        "ClassifierModel",
        "DatasetManifest",
        "EpochStats",
        "FeatureSequence",
        "FilterBankSet",
        "LabeledSequence",
        "PoolingSpec",
        "PyramidConfig",
        "ReductionPartition",
        "ResultTable",
        "SyntheticSpec",
        "TrainConfig",
        "average_pool",
        "backward",
        "class_signatures",
        "conv_responses",
        "errors",
        "evaluate",
        "forward",
        "gen_synthetic",
        "grad_check",
        "instance_loss",
        "kmeans_partition",
        "load_dataset",
        "load_features",
        "load_manifest",
        "load_model",
        "load_partition",
        "max_pool",
        "oacp_forward_details",
        "param_count_joint",
        "param_count_perdim",
        "partition_segments",
        "prepare_dataset",
        "reduce_sequence",
        "run_comparison",
        "save_features",
        "save_manifest",
        "save_model",
        "save_partition",
        "sgd_train",
        "temporal_pyramid_pool",
    ],
    oacpool.harness: [
        "ComparisonRow",
        "DatasetManifest",
        "ResultTable",
        "SyntheticSpec",
        "TASK_KINDS",
        "gen_synthetic",
        "load_dataset",
        "load_features",
        "load_manifest",
        "prepare_dataset",
        "run_comparison",
        "save_features",
        "save_manifest",
    ],
}

MODULES = pytest.mark.parametrize("module", list(PUBLIC_NAMES), ids=lambda m: m.__name__)


@MODULES
def test_all_is_exactly_the_pinned_list(module):
    assert module.__all__ == PUBLIC_NAMES[module]


@MODULES
def test_all_has_no_duplicates(module):
    assert len(set(module.__all__)) == len(module.__all__)


@MODULES
def test_every_public_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


@pytest.mark.parametrize(
    "module, name", [(oacpool.dimreduce, "reduce"), (oacpool.model, "softmax")]
)
def test_one_reducer_and_one_softmax(module, name):
    # reduce_sequence is the one group sum, _softmax_in_place the one softmax
    assert not hasattr(module, name)


def test_classifier_model_fields_are_pinned():
    # spec is the model's only copy of its geometry
    names = [f.name for f in dataclasses.fields(oacpool.ClassifierModel)]
    assert names == [
        "spec",
        "num_features",
        "num_classes",
        "w_head",
        "b_head",
        "filter_banks",
        "version",
    ]


def test_oacp_forward_fields_are_pinned():
    # what backward reads, plus the pre-activations; no ReLU'd copy
    assert OacpForward._fields == (
        "pooled",
        "pre_activation",
        "windows",
        "segment_argmax",
    )


def test_reduction_partition_fields_are_pinned():
    # every partition sums its groups
    names = [f.name for f in dataclasses.fields(oacpool.ReductionPartition)]
    assert names == ["assignment", "k"]
