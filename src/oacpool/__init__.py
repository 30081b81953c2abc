"""Order-aware convolutional pooling for sequence classification.

Frame-level feature sequences are aggregated into fixed-length vectors
either by the conventional order-agnostic baselines (average, max,
temporal pyramid pooling) or by learned per-dimension 1D convolutional
filter banks whose responses are pyramid-pooled.  A softmax head trained
with per-instance SGD sits on top, backpropagating through pooling and
convolution.  A signature-based k-means reducer handles very
high-dimensional inputs, and the harness subpackage provides synthetic
order-only datasets, file formats, and a comparison runner.
"""

from . import errors
from .convpool import (
    FilterBankSet,
    conv_responses,
    oacp_forward_details,
    param_count_joint,
    param_count_perdim,
)
from .dimreduce import (
    ReductionPartition,
    class_signatures,
    kmeans_partition,
    load_partition,
    reduce_sequence,
    save_partition,
)
from .harness import (
    DatasetManifest,
    ResultTable,
    SyntheticSpec,
    gen_synthetic,
    load_dataset,
    load_features,
    load_manifest,
    prepare_dataset,
    run_comparison,
    save_features,
    save_manifest,
)
from .model import (
    ClassifierModel,
    EpochStats,
    PoolingSpec,
    TrainConfig,
    backward,
    evaluate,
    forward,
    grad_check,
    instance_loss,
    load_model,
    save_model,
    sgd_train,
    softmax,
)
from .pooling import (
    PyramidConfig,
    average_pool,
    max_pool,
    partition_segments,
    temporal_pyramid_pool,
)
from .sequences import FeatureSequence, LabeledSequence

__version__ = "0.1.0"

__all__ = [
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
    "softmax",
    "temporal_pyramid_pool",
]
