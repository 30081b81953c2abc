"""Everything around the math: data generation, file formats, experiments."""

from .experiments import (
    ComparisonRow,
    ResultTable,
    prepare_dataset,
    run_comparison,
)
from .featfile import load_features, save_features
from .manifest import (
    DatasetManifest,
    labeled_frames,
    load_dataset,
    load_manifest,
    save_manifest,
)
from .synthetic import TASK_KINDS, SyntheticSpec, gen_synthetic

__all__ = [
    "ComparisonRow",
    "DatasetManifest",
    "ResultTable",
    "SyntheticSpec",
    "TASK_KINDS",
    "gen_synthetic",
    "labeled_frames",
    "load_dataset",
    "load_features",
    "load_manifest",
    "prepare_dataset",
    "run_comparison",
    "save_features",
    "save_manifest",
]
