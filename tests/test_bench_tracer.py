"""The benchmark's tracer still reads the layers it counts from a traced training run."""

from pathlib import Path

import numpy as np

import oacpool.model
from oacpool.sequences import FeatureSequence, LabeledSequence

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_counts_a_tiny_oacp_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    rng = np.random.default_rng(41)
    data = [
        LabeledSequence(FeatureSequence(rng.standard_normal((12, 3))), label)
        for label in (0, 1, 0, 1)
    ]
    model = oacpool.model.ClassifierModel.build(
        "oacp", 3, 2, interval=3, n_filters=2, pyramid=(1, 2), seed=41
    )
    tracer = Tracer()
    tracer.install(0)
    try:
        # through the module, so the calls reach the installed wrappers
        oacpool.model.sgd_train(model, data, oacpool.model.TrainConfig(0.1, 1, seed=41))
        oacpool.model.evaluate(model, data)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # T_out = 12 - 3 + 1 = 10 rows, of which M = 1 + 2 segments route one each
    assert metrics["model.backward.routed_rows_frac"][0] == 0.3
    # every one of the T_out * n * K = 60 responses takes l = 3 taps
    assert metrics["convpool.conv_responses.madds_per_inst"][0] == 180
    assert metrics["model.sgd_train.params_per_step"][0] == model.parameter_total()
    assert metrics["model.forward.calls"][0] == 2 * len(data)
