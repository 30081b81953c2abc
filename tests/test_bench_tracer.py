"""The benchmark's tracer still reads the layers it counts from traced runs."""

import contextlib
import io
from pathlib import Path

import numpy as np

import oacpool.cli
import oacpool.model
from oacpool.harness import save_features
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
    # training calls no backward, so one explicit backward feeds the
    # routed-rows counter; its forward runs before the traced window, so
    # model.forward.calls counts the traced calls alone
    _, cache = oacpool.model.forward(model, data[0].sequence)
    tracer = Tracer()
    tracer.install(0)
    try:
        # through the module, so the calls reach the installed wrappers
        oacpool.model.backward(model, cache, data[0].label)
        oacpool.model.sgd_train(model, data, oacpool.model.TrainConfig(0.1, 1, seed=41))
        oacpool.model.evaluate(model, data)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # T_out = 12 - 3 + 1 = 10 rows, of which M = 1 + 2 segments route one each
    assert metrics["model.backward.routed_rows_frac"][0] == 0.3
    assert metrics["model.backward.calls"][0] == 1
    # every one of the T_out * n * K = 60 responses takes l = 3 taps
    assert metrics["convpool.conv_responses.madds_per_inst"][0] == 180
    # one training step per instance; evaluate pools without the details
    assert metrics["convpool.oacp_forward_details.calls"][0] == len(data)
    assert metrics["model.sgd_train.params_per_step"][0] == model.parameter_total()
    # training steps without forward(), and evaluate classifies without it
    assert metrics["model.forward.calls"][0] == 0


def test_tracer_sees_average_pooling_once_per_instance(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    rng = np.random.default_rng(43)
    data = [
        LabeledSequence(FeatureSequence(rng.standard_normal((6, 3))), label)
        for label in (0, 1, 0, 1, 1)
    ]
    model = oacpool.model.ClassifierModel.build("average", 3, 2, seed=43)
    tracer = Tracer()
    tracer.install(0)
    try:
        # through the module, so the calls reach the installed wrappers
        oacpool.model.sgd_train(model, data, oacpool.model.TrainConfig(0.1, 3, seed=43))
        oacpool.model.evaluate(model, data)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # training pools each instance once for all three epochs; evaluate once more
    assert metrics["pooling.average_pool.calls"][0] == 2 * len(data)
    # the fused training step calls no backward
    assert metrics["model.backward.calls"][0] == 0
    assert metrics["model.sgd_train.params_per_step"][0] == model.parameter_total()


def test_tracer_counts_a_tiny_reduce_fit_and_apply(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import Tracer

    rng = np.random.default_rng(42)
    lines = ["classes=a,b"]
    for i in range(4):
        save_features(FeatureSequence(rng.standard_normal((5, 6))), tmp_path / f"seq_{i}.txt")
        lines.append(f"seq_{i}.txt {i % 2}")
    manifest = tmp_path / "data.manifest"
    manifest.write_text("\n".join(lines) + "\n")
    input_bytes = sum(p.stat().st_size for p in tmp_path.glob("seq_*.txt"))
    partition = tmp_path / "partition.txt"
    tracer = Tracer()
    tracer.install(0)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            # through the module, so the calls reach the installed wrappers
            assert oacpool.cli.main([
                "reduce", "--manifest", str(manifest), "--target-dim", "3",
                "--partition-out", str(partition),
            ]) == 0
            assert oacpool.cli.main([
                "reduce", "--manifest", str(manifest), "--apply", str(partition),
                "--out-dir", str(tmp_path / "reduced"),
            ]) == 0
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    # the fit and the apply each read every input once
    assert metrics["harness.featfile.bytes_read_per_round"][0] == 2 * input_bytes
    assert metrics["dimreduce.lloyd_kmeans.calls"][0] == 1
    assert metrics["dimreduce.reduce_sequence.calls"][0] == 4
