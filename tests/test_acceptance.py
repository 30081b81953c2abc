"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a PASS line on success (visible with ``pytest -s``); a
failure shows up as the test's FAILED line.  Thresholds are fixed here, not
tuned at runtime.  The order-awareness and sweep experiments use the frozen
seed 12345 with plain SGD, lr 0.1, 30 epochs; those numbers were verified
at build time and are asserted, not aspirational.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    adjusted_rand_index,
    brute_force_partition_optimum,
    canonical_labels,
    conv_oracle,
)

from oacpool.cli import main as cli_main
from oacpool.convpool import (
    FilterBankSet,
    oacp_forward_details,
    param_count_joint,
    param_count_perdim,
)
from oacpool.dimreduce import SignatureMatrix, kmeans_partition, lloyd_kmeans
from oacpool.harness import SyntheticSpec, gen_synthetic, run_comparison
from oacpool.model import (
    ClassifierModel,
    PoolingSpec,
    TrainConfig,
    grad_check,
    load_model,
    save_model,
)
from oacpool.pooling import PyramidConfig, average_pool, max_pool, temporal_pyramid_pool
from oacpool.sequences import FeatureSequence, LabeledSequence

EXPERIMENT_SEED = 12345
EXPERIMENT_CFG = TrainConfig(learning_rate=0.1, epochs=30, seed=EXPERIMENT_SEED)

RISING_DETECTOR = FilterBankSet([[[-1.0, 1.0]]], [[0.0]])


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def _random_example(rng, num_frames, num_features, num_classes):
    return LabeledSequence(
        FeatureSequence(rng.standard_normal((num_frames, num_features))),
        int(rng.integers(num_classes)),
    )


def _trend_pair_data():
    spec = SyntheticSpec(
        "trend-pair",
        n_train=200,
        n_test=100,
        num_frames=40,
        num_features=16,
        noise_sigma=0.1,
        seed=EXPERIMENT_SEED,
    )
    return gen_synthetic(spec)


def test_gradient_correctness():
    started = time.perf_counter()
    for seed in range(20):
        model = ClassifierModel.build(
            "oacp", 3, 3, interval=2, n_filters=2, pyramid=(1, 2), seed=seed
        )
        example = _random_example(np.random.default_rng(1000 + seed), 6, 3, 3)
        error = grad_check(model, example, eps=1e-5, seed=seed)
        assert error < 1e-4, f"oacp model seed {seed}: {error:.3e}"
    for seed in range(20):
        model = ClassifierModel.build("average", 3, 3, seed=seed)
        example = _random_example(np.random.default_rng(2000 + seed), 6, 3, 3)
        error = grad_check(model, example, eps=1e-5, seed=seed)
        assert error < 1e-6, f"average model seed {seed}: {error:.3e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"
    _report("gradient correctness (40 models, <10s)")


def test_order_awareness_separation():
    started = time.perf_counter()
    train, test = _trend_pair_data()
    methods = [
        PoolingSpec("average", sample_rate=1),
        PoolingSpec("max", sample_rate=1),
        PoolingSpec("oacp", interval=8, stride=1, n_filters=3, pyramid=(1, 2), sample_rate=1),
    ]
    table = run_comparison(train, test, methods, EXPERIMENT_CFG)
    by_method = {row.method: row for row in table.rows}
    assert by_method["average"].accuracy <= 0.60
    assert by_method["max"].accuracy <= 0.60
    assert by_method["oacp"].accuracy >= 0.95
    assert EXPERIMENT_CFG.epochs <= 200
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"comparison took {elapsed:.1f}s"
    _report(
        "order-awareness separation "
        f"(avg {by_method['average'].accuracy:.2f}, max {by_method['max'].accuracy:.2f}, "
        f"oacp {by_method['oacp'].accuracy:.2f}, {elapsed:.1f}s)"
    )


def test_permutation_invariance_and_order_sensitivity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = int(rng.integers(1, 25))
        k = int(rng.integers(1, 6))
        seq = FeatureSequence(rng.standard_normal((t, k)))
        shuffled = FeatureSequence(seq.frames[rng.permutation(t)])
        assert average_pool(seq).tobytes() == average_pool(shuffled).tobytes()
        assert max_pool(seq).tobytes() == max_pool(shuffled).tobytes()

        # strictly monotone 1D signal: the rising detector separates it
        # from its reversal while order-blind pooling cannot
        values = np.cumsum(rng.uniform(0.1, 1.0, max(t, 3)))
        monotone = FeatureSequence(values[:, None])
        reverse = FeatureSequence(values[::-1][:, None])
        banks = RISING_DETECTOR
        cfg = PyramidConfig((1,))
        assert not np.array_equal(
            oacp_forward_details(monotone, banks, cfg).pooled,
            oacp_forward_details(reverse, banks, cfg).pooled,
        )
    _report("permutation invariance + order sensitivity (100 draws)")


def test_parameter_accounting():
    assert param_count_joint(10000, 8, 4000) == 320_004_000
    assert param_count_joint(10000, 5, 4000) == 200_004_000
    rng = np.random.default_rng(8)
    for _ in range(200):
        k = int(rng.integers(1, 8))
        n = int(rng.integers(1, 5))
        length = int(rng.integers(1, 6))
        banks = FilterBankSet(
            rng.standard_normal((k, n, length)), rng.standard_normal((k, n))
        )
        assert banks.weights.size + banks.biases.size == param_count_perdim(k, length, n)
    _report("parameter accounting (reference shapes + 200 random bank sets)")


def test_pyramid_dimensionality():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        length = int(rng.integers(1, 4))
        levels = [1] + [int(rng.integers(1, 5)) for _ in range(int(rng.integers(0, 3)))]
        cfg = PyramidConfig(tuple(levels))
        t = max(cfg.max_segments, length + cfg.max_segments - 1) + int(rng.integers(0, 8))
        seq = FeatureSequence(rng.standard_normal((t, k)))
        assert temporal_pyramid_pool(seq, cfg).shape == (k * cfg.total_segments,)
        banks = FilterBankSet(
            rng.standard_normal((k, n, length)), rng.standard_normal((k, n))
        )
        pooled = oacp_forward_details(seq, banks, cfg).pooled
        assert pooled.shape == (k * n * cfg.total_segments,)
    _report("pyramid dimensionality (1000 random shape draws)")


def test_brute_force_conv_equivalence():
    rng = np.random.default_rng(10)
    cases = 0
    for t in range(1, 7):
        for length in range(1, 4):
            if t < length:
                continue
            for stride in (1, 2):
                for n_filters in (1, 2, 3):
                    signal = rng.standard_normal(t)
                    weights = rng.standard_normal((n_filters, length))
                    biases = rng.standard_normal(n_filters)
                    seq = FeatureSequence(signal[:, None])
                    banks = FilterBankSet(weights[None], biases[None], stride)
                    details = oacp_forward_details(seq, banks, PyramidConfig((1,)))
                    got = details.responses[:, :, 0]
                    want = conv_oracle(signal, weights, biases, stride)
                    assert got.tobytes() == want.tobytes(), (
                        f"mismatch at T={t} l={length} stride={stride} n={n_filters}"
                    )
                    cases += 1
    _report(f"brute-force conv equivalence ({cases} shape combinations, bit-exact)")


def test_dimensionality_reduction_recovery():
    rng = np.random.default_rng(11)
    sigma = 1.0
    centers = np.array([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0], [0.0, 10.0, 0.0]])
    points = []
    truth = []
    for g in range(3):
        for _ in range(10):
            points.append(centers[g] + sigma * rng.standard_normal(3))
            truth.append(g)
    signatures = SignatureMatrix(np.asarray(points).T)  # D=30 dimensions, c=3
    truth = np.asarray(truth)

    scores = []
    for seed in range(20):
        partition = kmeans_partition(signatures, 3, seed=seed)
        scores.append(adjusted_rand_index(partition.assignment, truth))
        _, _, objectives = lloyd_kmeans(signatures.signatures, 3, seed=seed)
        assert all(b <= a + 1e-12 for a, b in zip(objectives, objectives[1:]))
    assert np.mean(scores) >= 0.9, f"mean ARI {np.mean(scores):.3f}"

    small = SignatureMatrix(np.asarray(points)[[0, 1, 10, 11, 20, 21]].T)
    best_assign, best_obj = brute_force_partition_optimum(small.signatures, 3)
    partition = kmeans_partition(small, 3, seed=0)
    assert np.array_equal(
        canonical_labels(partition.assignment), canonical_labels(best_assign)
    )
    _, _, objectives = lloyd_kmeans(small.signatures, 3, seed=0)
    assert objectives[-1] == pytest.approx(best_obj, rel=1e-12, abs=1e-12)
    _report(
        f"dimensionality-reduction recovery (mean ARI {np.mean(scores):.2f}, "
        "exhaustive optimum matched)"
    )


def test_determinism(tmp_path, capsys):
    out = tmp_path / "data"
    assert (
        cli_main(
            ["synth", "--task", "trend-pair", "--t", "30", "--k", "6",
             "--n-train", "15", "--n-test", "8", "--noise", "0.1",
             "--seed", "21", "--out", str(out)]
        )
        == 0
    )
    capsys.readouterr()
    compare_args = [
        "compare",
        "--train-manifest", str(out / "train.manifest"),
        "--test-manifest", str(out / "test.manifest"),
        "--methods", "average,max,pyramid,oacp",
        "--interval", "8", "--filters", "3", "--pyramid", "1,2",
        "--lr", "0.1", "--epochs", "8", "--seed", "21", "--sample-rate", "1",
    ]
    assert cli_main(compare_args) == 0
    first = capsys.readouterr().out
    assert cli_main(compare_args) == 0
    second = capsys.readouterr().out
    assert first.encode() == second.encode()

    model = ClassifierModel.build(
        "oacp", 6, 2, interval=3, n_filters=2, pyramid=(1, 2), sample_rate=2, seed=33
    )
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    save_model(model, path_a)
    loaded = load_model(path_a)
    assert b"".join(p.tobytes() for p in loaded.parameters()) == b"".join(
        p.tobytes() for p in model.parameters()
    )
    save_model(loaded, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    _report("determinism (byte-identical compare CSV, bit-exact checkpoint roundtrip)")


def test_filter_count_sweep():
    train, test = _trend_pair_data()
    base = PoolingSpec("oacp", interval=8, stride=1, pyramid=(1, 2), sample_rate=1)
    methods = [replace(base, n_filters=n) for n in (1, 3, 5)]
    table = run_comparison(train, test, methods, EXPERIMENT_CFG)
    assert [row.status for row in table.rows] == ["ok", "ok", "ok"]
    counts = [row.pool_params for row in table.rows]
    assert counts[1] == 3 * counts[0]
    assert counts[2] == 5 * counts[0]
    acc = [row.accuracy for row in table.rows]
    assert acc[1] >= acc[0] - 0.02
    _report(
        "filter-count sweep (pool params "
        f"{counts[0]}:{counts[1]}:{counts[2]} = 1:3:5, "
        f"acc n=1 {acc[0]:.2f}, n=3 {acc[1]:.2f})"
    )
