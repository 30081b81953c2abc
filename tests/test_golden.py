"""Golden digests of the CLI calls whose bytes depend on neither the BLAS nor the SIMD level.

The calls, the bad inputs they read and the per-call SHA-256 are those of
``tools/cli_outputs.py``.  The calls named in GOLDEN run in the tool's
order in one work directory, each in a child interpreter on this tree's
``src``, and each digest is its own test case.  `train`, `eval`,
`compare` and `gradcheck` runs that reach the head's BLAS products are not
pinned until training bytes no longer depend on the BLAS.  The checkpoint
of an untrained model depends on the seeded draws alone; its digest pins
the checkpoint layout, whatever layout the model keeps its parameters in.
A pinned digest changes only in a change whose CHANGES.md entry says which
digest changed and why.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from oacpool.model import ClassifierModel, PoolingSpec, save_model

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("cli_outputs", ROOT / "tools" / "cli_outputs.py")
cli_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_outputs)

GOLDEN = {
    "synth trend-pair": "0ce64b07ac615175fe50ebe2a5b608b725b350f8eb8bf6022e60f7d3e6724f23",
    "synth permuted-pair": "592a3f9573b7f9880771662daf3b2943c5202ed405ac89d780b169be0ceecfdc",
    "synth multiclass-trend": "d592744b0b823fd621dfa7f1720192ce6cd36383f1cb1aadc9701ad48bdf53f0",
    "synth noisy-trend-pair": "c00bc29f156eb3a568f541b706d0a47d1f4062b13111f6f37fc7d7f7f61ff3fb",
    "reduce fit": "541de34bc8fd524d51acaa26575e8d054bd7f2c5104631f8ba4fc0e203e6cfd3",
    "reduce apply": "f54d537c1dc06e10bd8da6eebcd0cc079dfba32a1188d4c87c0a7c7be5867cc1",
    "train empty-name": "adaeb1e83a7d0ab88a3d124919dd427522168bf58d27b4c5abfb80729419506b",
    "train two-class-lines": "7f4f4869770e987d751364f287d367815c178abac88702df8fa150bd5c1fa1b8",
    "train nan": "365422d5376aa9ee41f4ff5a99331acb8c88e49bd015334597875da6d9011677",
    "compare wide": "12502554f4ef603aeaa0f3543fe655dd3e09f45157048219f38a32adcb98dfe5",
}
UNTRAINED_CHECKPOINT = "de5655cb70129f5c4885ecc114a375492a61b966873d497a1be8f15843b2a790"


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    work = tmp_path_factory.mktemp("cli").resolve()
    cli_outputs.write_bad_inputs(work)
    return {
        name: cli_outputs.call_digest(ROOT, work, argv)[1]
        for name, argv in cli_outputs.calls()
        if name in GOLDEN
    }


def test_golden_names_unique_calls_of_the_tool():
    names = [name for name, _ in cli_outputs.calls()]
    assert len(set(names)) == len(names)
    assert GOLDEN.keys() <= set(names)


@pytest.mark.parametrize("name", GOLDEN, ids=lambda name: name.replace(" ", "-"))
def test_cli_call(digests, name):
    assert digests[name] == GOLDEN[name]


def test_untrained_oacp_checkpoint(tmp_path):
    spec = PoolingSpec("oacp", interval=3, stride=2, n_filters=2, pyramid=(1, 2, 4), sample_rate=1)
    save_model(ClassifierModel.from_spec(spec, 5, 3, seed=24), tmp_path / "model.bin")
    digest = hashlib.sha256((tmp_path / "model.bin").read_bytes()).hexdigest()
    assert digest == UNTRAINED_CHECKPOINT
