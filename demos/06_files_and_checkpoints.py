"""
File formats round trip losslessly
==================================

Feature sequences travel as diffable text (or compact binary with 'OACP'
magic bytes), datasets as plain-text manifests, trained models as
self-describing JSON checkpoints.  Every format round-trips bit-exactly,
which is what makes seeded experiments reproducible byte for byte.
"""

import tempfile
from pathlib import Path

import numpy as np

from oacpool import (
    ClassifierModel,
    DatasetManifest,
    FeatureSequence,
    load_features,
    load_manifest,
    load_model,
    save_features,
    save_manifest,
    save_model,
)

workdir = Path(tempfile.mkdtemp())

#%%
# Text feature files: a one-line shape header, then one frame per line in
# shortest round-trip decimal notation.

seq = FeatureSequence(np.random.default_rng(1).standard_normal((3, 2)))
text_path = workdir / "seq.txt"
save_features(seq, text_path)
print(text_path.read_text())
print("text round trip bit-exact:",
      load_features(text_path).frames.tobytes() == seq.frames.tobytes())

#%%
# The binary variant is sniffed by its magic bytes; loaders accept either.

bin_path = workdir / "seq.bin"
save_features(seq, bin_path, binary=True)
print("binary header:", bin_path.read_bytes()[:5])
print("binary round trip bit-exact:",
      load_features(bin_path).frames.tobytes() == seq.frames.tobytes())

#%%
# Manifests tie feature files to labels and class names.

manifest = DatasetManifest([(text_path, 0)], ("up", "down"), split_tag="demo")
manifest_path = workdir / "demo.manifest"
save_manifest(manifest, manifest_path)
print(manifest_path.read_text())
print("classes:", load_manifest(manifest_path).class_names)

#%%
# Model checkpoints carry a format tag, every shape, the ingestion setting
# (sampling rate), and all parameters.

model = ClassifierModel.build(
    "oacp", num_features=2, num_classes=2, interval=2, n_filters=1,
    pyramid=(1, 2), sample_rate=5, seed=9,
)
ckpt = workdir / "model.json"
save_model(model, ckpt)
loaded = load_model(ckpt)
same = all(
    a.tobytes() == b.tobytes()
    for a, b in zip(model.parameters(), loaded.parameters())
)
print("checkpoint round trip bit-exact:", same)
