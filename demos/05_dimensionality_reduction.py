"""
Signature-based dimensionality reduction
========================================

Very high-dimensional frame features make the conv pooling expensive, so
dimensions are grouped before training.  Each dimension's 'signature' is
the vector of its per-class means; dimensions whose signatures cluster
together behave alike and can share one slot.  Only class means and one
k-means pass are needed -- no covariance, no eigendecomposition.
"""

import numpy as np

from oacpool import (
    FeatureSequence,
    LabeledSequence,
    class_signatures,
    kmeans_partition,
    reduce_sequence,
)

#%%
# Synthetic labeled sequences of 12-dimensional frames, built from 3
# behavioral groups.  Dimensions in one group carry scaled copies of the
# same class pattern.  Every frame counts toward its sequence's class mean.

rng = np.random.default_rng(3)
patterns = np.array([[0.0, 5.0, 0.0], [5.0, 0.0, 0.0], [0.0, 0.0, 5.0]])  # per class
group_of_dim = np.repeat([0, 1, 2], 4)
data = []
for label in range(3):
    for _ in range(10):
        frames = patterns[:, group_of_dim][label] + 0.3 * rng.standard_normal((5, 12))
        data.append(LabeledSequence(FeatureSequence(frames), label))

signatures = class_signatures(data, num_classes=3)
print("signatures shape (dims x classes):", signatures.shape)

#%%
# Cluster the 12 signatures into 3 groups; the planted structure is
# recovered (same grouping, labels arbitrary).

partition = kmeans_partition(signatures, k=3, seed=0)
print("planted groups  :", group_of_dim.tolist())
print("recovered groups:", partition.assignment.tolist())

#%%
# Reducing a frame (here a one-frame sequence) sums each group's
# coordinates; a whole sequence reduces frame by frame, T x 12 -> T x 3.

seq = data[0].sequence
print("reduced vector:", reduce_sequence(FeatureSequence(seq.frames[:1]), partition).frames[0])
print("reduced sequence shape:", reduce_sequence(seq, partition).frames.shape)
