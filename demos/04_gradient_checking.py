"""
Verifying the backpropagation
=============================

Gradients flow from the softmax loss through the head, the segment max
pooling (to the first maximal response of each segment) and the ReLU
into every filter tap.  Central finite differences provide an
implementation-independent oracle: nudge one parameter, re-run the
forward pass, difference the losses.
"""

import numpy as np

from oacpool import ClassifierModel, FeatureSequence, LabeledSequence, grad_check
from oacpool.model import backward, forward, instance_loss

#%%
# A tiny conv-pooling model and one labeled sequence.

model = ClassifierModel.build(
    "oacp", num_features=3, num_classes=3, interval=2, n_filters=2,
    pyramid=(1, 2), seed=0,
)
rng = np.random.default_rng(42)
example = LabeledSequence(FeatureSequence(rng.standard_normal((6, 3))), 1)

#%%
# Analytic gradient of one parameter vs. its finite-difference estimate.
# backward returns the dense gradients in model.parameters() order, head
# weights first: the gradient a training step on this instance applies.

probs, cache = forward(model, example.sequence)
grads = backward(model, cache, example.label)
eps = 1e-5
model.w_head[0, 0] += eps
loss_plus = instance_loss(forward(model, example.sequence)[0], example.label)
model.w_head[0, 0] -= 2 * eps
loss_minus = instance_loss(forward(model, example.sequence)[0], example.label)
model.w_head[0, 0] += eps
model.version += 1
fd = (loss_plus - loss_minus) / (2 * eps)
print(f"analytic dL/dW[0,0] = {grads[0][0, 0]: .10f}")
print(f"finite difference   = {fd: .10f}")

#%%
# grad_check sweeps every parameter.  It first nudges the model with seeded
# noise: finite differences are meaningless exactly at ReLU kinks and
# max-pool ties, and the nudge moves the model off them.

worst = grad_check(model, example, eps=1e-5, seed=7)
print(f"max relative error over all {model.parameter_total()} parameters: {worst:.2e}")

#%%
# The smooth average-pooling path (no ReLU, no max) checks even tighter.

smooth = ClassifierModel.build("average", 3, 3, seed=1)
print("average-pooling model:", f"{grad_check(smooth, example, 1e-5, seed=7):.2e}")
