"""
Why order-blind pooling fails
=============================

Average pooling keeps a signal's mean, max pooling keeps its peak.  Two
signals that rise and fall in opposite directions share both, so neither
statistic can tell them apart.  A tiny learned filter that looks at local
evolution can.
"""

import numpy as np

from oacpool import (
    FeatureSequence,
    FilterBankSet,
    PyramidConfig,
    average_pool,
    max_pool,
    oacp_forward_details,
)

#%%
# Two 1D signals with identical value multisets: a rising ramp and its
# reversal.  Mean and max agree exactly.

rising = FeatureSequence(np.linspace(0.0, 1.0, 8)[:, None])
falling = FeatureSequence(rising.frames[::-1])

print("average(rising) :", average_pool(rising))
print("average(falling):", average_pool(falling))
print("max(rising)     :", max_pool(rising))
print("max(falling)    :", max_pool(falling))

#%%
# Shuffling frames changes nothing either -- these pools are permutation
# invariant by construction (bit-for-bit, not just approximately).

rng = np.random.default_rng(0)
shuffled = FeatureSequence(rising.frames[rng.permutation(8)])
print("average invariant under shuffle:",
      average_pool(rising).tobytes() == average_pool(shuffled).tobytes())

#%%
# A single two-tap filter w = [-1, 1] responds to local increases.  After
# ReLU it fires along the rising ramp and stays silent on the falling one.

banks = FilterBankSet([[[-1.0, 1.0]]], [[0.0]])  # one dimension, one filter
cfg = PyramidConfig((1,))
for name, seq in (("rising :", rising), ("falling:", falling)):
    pre = oacp_forward_details(seq, banks, cfg).pre_activation
    print("responses on", name, np.maximum(pre, 0.0)[:, 0, 0])

#%%
# Pool those responses and the two signals get different fixed-length
# representations -- order is now part of the feature.

print("pooled conv features, rising :", oacp_forward_details(rising, banks, cfg).pooled)
print("pooled conv features, falling:", oacp_forward_details(falling, banks, cfg).pooled)
