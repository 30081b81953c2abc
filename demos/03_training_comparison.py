"""
Training the pooling methods head to head
=========================================

A synthetic two-class task where frame order is the only discriminative
signal: class 0 sequences trend upward, class 1 sequences are their
mirror image.  Per-dimension value multisets match across classes, so
order-blind pooling feeds the classifier class-indistinguishable
features and lands at chance.  The convolutional pooling learns trend
detectors and separates the classes.
"""

from oacpool import PoolingSpec, SyntheticSpec, TrainConfig, gen_synthetic, run_comparison

#%%
# A desk-scale dataset: 16 dimensions, 40 frames, mild noise.

spec = SyntheticSpec(
    "trend-pair", n_train=60, n_test=30, num_frames=40, num_features=16,
    noise_sigma=0.1, seed=12345,
)
train, test = gen_synthetic(spec)
print(f"{len(train)} training and {len(test)} test sequences, "
      f"T={spec.num_frames}, K={spec.num_features}")

#%%
# Train every method with the same seed and budget.  The conv pooling here
# uses interval 8, stride 1, 3 filters per dimension, pyramid [1, 2].

methods = [
    PoolingSpec("average", sample_rate=1),
    PoolingSpec("max", sample_rate=1),
    PoolingSpec("pyramid", pyramid=(1, 2), sample_rate=1),
    PoolingSpec("oacp", interval=8, stride=1, n_filters=3, pyramid=(1, 2), sample_rate=1),
]
cfg = TrainConfig(learning_rate=0.1, epochs=20, seed=12345)
table = run_comparison(train, test, methods, cfg)
print(table.to_csv())

#%%
# Note the parameter accounting: the conv pooling adds interval*K*n + K*n
# filter parameters but its per-dimension design keeps the total tiny
# compared with a joint convolution over all K dimensions.

from oacpool import param_count_joint, param_count_perdim

print("joint conv, K=10000, l=8, n=4000  :", f"{param_count_joint(10000, 8, 4000):,}")
print("per-dim banks, K=10000, l=8, n=3  :", f"{param_count_perdim(10000, 8, 3):,}")
