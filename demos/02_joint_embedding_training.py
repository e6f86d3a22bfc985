"""Joint video-description embedding training with the contrastive loss.

Generates a planted-event stream, pairs each event's frames with a one-hot
description (positives) and with every other description (negatives), and
trains both two-layer tanh subnetworks with plain SGD. Relevant pairs are
pulled together, irrelevant ones pushed beyond the margin. A finite
difference pass confirms the analytic gradients along the way.
"""

import numpy as np

from videosum import (
    SynthSpec,
    TrainConfig,
    embed_frames,
    finite_diff_check,
    init_subnet,
    sample_pairs,
    sgd_train,
    synth_generate,
)

data = synth_generate(SynthSpec(seed=42))
segments = [data.features[start:end] for start, end in data.truth]
dataset = sample_pairs(segments, data.descs, data.labels)
n_pos = sum(ex.label for ex in dataset)
print(f"dataset: {len(dataset)} pairs ({n_pos} positive, {len(dataset) - n_pos} negative)")

vnet = init_subnet(seed=0, input_dim=16, hidden_dim=16, embed_dim=8)
dnet = init_subnet(seed=1, input_dim=5, hidden_dim=16, embed_dim=8)

err = finite_diff_check(vnet, dnet, dataset[0], margin=1.0, h=1e-5)
print(f"gradient check vs central differences: max rel err = {err:.2e}")

def pair_distances(v, d):
    pos, neg = [], []
    for ex in dataset:
        x = embed_frames(v, ex.segment)
        y = embed_frames(d, ex.desc[None, :])
        (pos if ex.label else neg).append(float((x - y) @ (x - y)))
    return np.mean(pos), np.mean(neg)

before_pos, before_neg = pair_distances(vnet, dnet)
print(f"\nbefore training: mean positive d = {before_pos:.4f}, mean negative d = {before_neg:.4f}")

cfg = TrainConfig(margin=1.0, learning_rate=0.1, epochs=200, seed=0)
vnet, dnet, history = sgd_train(vnet, dnet, dataset, cfg)
print(f"trained {cfg.epochs} epochs: loss {history[0]:.4f} -> {history[-1]:.6f}")

after_pos, after_neg = pair_distances(vnet, dnet)
print(f"after training:  mean positive d = {after_pos:.6f}, mean negative d = {after_neg:.4f}")
print(f"separation ratio (pos/neg): {after_pos / after_neg:.4f}  (want well below 0.5)")
