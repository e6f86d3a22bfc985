"""Frame importance scoring with the bidirectional LSTM scorer.

Builds a seeded scorer, runs it over a synthetic feature stream with one
obvious 'event' burst, and shows that scores are per-frame values in (0, 1)
that react to the burst. Also demonstrates the causality of the forward
scan: truncating the future never changes past hidden states.
"""

import numpy as np

from videosum import init_scorer, lstm_scan, score_importance

rng = np.random.default_rng(0)

# A 60-frame stream of 12-dim features: quiet noise with a loud burst.
frames = rng.normal(0.0, 0.1, size=(60, 12))
frames[25:35] += rng.normal(0.0, 2.0, size=(10, 12))

scorer = init_scorer(seed=7, input_dim=12, hidden_dim=16)
scores = score_importance(scorer, frames)

print("frames:", frames.shape, "-> scores:", scores.shape)
print(f"score range: [{scores.min():.4f}, {scores.max():.4f}]  (always inside (0, 1))")

quiet = np.r_[scores[:25], scores[35:]]
burst = scores[25:35]
print(f"mean score, quiet frames: {quiet.mean():.4f}")
print(f"mean score, burst frames: {burst.mean():.4f}")

bar_width = 40
print("\nper-frame scores (each row is one frame):")
for t in range(0, 60, 5):
    bar = "#" * int(round(scores[t] * bar_width))
    print(f"  t={t:2d} {scores[t]:.3f} {bar}")

# Causality: the forward hidden state at time t ignores frames after t.
cell = init_scorer(seed=3, input_dim=12, hidden_dim=8).forward
full = lstm_scan(cell, frames)
truncated = lstm_scan(cell, frames[:30])
print("\ncausality check: rows 0..29 of the full scan equal the truncated scan:",
      np.array_equal(full[:30], truncated))
