"""Deterministic synthetic feature streams with planted events.

Desk-scale stand-in for real per-frame CNN features: a handful of well
separated cluster centers, each repeated for a block of frames with
Gaussian noise, padded by near-zero gap frames.  The generator also emits
ground-truth event windows, one-hot description vectors, and the positive
and negative pair labels tying each event block to its description.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_int, check_real

__all__ = ["SynthSpec", "SynthData", "synth_generate"]


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    n_events: int = 5
    frames_per_event: int = 32
    gap_frames: int = 4
    dim: int = 16
    noise_sigma: float = 0.05

    def __post_init__(self):
        for name, low in (("seed", 0), ("n_events", 1), ("frames_per_event", 1),
                          ("gap_frames", 1), ("dim", 1)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))
        object.__setattr__(self, "noise_sigma", check_real("noise_sigma", self.noise_sigma, 0))
        # Centers lie 10 * noise_sigma from the origin, and features are written as float32.
        if 10.0 * self.noise_sigma > float(np.finfo(np.float32).max):
            raise ValueError(
                f"noise_sigma={self.noise_sigma} is too large: 10 * noise_sigma exceeds "
                "the float32 range of feature files"
            )


@dataclass
class SynthData:
    features: np.ndarray
    truth: list[tuple[int, int]]
    descs: np.ndarray
    labels: list[tuple[int, int, int]]


def _event_centers(rng: np.random.Generator, spec: SynthSpec, sep: float) -> np.ndarray:
    """Centers with pairwise distance >= sep and norm at least sep.

    Keeping every center at least sep from the origin also keeps the near-zero
    gap frames at least sep away from every event cluster.  Random directions
    scaled to norm sep almost always satisfy the pairwise bound in a few draws;
    a deterministic axis-aligned layout covers degenerate low-dim cases, such as
    more than two events in one dimension: center i lies on axis i % dim at
    sep * (1 + i // dim).
    """
    n, dim = spec.n_events, spec.dim
    for _ in range(64):
        raw = rng.normal(size=(n, dim))
        norms = np.linalg.norm(raw, axis=1)
        if np.any(norms == 0):
            continue
        centers = sep * raw / norms[:, None]
        gaps = np.linalg.norm(centers[:, None, :] - centers[None, :, :], axis=2)
        np.fill_diagonal(gaps, np.inf)
        if n == 1 or gaps.min() >= sep:
            return centers
    centers = np.zeros((n, dim))
    for i in range(n):
        centers[i, i % dim] = sep * (1 + i // dim)
    return centers


def synth_generate(spec: SynthSpec) -> SynthData:
    """Generate (features, event windows, one-hot descriptions, pair labels).

    Layout: n_events blocks of frames_per_event event frames followed by
    gap_frames near-zero frames, so event windows never overlap and are
    separated by exactly gap_frames.  Cluster centers are at least
    max(10 * noise_sigma, 1) apart.  Output is bitwise identical for equal
    specs.
    """
    rng = np.random.default_rng(spec.seed)
    sep = max(10.0 * spec.noise_sigma, 1.0)
    centers = _event_centers(rng, spec, sep)

    block = spec.frames_per_event + spec.gap_frames
    total = spec.n_events * block
    features = np.empty((total, spec.dim))
    truth: list[tuple[int, int]] = []
    for i in range(spec.n_events):
        start = i * block
        mid = start + spec.frames_per_event
        features[start:mid] = centers[i] + rng.normal(
            0.0, spec.noise_sigma, size=(spec.frames_per_event, spec.dim)
        )
        features[mid : start + block] = rng.normal(
            0.0, spec.noise_sigma, size=(spec.gap_frames, spec.dim)
        )
        truth.append((start, mid))

    descs = np.eye(spec.n_events)
    labels = [
        (i, j, int(i == j))
        for i in range(spec.n_events)
        for j in range(spec.n_events)
    ]
    return SynthData(features=features, truth=truth, descs=descs, labels=labels)
