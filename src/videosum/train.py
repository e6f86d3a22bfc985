"""Joint training of the two embedding subnetworks with a contrastive loss.

The loss pulls relevant (video segment, description) pairs together and
pushes irrelevant ones beyond a margin:

    loss = label * d  +  (1 - label) * max(0, margin - d)

with d the squared Euclidean distance between the two embeddings.  Gradients
are exact reverse-mode derivatives through both two-layer tanh subnetworks
(mean pooling included); a central finite-difference checker is provided as
the independent reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import Subnet, _forward

__all__ = [
    "PairExample",
    "TrainConfig",
    "contrastive_loss",
    "loss_gradients",
    "finite_diff_check",
    "sgd_train",
    "sample_pairs",
]

_PARAM_FIELDS = ("w1", "b1", "w2", "b2")


@dataclass
class PairExample:
    """One training pair: raw segment frames, description vector, 0/1 label."""

    segment: np.ndarray
    desc: np.ndarray
    label: int

    def __post_init__(self):
        self.segment = np.asarray(self.segment, dtype=float)
        self.desc = np.asarray(self.desc, dtype=float)
        if self.label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {self.label}")
        if self.segment.ndim != 2 or self.segment.shape[0] == 0:
            raise ValueError("segment must be a non-empty 2-D frame matrix")


@dataclass
class TrainConfig:
    margin: float = 1.0
    learning_rate: float = 0.1
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.margin < 0:
            raise ValueError("margin must be non-negative")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")


def contrastive_loss(x: np.ndarray, y: np.ndarray, label: int, margin: float = 1.0) -> float:
    """label * d(x, y) + (1 - label) * max(0, margin - d), d = squared distance."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"embedding shapes differ: {x.shape} vs {y.shape}")
    if margin < 0:
        raise ValueError("margin must be non-negative")
    diff = x - y
    d = float(diff @ diff)
    if label:
        return d
    return max(0.0, margin - d)


def _backward(
    net: Subnet, x: np.ndarray, z1: np.ndarray, z2: np.ndarray, g_z2: np.ndarray
) -> Subnet:
    """Parameter gradients of the two-layer forward over the rows of x, given dL/dz2."""
    g_a2 = g_z2 * (1.0 - z2**2)
    g_a1 = (g_a2 @ net.w2) * (1.0 - z1**2)
    return Subnet(w1=g_a1.T @ x, b1=g_a1.sum(axis=0), w2=g_a2.T @ z1, b2=g_a2.sum(axis=0))


def loss_gradients(
    vnet: Subnet, dnet: Subnet, ex: PairExample, margin: float = 1.0
) -> tuple[float, Subnet, Subnet]:
    """Pair loss and its exact gradient w.r.t. every weight and bias.

    Returns (loss, grad_v, grad_d): the contrastive loss of the pair's
    embeddings, then two Subnet containers holding the gradients of the
    video and description nets (same shapes as the parameters).  At the
    hinge point d == margin with label 0 the subgradient 0 is returned.
    """
    seg = ex.segment
    n = seg.shape[0]

    # Forward with caches.  Video side processes all frames at once.
    z1v, z2v = _forward(vnet, seg)
    x = z2v.mean(axis=0)
    z1d, y = _forward(dnet, ex.desc)

    loss = contrastive_loss(x, y, ex.label, margin)

    # dL/dd: 1 for positive pairs, -1 inside the hinge, 0 outside (and at d == margin).
    if ex.label:
        g_d = 1.0
    elif loss > 0.0:
        g_d = -1.0
    else:
        g_d = 0.0

    g_x = 2.0 * g_d * (x - y)

    # The mean pooling spreads g_x equally over the video frame rows; the
    # description is one row whose output gradient is -g_x.
    return (
        loss,
        _backward(vnet, seg, z1v, z2v, np.tile(g_x / n, (n, 1))),
        _backward(dnet, ex.desc[None, :], z1d[None, :], y[None, :], -g_x[None, :]),
    )


def finite_diff_check(
    vnet: Subnet, dnet: Subnet, ex: PairExample, margin: float = 1.0, h: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Relative error per parameter uses the denominator
    max(|analytic|, |numeric|, 1e-8).
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    _, grad_v, grad_d = loss_gradients(vnet, dnet, ex, margin)
    worst = 0.0
    for net, grads in ((vnet, grad_v), (dnet, grad_d)):
        for name in _PARAM_FIELDS:
            theta = getattr(net, name)
            analytic = getattr(grads, name)
            for idx in np.ndindex(theta.shape):
                orig = theta[idx]
                theta[idx] = orig + h
                up = loss_gradients(vnet, dnet, ex, margin)[0]
                theta[idx] = orig - h
                down = loss_gradients(vnet, dnet, ex, margin)[0]
                theta[idx] = orig
                numeric = (up - down) / (2.0 * h)
                a = analytic[idx]
                err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                worst = max(worst, err)
    return worst


def _copy_net(net: Subnet) -> Subnet:
    return Subnet(**{name: getattr(net, name).copy() for name in _PARAM_FIELDS})


def sgd_train(
    vnet: Subnet,
    dnet: Subnet,
    dataset: Sequence[PairExample],
    cfg: TrainConfig,
) -> tuple[Subnet, Subnet, list[float]]:
    """Plain SGD, one gradient step per example.

    The input nets are not mutated; trained copies are returned together with
    the mean per-epoch loss history (loss recorded before each example's
    update).  Example order is reshuffled every epoch by a generator seeded
    from cfg.seed, so the run is fully deterministic.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    vnet = _copy_net(vnet)
    dnet = _copy_net(dnet)
    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    for _ in range(cfg.epochs):
        total = 0.0
        for idx in rng.permutation(len(dataset)):
            ex = dataset[idx]
            loss, grad_v, grad_d = loss_gradients(vnet, dnet, ex, cfg.margin)
            total += loss
            for net, grads in ((vnet, grad_v), (dnet, grad_d)):
                for name in _PARAM_FIELDS:
                    getattr(net, name)[...] -= cfg.learning_rate * getattr(grads, name)
        history.append(total / len(dataset))
    return vnet, dnet, history


def sample_pairs(
    segments: Sequence[np.ndarray],
    descs: np.ndarray,
    labels: Sequence[tuple[int, int, int]],
) -> list[PairExample]:
    """Materialize PairExamples from explicit (segment, description, label) records.

    `segments` holds one frame matrix per video segment, `descs` one
    description vector per row.  Records are consumed in order; no synthetic
    negatives are invented.  Out-of-range indices raise with the offending
    record spelled out.
    """
    descs = np.asarray(descs, dtype=float)
    out: list[PairExample] = []
    for rec_no, (seg_idx, desc_idx, label) in enumerate(labels):
        if not 0 <= seg_idx < len(segments):
            raise ValueError(
                f"label record {rec_no}: segment index {seg_idx} out of range "
                f"(have {len(segments)} segments)"
            )
        if not 0 <= desc_idx < descs.shape[0]:
            raise ValueError(
                f"label record {rec_no}: description index {desc_idx} out of range "
                f"(have {descs.shape[0]} descriptions)"
            )
        if label not in (0, 1):
            raise ValueError(f"label record {rec_no}: label must be 0 or 1, got {label}")
        out.append(PairExample(segment=segments[seg_idx], desc=descs[desc_idx], label=label))
    return out
