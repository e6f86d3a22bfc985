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

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from ._checks import (as_floats, check_finite, check_int, check_matrix, check_pair_label,
                      check_real)
from .model import Subnet, _checked_net, _forward

__all__ = [
    "PairExample",
    "TrainConfig",
    "contrastive_loss",
    "loss_gradients",
    "finite_diff_check",
    "sgd_train",
    "sample_pairs",
]


def _check_label(label) -> int:
    """A pair label as the int 0 or 1; anything else, a bool or 1.0 included, raises."""
    try:
        if check_int("label", label, 0) <= 1:
            return int(label)
    except ValueError:
        pass
    raise ValueError(f"label must be 0 or 1, got {label!r}")


@dataclass
class PairExample:
    """One training pair: raw segment frames, description vector, 0/1 label."""

    segment: np.ndarray
    desc: np.ndarray
    label: int

    def __post_init__(self):
        segment, desc = as_floats("segment", self.segment), as_floats("desc", self.desc)
        if desc.ndim != 1 or desc.size == 0:
            raise ValueError(f"desc must be a non-empty 1-D vector, got shape {desc.shape}")
        self.segment, self.desc = check_matrix("segment", segment, rows=1), desc
        check_finite("description has a non-finite value", self.desc)
        self.label = _check_label(self.label)
        check_finite("segment has a non-finite value", self.segment, by_row=True)


@dataclass
class TrainConfig:
    margin: float = 1.0
    learning_rate: float = 0.1
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        self.margin = check_real("margin", self.margin, 0)
        self.learning_rate = check_real("learning_rate", self.learning_rate, positive=True)
        self.epochs = check_int("epochs", self.epochs, 0)
        self.seed = check_int("seed", self.seed, 0)


def contrastive_loss(x: np.ndarray, y: np.ndarray, label: int, margin: float = 1.0) -> float:
    """label * d(x, y) + (1 - label) * max(0, margin - d), d = squared distance; NaN if d is."""
    x = as_floats("x", x)
    y = as_floats("y", y)
    if x.shape != y.shape:
        raise ValueError(f"embedding shapes differ: {x.shape} vs {y.shape}")
    margin = check_real("margin", margin, 0)
    label = _check_label(label)
    diff = x - y
    d = float(diff @ diff)
    if label:
        return d
    return 0.0 if d >= margin else margin - d  # a NaN d fails the test and stays NaN


def _backward(
    net: Subnet, z1: np.ndarray, z2: np.ndarray, g_z2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(g_a1, g_a2): dL/d(pre-activation) of both layers, one row per input row, given dL/dz2.

    The parameter gradients over input rows x are g_a1.T @ x, the column sums of g_a1,
    g_a2.T @ z1 and the column sums of g_a2.
    """
    g_a2 = g_z2 * (1.0 - z2**2)
    return (g_a2 @ net.w2) * (1.0 - z1**2), g_a2


def _sides(vnet: Subnet, dnet: Subnet, ex: PairExample):
    """((net, input rows) for the video net, then the description net; label) of
    `dataclasses.replace(ex)`, a copy that `PairExample` checks again, so `ex` is never
    written to; a ValueError unless its segment and description are as wide as the inputs
    of the video and the description net.

    Both nets embed the mean of their rows' outputs; the description is one row.
    """
    ex = replace(ex)
    sides = (vnet, ex.segment), (dnet, ex.desc[None, :])
    for (net, rows), what, side in zip(sides, ("segment", "description"),
                                       ("video net", "description net")):
        check_matrix(what, rows, cols=net.input_dim, of=side)
    return sides, ex.label


def _loss_and_pooled_gradient(
    x: np.ndarray, y: np.ndarray, label: int, margin: float
) -> tuple[float, np.ndarray]:
    """The pair's loss and dL/dx for embeddings x and y; dL/dy is its negation."""
    loss = contrastive_loss(x, y, label, margin)
    # dL/dd: 1 for positive pairs, -1 inside the hinge, 0 outside (and at d == margin).
    if label:
        g_d = 1.0
    elif loss > 0.0:
        g_d = -1.0
    else:
        g_d = 0.0
    return loss, 2.0 * g_d * (x - y)


def _deltas(sides, acts, g_x: np.ndarray):
    """For the video net then the description net, (x, z1, g_a1, g_a2): that net's input
    rows, hidden activations and `_backward` output, given the activations `acts` of
    `sides` and the pooled gradient g_x.

    The pooled gradient is g_x for the video net and -g_x for the description net; the
    mean pooling spreads it equally over that net's rows.
    """
    return [
        (rows, z1, *_backward(net, z1, z2, np.tile(g / len(rows), (len(rows), 1))))
        for (net, rows), (z1, z2), g in zip(sides, acts, (g_x, -g_x))
    ]


def _forward_loss(sides, label: int, margin: float):
    """(acts, loss, g_x): both sides' activations, the pair's loss and its pooled gradient."""
    acts = [_forward(net, rows) for net, rows in sides]
    return acts, *_loss_and_pooled_gradient(*(z2.mean(axis=0) for _, z2 in acts), label, margin)


def _gradients(sides, label: int, margin: float) -> tuple[float, Subnet, Subnet]:
    """loss_gradients on checked sides."""
    acts, loss, g_x = _forward_loss(sides, label, margin)
    grad_v, grad_d = (
        Subnet(w1=g_a1.T @ x, b1=g_a1.sum(axis=0), w2=g_a2.T @ z1, b2=g_a2.sum(axis=0))
        for x, z1, g_a1, g_a2 in _deltas(sides, acts, g_x)
    )
    return loss, grad_v, grad_d


def loss_gradients(
    vnet: Subnet, dnet: Subnet, ex: PairExample, margin: float = 1.0
) -> tuple[float, Subnet, Subnet]:
    """Pair loss and its exact gradient w.r.t. every weight and bias.

    Returns (loss, grad_v, grad_d): the contrastive loss of the pair's
    embeddings, then two Subnet containers holding the gradients of the
    video and description nets (same shapes as the parameters).  At the
    hinge point d == margin with label 0 the subgradient 0 is returned.
    Both nets go through `_checked_net`, and the example is checked again as
    `dataclasses.replace(ex)`, since its fields may have been reassigned after
    construction; its segment and description must also be as wide as their
    net's input.  A ValueError says what is wrong; the caller's example is
    not written to.
    """
    vnet, dnet = _checked_net("video net", vnet), _checked_net("description net", dnet)
    return _gradients(*_sides(vnet, dnet, ex), margin)


def finite_diff_check(
    vnet: Subnet, dnet: Subnet, ex: PairExample, margin: float = 1.0, h: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The error of a parameter is (|analytic - numeric| - r) / max(|analytic|,
    |numeric|, 1e-8), where r = eps * max(|up|, |down|) / h is the rounding
    error of the central difference (up - down) / (2h): each loss is rounded to
    about eps times its size, so a smaller gap is not resolved.  The largest
    error is returned, and never less than 0.  A NaN error is returned at once,
    so it fails every tolerance.  The nets and a copy of the example are checked
    as `loss_gradients` checks them, and the analytic gradient taken once; each
    perturbed loss is a forward pass alone.  The weights are perturbed in one
    copy of each net, made once per call, so the caller's nets are never
    written to, not even for a moment.
    """
    h = check_real("step h", h, positive=True)
    vnet = _copy_net(_checked_net("video net", vnet))
    dnet = _copy_net(_checked_net("description net", dnet))
    sides, label = _sides(vnet, dnet, ex)
    _, grad_v, grad_d = _gradients(sides, label, margin)
    eps = np.finfo(float).eps
    worst = 0.0
    for (net, _), grads in zip(sides, (grad_v, grad_d)):
        for f in fields(Subnet):
            theta = getattr(net, f.name)
            analytic = getattr(grads, f.name)
            for idx in np.ndindex(theta.shape):
                orig = theta[idx]
                theta[idx] = orig + h
                up = _forward_loss(sides, label, margin)[1]
                theta[idx] = orig - h
                down = _forward_loss(sides, label, margin)[1]
                theta[idx] = orig
                numeric = (up - down) / (2.0 * h)
                rounding = eps * max(abs(up), abs(down)) / h
                a = analytic[idx]
                err = (abs(a - numeric) - rounding) / max(abs(a), abs(numeric), 1e-8)
                if math.isnan(err):
                    return err
                worst = max(worst, err)
    return worst


def _copy_net(net: Subnet) -> Subnet:
    return Subnet(*(getattr(net, f.name).copy() for f in fields(Subnet)))


# Rows of a one-row net's w1 gradient (an outer product) formed at a time by _step.
_ROW_BLOCK = 16


def _descend(w: np.ndarray, g: np.ndarray, lr: float) -> None:
    """w -= lr * g in place, scaling g in its own buffer."""
    g *= lr
    w -= g


def _step(
    net: Subnet, buf: Subnet, x: np.ndarray, z1: np.ndarray, g_a1: np.ndarray,
    g_a2: np.ndarray, lr: float,
) -> None:
    """Subtract lr times the gradient `loss_gradients` builds from (x, z1, g_a1, g_a2),
    forming each gradient in the preallocated arrays of `buf`.

    Every gradient float is the same product or sum, scaled and subtracted in the same
    order, so the update is bitwise `w -= lr * grad`.  For one input row the w1 gradient
    is the outer product g_a1[0] x[0], formed _ROW_BLOCK rows at a time in `buf.w1`.
    """
    if len(x) == 1:
        for s in range(0, net.hidden_dim, _ROW_BLOCK):
            rows = net.w1[s : s + _ROW_BLOCK]
            _descend(rows, np.multiply(g_a1[0, s : s + len(rows), None], x[0],
                                       out=buf.w1[: len(rows)]), lr)
    else:
        _descend(net.w1, np.matmul(g_a1.T, x, out=buf.w1), lr)
    _descend(net.b1, np.sum(g_a1, axis=0, out=buf.b1), lr)
    _descend(net.w2, np.matmul(g_a2.T, z1, out=buf.w2), lr)
    _descend(net.b2, np.sum(g_a2, axis=0, out=buf.b2), lr)


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
    from cfg.seed, so the run is fully deterministic.  Each step updates the
    copies in place from the same backward formula as `loss_gradients`; the
    result is bitwise that of `w -= learning_rate * grad` with its gradients.

    An example whose pooled gradient 2 * g_d * (x - y) has no non-zero entry (a
    negative pair at or beyond the margin, or two equal embeddings) adds its loss
    and skips the backward pass and the update: its gradients are all +0 or -0,
    and subtracting them leaves every finite weight as it is.  The one exception
    is a -0.0 weight, which the full update could make +0.0 and a skipped step
    leaves -0.0; init_subnet never draws one.  So that this holds, `cfg` and
    every example are checked again as `dataclasses.replace` copies, since their
    fields may have been reassigned after construction, both nets must pass
    `_checked_net`, and every example must be as wide as both nets' inputs,
    before the first step; otherwise a ValueError names the setting, the net and
    field, or the example at fault.  No caller's record is written to.

    Between two updates the weights do not change, so each segment and each
    description is embedded once and its embedding reused until the next update;
    an update runs the pair's two forward passes again for its backward pass.
    Each distinct input is numbered once, before the first step: inputs are the
    same when they are the same memory (net, data address, shape and strides), as
    the views `sample_pairs` hands out are.  The checked examples hold every input
    for the whole call, so no two live inputs share an address by chance; no input
    may be changed in place while sgd_train runs.
    """
    cfg = replace(cfg)
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    vnet = _copy_net(_checked_net("video net", vnet))
    dnet = _copy_net(_checked_net("description net", dnet))
    examples = []  # (sides, label, input numbers) of each checked copy, on the copied nets
    numbers: dict = {}  # (net, data address, shape, strides) -> input number
    for i, ex in enumerate(dataset):
        try:
            sides, label = _sides(vnet, dnet, ex)
        except ValueError as exc:
            raise ValueError(f"example {i}: {exc}") from None
        inputs = tuple(numbers.setdefault((id(net), rows.__array_interface__["data"][0],
                                           rows.shape, rows.strides), len(numbers))
                       for net, rows in sides)
        examples.append((sides, label, inputs))
    # One gradient buffer per parameter, reused by every step.  A description is one
    # row, so the description net's w1 buffer holds only one block of rows.
    vbuf = Subnet(*(np.empty_like(getattr(vnet, f.name)) for f in fields(Subnet)))
    dbuf = Subnet(
        np.empty((min(_ROW_BLOCK, dnet.hidden_dim), dnet.input_dim)),
        *(np.empty_like(getattr(dnet, f.name)) for f in fields(Subnet)[1:]),
    )
    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    pooled = [None] * len(numbers)  # each input's pooled embedding under the current weights
    for _ in range(cfg.epochs):
        total = 0.0
        for idx in rng.permutation(len(dataset)):
            sides, label, inputs = examples[idx]
            for (net, rows), n in zip(sides, inputs):
                if pooled[n] is None:
                    pooled[n] = _forward(net, rows)[1].mean(axis=0)
            loss, g_x = _loss_and_pooled_gradient(*(pooled[n] for n in inputs), label, cfg.margin)
            total += loss
            # NaN is non-zero here, so a pair that went NaN still takes its step.
            if not g_x.any():
                continue
            acts = [_forward(net, rows) for net, rows in sides]
            for (net, _), buf, delta in zip(sides, (vbuf, dbuf), _deltas(sides, acts, g_x)):
                _step(net, buf, *delta, cfg.learning_rate)
            pooled = [None] * len(numbers)
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
    negatives are invented.  Both indices must be non-negative integers in
    range; a bad index, label or example raises with its record named.
    """
    descs = check_matrix("descs", descs)
    out: list[PairExample] = []
    for rec_no, record in enumerate(labels):
        where = f"label record {rec_no}"
        seg_idx, desc_idx, label = check_pair_label(where, record)
        for what, index, have in (("segment", seg_idx, len(segments)),
                                  ("description", desc_idx, len(descs))):
            if check_int(f"{where}: {what} index", index, 0) >= have:
                raise ValueError(
                    f"{where}: {what} index {index} out of range (have {have} {what}s)"
                )
        try:
            out.append(PairExample(segment=segments[seg_idx], desc=descs[desc_idx], label=label))
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return out
