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


# Bounds on the drift of embeddings (see _EmbeddingCache).  A sum of squares is used only
# where it lies in _SUM_RANGE, so that underflow and overflow move it by less than one eps.
_SUM_RANGE = (1e-200, 1e200)
_EPS = float(np.finfo(float).eps)
# Multiplying the result of up to 100 rounded +, * and sqrt on non-negative terms by _UP
# gives an upper bound on their exact value: each rounding loses at most eps / 2.
_UP = 1.0 + 2.0**-40
# Error allowed per entry of numpy's float64 tanh, whose entries are at most 1 in
# magnitude: against 120-bit mpmath, numpy 2.4's tanh was within 1.2 ulp at 42,000 points.
_TANH_ERR = 16 * _EPS
# Allowed for products that underflow, with every bound within _SUM_RANGE.
_TINY = 1e-200


def _norm_up(rows: np.ndarray) -> float:
    """An upper bound on the largest Euclidean norm of the rows of a 2-D array, or inf.

    With s the largest computed sum of squares of a row of n entries: in _SUM_RANGE, no
    square overflows, the squares that underflow lose less than n * 2**-1074, far below
    eps * s, and the sums are within (n - 1) eps / 2 of exact in any order, so
    sqrt(s) (1 + (n + 8) eps) bounds every row.  Below the range, sqrt(n) times the
    largest magnitude does, plus _TINY for its rounding; above it, or with a NaN, the
    bound is inf.
    """
    n = rows.shape[1]
    s = float(rows[0] @ rows[0] if len(rows) == 1 else np.einsum("ij,ij->i", rows, rows).max())
    if _SUM_RANGE[0] <= s <= _SUM_RANGE[1]:
        return math.sqrt(s) * (1.0 + (n + 8) * _EPS)
    if s < _SUM_RANGE[0]:
        return (math.sqrt(n) * float(np.abs(rows).max()) + _TINY) * _UP
    return math.inf


def _spectral_up(w: np.ndarray) -> float:
    """An upper bound on the spectral norm of `w`, never above `_norm_up`'s Frobenius bound.

    The squared spectral norm is the largest eigenvalue of the Gram matrix G of w's shorter
    side, w.T @ w or w @ w.T, and by Gershgorin's theorem at most G's largest absolute row
    sum.  Each computed entry of G, a sum of k products, is within (k + 1) eps / 2 times
    the same sum over |w|; those sums add up along a row to at most c1 * cinf, the largest
    absolute column and row sums of w.  With the Frobenius sum in _SUM_RANGE, the products
    that underflow are far below eps times the eigenvalue, which is at least that sum
    divided by G's width.
    """
    frobenius = _norm_up(w.reshape(1, -1))
    if not frobenius < math.inf or float(np.einsum("ij,ij", w, w)) < _SUM_RANGE[0]:
        return frobenius
    k, width = max(w.shape), min(w.shape)
    gram = w.T @ w if w.shape[1] == width else w @ w.T
    mag = np.abs(w)
    c1, cinf = float(mag.sum(axis=0).max()), float(mag.sum(axis=1).max())
    rows = float(np.abs(gram).sum(axis=1).max())
    slack = 1.0 + (k + width + 8) * _EPS
    return min(frobenius, math.sqrt((rows + (k + 2) * _EPS * c1 * cinf) * slack) * _UP)


class _EmbeddingCache:
    """Each numbered input's last exact pooled embedding, computed by `_forward` and the
    mean, and a certified bound on how far the updates since then can have moved it.

    An input is fresh when it was embedded since the last update: its embedding then is
    the one the weights give now, bit for bit.  Otherwise `drift` bounds how far the
    exact embedding of the input under the current weights lies from its exact embedding
    under the weights it was embedded with, and `rounding` bounds twice how far any
    embedding the forward pass computes under weights seen so far lies from the exact
    one.  So the embedding the forward pass would compute now lies within drift +
    rounding of the cached one.

    Drift.  The real embedding is the mean over rows x of tanh(W2 tanh(W1 x + b1) + b2),
    and tanh is 1-Lipschitz with |tanh| <= 1.  An update by (dW1, db1, dW2, db2) moves the
    hidden layer by at most |dW1|_F rho + |db1|, rho the largest row norm of the input,
    and the output by at most S2' (|dW1|_F rho + |db1|) + |dW2|_F sqrt(H) + |db2|, S2' a
    bound on the spectral norm of the new W2.  The change of each parameter is the
    scaled step g' that `_step` subtracts, plus the rounding of the subtraction, at most
    eps / 2 of the old weight plus g'; so |dW|_F <= |g'|_F (1 + eps) + eps N, with N a
    bound on |W|_F that grows by |dW|_F at each update, as S2 does.  `_norm_up` bounds
    each |g'|; for a one-row w1 step, whose rows `_step` forms in blocks, the bound is
    lr |g_a1| |x| plus what underflow can add.  S2 starts from `_spectral_up`.

    Rounding.  Every product of the forward pass is a sum of k products within
    (k + 1) eps / 2 of exact times the sum of their magnitudes, in any order, so with
    |z1| <= sqrt(H) the layers lie within S2 ((D + 2) eps (N1 rho + Nb1) + t sqrt(H)) +
    (H + 2) eps (N2 sqrt(H) + Nb2) + t sqrt(E) of exact, t the tanh error _TANH_ERR, and
    the mean adds (n + 2) eps sqrt(E) for n rows.  The bounds N only grow, so this one
    covers the cached embedding and the one the forward pass would compute now.  With
    every bound finite, underflow adds less than _TINY.

    A bound that is not finite stays so.  While every N is finite, so is every weight,
    since a subtraction within N + |g'| cannot overflow; a NaN or infinite step makes its
    bound inf; weights beyond 1e100 or a sum of squares beyond _SUM_RANGE make N inf.
    All bound arithmetic ends in a multiplication by _UP, so rounding only loosens it.
    """

    def __init__(self, nets, inputs):
        self.nets = nets
        self.inputs = inputs  # (net index, rows) of each numbered input
        self.rho = [_norm_up(rows) for _, rows in inputs]
        self.pooled = [None] * len(inputs)
        self.drift = [math.inf] * len(inputs)
        self.version = [-1] * len(inputs)
        self.updates = 0
        # Per net: bounds on |w1|_F, |b1|, |w2|_F, |b2| and the spectral norm of w2.
        self.norms = [[_norm_up(getattr(net, f.name).reshape(1, -1)) for f in fields(Subnet)]
                      + [_spectral_up(net.w2)] for net in nets]
        self._bound_rounding()

    def _bound_rounding(self) -> None:
        terms = []
        for net, (w1, b1, w2, b2, s2) in zip(self.nets, self.norms):
            root_h, root_e = math.sqrt(net.hidden_dim), math.sqrt(net.embed_dim)
            gamma1, gamma2 = (net.input_dim + 2) * _EPS, (net.hidden_dim + 2) * _EPS
            terms.append((s2 * gamma1 * w1, s2 * (gamma1 * b1 + _TANH_ERR * root_h)
                          + gamma2 * (w2 * root_h + b2) + _TANH_ERR * root_e, _EPS * root_e))
        self.rounding = []
        for (k, rows), rho in zip(self.inputs, self.rho):
            per_rho, fixed, per_row = terms[k]
            self.rounding.append(
                2.0 * (per_rho * rho + fixed + per_row * (len(rows) + 2) + _TINY) * _UP)

    def fresh(self, n: int) -> bool:
        return self.version[n] == self.updates

    def embed(self, n: int):
        """Embed input n under the current weights; return its activations (z1, z2)."""
        k, rows = self.inputs[n]
        acts = _forward(self.nets[k], rows)
        self.pooled[n] = acts[1].mean(axis=0)
        self.drift[n], self.version[n] = 0.0, self.updates
        return acts

    def beyond_margin(self, inputs, margin: float) -> bool:
        """Whether the squared distance the forward passes would give the two inputs now,
        at least one of them embedded, is certainly at least `margin`.

        With s the computed sum of squares of the difference of the cached embeddings (E
        entries each), in _SUM_RANGE: the subtraction and the sum move s by at most
        (E + 2) eps / 2 of it, underflow by far less, so sqrt(s) (1 - (E + 8) eps) is at
        most the exact distance of the cached embeddings, roundings included.  By the
        triangle inequality the embeddings the forward passes would compute now are at
        least lo = that - (drift + rounding of each input not fresh) apart.  A pair's loss
        computes their squared distance within (E + 3) eps of exact, so lo >= 1e-100 (no
        underflow) and (1 - (E + 32) eps) lo**2 >= margin, four more roundings, make it at
        least the margin: the loss is 0.0 and the pooled gradient zero.
        """
        v, d = inputs
        if self.pooled[v] is None or self.pooled[d] is None:
            return False
        slack = sum(self.drift[n] + self.rounding[n] for n in inputs if not self.fresh(n)) * _UP
        diff = self.pooled[v] - self.pooled[d]
        s = float(diff @ diff)
        if not _SUM_RANGE[0] <= s <= _SUM_RANGE[1]:
            return False
        lo = math.sqrt(s) * (1.0 - (diff.size + 8) * _EPS) - slack
        return lo >= 1e-100 and lo * lo * (1.0 - (diff.size + 32) * _EPS) >= margin

    def stepped(self, bufs, deltas, inputs, lr: float) -> None:
        """Start a new weight version after `_step` updated both nets, with their scaled
        gradients in `bufs`, from `deltas`, the (x, z1, g_a1, g_a2) of the example whose
        input numbers are `inputs`; add to the drift of each input a bound on how far its
        net's step moved its embedding."""
        for k, (net, buf, (x, _, g_a1, _), n) in enumerate(zip(self.nets, bufs, deltas, inputs)):
            if len(x) == 1:  # _step formed the w1 step in blocks of the outer product
                count = math.sqrt(net.hidden_dim) * math.sqrt(net.input_dim)
                g_w1 = (lr * _norm_up(g_a1) * self.rho[n] + (lr + 1.0) * count * _TINY) * _UP
            else:
                g_w1 = _norm_up(buf.w1.reshape(1, -1))
            steps = [g_w1] + [_norm_up(getattr(buf, f.name).reshape(1, -1))
                              for f in fields(Subnet)[1:]]
            norms = self.norms[k]
            d1, db1, d2, db2 = ((g * (1.0 + _EPS) + _EPS * old) * _UP
                                for g, old in zip(steps, norms))
            for i, d in enumerate((d1, db1, d2, db2, d2)):
                norms[i] = (norms[i] + d) * _UP
            s2, root_h = norms[4], math.sqrt(net.hidden_dim)
            for i, ((owner, _), rho) in enumerate(zip(self.inputs, self.rho)):
                if owner == k:
                    moved = (s2 * (d1 * rho + db1) + d2 * root_h + db2) * _UP
                    self.drift[i] = (self.drift[i] + moved) * _UP
        self.updates += 1
        self._bound_rounding()


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

    Each distinct input is numbered once, before the first step: inputs are the
    same when they are the same memory (net, data address, shape and strides), as
    the views `sample_pairs` hands out are.  The checked examples hold every input
    for the whole call, so no two live inputs share an address by chance; no input
    may be changed in place while sgd_train runs.  Each input keeps its last exact
    embedding and a certified bound on how far the updates since then can have
    moved it (`_EmbeddingCache` gives the argument, rounding, underflow and overflow
    included).  A negative example whose cached embeddings lie, by that bound, at a
    squared distance of at least the margin is skipped: it adds the loss 0.0 and
    runs no forward pass.  Otherwise it embeds its inputs not embedded since the
    last update, the one with the larger bound first, checking the bound again
    after each; if it still does not clear, the example runs exactly as above.  An
    update reuses the activations its example computed in the same step and runs
    the other forward passes again.  On the train bench's inputs (20 segments of 36
    frames, 1024 -> 256 -> 300 and 4800 -> 256 -> 300, one epoch, learning rate
    0.01, data seeds 0-5), 94 to 97 segment forwards run where embedding every input
    once per weight version took 248.  Descriptions move too far at an update (up to
    10.3-12.1, where segments move up to 0.16-0.25) for the bound to clear, so 230
    description forwards still run, against 235.
    """
    cfg = replace(cfg)
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    vnet = _copy_net(_checked_net("video net", vnet))
    dnet = _copy_net(_checked_net("description net", dnet))
    examples = []  # (sides, label, input numbers) of each checked copy, on the copied nets
    numbers: dict = {}  # (net, data address, shape, strides) -> input number
    inputs = []  # (net index, rows) of each numbered input
    for i, ex in enumerate(dataset):
        try:
            sides, label = _sides(vnet, dnet, ex)
        except ValueError as exc:
            raise ValueError(f"example {i}: {exc}") from None
        numbered = []
        for k, (net, rows) in enumerate(sides):
            n = numbers.setdefault((id(net), rows.__array_interface__["data"][0], rows.shape,
                                    rows.strides), len(numbers))
            if n == len(inputs):
                inputs.append((k, rows))
            numbered.append(n)
        examples.append((sides, label, tuple(numbered)))
    # One gradient buffer per parameter, reused by every step.  A description is one
    # row, so the description net's w1 buffer holds only one block of rows.
    vbuf = Subnet(*(np.empty_like(getattr(vnet, f.name)) for f in fields(Subnet)))
    dbuf = Subnet(
        np.empty((min(_ROW_BLOCK, dnet.hidden_dim), dnet.input_dim)),
        *(np.empty_like(getattr(dnet, f.name)) for f in fields(Subnet)[1:]),
    )
    cache = _EmbeddingCache((vnet, dnet), inputs)
    rng = np.random.default_rng(cfg.seed)
    history: list[float] = []
    for _ in range(cfg.epochs):
        total = 0.0
        for idx in rng.permutation(len(dataset)):
            sides, label, numbered = examples[idx]
            acts = {}  # the activations this step computed, by input number
            while True:
                stale = [n for n in numbered if not cache.fresh(n)]
                if not stale or not label and cache.beyond_margin(numbered, cfg.margin):
                    break
                n = max(stale, key=cache.drift.__getitem__)
                acts[n] = cache.embed(n)
            if stale:  # beyond the margin: its loss, 0.0, leaves the total as it is
                continue
            loss, g_x = _loss_and_pooled_gradient(*(cache.pooled[n] for n in numbered),
                                                  label, cfg.margin)
            total += loss
            # NaN is non-zero here, so a pair that went NaN still takes its step.
            if not g_x.any():
                continue
            step_acts = [acts[n] if n in acts else _forward(net, rows)
                         for (net, rows), n in zip(sides, numbered)]
            deltas = _deltas(sides, step_acts, g_x)
            for (net, _), buf, delta in zip(sides, (vbuf, dbuf), deltas):
                _step(net, buf, *delta, cfg.learning_rate)
            cache.stepped((vbuf, dbuf), deltas, numbered, cfg.learning_rate)
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
