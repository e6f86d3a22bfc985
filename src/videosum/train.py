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

import functools
import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from ._bounds import (EPS, TANH_ERR, TINY, UP, clears, dist_range, dot_err, norm_up, outer_up,
                      spectral_up, step_up)
from ._checks import (as_floats, check_finite, check_int, check_matrix, check_pair_label,
                      check_real, check_vector)
from .model import Subnet, _checked_nets, _forward

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


def _check_field(k: int, value, net: Subnet | None = None) -> np.ndarray:
    """The field rule: a segment (k = 0) is a matrix of >= 1 row finite by frame, a description
    (k = 1) a non-empty 1-D vector finite by index; with a net, the rows it embeds, of its width."""
    what, side = (("segment", "video net"), ("description", "description net"))[k]
    field = check_matrix(what, value, rows=1) if k == 0 else as_floats("desc", value)
    if k and (field.ndim != 1 or field.size == 0):
        raise ValueError(f"desc must be a non-empty 1-D vector, got shape {field.shape}")
    check_finite(f"{what} has a non-finite value", field, by_row=k == 0)
    rows = field[None, :] if k else field
    return field if net is None else check_matrix(what, rows, cols=net.input_dim, of=side)


@dataclass
class PairExample:
    """One training pair: raw segment frames, description vector, 0/1 label, checked in that
    order; `sample_pairs` reads each `segments[i]` once and its examples share checked arrays."""

    segment: np.ndarray
    desc: np.ndarray
    label: int

    def __post_init__(self):
        self.segment, self.desc = _check_field(0, self.segment), _check_field(1, self.desc)
        self.label = _check_label(self.label)


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
    """label * d(x, y) + (1 - label) * max(0, margin - d), d = squared distance; NaN if d is.
    x and y must be 1-D vectors of one shape; a d that overflows float64 raises."""
    x, y = check_vector("x", x), check_vector("y", y)
    if x.shape != y.shape:
        raise ValueError(f"embedding shapes differ: {x.shape} vs {y.shape}")
    margin = check_real("margin", margin, 0)
    return _loss_and_pooled_gradient(x, y, _check_label(label), margin)[0]


def _backward(
    net: Subnet, z1: np.ndarray, z2: np.ndarray, g_z2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(g_a1, g_a2): dL/d(pre-activation) of both layers, one row per input row, given dL/dz2.

    The parameter gradients over input rows x are g_a1.T @ x, the column sums of g_a1,
    g_a2.T @ z1 and the column sums of g_a2.
    """
    g_a2 = g_z2 * (1.0 - z2**2)
    return (g_a2 @ net.w2) * (1.0 - z1**2), g_a2


def _numbered(nets, ex: PairExample, numbers: dict, inputs: list):
    """(sides, label, input numbers) of `ex`, read only.  `sides` holds (net, input rows)
    for the video net, then the description net; each embeds the mean of its rows' outputs.

    Each field is numbered by its side and the object it is, before any conversion:
    `numbers` maps (side, id) to (number, field), holding the field so that no id is reused.
    A new field is checked by `_check_field` with its net and appended to `inputs` as
    (side, rows); then the label is checked."""
    numbered = []
    for k, field in enumerate((ex.segment, ex.desc)):
        n, _ = numbers.setdefault((k, id(field)), (len(inputs), field))
        if n == len(inputs):
            inputs.append((k, _check_field(k, field, nets[k])))
        numbered.append(n)
    sides = [(nets[k], inputs[n][1]) for k, n in enumerate(numbered)]
    return sides, _check_label(ex.label), tuple(numbered)


def _loss_and_pooled_gradient(
    x: np.ndarray, y: np.ndarray, label: int, margin: float
) -> tuple[float, np.ndarray]:
    """The pair's loss and dL/dx for embeddings x and y, 1-D vectors of one width, a checked
    label and margin; dL/dy is its negation.  A squared distance that overflows raises."""
    with np.errstate(over="ignore", invalid="ignore"):
        diff = x - y
        d = float(diff @ diff)
    if d == math.inf:
        raise ValueError("the squared distance of x and y overflows float64")
    loss = d if label else 0.0 if d >= margin else margin - d  # a NaN d fails >= and stays NaN
    # dL/dd: 1 for positive pairs, -1 inside the hinge, 0 outside (and at d == margin).
    g_d = 1.0 if label else -1.0 if loss > 0.0 else 0.0
    return loss, 2.0 * g_d * diff


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
    Both nets go through `_checked_nets`, so they must share their hidden and
    embed widths; each field of the example is checked again by the field
    rule, since it may have been reassigned after construction, and its
    segment and description must also be as wide as their net's input; then
    the label and the margin.  A ValueError says what is wrong before any
    forward pass runs; the caller's example is not written to.
    """
    sides, label, _ = _numbered(_checked_nets(vnet, dnet), ex, {}, [])
    return _gradients(sides, label, check_real("margin", margin, 0))


def finite_diff_check(
    vnet: Subnet, dnet: Subnet, ex: PairExample, margin: float = 1.0, h: float = 1e-5
) -> float:
    """Max relative error between analytic and central-difference gradients.

    The error of a parameter is (|analytic - numeric| - r) / max(|analytic|,
    |numeric|, 1e-8), where r = eps * max(|up|, |down|) / h is the rounding
    error of the central difference (up - down) / (2h): each loss is rounded to
    about eps times its size, so a smaller gap is not resolved.  The largest
    error is returned, and never less than 0.  A NaN error is returned at once,
    so it fails every tolerance.  The nets and the example are checked as
    `loss_gradients` checks them, and the analytic gradient taken once; each
    perturbed loss is a forward pass alone.  The weights are perturbed in one
    copy of each net, made once per call, so the caller's nets are never
    written to, not even for a moment.
    """
    h = check_real("step h", h, positive=True)
    nets = [_copy_net(net) for net in _checked_nets(vnet, dnet)]
    sides, label, _ = _numbered(nets, ex, {}, [])
    margin = check_real("margin", margin, 0)
    _, grad_v, grad_d = _gradients(sides, label, margin)
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
                rounding = EPS * max(abs(up), abs(down)) / h
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


class _EmbeddingCache:
    """Each numbered input's last exact pooled embedding (`_forward`, then the mean) and a
    certified bound, in `_bounds`' model, on how far the updates since have moved it.  A
    fresh input, embedded since the last update, has the embedding the weights give now
    bit for bit; any other lies within drift + rounding of the one computed now.  `drift`:
    tanh is 1-Lipschitz and bounded by 1, so an update by (dW1, db1, dW2, db2) moves the
    exact embedding by at most S2' (|dW1|_F rho + |db1|) + |dW2|_F sqrt(H) + |db2|, rho
    the input's largest row norm, S2' a bound on the new |W2|_2 (`spectral_up` at first)
    and each bound N on a |W|_F growing by |dW|_F (`step_up`).  `rounding`: twice the
    error of a forward pass, each layer's products within `dot_err` of their magnitudes
    (|z1| <= sqrt(H)), tanh's TANH_ERR and the mean's; bounds only grow, so it covers the
    cached embedding and the one computed now.  A NaN or infinite step or weight, or a sum
    of squares beyond SUM_RANGE, makes a bound inf.  The margin's reach is taken from the
    one embed width both nets share, which `_checked_nets` ensures."""

    def __init__(self, nets, inputs, margin: float):
        self.nets = nets
        self.inputs = inputs  # (net index, rows) of each numbered input
        self.rho = [norm_up(rows) for _, rows in inputs]
        self.mean_err = [(TANH_ERR + dot_err(len(rows))) * math.sqrt(nets[k].embed_dim)
                         for k, rows in inputs]  # tanh's and the mean's rounding
        self.pooled = [None] * len(inputs)
        self.drift = [math.inf] * len(inputs)
        self.margin, self.reach = margin, dist_range(margin, nets[0].embed_dim)[1]
        # Per net: bounds on |w1|_F, |b1|, |w2|_F, |b2| and the spectral norm of w2.
        self.norms = [[norm_up(getattr(net, f.name).reshape(1, -1)) for f in fields(Subnet)]
                      + [spectral_up(net.w2)] for net in nets]
        self._bound_rounding()

    def _bound_rounding(self) -> None:
        per_net = []  # the rounding of both layers: a multiple of rho, and the rest
        for net, (w1, b1, w2, b2, s2) in zip(self.nets, self.norms):
            root_h, err1, err2 = (math.sqrt(net.hidden_dim), dot_err(net.input_dim + 1),
                                  dot_err(net.hidden_dim + 1))
            per_net.append((s2 * err1 * w1, s2 * (err1 * b1 + TANH_ERR * root_h)
                            + err2 * (w2 * root_h + b2) + TINY))
        self.rounding = [2.0 * (per_net[k][0] * rho + per_net[k][1] + mean) * UP
                         for (k, _), rho, mean in zip(self.inputs, self.rho, self.mean_err)]

    def fresh(self, n: int) -> bool:
        """Whether input n was embedded since the last update (drift 0.0): every update adds
        to every drift at least d2 sqrt(H) > 0, as `step_up` >= U norm UP and each norm >=
        TINY UP, and no NaN arises from terms >= 0 with rho and S2' > 0."""
        return self.drift[n] == 0.0

    def embed(self, n: int):
        """Embed input n under the current weights; return its activations (z1, z2)."""
        k, rows = self.inputs[n]
        acts = _forward(self.nets[k], rows)
        self.pooled[n] = acts[1].mean(axis=0)
        self.drift[n] = 0.0
        return acts

    def beyond_margin(self, inputs, margin: float) -> bool:
        """Whether the loss would compute a squared distance of at least `margin` for the
        two inputs now, so that it is 0.0: whether `clears` holds for the cached embeddings
        with the drift and rounding of each input not fresh as the slack."""
        v, d = inputs
        if self.pooled[v] is None or self.pooled[d] is None:
            return False
        slack = sum(self.drift[n] + self.rounding[n] for n in inputs if not self.fresh(n)) * UP
        diff = self.pooled[v] - self.pooled[d]
        reach = self.reach if margin == self.margin else dist_range(margin, diff.size)[1]
        return clears(float(diff @ diff), diff.size, slack, reach)

    def stepped(self, bufs, deltas, inputs, lr: float) -> None:
        """Start a new weight version after `_step` updated both nets by the scaled steps in
        `bufs`, from the `deltas` (x, z1, g_a1, g_a2) of the example of input numbers
        `inputs`; add to each input's drift how far its net's step can have moved it."""
        for k, (net, buf, (x, _, g_a1, _), n) in enumerate(zip(self.nets, bufs, deltas, inputs)):
            if len(x) == 1:  # _step formed the w1 step in blocks of the outer product
                g_w1 = outer_up(lr, norm_up(g_a1), self.rho[n], net.hidden_dim * net.input_dim)
            else:
                g_w1 = norm_up(buf.w1.reshape(1, -1))
            steps = [g_w1] + [norm_up(getattr(buf, f.name).reshape(1, -1))
                              for f in fields(Subnet)[1:]]
            norms = self.norms[k]
            d1, db1, d2, db2 = (step_up(g, old) for g, old in zip(steps, norms))
            for i, d in enumerate((d1, db1, d2, db2, d2)):
                norms[i] = (norms[i] + d) * UP
            s2, root_h = norms[4], math.sqrt(net.hidden_dim)
            for i, ((owner, _), rho) in enumerate(zip(self.inputs, self.rho)):
                if owner == k:
                    moved = (s2 * (d1 * rho + db1) + d2 * root_h + db2) * UP
                    self.drift[i] = (self.drift[i] + moved) * UP
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
    leaves -0.0; init_subnet never draws one.  So that this holds, `cfg` as a
    `dataclasses.replace` copy, both nets by `_checked_nets` (one hidden and one embed
    width) and every example's fields by the field rule and both nets' widths are checked
    before the first step, even at 0 epochs, since a field may have been reassigned after
    construction; a ValueError names the setting, the net and field, the widths, or the
    example at fault.  No caller's record is written to.

    Each field is numbered by its side and the object it is, before any conversion, and each
    input converted and checked once (`_numbered`), as the examples of `sample_pairs` share
    each `segments[i]` and row of `descs`; two views of one memory are two inputs, and no
    input may be changed in place.  Each keeps its last exact embedding and a certified
    bound on how far the updates since have moved it (`_EmbeddingCache`).  A negative
    example that bound clears adds the loss 0.0 and runs no forward pass.  Otherwise it
    embeds its inputs not embedded since the last update, the one with the larger bound
    first, checking the bound again after each, and if it still does not clear, runs as
    above; an update reuses the activations of its step.
    """
    cfg = replace(cfg)
    if len(dataset) == 0:
        raise ValueError("dataset must be non-empty")
    vnet, dnet = (_copy_net(net) for net in _checked_nets(vnet, dnet))
    examples = []  # (sides, label, input numbers) of each example, on the copied nets
    numbers: dict = {}  # (side, id of the field) -> (input number, field)
    inputs = []  # (side, checked rows) of each numbered input
    for i, ex in enumerate(dataset):
        try:
            examples.append(_numbered((vnet, dnet), ex, numbers, inputs))
        except ValueError as exc:
            raise ValueError(f"example {i}: {exc}") from None
    # One gradient buffer per parameter, reused by every step.  A description is one
    # row, so the description net's w1 buffer holds only one block of rows.
    vbuf = Subnet(*(np.empty_like(getattr(vnet, f.name)) for f in fields(Subnet)))
    dbuf = Subnet(
        np.empty((min(_ROW_BLOCK, dnet.hidden_dim), dnet.input_dim)),
        *(np.empty_like(getattr(dnet, f.name)) for f in fields(Subnet)[1:]),
    )
    cache = _EmbeddingCache((vnet, dnet), inputs, cfg.margin)
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
    range; a bad index, label or example raises with its record named.  Each
    `segments[i]` and row i of `descs` is read and checked once, and shared by its examples.
    """
    descs = check_matrix("descs", descs)
    checked = functools.cache(lambda k, index: _check_field(k, (segments, descs)[k][index]))
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
        out.append(ex := PairExample.__new__(PairExample))  # its fields checked once per index
        try:
            ex.segment, ex.desc = checked(0, seg_idx), checked(1, desc_idx)
            ex.label = _check_label(label)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return out
