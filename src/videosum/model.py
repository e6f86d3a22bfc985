"""Numeric kernels: LSTM cell, bidirectional frame scorer, embedding subnetworks.

Everything here is a pure forward pass over plain float64 numpy arrays.
Feature streams are row-major matrices with one row per frame; parameters
live in small dataclasses so they can be copied, serialized and updated
in place by the training loop without any framework machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_int, check_real

__all__ = [
    "DEFAULT_EMBED_DIM",
    "DEFAULT_HIDDEN_DIM",
    "DEFAULT_DESC_DIM",
    "LstmParams",
    "Subnet",
    "ImportanceScorer",
    "sigmoid",
    "lstm_scan",
    "score_importance",
    "embed_frames",
    "init_subnet",
    "init_scorer",
]

# Dimensions used when the caller does not configure its own.  Description
# vectors are 4800-dim sentence encodings produced upstream; the other two
# are conventional widths.
DEFAULT_EMBED_DIM = 300
DEFAULT_HIDDEN_DIM = 256
DEFAULT_DESC_DIM = 4800


def sigmoid(z):
    """Logistic function; large negative z saturates to exactly 0.0 without a warning."""
    # exp(-z) -> inf is the right limit; a rearranged form would move outputs by an ulp.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(z, dtype=float)))


@dataclass
class LstmParams:
    """Gate weights of a single LSTM cell, bias-free.

    `w` stacks the four gate matrices in the row order i, f, o, c, so it has
    shape (4 * hidden_dim, input_dim + hidden_dim) and acts on [x_t ; h_prev].
    """

    w: np.ndarray

    def __post_init__(self):
        w = self.w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] % 4 or not 0 < w.shape[0] // 4 < w.shape[1]:
            raise ValueError(
                f"LSTM gate matrix has shape {w.shape}, expected (4H, D+H) with H, D >= 1"
            )
        if not np.isfinite(w).all():
            row, col = np.argwhere(~np.isfinite(w))[0]
            raise ValueError(f"LSTM gate matrix has a non-finite weight at row {row}, column {col}")

    @property
    def hidden_dim(self) -> int:
        return self.w.shape[0] // 4

    @property
    def input_dim(self) -> int:
        return self.w.shape[1] - self.hidden_dim


@dataclass
class Subnet:
    """Two fully-connected layers with hyperbolic tangent activations.

    Used both for the video side (input = frame feature vector) and for the
    description side (input = precomputed sentence vector, 4800-dim by
    default).  w1 is (hidden, input), w2 is (embed, hidden).
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[0]


@dataclass
class ImportanceScorer:
    """Bidirectional LSTM frame scorer.

    Two LSTM cells share input/hidden dims and run over the sequence in
    opposite directions; a linear readout over the concatenated hidden
    states followed by a sigmoid yields one score per frame in (0, 1).  The
    readout must have one finite weight per hidden unit of the two cells and a
    finite bias; a ValueError names the first bad weight's index.
    """

    forward: LstmParams
    backward: LstmParams
    readout_w: np.ndarray
    readout_b: float

    def __post_init__(self):
        w = self.readout_w = np.asarray(self.readout_w, dtype=float)
        width = self.forward.hidden_dim + self.backward.hidden_dim
        if w.shape != (width,):
            raise ValueError(f"readout has shape {w.shape}, expected ({width},)")
        if not np.isfinite(w).all():
            index = np.flatnonzero(~np.isfinite(w))[0]
            raise ValueError(f"readout has a non-finite weight at index {index}")
        self.readout_b = check_real("readout_b", self.readout_b)


# Frames per input-projection GEMM.  Every chunk is multiplied as a full _CHUNK-row
# block, so a frame's projection does not depend on how many frames follow it.
_CHUNK = 128


def _cell(w_h: np.ndarray, zx: np.ndarray, h: np.ndarray, c: np.ndarray):
    """One unchecked step to (h', c'): c' = i * tanh(z_c) + f * c, h' = o * tanh(c').

    z = zx + w_h @ h, where zx = W_x x is the frame's input projection; i, f, o are the
    sigmoids of its first three gate blocks.
    """
    h_dim = h.shape[0]
    z = zx + w_h @ h
    ifo = sigmoid(z[: 3 * h_dim])
    c = ifo[:h_dim] * np.tanh(z[3 * h_dim :]) + ifo[h_dim : 2 * h_dim] * c
    return ifo[2 * h_dim :] * np.tanh(c), c


def _scan(params: LstmParams, frames, reverse: bool) -> np.ndarray:
    """lstm_scan over the rows of `frames`, last row first if `reverse`; row t of the
    result is always the hidden state at frame t, and errors name frames as given."""
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 2:
        raise ValueError(f"frames must be 2-D, got shape {frames.shape}")
    n, d = frames.shape
    if n > 0 and d != params.input_dim:
        raise ValueError(f"frames have {d} columns, cell expects {params.input_dim}")
    if not np.isfinite(frames).all():
        frame = np.flatnonzero(~np.isfinite(frames).all(axis=1))[0]
        raise ValueError(f"frames contain a non-finite value at frame {frame}")

    w_x = params.w[:, :d]
    w_h = np.ascontiguousarray(params.w[:, d:])
    rows = np.zeros((_CHUNK, d))
    h = c = np.zeros(params.hidden_dim)
    hidden = np.empty((n, params.hidden_dim))
    src, out = (frames[::-1], hidden[::-1]) if reverse else (frames, hidden)
    # A step that overflows leaves NaN behind it; the finished rows are checked once.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, n, _CHUNK):
            m = min(_CHUNK, n - s)
            rows[:m] = src[s : s + m]
            for t, zx in zip(range(s, s + m), rows @ w_x.T):
                h, c = _cell(w_h, zx, h, c)
                out[t] = h
    bad = np.flatnonzero(~np.isfinite(hidden).all(axis=1))
    if bad.size:
        first = bad[-1] if reverse else bad[0]
        raise ValueError(f"LSTM hidden state is not finite from frame {first}: the cell overflowed")
    return hidden


def lstm_scan(params: LstmParams, frames: np.ndarray) -> np.ndarray:
    """Run the cell over the rows of `frames` from a zero state.

    Returns a (T, hidden_dim) matrix whose row t is h_t.  An empty input
    yields an empty (0, hidden_dim) output.  Each chunk of frames is projected
    by one GEMM, then each step does one (4H, H) matvec on the hidden state.
    A non-finite frame, or a hidden state that overflows, raises a ValueError
    naming the frame.
    """
    return _scan(params, frames, reverse=False)


def score_importance(scorer: ImportanceScorer, frames: np.ndarray) -> np.ndarray:
    """Per-frame importance scores in (0, 1).

    The forward cell scans the sequence as given; the backward cell scans it
    last frame first, so that both hidden states at index t describe frame t.
    score_t = sigmoid(w . [h_f ; h_b] + b).
    """
    h_dim = scorer.forward.hidden_dim
    h_fwd = _scan(scorer.forward, frames, reverse=False)
    h_bwd = _scan(scorer.backward, frames, reverse=True)
    w = scorer.readout_w
    return sigmoid(h_fwd @ w[:h_dim] + h_bwd @ w[h_dim:] + scorer.readout_b)


def _forward(net: Subnet, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden and output activations (z1, z2), one row per input row of x."""
    z1 = np.tanh(x @ net.w1.T + net.b1)
    return z1, np.tanh(z1 @ net.w2.T + net.b2)


def embed_frames(net: Subnet, rows: np.ndarray) -> np.ndarray:
    """Mean over the rows of tanh(W2 tanh(W1 x + b1) + b2); each component lies in (-1, 1).

    A segment's rows are its frames; a description vector `v` is embedded as the
    one-row segment `v[None, :]`.  Row order does not matter; no rows raise.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"segment must be 2-D, got shape {rows.shape}")
    if rows.shape[0] == 0:
        raise ValueError("cannot embed an empty segment")
    if rows.shape[1] != net.input_dim:
        raise ValueError(f"segment has {rows.shape[1]} columns, net expects {net.input_dim}")
    return _forward(net, rows)[1].mean(axis=0)


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_subnet(
    seed: int,
    input_dim: int,
    hidden_dim: int = DEFAULT_HIDDEN_DIM,
    embed_dim: int = DEFAULT_EMBED_DIM,
) -> Subnet:
    """Seeded uniform init with per-layer fan-in bounds, biases included."""
    check_int("seed", seed, 0)
    for name, dim in (("input_dim", input_dim), ("hidden_dim", hidden_dim), ("embed_dim", embed_dim)):
        check_int(name, dim, 1)
    rng = np.random.default_rng(seed)
    return Subnet(
        w1=_uniform(rng, (hidden_dim, input_dim), input_dim),
        b1=_uniform(rng, hidden_dim, input_dim),
        w2=_uniform(rng, (embed_dim, hidden_dim), hidden_dim),
        b2=_uniform(rng, embed_dim, hidden_dim),
    )


def init_scorer(
    seed: int, input_dim: int, hidden_dim: int = DEFAULT_HIDDEN_DIM
) -> ImportanceScorer:
    """Seeded bidirectional scorer.

    The forward cell's stacked gates are drawn first, then the backward
    cell's, each entry in [-1/sqrt(D+H), 1/sqrt(D+H)]; the readout's fan-in
    is the 2H concatenation.
    """
    check_int("seed", seed, 0)
    for name, dim in (("input_dim", input_dim), ("hidden_dim", hidden_dim)):
        check_int(name, dim, 1)
    rng = np.random.default_rng(seed)
    fan_in = input_dim + hidden_dim
    fwd = LstmParams(w=_uniform(rng, (4 * hidden_dim, fan_in), fan_in))
    bwd = LstmParams(w=_uniform(rng, (4 * hidden_dim, fan_in), fan_in))
    readout_w = _uniform(rng, 2 * hidden_dim, 2 * hidden_dim)
    readout_b = float(_uniform(rng, (), 2 * hidden_dim))
    return ImportanceScorer(forward=fwd, backward=bwd, readout_w=readout_w, readout_b=readout_b)
