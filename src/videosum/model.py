"""Numeric kernels: LSTM cell, bidirectional frame scorer, embedding subnetworks.

Everything here is a pure forward pass over plain float64 numpy arrays.
Feature streams are row-major matrices with one row per frame; parameters
live in small dataclasses so they can be copied, serialized and updated
in place by the training loop without any framework machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_EMBED_DIM",
    "DEFAULT_HIDDEN_DIM",
    "DEFAULT_DESC_DIM",
    "LstmParams",
    "LstmState",
    "Subnet",
    "ImportanceScorer",
    "sigmoid",
    "lstm_step",
    "lstm_scan",
    "zero_state",
    "score_importance",
    "ffn_forward",
    "embed_frames",
    "init_lstm",
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

    Each matrix has shape (hidden_dim, input_dim + hidden_dim) and acts on
    the concatenation [x_t ; h_prev].
    """

    w_i: np.ndarray
    w_f: np.ndarray
    w_o: np.ndarray
    w_c: np.ndarray

    @property
    def hidden_dim(self) -> int:
        return self.w_i.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_i.shape[1] - self.w_i.shape[0]


@dataclass
class LstmState:
    """Recurrent state: hidden output h and memory cell c, both length H."""

    h: np.ndarray
    c: np.ndarray


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
    states followed by a sigmoid yields one score per frame in (0, 1).
    """

    forward: LstmParams
    backward: LstmParams
    readout_w: np.ndarray
    readout_b: float


def _check_lstm_shapes(params: LstmParams) -> None:
    shape = params.w_i.shape
    for name in ("w_f", "w_o", "w_c"):
        if getattr(params, name).shape != shape:
            raise ValueError(
                f"LSTM gate matrix {name} has shape {getattr(params, name).shape}, "
                f"expected {shape}"
            )


def zero_state(params: LstmParams) -> LstmState:
    """All-zero initial state matching the cell's hidden width."""
    h = np.zeros(params.hidden_dim)
    return LstmState(h=h, c=h.copy())


def lstm_step(params: LstmParams, state: LstmState, x: np.ndarray) -> LstmState:
    """One bias-free LSTM step.

    i, f, o are sigmoids of the three gate products on [x ; h_prev];
    c_new = i * tanh(W_c [x ; h_prev]) + f * c_prev and h_new = o * tanh(c_new).
    """
    _check_lstm_shapes(params)
    x = np.asarray(x, dtype=float)
    h_dim = params.hidden_dim
    if x.shape != (params.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({params.input_dim},)")
    if state.h.shape != (h_dim,) or state.c.shape != (h_dim,):
        raise ValueError(
            f"state has shapes h={state.h.shape} c={state.c.shape}, expected ({h_dim},)"
        )

    xh = np.concatenate([x, state.h])
    i = sigmoid(params.w_i @ xh)
    f = sigmoid(params.w_f @ xh)
    o = sigmoid(params.w_o @ xh)
    c = i * np.tanh(params.w_c @ xh) + f * state.c
    h = o * np.tanh(c)
    return LstmState(h=h, c=c)


def lstm_scan(params: LstmParams, frames: np.ndarray) -> np.ndarray:
    """Fold lstm_step over the rows of `frames` from a zero state.

    Returns a (T, hidden_dim) matrix whose row t is h_t.  An empty input
    yields an empty (0, hidden_dim) output.
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 2:
        raise ValueError(f"frames must be 2-D, got shape {frames.shape}")
    if frames.shape[0] > 0 and frames.shape[1] != params.input_dim:
        raise ValueError(
            f"frames have {frames.shape[1]} columns, cell expects {params.input_dim}"
        )

    state = zero_state(params)
    hidden = np.empty((frames.shape[0], params.hidden_dim))
    for t in range(frames.shape[0]):
        state = lstm_step(params, state, frames[t])
        hidden[t] = state.h
    return hidden


def score_importance(scorer: ImportanceScorer, frames: np.ndarray) -> np.ndarray:
    """Per-frame importance scores in (0, 1).

    The forward cell scans the sequence as given; the backward cell scans the
    reversed sequence and its outputs are re-reversed so that both hidden
    states at index t describe frame t.  score_t = sigmoid(w . [h_f ; h_b] + b).
    """
    frames = np.asarray(frames, dtype=float)
    h_fwd = lstm_scan(scorer.forward, frames)
    h_bwd = lstm_scan(scorer.backward, frames[::-1])[::-1]
    both = np.hstack([h_fwd, h_bwd])
    if scorer.readout_w.shape != (both.shape[1],):
        raise ValueError(
            f"readout has shape {scorer.readout_w.shape}, expected ({both.shape[1]},)"
        )
    return sigmoid(both @ scorer.readout_w + scorer.readout_b)


def _forward(net: Subnet, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden and output activations (z1, z2) for one input row or a batch of rows."""
    z1 = np.tanh(x @ net.w1.T + net.b1)
    return z1, np.tanh(z1 @ net.w2.T + net.b2)


def ffn_forward(net: Subnet, x: np.ndarray) -> np.ndarray:
    """tanh(W2 tanh(W1 x + b1) + b2); every output component lies in (-1, 1)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (net.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({net.input_dim},)")
    return _forward(net, x)[1]


def embed_frames(net: Subnet, segment: np.ndarray) -> np.ndarray:
    """Embed a segment: mean over frames of the per-frame two-layer forward.

    The mean pooling makes the result invariant to frame order within the
    segment.  Raises on an empty segment.
    """
    segment = np.asarray(segment, dtype=float)
    if segment.ndim != 2:
        raise ValueError(f"segment must be 2-D, got shape {segment.shape}")
    if segment.shape[0] == 0:
        raise ValueError("cannot embed an empty segment")
    if segment.shape[1] != net.input_dim:
        raise ValueError(
            f"segment has {segment.shape[1]} columns, net expects {net.input_dim}"
        )
    return _forward(net, segment)[1].mean(axis=0)


def _check_dims(*dims: int) -> None:
    for d in dims:
        if d < 1:
            raise ValueError(f"dimensions must be positive, got {dims}")


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _lstm_cell(rng: np.random.Generator, input_dim: int, hidden_dim: int) -> LstmParams:
    """Draw the four gates from `rng` in the order i, f, o, c."""
    fan_in = input_dim + hidden_dim
    shape = (hidden_dim, fan_in)
    return LstmParams(
        w_i=_uniform(rng, shape, fan_in),
        w_f=_uniform(rng, shape, fan_in),
        w_o=_uniform(rng, shape, fan_in),
        w_c=_uniform(rng, shape, fan_in),
    )


def init_lstm(seed: int, input_dim: int, hidden_dim: int = DEFAULT_HIDDEN_DIM) -> LstmParams:
    """Seeded uniform init; each gate entry lies in [-1/sqrt(D+H), 1/sqrt(D+H)]."""
    _check_dims(input_dim, hidden_dim)
    return _lstm_cell(np.random.default_rng(seed), input_dim, hidden_dim)


def init_subnet(
    seed: int,
    input_dim: int,
    hidden_dim: int = DEFAULT_HIDDEN_DIM,
    embed_dim: int = DEFAULT_EMBED_DIM,
) -> Subnet:
    """Seeded uniform init with per-layer fan-in bounds, biases included."""
    _check_dims(input_dim, hidden_dim, embed_dim)
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
    """Seeded bidirectional scorer; readout fan-in is the 2H concatenation."""
    _check_dims(input_dim, hidden_dim)
    rng = np.random.default_rng(seed)
    fwd = _lstm_cell(rng, input_dim, hidden_dim)
    bwd = _lstm_cell(rng, input_dim, hidden_dim)
    readout_w = _uniform(rng, 2 * hidden_dim, 2 * hidden_dim)
    readout_b = float(_uniform(rng, (), 2 * hidden_dim))
    return ImportanceScorer(forward=fwd, backward=bwd, readout_w=readout_w, readout_b=readout_b)
