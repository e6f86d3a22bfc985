"""Numeric kernels: LSTM cell, bidirectional frame scorer, embedding subnetworks.

Everything here is a pure forward pass over plain float64 numpy arrays.
Feature streams are row-major matrices with one row per frame; parameters
live in small dataclasses so they can be copied, serialized and updated
in place by the training loop without any framework machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from ._checks import as_floats, check_finite, check_int, check_matrix, check_real, first_non_finite

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
        return 1.0 / (1.0 + np.exp(-as_floats("z", z)))


@dataclass
class LstmParams:
    """Gate weights of a single LSTM cell, bias-free.

    `w` stacks the four gate matrices in the row order i, f, o, c, so it has
    shape (4 * hidden_dim, input_dim + hidden_dim) and acts on [x_t ; h_prev].
    """

    w: np.ndarray

    def __post_init__(self):
        w = self.w = as_floats("w", self.w)
        if w.ndim != 2 or w.shape[0] % 4 or not 0 < w.shape[0] // 4 < w.shape[1]:
            raise ValueError(
                f"LSTM gate matrix has shape {w.shape}, expected (4H, D+H) with H, D >= 1"
            )
        check_finite("LSTM gate matrix has a non-finite weight", w)

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


def _checked_net(name: str, net: Subnet) -> Subnet:
    """`net` with each field as a float array; a ValueError starting with "<name> field"
    unless w1 is (H, D), b1 (H,), w2 (E, H) and b2 (E,) with H, D, E >= 1 and every entry
    is finite.  A non-finite entry is named by its row and column or its index.

    Subnet does not check itself: it also holds loss_gradients' gradients, which may
    overflow, and sgd_train's gradient buffers, whose description w1 holds one block of rows.
    """
    arrays = []
    for f, ndim in zip(fields(Subnet), (2, 1, 2, 1)):
        arr = as_floats(f"{name} field {f.name!r}", getattr(net, f.name))
        if arr.ndim != ndim:
            raise ValueError(f"{name} field {f.name!r} is {arr.ndim}-D, expected {ndim}-D")
        arrays.append(arr)
    net = Subnet(*arrays)
    hidden, embed = net.hidden_dim, net.embed_dim
    expected = ((hidden, net.input_dim), (hidden,), (embed, hidden), (embed,))
    for f, arr, shape in zip(fields(Subnet), arrays, expected):
        if arr.shape != shape:
            raise ValueError(f"{name} field {f.name!r} has shape {arr.shape}, expected {shape}")
    for f, arr in zip(fields(Subnet), arrays):
        if arr.size == 0:
            raise ValueError(f"{name} field {f.name!r} is empty, with shape {arr.shape}")
        check_finite(f"{name} field {f.name!r} holds a non-finite value", arr)
    return net


@dataclass
class ImportanceScorer:
    """Bidirectional LSTM frame scorer.

    Two LSTM cells run over the sequence in opposite directions; a linear
    readout over the concatenated hidden states followed by a sigmoid yields
    one score per frame in (0, 1).  The cells must take the same input width
    and may differ in hidden width.  The readout must have one finite weight
    per hidden unit of the two cells and a finite bias; a ValueError names the
    first bad weight's index.
    """

    forward: LstmParams
    backward: LstmParams
    readout_w: np.ndarray
    readout_b: float

    def __post_init__(self):
        if self.forward.input_dim != self.backward.input_dim:
            raise ValueError(f"forward cell takes {self.forward.input_dim} inputs, "
                             f"backward cell takes {self.backward.input_dim}")
        w = self.readout_w = as_floats("readout_w", self.readout_w)
        width = self.forward.hidden_dim + self.backward.hidden_dim
        if w.shape != (width,):
            raise ValueError(f"readout has shape {w.shape}, expected ({width},)")
        check_finite("readout has a non-finite weight", w)
        self.readout_b = check_real("readout_b", self.readout_b)


# Frames per chunk of a scan.  A scan multiplies each chunk as a full _CHUNK-row block into
# a (_CHUNK, 4H) buffer of projections, so a frame's projection does not depend on how many
# frames follow it, then runs its steps into a (_CHUNK, H) buffer of hidden states, which
# lstm_scan copies out and score_importance reads out: 1.25 MiB per direction at H = 256,
# whatever the number of frames.
_CHUNK = 128
# OpenBLAS (0.3.x) runs a GEMM of at most this many multiply-adds on the calling thread.
# A chunk's GEMM above it wakes a BLAS worker, which then spins beside the scan threads.
# For hidden widths in _TILED_HIDDEN and inputs of at most 128 columns, such a chunk is
# multiplied as a stack of _TILE_ROWS x _TILE_COLS tiles within the bound instead, with
# the same bytes.  The rule matters for speed only, and each edge was measured (2 vCPUs,
# SkylakeX kernels): below H = 192 a step's work is mostly outside BLAS and tiles gained
# little or nothing; from H = 352 on, OpenBLAS threads the (4H, H) recurrent product, so its
# worker wakes at every step anyway; a tile within the bound for a wider input would be
# smaller, and OpenBLAS sums such products in another order.
_ONE_THREAD_MACS = 2**18
_TILE_ROWS, _TILE_COLS = 32, 64
_TILED_HIDDEN = range(192, 352)


def _signed(w: np.ndarray) -> np.ndarray:
    """A copy of the (4H, cols) gate rows `w` with the i, f and o rows negated.

    A product with these rows is exactly the negated product with `w`, in whatever order
    BLAS sums it, so the step takes exp(-z) of the three sigmoid gates without a negation.
    """
    w = np.array(w)
    ifo = w[: 3 * (w.shape[0] // 4)]
    np.negative(ifo, out=ifo)
    return w


def _cell(w_h: np.ndarray, zc: np.ndarray):
    """The one step, unchecked and in place: step(zx, h, out) sets c <- i * tanh(z_c) + f * c,
    then out <- o * tanh(c).

    `w_h` holds the recurrent rows and `zx` the frame's input projection, both sign-folded
    by `_signed`; `zc` is a (5H,) buffer [z | c] whose last H entries hold the cell state.
    The step writes zx + w_h @ h, which is [-z_i | -z_f | -z_o | z_c], to its first 4H
    entries, then the sigmoids i, f, o = 1 / (1 + exp(-z)) over the first three gate
    blocks.  `h` is read only by the product, so `out` may be `h`.  The views are made
    here, once per cell.
    """
    h_dim = w_h.shape[1]
    z, ifo, z_c, c = zc[: 4 * h_dim], zc[: 3 * h_dim], zc[3 * h_dim : 4 * h_dim], zc[4 * h_dim :]
    i_f, o, t_c = zc[: 2 * h_dim], zc[2 * h_dim : 3 * h_dim], zc[3 * h_dim :]

    def step(zx: np.ndarray, h: np.ndarray, out: np.ndarray) -> None:
        np.matmul(w_h, h, out=z)
        np.add(z, zx, out=z)
        np.exp(ifo, out=ifo)
        np.add(ifo, 1.0, out=ifo)
        np.divide(1.0, ifo, out=ifo)
        np.tanh(z_c, out=z_c)
        np.multiply(t_c, i_f, out=t_c)  # [tanh(z_c) | c] * [i | f]
        np.add(c, z_c, out=c)
        np.tanh(c, out=out)
        np.multiply(out, o, out=out)

    return step


def _checked_frames(frames, cols: int, of: str) -> np.ndarray:
    """`frames` under `check_matrix` with `cols` columns, as `of` expects, even with no
    rows; a ValueError names the first frame that is not finite."""
    frames = check_matrix("frames", frames, cols=cols, of=of)
    return check_finite("frames contain a non-finite value", frames, by_row=True)


class _Scan:
    """One cell's scan over checked `frames` from a zero state, last frame first if
    `reverse`.

    Iterating it runs the scan and yields (s, rows) for each chunk of at most _CHUNK
    steps from step s: `project` computes the chunk's input projections, `recur` runs
    its steps, and `rows` holds their hidden states until the next chunk overwrites
    them.  Every buffer is allocated here, once per scan.
    """

    def __init__(self, params: LstmParams, frames: np.ndarray, reverse: bool):
        n, d = frames.shape
        gates = 4 * params.hidden_dim
        self.n, self.reverse = n, reverse
        self.src = frames[::-1] if reverse else frames
        w_x = _signed(params.w[:, :d])
        self.step = _cell(_signed(params.w[:, d:]), np.zeros(5 * params.hidden_dim))
        self.chunk = np.zeros((_CHUNK, d))
        self.zx = np.empty((_CHUNK, gates))
        self.hidden = np.empty((min(_CHUNK, n), params.hidden_dim))
        self.h = np.zeros(params.hidden_dim)  # then the last hidden row of the last chunk
        tiled = (_CHUNK * gates * d > _ONE_THREAD_MACS >= _TILE_ROWS * _TILE_COLS * d
                 and gates % _TILE_COLS == 0 and params.hidden_dim in _TILED_HIDDEN)
        # Views of the chunk, the weights and zx as stacks of (m, d) @ (d, cols) products.
        m, cols = (_TILE_ROWS, _TILE_COLS) if tiled else (_CHUNK, gates)
        self.tile_rows = m
        self.chunk_tiles = self.chunk.reshape(_CHUNK // m, 1, m, d)
        self.w_tiles = w_x.reshape(gates // cols, cols, d).transpose(0, 2, 1)
        self.zx_tiles = self.zx.reshape(-1, m, gates // cols, cols).transpose(0, 2, 1, 3)

    def __iter__(self):
        for s in range(0, self.n, _CHUNK):
            e = min(s + _CHUNK, self.n)
            self.project(s, e)
            rows = self.hidden[: e - s]
            self.recur(s, rows)
            yield s, rows

    def project(self, s: int, e: int) -> None:
        """One stacked matmul of the full _CHUNK-row chunk of steps s..e-1; rows past e are
        stale."""
        self.chunk[: e - s] = self.src[s:e]
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(self.chunk_tiles, self.w_tiles, out=self.zx_tiles)

    def recur(self, s: int, out: np.ndarray) -> None:
        """Steps s..s+len(out)-1; a hidden state that is not finite raises a ValueError
        naming its frame in input order."""
        step, h = self.step, self.h
        # A step that overflows leaves NaN behind it; the chunk's rows are checked once.
        # np.errstate is per thread, so it is opened in the thread that runs the steps.
        # Each step writes its hidden state straight into its row, the next step's h.
        with np.errstate(over="ignore", invalid="ignore"):
            for zx, row in zip(self.zx, out):
                step(zx, h, row)
                h = row
        self.h = h
        at = first_non_finite(out)
        if at is not None:
            t = s + at[0]
            first = self.n - 1 - t if self.reverse else t
            raise ValueError(f"LSTM hidden state is not finite from frame {first}: the cell overflowed")


def lstm_scan(params: LstmParams, frames: np.ndarray) -> np.ndarray:
    """Run the cell over the rows of `frames` from a zero state.

    Returns a (T, hidden_dim) matrix whose row t is h_t.  An empty input
    yields an empty (0, hidden_dim) output.  Each chunk of frames is projected
    by one GEMM, then each step does one (4H, H) matvec on the hidden state;
    each chunk of hidden states is copied into the result, so beside the result
    the scan holds one chunk's (128, 4H) projections and (128, H) hidden states,
    whatever the number of frames.  A non-finite frame
    or weight, or a hidden state that overflows, raises a ValueError; a frame
    is named by its index.  The weights are checked as
    `dataclasses.replace(params)`, since they may have been reassigned after
    construction; `params` itself is not written to.
    """
    params = replace(params)
    frames = _checked_frames(frames, params.input_dim, "cell")
    hidden = np.empty((frames.shape[0], params.hidden_dim))
    for s, rows in _Scan(params, frames, reverse=False):
        hidden[s : s + len(rows)] = rows
    return hidden


def score_importance(scorer: ImportanceScorer, frames: np.ndarray) -> np.ndarray:
    """Per-frame importance scores in (0, 1).

    The forward cell scans the sequence as given; the backward cell scans it
    last frame first, so that both hidden states at index t describe frame t.
    score_t = sigmoid(w . [h_f ; h_b] + b).

    The scorer, its two cells and the frames are checked first, as lstm_scan checks
    them: each record as a `dataclasses.replace` copy, so the caller's is not
    written to.  The
    two scans then run side by side and never wait for each other: the calling
    thread runs the forward scan while one worker thread runs the backward scan,
    each reading every chunk out with its half of the readout, so no (T, H)
    hidden matrix is kept: each direction holds one chunk's buffers, as in
    lstm_scan.  The worker is joined before the call returns.  When both cells
    overflow, the forward cell's error is raised, after the backward scan has
    ended.
    """
    # Imported here, not with the module: concurrent.futures imports logging, which
    # added 0.7 MB of resident memory to every process that imports videosum (CPython 3.11).
    from concurrent.futures import ThreadPoolExecutor

    scorer = replace(scorer, forward=replace(scorer.forward), backward=replace(scorer.backward))
    frames = _checked_frames(frames, scorer.forward.input_dim, "cell")
    h_dim = scorer.forward.hidden_dim
    halves = (scorer.readout_w[:h_dim], scorer.readout_w[h_dim:])
    scans = [_Scan(cell, frames, reverse)
             for cell, reverse in ((scorer.forward, False), (scorer.backward, True))]
    act = np.empty((2, frames.shape[0]))  # each direction's readout, in its own scan order

    def run(k: int) -> None:
        for s, rows in scans[k]:
            np.matmul(rows, halves[k], out=act[k, s : s + len(rows)])

    with ThreadPoolExecutor(max_workers=1) as worker:
        backward = worker.submit(run, 1)
        run(0)  # an error here leaves the with block, which joins the worker: it wins
        backward.result()
    return sigmoid(act[0] + act[1, ::-1] + scorer.readout_b)


def _forward(net: Subnet, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden and output activations (z1, z2), one row per input row of x.

    The second product is taken weights first, (w2 @ z1.T).T: in OpenBLAS 0.3.31 its bytes
    did not depend on the thread count at the train bench's widths, where those of
    z1 @ w2.T did.  Its bias is added into a row-major result, the layout callers reduce
    over.
    """
    z1 = np.tanh(x @ net.w1.T + net.b1)
    z2 = np.add((net.w2 @ z1.T).T, net.b2, order="C")
    return z1, np.tanh(z2, out=z2)


def embed_frames(net: Subnet, rows: np.ndarray) -> np.ndarray:
    """Mean over the rows of tanh(W2 tanh(W1 x + b1) + b2); each component lies in (-1, 1).

    A segment's rows are its frames; a description vector `v` is embedded as the
    one-row segment `v[None, :]`.  Row order does not matter; no rows or a non-finite one raise,
    as does a net that `_checked_net` rejects.
    """
    net = _checked_net("net", net)
    rows = check_matrix("rows", rows, rows=1, cols=net.input_dim, of="net")
    check_finite("segment has a non-finite value", rows, by_row=True)
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
