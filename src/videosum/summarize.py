"""Segment extraction, k-medoids summary selection, and semantic fast-forward.

The summary side clusters per-segment embedding vectors with PAM (build then
swap) under squared Euclidean distance and emits the medoid segments in
temporal order.  The fast-forward side scores frames from detected regions
of interest, splits the timeline into semantic and non-semantic parts by an
outlier-robust threshold, solves for the per-part speed-up rates, and picks
the retained frames by a shortest path over a skip-bounded frame graph.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ._checks import (NOT_A_RECORD, check_finite, check_int, check_matrix, check_real,
                      check_vector, first_non_finite)
from .model import Subnet, _checked_frames, _checked_net, _forward

__all__ = [
    "Segment",
    "SegmentFeature",
    "Roi",
    "uniform_segments",
    "segment_features",
    "clustering_cost",
    "kmedoids",
    "pam_iterations",
    "generate_summary",
    "semantic_score",
    "semantic_threshold_split",
    "segment_speedups",
    "speedup_frame_selection",
]

_MAX_SWAPS = 100  # PAM swap rounds before pam_iterations stops
# Frame rows per forward pass of segment_features, so its activations do not grow with
# the video; a longer segment is embedded in a pass of its own.
_BLOCK_ROWS = 128


@dataclass(frozen=True)
class Segment:
    """Contiguous frame block [start, end), end exclusive; index and bounds are
    non-negative integers."""

    index: int
    start: int
    end: int

    def __post_init__(self):
        # The fields hold the checked Python ints, as Roi's hold its checked numbers.
        object.__setattr__(self, "index", check_int("segment index", self.index, 0))
        start, end = _bounds(self)
        if start >= end:
            raise ValueError(f"segment {self.index}: start {start} >= end {end}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)


def _bounds(seg) -> tuple[int, int]:
    """(start, end) of a segment record, each through `check_int` as a non-negative integer."""
    return tuple(check_int(f"segment {seg.index}: {name}", getattr(seg, name), 0)
                 for name in ("start", "end"))


@dataclass
class SegmentFeature:
    """A segment together with its point in the shared embedding space."""

    segment: Segment
    feature: np.ndarray


@dataclass(frozen=True)
class Roi:
    """Detected region of interest: confidence, pixel center, pixel area."""

    confidence: float
    center: tuple[float, float]
    area: float

    def __post_init__(self):
        try:
            x, y = None if isinstance(self.center, NOT_A_RECORD) else self.center
        except (TypeError, ValueError):
            raise ValueError(f"center must be a pair (x, y), got {self.center!r}") from None
        # The fields hold the checked Python numbers, so NumPy scalars score like them.
        object.__setattr__(self, "confidence", check_real("confidence", self.confidence, 0, 1))
        object.__setattr__(self, "center", (check_real("center x", x), check_real("center y", y)))
        object.__setattr__(self, "area", check_real("area", self.area, 0))


def uniform_segments(n_frames: int, seg_len: int) -> list[Segment]:
    """Consecutive disjoint segments of exactly seg_len frames starting at 0.

    A trailing remainder shorter than seg_len is dropped, so the output
    covers exactly floor(n_frames / seg_len) * seg_len frames.
    """
    seg_len = check_int("seg_len", seg_len, 1)
    n_frames = check_int("n_frames", n_frames, 0)
    return [
        Segment(index=i, start=i * seg_len, end=(i + 1) * seg_len)
        for i in range(n_frames // seg_len)
    ]


def segment_features(
    net: Subnet, frames: np.ndarray, segments: Sequence[Segment]
) -> list[SegmentFeature]:
    """Embed each segment's frame rows as `embed_frames` does; output ordered by segment index.

    Segments may overlap, leave gaps or come in any order, and may be any records with an
    index and integer bounds; every frame must be finite and, even with no segments, the
    frames as wide as the net's input.  The rows of whole segments are embedded in one
    forward pass of at most _BLOCK_ROWS rows, so a feature may differ from `embed_frames`
    on the segment alone in the last bits.  The net goes through `_checked_net`.
    """
    net = _checked_net("net", net)
    frames = _checked_frames(frames, net.input_dim, "net")
    n = frames.shape[0]
    for seg in segments:
        start, end = _bounds(seg)
        if end > n:
            raise ValueError(f"segment {seg.index} range [{start}, {end}) outside 0..{n} frames")
        if start >= end:
            raise ValueError(f"segment {seg.index} range [{start}, {end}) is empty")
    out: list[SegmentFeature] = []
    for block in _blocks(sorted(segments, key=lambda s: s.index)):
        z2 = _forward(net, np.concatenate([frames[s.start : s.end] for s in block]))[1]
        row = 0
        for seg in block:
            stop = row + seg.end - seg.start
            out.append(SegmentFeature(segment=seg, feature=z2[row:stop].mean(axis=0)))
            row = stop
    return out


def _blocks(segments: Sequence[Segment]) -> Iterator[list[Segment]]:
    """Consecutive runs of `segments` of at most _BLOCK_ROWS rows in all, or one segment."""
    block: list[Segment] = []
    rows = 0
    for seg in segments:
        if block and rows + seg.end - seg.start > _BLOCK_ROWS:
            yield block
            block, rows = [], 0
        block.append(seg)
        rows += seg.end - seg.start
    if block:
        yield block


def _as_points(points: Sequence[np.ndarray]) -> np.ndarray:
    arr = check_matrix("points", points)
    at = first_non_finite(arr)
    if at is not None:
        raise ValueError(f"point {at[0]} has a non-finite coordinate at column {at[1]}")
    return arr


def _total(nearest: np.ndarray) -> float:
    """The clustering cost sum(nearest); a ValueError if it overflows float64."""
    with np.errstate(over="ignore"):
        cost = float(nearest.sum())
    if cost == math.inf:
        raise ValueError("the clustering cost overflows float64")
    return cost


def clustering_cost(points: Sequence[np.ndarray], medoids: Iterable[int]) -> float:
    """Sum over points of the squared distance to the nearest medoid point; a ValueError if
    a distance or the sum overflows float64."""
    arr = _as_points(points)
    try:
        medoids = list(medoids)
    except TypeError:
        raise ValueError(f"medoids must be an iterable of point indices, got {medoids!r}") from None
    idx = sorted({check_int("medoid index", m, 0) for m in medoids})
    if not idx:
        raise ValueError("medoid set must be non-empty")
    for m in idx:
        if not 0 <= m < arr.shape[0]:
            raise ValueError(f"medoid index {m} out of range for {arr.shape[0]} points")
    rows = np.empty((len(idx), arr.shape[0]))
    for m, row in zip(idx, rows):
        _sq_dists_to(arr[m], arr, row)
    return _total(rows.min(axis=0))


# Entries of the scratch block of `_sq_dists_to` (256 KiB): it stays in cache, and a row
# allocates no scratch the size of all the points.
_SCRATCH = 1 << 15


def _sq_dists_to(p: np.ndarray, targets: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The one per-pair rule: out[j] = ((p - targets[j]) ** 2).sum(), numpy's pairwise sum
    over D, the same floats as an n x m x D broadcast.  Targets go through one scratch block
    of at most _SCRATCH entries (at least one target), which changes no float.  Raises when a
    distance overflows float64."""
    m, dim = targets.shape
    out = np.empty(m) if out is None else out
    step = max(1, _SCRATCH // max(dim, 1))
    buf = np.empty((min(m, step), dim))
    with np.errstate(over="ignore"):
        for start in range(0, m, step):
            block = targets[start : start + step]
            scratch = buf[: block.shape[0]]
            np.subtract(p, block, out=scratch)
            np.square(scratch, out=scratch)
            np.sum(scratch, axis=1, out=out[start : start + step])
    if not np.isfinite(out).all():
        raise ValueError("squared distances between points overflow float64")
    return out


# Every non-zero squared norm in this range keeps the Gram bound's rounding and underflow
# inside its margin, and nothing in it or in the exact distances overflows.
_GRAM_RANGE = (1e-150, 1e150)
_EPS = float(np.finfo(float).eps)


def _gram_lower_bounds(arr: np.ndarray) -> np.ndarray | None:
    """lo[i, j] <= the exact float squared distance between points i and j, or None when a
    point other than the origin has a squared norm outside _GRAM_RANGE, 0 included.

    lo = max(0, sq_i + sq_j - 2 * (arr @ arr.T)[i, j] - e * (sq_i + sq_j)), 0 on the diagonal,
    with sq the squared row norms and e = 8 * (D + 4) * eps.  The norms, the Gram entry and
    the exact distance are each within about D * eps * (sq_i + sq_j) of their real values
    (|x.y| <= (sq_i + sq_j) / 2), so e is about four times what rounding can move lo above
    the exact distance, and within the range underflow adds less than 1e-300.  Whatever
    the BLAS and its threads, only how tight lo is depends on them.
    """
    dim = arr.shape[1]
    sq = np.einsum("ij,ij->i", arr, arr)
    low, high = _GRAM_RANGE
    zero = sq == 0
    if not (zero | ((sq >= low) & (sq <= high))).all() or arr[zero].any():
        return None
    lo = arr @ arr.T
    lo *= -2.0
    sq *= 1.0 - 8 * (dim + 4) * _EPS
    lo += sq[:, None]
    lo += sq
    np.maximum(lo, 0.0, out=lo)
    np.fill_diagonal(lo, 0.0)
    return lo


def _least(
    bound: np.ndarray, keys: Callable[[np.ndarray], Iterable[tuple]], best: tuple, most: int
) -> tuple:
    """The least of `best` and the key of every index whose bound is not NaN, where the key
    of i is at least (bound[i], ...) and `keys(idx)` yields the keys of an index array.

    Keys are read in ascending bound order, in blocks of 1, 2, 4, ... indices up to
    `most`, while bound <= best[0], so every key skipped is above the result, ties included.
    """
    bound = np.where(bound == np.inf, -np.inf, bound)  # an overflowing bound bounds nothing
    at = np.flatnonzero(bound <= best[0])
    order = at[np.argsort(bound[at], kind="stable")]
    start, size = 0, 1
    while start < order.size:
        block = order[start : start + size]
        block = block[bound[block] <= best[0]]
        if not block.size:
            break
        best = min(best, *keys(block))
        start, size = start + size, min(2 * size, most)
    return best


def pam_iterations(points: Sequence[np.ndarray], k: int) -> Iterator[tuple[list[int], float]]:
    """An iterator of (medoids, cost) after the build phase and after every swap.

    Build greedily adds the point whose inclusion minimizes the cost; swap
    repeatedly performs the best strictly-improving medoid/non-medoid
    exchange, at most _MAX_SWAPS times.  All ties break toward the lowest point
    index, so the sequence is fully deterministic and the cost never increases.
    The arguments are checked when it is called, before any iteration; a distance
    or a build cost that overflows float64 raises a ValueError before the first
    yield.
    """
    arr = _as_points(points)
    n = arr.shape[0]
    k = check_int("k", k, 1)
    if k > n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    return _pam(arr, k)


def _pam(arr: np.ndarray, k: int) -> Iterator[tuple[list[int], float]]:
    """The body of `pam_iterations` on checked points and k.

    Every choice reads exact sums over exact rows of the squared-distance matrix d2, each
    row computed by `_sq_dists_to` when first needed and kept; row c equals column c,
    since (a-b)**2 == (b-a)**2.  The Gram bound `lo <= d2` only decides which sums are
    needed.  A bound adds non-negative terms, each at most the exact sum's term; in any
    order, it and the exact sum are together within (n + 2) * eps of their real values, so
    a bound times `shrink` is at most the exact sum it bounds.
    """
    n = arr.shape[0]
    exact: list[np.ndarray | None] = [None] * n

    def row(c: int, out: np.ndarray | None = None) -> np.ndarray:
        if exact[c] is None:
            exact[c] = _sq_dists_to(arr[c], arr, out)
        return exact[c]

    lo = _gram_lower_bounds(arr)
    if lo is None:  # every row exact, so an overflow raises before the first yield
        lo = np.empty((n, n))
        for c in range(n):
            row(c, lo[c])
    shrink = 1.0 - 4 * (n + 8) * _EPS
    nn = np.empty((n, n))
    bound = np.empty(n)

    def row_sums(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Each row's sum, in the same pairwise tree as a 1-D sum; inf if it overflows."""
        with np.errstate(over="ignore"):
            return np.sum(rows, axis=1, out=out)

    def exact_sums(cs: list[int], vs: Iterable[np.ndarray]) -> list[float]:
        """sum(min(d2[c], v)) for each pair, in rows of nn, which the bounds no longer use."""
        trial = nn[: len(cs)]
        for t, c, v in zip(trial, cs, vs):
            np.minimum(row(c), v, out=t)
        return row_sums(trial).tolist()

    def added(idx: np.ndarray) -> Iterable[tuple]:
        cs = idx.tolist()
        return zip(exact_sums(cs, itertools.repeat(nearest)), cs)

    def swapped(idx: np.ndarray) -> Iterable[tuple]:
        cs, js = (x.tolist() for x in np.divmod(idx, k))
        sums = exact_sums(cs, (rest[j] for j in js))
        return zip(sums, zip((medoids[j] for j in js), cs))

    # Build: nearest[i] = distance from i to its closest chosen medoid.  The least
    # (sum, index) over the non-medoids, starting from (inf, n), is the first argmin of
    # their sums, and the lowest non-medoid when every sum overflows.
    medoids: list[int] = []
    nearest = np.full(n, np.inf)
    for _ in range(k):
        row_sums(np.minimum(nearest, lo, out=nn), out=bound)
        bound *= shrink
        bound[medoids] = np.nan
        _, best = _least(bound, added, (np.inf, n), n)
        medoids.append(best)
        np.minimum(nearest, row(best), out=nearest)
    medoids.sort()
    cost = _total(nearest)
    yield list(medoids), cost

    # Swap: the best strict improvement; among equal costs the least (medoid, candidate).
    # rest[j] is each point's distance to its nearest medoid other than medoids[j], exact
    # from the nearest and second-nearest (min does not round).  A swap of medoid j for c
    # costs sum(min(d2[c], rest[j])); pairs[c, j] bounds it by the same sum over lo[c],
    # which is sum(min(nearest, lo[c])) plus, over j's cluster,
    # min(second, lo[c]) - min(nearest, lo[c]) = min(max(lo[c], nearest), second) - nearest.
    which = np.zeros((n, k))
    for _ in range(_MAX_SWAPS):
        rows = np.stack([row(m) for m in medoids])
        first = np.argmin(rows, axis=0)
        nearest = rows.min(axis=0)
        second = np.partition(rows, 1, axis=0)[1] if k > 1 else np.full(n, np.inf)
        rest = np.where(first == np.arange(k)[:, None], second, nearest)
        row_sums(np.minimum(nearest, lo, out=nn), out=bound)
        np.maximum(lo, nearest, out=nn)
        np.minimum(nn, second, out=nn)
        nn -= nearest
        which[:] = 0.0
        which[np.arange(n), first] = 1.0
        with np.errstate(over="ignore"):
            pairs = nn @ which
            pairs += bound[:, None]
        pairs *= shrink
        pairs[medoids] = np.nan
        # Starting from (cost, (-1, -1)) keeps only swaps that cost strictly less.
        cost, (out, inn) = _least(pairs.reshape(-1), swapped, (cost, (-1, -1)), n)
        if out < 0:
            return
        medoids = sorted([x for x in medoids if x != out] + [inn])
        yield list(medoids), cost


def kmedoids(points: Sequence[np.ndarray], k: int) -> list[int]:
    """PAM medoid indices (ascending); medoids are always input points."""
    result: list[int] = []
    for medoids, _ in pam_iterations(points, k):
        result = medoids
    return result


def generate_summary(segfeats: Sequence[SegmentFeature], k: int) -> list[Segment]:
    """Select k medoid segments and return them sorted by start frame."""
    if not segfeats:
        raise ValueError(f"there is no segment to choose k={k} from")
    feats = [sf.feature for sf in segfeats]
    chosen = kmedoids(feats, k)
    return sorted((segfeats[i].segment for i in chosen), key=lambda s: s.start)


# typed, so an int frame keeps its int area, and each ROI area divides it as it always has.
@functools.lru_cache(maxsize=64, typed=True)
def _frame(frame_w: float, frame_h: float, sigma: float | None) -> tuple:
    """(cx, cy, spread, area) of a checked frame size and sigma (None: a quarter of the
    diagonal), computed once per frame size and sigma; a ValueError unless the spread
    2 * sigma**2 and the area frame_w * frame_h are positive float64 values."""
    if sigma is None:
        with np.errstate(over="ignore"):  # an infinite diagonal fails the spread rule
            sigma = 0.25 * float(np.hypot(frame_w, frame_h))
    try:
        spread = 2.0 * sigma**2
    except OverflowError:  # a float, or an int times 2.0, beyond float64
        spread = math.inf
    if not 0 < spread < math.inf:
        raise ValueError(
            f"sigma={sigma} for a {frame_w} x {frame_h} frame is out of range: "
            "2 * sigma**2 is not a positive float64"
        )
    area = frame_w * frame_h
    if not 0 < area <= sys.float_info.max:  # Python compares an int with a float exactly
        fault = "underflows to 0" if area == 0 else "overflows float64"
        raise ValueError(f"frame size {frame_w} x {frame_h} with sigma={sigma} is out of "
                         f"range: frame_w * frame_h {fault}")
    return frame_w / 2.0, frame_h / 2.0, spread, area


def semantic_score(
    rois: Sequence[Roi],
    frame_w: float,
    frame_h: float,
    sigma: float | None = None,
) -> float:
    """Per-frame semantic score: sum over ROIs of confidence * centrality * size.

    Centrality is a Gaussian of the distance from the ROI center to the frame
    center; size is the ROI area as a fraction of the frame, clamped to [0, 1].
    When sigma is omitted it defaults to a quarter of the frame diagonal.  The
    spread 2 * sigma**2 and the frame area frame_w * frame_h must each be a
    positive float64, neither underflowing to 0 nor beyond float64, for ints
    and floats alike; these frame terms are computed once per frame size and
    sigma.
    """
    frame_w = check_real("frame_w", frame_w, positive=True)
    frame_h = check_real("frame_h", frame_h, positive=True)
    if sigma is not None:
        sigma = check_real("sigma", sigma, positive=True)
    cx, cy, spread, frame_area = _frame(frame_w, frame_h, sigma)
    total = 0.0
    try:
        for roi in rois:
            x, y = roi.center
            dist2 = (x - cx) ** 2 + (y - cy) ** 2
            centrality = float(np.exp(-dist2 / spread))
            size = min(max(roi.area / frame_area, 0.0), 1.0)
            total += roi.confidence * centrality * size
    except OverflowError:
        raise ValueError(
            f"ROI center {roi.center} is too far from the frame center ({cx}, {cy}): "
            "its squared distance overflows float64"
        ) from None
    return total


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous True runs of a boolean vector as [start, end) pairs."""
    edges = np.flatnonzero(np.diff(np.concatenate([[False], mask, [False]]))).tolist()
    return list(zip(edges[::2], edges[1::2]))


def semantic_threshold_split(
    scores: np.ndarray,
) -> tuple[float, list[tuple[int, int]], list[tuple[int, int]]]:
    """Split frames into semantic and non-semantic ranges.

    Outliers (more than two population standard deviations from the mean)
    are removed first; the threshold is the midpoint between the smallest
    and largest remaining score.  Inlier frames scoring at or above the
    threshold are semantic, everything else (outliers included) is not.
    The two range lists partition [0, T).  `scores` must be a 1-D vector.
    """
    scores = check_vector("scores", scores)
    if scores.size == 0:
        raise ValueError("scores must contain at least one frame")
    check_finite("scores contain a non-finite value", scores, by_row=True)
    # Partial sums of finite scores can overflow to +inf and -inf, whose sum is NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        mu = scores.mean()
        sd = scores.std()
    if not (np.isfinite(mu) and np.isfinite(sd)):
        raise ValueError(f"the mean and std of the scores overflow float64: {mu}, {sd}")
    inlier = np.abs(scores - mu) <= 2.0 * sd
    # Exactly, at least three quarters of the scores lie within two deviations.  None
    # does only when the squared deviations underflow (equal scores near 1e-192 give
    # sd == 0 and a mean one ulp off); then no score is an outlier.
    if not inlier.any():
        inlier[:] = True
    lo, hi = scores[inlier].min(), scores[inlier].max()
    with np.errstate(over="ignore"):
        threshold = float((lo + hi) / 2.0)
    if not math.isfinite(threshold):
        raise ValueError(f"the midpoint of the scores {lo} and {hi} overflows float64")
    semantic = inlier & (scores >= threshold)
    return threshold, _runs(semantic), _runs(~semantic)


def segment_speedups(len_s: float, len_ns: float, target: float, rho_s: float) -> float:
    """Solve for the non-semantic speed-up that achieves the overall target.

    The output length budget (len_s + len_ns) / target is split between the
    two parts: len_s / rho_s + len_ns / rho_ns must hit the budget exactly.
    """
    len_s = check_real("len_s", len_s, 0)
    len_ns = check_real("len_ns", len_ns, 0)
    target = check_real("target speed-up", target, 1)
    rho_s = check_real("semantic speed-up rho_s", rho_s, 1, target)
    total = len_s + len_ns
    if not total <= sys.float_info.max:  # Python compares an int with a float exactly
        raise ValueError(f"len_s + len_ns overflows float64: {len_s} + {len_ns}")
    budget = total / target - len_s / rho_s
    if budget <= 0:
        raise ValueError(
            "infeasible: the semantic part alone exceeds the output budget "
            f"(len_s/rho_s = {len_s / rho_s:.6g} >= (len_s+len_ns)/target = "
            f"{total / target:.6g})"
        )
    return len_ns / budget


def speedup_frame_selection(
    scores: np.ndarray,
    rho: float,
    max_skip: int,
    lambda_speed: float = 1.0,
    lambda_sem: float = 1.0,
) -> list[int]:
    """Retained frame indices from a shortest path over the frame graph.

    Edges connect frame i to frame j for 1 <= j - i <= max_skip with cost
    lambda_speed * ((j - i) - rho)^2 + lambda_sem * (max_score - score_j).
    Forward dynamic programming from frame 0 to frame T-1; among equal-cost
    predecessors the smallest index wins.  Both endpoints are always kept.
    `scores` must be a 1-D vector and both weights non-negative.  With lambda_sem == 0
    the node term is 0.0 whatever the scores; otherwise a score range beyond float64 raises.
    """
    scores = check_vector("scores", scores)
    t = scores.size
    if t < 2:
        raise ValueError("need at least 2 frames")
    max_skip = check_int("max_skip", max_skip, 1)
    check_finite("scores contain a non-finite value", scores, by_row=True)
    rho = check_real("rho", rho, 1)
    lambda_speed = check_real("lambda_speed", lambda_speed, 0)
    lambda_sem = check_real("lambda_sem", lambda_sem, 0)

    # speed[skip] is the speed term of every edge that advances `skip` frames.  A float
    # square that overflows raises OverflowError, and then every edge's term overflows.
    overflow = f"edge costs overflow float64 with rho={rho}, lambda_speed={lambda_speed}"
    try:
        speed = [lambda_speed * (skip - rho) ** 2 for skip in range(min(max_skip, t - 1) + 1)]
    except OverflowError:
        raise ValueError(overflow) from None
    # The path runs on Python floats: the same IEEE additions and comparisons as on
    # float64 scalars, at a fraction of the cost per edge.  Each frame's node term is
    # computed once; with lambda_sem == 0 it is 0.0 whatever the scores.
    scores = scores.tolist()
    if lambda_sem == 0:
        node = [0.0] * t
    else:
        s_min, s_max = min(scores), max(scores)
        if s_max - s_min == math.inf:
            raise ValueError(f"the score range [{s_min}, {s_max}] overflows float64 "
                             f"with lambda_sem={lambda_sem}")
        node = [lambda_sem * (s_max - s) for s in scores]
    dist = [math.inf] * t
    dist[0] = 0.0
    prev = [-1] * t
    for j in range(1, t):
        # An overflowing path cost is inf, never a predecessor; the strict < keeps the
        # smallest index among equal costs.
        best, arg, node_j = math.inf, -1, node[j]
        for i in range(max(0, j - max_skip), j):
            cand = dist[i] + speed[j - i] + node_j
            if cand < best:
                best, arg = cand, i
        dist[j], prev[j] = best, arg

    path = [t - 1]
    while path[-1] != 0:
        if prev[path[-1]] < 0:
            raise ValueError(
                f"no finite-cost path reaches frame {path[-1]}: "
                f"{overflow}, lambda_sem={lambda_sem}"
            )
        path.append(prev[path[-1]])
    path.reverse()
    return path
