"""Segment extraction, k-medoids summary selection, and semantic fast-forward.

The summary side clusters per-segment embedding vectors with PAM (build then
swap) under squared Euclidean distance and emits the medoid segments in
temporal order.  The fast-forward side scores frames from detected regions
of interest, splits the timeline into semantic and non-semantic parts by an
outlier-robust threshold, solves for the per-part speed-up rates, and picks
the retained frames by a shortest path over a skip-bounded frame graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import Subnet, embed_frames

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


@dataclass(frozen=True)
class Segment:
    """Contiguous frame block [start, end), end exclusive."""

    index: int
    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"segment {self.index}: start {self.start} >= end {self.end}")


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
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence}")
        if self.area < 0:
            raise ValueError(f"area must be non-negative, got {self.area}")


def uniform_segments(n_frames: int, seg_len: int) -> list[Segment]:
    """Consecutive disjoint segments of exactly seg_len frames starting at 0.

    A trailing remainder shorter than seg_len is dropped, so the output
    covers exactly floor(n_frames / seg_len) * seg_len frames.
    """
    if seg_len < 1:
        raise ValueError("seg_len must be at least 1")
    if n_frames < 0:
        raise ValueError("n_frames must be non-negative")
    return [
        Segment(index=i, start=i * seg_len, end=(i + 1) * seg_len)
        for i in range(n_frames // seg_len)
    ]


def segment_features(
    net: Subnet, frames: np.ndarray, segments: Sequence[Segment]
) -> list[SegmentFeature]:
    """Embed each segment's frame rows; output ordered by segment index."""
    frames = np.asarray(frames, dtype=float)
    n = frames.shape[0]
    for seg in segments:
        if seg.start < 0 or seg.end > n:
            raise ValueError(
                f"segment {seg.index} range [{seg.start}, {seg.end}) outside "
                f"0..{n} frames"
            )
    ordered = sorted(segments, key=lambda s: s.index)
    return [
        SegmentFeature(segment=seg, feature=embed_frames(net, frames[seg.start : seg.end]))
        for seg in ordered
    ]


def _as_points(points: Sequence[np.ndarray]) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"points must form a 2-D array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        point, col = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"point {point} has a non-finite coordinate at column {col}")
    return arr


def clustering_cost(points: Sequence[np.ndarray], medoids: Iterable[int]) -> float:
    """Sum over points of the squared distance to the nearest medoid point."""
    arr = _as_points(points)
    idx = sorted(set(int(m) for m in medoids))
    if not idx:
        raise ValueError("medoid set must be non-empty")
    for m in idx:
        if not 0 <= m < arr.shape[0]:
            raise ValueError(f"medoid index {m} out of range for {arr.shape[0]} points")
    d2 = ((arr[:, None, :] - arr[None, idx, :]) ** 2).sum(axis=2)
    return float(d2.min(axis=1).sum())


def pam_iterations(
    points: Sequence[np.ndarray], k: int, max_iters: int = 100
) -> Iterator[tuple[list[int], float]]:
    """Yield (medoids, cost) after the build phase and after every swap.

    Build greedily adds the point whose inclusion minimizes the cost; swap
    repeatedly performs the best strictly-improving medoid/non-medoid
    exchange.  All ties break toward the lowest point index, so the sequence
    is fully deterministic and the cost never increases.
    """
    arr = _as_points(points)
    n = arr.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in 1..{n}, got {k}")
    if max_iters < 0:
        raise ValueError("max_iters must be non-negative")

    with np.errstate(over="ignore"):
        d2 = ((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=2)
    if not np.isfinite(d2).all():
        raise ValueError("squared distances between points overflow float64")

    # (a-b)**2 == (b-a)**2 exactly, so d2 is symmetric and row c of np.minimum(v, d2)
    # sums to the same float as column c: one row-sum per candidate scores them all.

    # Build: nearest[i] = distance from i to its closest chosen medoid.
    medoids: list[int] = []
    nearest = np.full(n, np.inf)
    for _ in range(k):
        costs = np.minimum(nearest, d2).sum(axis=1)
        costs[medoids] = np.inf
        best = int(np.argmin(costs))
        medoids.append(best)
        nearest = np.minimum(nearest, d2[best])
    medoids.sort()
    cost = float(nearest.sum())
    yield list(medoids), cost

    # Swap: scan in ascending (medoid, candidate) order, keep the best strict
    # improvement; first encountered wins among equals (argmin takes the first).
    for _ in range(max_iters):
        best_swap, best_cost = None, cost
        for m in medoids:
            rest = d2[[x for x in medoids if x != m]].min(axis=0, initial=np.inf)
            trial = np.minimum(rest, d2).sum(axis=1)
            trial[medoids] = np.inf
            cand = int(np.argmin(trial))
            if trial[cand] < best_cost:
                best_swap, best_cost = (m, cand), float(trial[cand])
        if best_swap is None:
            return
        out, inn = best_swap
        medoids = sorted([x for x in medoids if x != out] + [inn])
        cost = best_cost
        yield list(medoids), cost


def kmedoids(points: Sequence[np.ndarray], k: int, max_iters: int = 100) -> list[int]:
    """PAM medoid indices (ascending); medoids are always input points."""
    result: list[int] = []
    for medoids, _ in pam_iterations(points, k, max_iters):
        result = medoids
    return result


def generate_summary(segfeats: Sequence[SegmentFeature], k: int) -> list[Segment]:
    """Select k medoid segments and return them sorted by start frame."""
    feats = [sf.feature for sf in segfeats]
    chosen = kmedoids(feats, k)
    return sorted((segfeats[i].segment for i in chosen), key=lambda s: s.start)


def semantic_score(
    rois: Sequence[Roi],
    frame_w: float,
    frame_h: float,
    sigma: float | None = None,
) -> float:
    """Per-frame semantic score: sum over ROIs of confidence * centrality * size.

    Centrality is a Gaussian of the distance from the ROI center to the frame
    center; size is the ROI area as a fraction of the frame, clamped to [0, 1].
    When sigma is omitted it defaults to a quarter of the frame diagonal.
    """
    if frame_w <= 0 or frame_h <= 0:
        raise ValueError("frame dimensions must be positive")
    if sigma is None:
        sigma = 0.25 * float(np.hypot(frame_w, frame_h))
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    cx, cy = frame_w / 2.0, frame_h / 2.0
    total = 0.0
    for roi in rois:
        dist2 = (roi.center[0] - cx) ** 2 + (roi.center[1] - cy) ** 2
        centrality = float(np.exp(-dist2 / (2.0 * sigma**2)))
        size = min(max(roi.area / (frame_w * frame_h), 0.0), 1.0)
        total += roi.confidence * centrality * size
    return total


def _runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Contiguous True runs of a boolean vector as [start, end) pairs."""
    ranges: list[tuple[int, int]] = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            ranges.append((start, i))
            start = None
    if start is not None:
        ranges.append((start, len(mask)))
    return ranges


def _check_finite_scores(scores: np.ndarray) -> None:
    if not np.isfinite(scores).all():
        frame = np.flatnonzero(~np.isfinite(scores))[0]
        raise ValueError(f"scores contain a non-finite value at frame {frame}")


def semantic_threshold_split(
    scores: np.ndarray,
) -> tuple[float, list[tuple[int, int]], list[tuple[int, int]]]:
    """Split frames into semantic and non-semantic ranges.

    Outliers (more than two population standard deviations from the mean)
    are removed first; the threshold is the midpoint between the smallest
    and largest remaining score.  Inlier frames scoring at or above the
    threshold are semantic, everything else (outliers included) is not.
    The two range lists partition [0, T).
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    if scores.size == 0:
        raise ValueError("scores must contain at least one frame")
    _check_finite_scores(scores)
    mu = scores.mean()
    sd = scores.std()
    inlier = np.abs(scores - mu) <= 2.0 * sd
    threshold = float((scores[inlier].min() + scores[inlier].max()) / 2.0)
    semantic = inlier & (scores >= threshold)
    return threshold, _runs(semantic), _runs(~semantic)


def segment_speedups(len_s: float, len_ns: float, target: float, rho_s: float) -> float:
    """Solve for the non-semantic speed-up that achieves the overall target.

    The output length budget (len_s + len_ns) / target is split between the
    two parts: len_s / rho_s + len_ns / rho_ns must hit the budget exactly.
    """
    if len_s < 0 or len_ns < 0:
        raise ValueError("part lengths must be non-negative")
    if target < 1:
        raise ValueError("target speed-up must be at least 1")
    if not 1 <= rho_s <= target:
        raise ValueError(f"semantic speed-up must lie in [1, {target}], got {rho_s}")
    budget = (len_s + len_ns) / target - len_s / rho_s
    if budget <= 0:
        raise ValueError(
            "infeasible: the semantic part alone exceeds the output budget "
            f"(len_s/rho_s = {len_s / rho_s:.6g} >= (len_s+len_ns)/target = "
            f"{(len_s + len_ns) / target:.6g})"
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
    """
    scores = np.asarray(scores, dtype=float).reshape(-1)
    t = scores.size
    if t < 2:
        raise ValueError("need at least 2 frames")
    if max_skip < 1:
        raise ValueError("max_skip must be at least 1")
    _check_finite_scores(scores)
    for name, value in (("rho", rho), ("lambda_speed", lambda_speed), ("lambda_sem", lambda_sem)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if rho < 1:
        raise ValueError("speed-up rho must be at least 1")

    # speed[skip] is the speed term of every edge that advances `skip` frames.  A float
    # square that overflows raises OverflowError, and then every edge's term overflows.
    overflow = f"edge costs overflow float64 with rho={rho}, lambda_speed={lambda_speed}"
    try:
        speed = [lambda_speed * (skip - rho) ** 2 for skip in range(min(max_skip, t - 1) + 1)]
    except OverflowError:
        raise ValueError(overflow) from None
    s_max = scores.max()
    dist = np.full(t, np.inf)
    dist[0] = 0.0
    prev = np.full(t, -1, dtype=int)
    with np.errstate(over="ignore"):  # an overflowing path cost is inf, never a predecessor
        for j in range(1, t):
            node_cost = lambda_sem * (s_max - scores[j])
            for i in range(max(0, j - max_skip), j):
                cand = dist[i] + speed[j - i] + node_cost
                if cand < dist[j]:
                    dist[j] = cand
                    prev[j] = i

    path = [t - 1]
    while path[-1] != 0:
        if prev[path[-1]] < 0:
            raise ValueError(
                f"no finite-cost path reaches frame {path[-1]}: "
                f"{overflow}, lambda_sem={lambda_sem}"
            )
        path.append(int(prev[path[-1]]))
    path.reverse()
    return path
