"""Evaluation measures: keyshot precision/recall/F1, jitter, speed-up deviation.

Keyshot summaries are interval sets over frame indices (end exclusive); the
overlap metrics normalize both sides first so re-splitting an interval into
adjacent pieces never changes the result.  Durations are measured in frames;
callers convert seconds via fps.
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

import numpy as np

from ._checks import check_int, check_interval, check_matrix, check_real, first_non_finite

__all__ = [
    "normalize_intervals",
    "keyshot_pr",
    "jitter_amount",
    "speedup_deviation",
]

Interval = tuple[int, int]


def normalize_intervals(intervals: Sequence[Sequence[float]]) -> list[Interval]:
    """Sort intervals and merge overlapping or adjacent ones.

    The union of covered frames is preserved.  Any record that is not a pair,
    has a bound that is not a finite float64 value (NaN, an infinity or an int
    beyond the float64 range) or has start >= end is rejected with its
    position in the input.
    """
    cleaned = sorted(check_interval(f"interval record {rec_no}", record)
                     for rec_no, record in enumerate(intervals))
    merged: list[Interval] = []
    for start, end in cleaned:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def _total_length(intervals: Sequence[Interval]) -> float:
    return sum(end - start for start, end in intervals)


def _overlap_length(a: Sequence[Interval], b: Sequence[Interval]) -> float:
    """Total intersection length of two normalized interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def keyshot_pr(
    a: Sequence[Sequence[float]], b: Sequence[Sequence[float]]
) -> tuple[float, float, float]:
    """Precision, recall and F1 of summary `a` against reference `b`.

    precision = overlap / duration(a), recall = overlap / duration(b),
    f1 = 2pr / (p + r) with f1 = 0 when both are zero.  Empty or
    zero-duration inputs, and a total duration beyond float64, are rejected.
    """
    a = normalize_intervals(a)
    b = normalize_intervals(b)
    dur_a = _total_length(a)
    dur_b = _total_length(b)
    for name, dur in (("summary a", dur_a), ("reference b", dur_b)):
        if not dur <= sys.float_info.max:  # Python compares an int with a float exactly
            raise ValueError(f"the total duration of {name} overflows float64: {dur}")
    if dur_a <= 0 or dur_b <= 0:
        raise ValueError("both interval sets must have positive duration")
    overlap = _overlap_length(a, b)
    precision = overlap / dur_a
    recall = overlap / dur_b
    if precision == 0.0 and recall == 0.0:
        return 0.0, 0.0, 0.0
    f1 = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def jitter_amount(track: Sequence[Sequence[float]]) -> float:
    """Mean Euclidean displacement between consecutive track points.

    `track` holds one (x, y) location per output frame; at least two points
    are required.
    """
    pts = check_matrix("track", track, rows=2, cols=2, of="jitter_amount")
    at = first_non_finite(pts)
    if at is not None:
        raise ValueError(f"track point {at[0]} is not finite: {pts[at[0]].tolist()}")
    with np.errstate(over="ignore"):
        steps = np.diff(pts, axis=0)
        dists = np.hypot(steps[:, 0], steps[:, 1])
        mean = float(dists.mean())
    if not np.isfinite(dists).all():
        i = np.flatnonzero(~np.isfinite(dists))[0]
        raise ValueError(
            f"distance between track points {i} and {i + 1} overflows float64: "
            f"{pts[i].tolist()}, {pts[i + 1].tolist()}"
        )
    if not math.isfinite(mean):
        raise ValueError("the sum of the distances between track points overflows float64")
    return mean


def speedup_deviation(desired: float, n_input: int, n_output: int) -> float:
    """|desired - n_input / n_output|, the gap to the achieved speed-up."""
    desired = check_real("desired speed-up", desired, 1)
    n_input = check_real("n_input", n_input, 0)
    n_output = check_int("n_output", n_output, 1)
    return abs(desired - n_input / n_output)
