"""Unit tests for segmentation, k-medoids selection, and fast-forward."""

import itertools
import math
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from videosum.model import embed_frames, init_subnet
from videosum import summarize
from videosum.summarize import (
    _gram_lower_bounds,
    _runs,
    _sq_dists_to,
    Roi,
    Segment,
    SegmentFeature,
    clustering_cost,
    generate_summary,
    kmedoids,
    pam_iterations,
    segment_features,
    segment_speedups,
    semantic_score,
    semantic_threshold_split,
    speedup_frame_selection,
    uniform_segments,
)


def brute_force_medoid_cost(points, k):
    """Exhaustive minimum of the clustering objective over all k-subsets."""
    return min(
        clustering_cost(points, subset)
        for subset in itertools.combinations(range(len(points)), k)
    )


def brute_force_path_cost(scores, rho, max_skip, lambda_speed, lambda_sem):
    """Cheapest increasing 0 -> T-1 path by explicit enumeration (small T only)."""
    scores = np.asarray(scores, dtype=float)
    t = scores.size
    s_max = scores.max()

    def cost(path):
        return sum(
            lambda_speed * ((b - a) - rho) ** 2 + lambda_sem * (s_max - scores[b])
            for a, b in zip(path, path[1:])
        )

    best = math.inf
    interior = range(1, t - 1)
    for r in range(t - 1):
        for combo in itertools.combinations(interior, r):
            path = (0, *combo, t - 1)
            if all(1 <= b - a <= max_skip for a, b in zip(path, path[1:])):
                best = min(best, cost(path))
    return best


def reference_pam_iterations(points, k, max_iters=100, d2=None):
    """The per-candidate PAM loop that pam_iterations replaced, kept as its oracle.  `d2`,
    when given, is the points' squared-distance matrix, so large inputs skip the broadcast."""
    arr = np.asarray(points, dtype=float)
    n = arr.shape[0]
    if d2 is None:
        d2 = ((arr[:, None, :] - arr[None, :, :]) ** 2).sum(axis=2)
    medoids = []
    nearest = np.full(n, np.inf)
    for _ in range(k):
        best_idx, best_cost = -1, np.inf
        for cand in range(n):
            if cand in medoids:
                continue
            cost = float(np.minimum(nearest, d2[:, cand]).sum())
            if cost < best_cost:
                best_idx, best_cost = cand, cost
        medoids.append(best_idx)
        nearest = np.minimum(nearest, d2[:, best_idx])
    medoids.sort()
    cost = float(nearest.sum())
    yield list(medoids), cost
    for _ in range(max_iters):
        best_swap, best_cost = None, cost
        for m in medoids:
            others = [x for x in medoids if x != m]
            for cand in range(n):
                if cand in medoids:
                    continue
                trial_cost = float(d2[:, others + [cand]].min(axis=1).sum())
                if trial_cost < best_cost:
                    best_swap, best_cost = (m, cand), trial_cost
        if best_swap is None:
            return
        out, inn = best_swap
        medoids = sorted(x for x in medoids if x != out) + [inn]
        medoids.sort()
        cost = best_cost
        yield list(medoids), cost


def broadcast_sq_dists(arr, cols):
    """The n x m x D broadcast that clustering_cost and pam_iterations used, kept as the oracle."""
    return ((arr[:, None, :] - arr[None, cols, :]) ** 2).sum(axis=2)


def exact_rows(arr, cols):
    """Rows `cols` of the squared-distance matrix, one `_sq_dists_to` call each."""
    return np.array([_sq_dists_to(arr[c], arr) for c in cols])


def assembled_sq_dists(arr):
    """The n x n oracle matrix, eight columns of `broadcast_sq_dists` at a time."""
    n = len(arr)
    return np.hstack([broadcast_sq_dists(arr, list(range(start, min(start + 8, n))))
                      for start in range(0, n, 8)])


float_points = arrays(
    float, st.tuples(st.integers(1, 12), st.integers(1, 20)), elements=st.floats(-1e6, 1e6)
)
grid_points = arrays(
    float, st.tuples(st.integers(1, 14), st.integers(1, 3)), elements=st.integers(-3, 3).map(float)
)


@st.composite
def planted_grid_clusters(draw):
    """Up to 150 grid points, each a small offset from one of a few grid centres: clear
    clusters, so that a swap round can rule most candidates out, and many equal costs."""
    dim = draw(st.integers(1, 3))
    centres = draw(arrays(float, (draw(st.integers(1, 8)), dim),
                          elements=st.integers(-20, 20).map(float)))
    n = draw(st.integers(len(centres), 150))
    which = draw(arrays(np.intp, n, elements=st.integers(0, len(centres) - 1)))
    offsets = draw(arrays(float, (n, dim), elements=st.integers(-2, 2).map(float)))
    return centres[which] + offsets


def reference_runs(mask):
    """The per-frame loop that _runs replaced, kept as its oracle."""
    ranges = []
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


def path_cost(scores, path, rho, max_skip, lambda_speed, lambda_sem):
    scores = np.asarray(scores, dtype=float)
    s_max = scores.max()
    return sum(
        lambda_speed * ((b - a) - rho) ** 2 + lambda_sem * (s_max - scores[b])
        for a, b in zip(path, path[1:])
    )


def float64_scalar_path(scores, rho, max_skip, lambda_speed, lambda_sem):
    """The shortest path by a forward loop over float64 scalars, with `dist` and `prev` in
    numpy arrays; a path that `speedup_frame_selection` returns must equal it exactly."""
    scores = np.asarray(scores, dtype=float)
    t = scores.size
    speed = [lambda_speed * (skip - rho) ** 2 for skip in range(min(max_skip, t - 1) + 1)]
    s_max = scores.max()
    dist = np.full(t, np.inf)
    dist[0] = 0.0
    prev = np.full(t, -1, dtype=int)
    for j in range(1, t):
        node_cost = lambda_sem * (s_max - scores[j])
        for i in range(max(0, j - max_skip), j):
            cand = dist[i] + speed[j - i] + node_cost
            if cand < dist[j]:
                dist[j] = cand
                prev[j] = i
    path = [t - 1]
    while path[-1] != 0:
        path.append(int(prev[path[-1]]))
    return path[::-1]


def per_roi_score(rois, frame_w, frame_h, sigma=None):
    """The semantic score summed one ROI at a time, every term computed in the loop."""
    if sigma is None:
        sigma = 0.25 * float(np.hypot(frame_w, frame_h))
    cx, cy = frame_w / 2.0, frame_h / 2.0
    total = 0.0
    for roi in rois:
        dist2 = (roi.center[0] - cx) ** 2 + (roi.center[1] - cy) ** 2
        centrality = float(np.exp(-dist2 / (2.0 * sigma**2)))
        size = min(max(roi.area / (frame_w * frame_h), 0.0), 1.0)
        total += roi.confidence * centrality * size
    return total


class TestUniformSegments:
    def test_exact_division(self):
        segs = uniform_segments(10, 5)
        assert [(s.start, s.end) for s in segs] == [(0, 5), (5, 10)]

    def test_empty(self):
        assert uniform_segments(0, 5) == []

    def test_remainder_dropped(self):
        segs = uniform_segments(11, 5)
        assert [(s.start, s.end) for s in segs] == [(0, 5), (5, 10)]
        assert len(segs) == 11 // 5

    def test_coverage_is_gapless(self):
        for n, ln in [(1, 1), (17, 4), (99, 10), (40, 40)]:
            segs = uniform_segments(n, ln)
            assert len(segs) == n // ln
            covered = [f for s in segs for f in range(s.start, s.end)]
            assert covered == list(range((n // ln) * ln))

    def test_zero_seg_len_rejected(self):
        with pytest.raises(ValueError):
            uniform_segments(10, 0)


class TestSegmentFeatures:
    def test_zero_net_gives_zero_features(self):
        net = init_subnet(0, 3, 4, 2)
        for name in ("w1", "b1", "w2", "b2"):
            getattr(net, name)[:] = 0.0
        frames = np.random.default_rng(0).normal(size=(8, 3))
        feats = segment_features(net, frames, uniform_segments(8, 4))
        for sf in feats:
            np.testing.assert_array_equal(sf.feature, 0.0)

    def test_full_span_equals_embed_frames(self):
        net = init_subnet(1, 3, 4, 2)
        frames = np.random.default_rng(1).normal(size=(6, 3))
        feats = segment_features(net, frames, [Segment(0, 0, 6)])
        np.testing.assert_array_equal(feats[0].feature, embed_frames(net, frames))

    def test_identical_content_identical_features(self):
        net = init_subnet(2, 3, 4, 2)
        block = np.random.default_rng(2).normal(size=(4, 3))
        frames = np.vstack([block, block])
        feats = segment_features(net, frames, uniform_segments(8, 4))
        np.testing.assert_array_equal(feats[0].feature, feats[1].feature)

    def test_out_of_range_rejected(self):
        net = init_subnet(0, 3, 4, 2)
        with pytest.raises(ValueError, match="outside"):
            segment_features(net, np.zeros((5, 3)), [Segment(0, 2, 8)])

    @pytest.mark.parametrize("block_rows, passes_rows", [
        (1, [4, 4, 7, 4, 6, 11, 40, 1]),
        (9, [8, 7, 4, 6, 11, 40, 1]),
        (12, [8, 11, 6, 11, 40, 1]),
        (512, [77]),
    ])
    def test_blocks_match_embed_frames_per_segment(self, monkeypatch, block_rows, passes_rows):
        """Unordered, gapped and overlapping segments, split over several forward passes.

        A pass holds whole segments in index order, at most block_rows rows unless the
        segment alone is longer."""
        import videosum.summarize as summarize

        forward, passes = summarize._forward, []
        monkeypatch.setattr(summarize, "_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(summarize, "_forward",
                            lambda net, rows: passes.append(len(rows)) or forward(net, rows))
        net = init_subnet(3, 6, 5, 4)
        frames = np.random.default_rng(3).normal(size=(40, 6))
        segments = [Segment(4, 30, 36), Segment(0, 0, 4), Segment(2, 2, 9), Segment(7, 12, 13),
                    Segment(1, 3, 7), Segment(5, 20, 31), Segment(3, 36, 40), Segment(6, 0, 40)]
        feats = segment_features(net, frames, segments)
        assert [sf.segment.index for sf in feats] == list(range(8))
        for sf in feats:
            want = embed_frames(net, frames[sf.segment.start : sf.segment.end])
            np.testing.assert_allclose(sf.feature, want, rtol=0, atol=1e-14)
        assert passes == passes_rows

    def test_bad_width_names_the_segment(self):
        net = init_subnet(0, 3, 4, 2)
        with pytest.raises(ValueError, match=r"^frames has 5 columns, net expects 3$"):
            segment_features(net, np.zeros((8, 5)), [Segment(4, 0, 2), Segment(1, 2, 4)])

    @pytest.mark.parametrize("n_frames", [0, 8])
    def test_bad_width_rejected_without_segments(self, n_frames):
        """The frames' width is checked once, before any segment is looked at."""
        net = init_subnet(0, 3, 4, 2)
        with pytest.raises(ValueError, match=r"^frames has 5 columns, net expects 3$"):
            segment_features(net, np.zeros((n_frames, 5)), [])

    @pytest.mark.parametrize("fields, message", [
        ((0, 0.5, 1.5), "segment 0: start must be a non-negative integer, got 0.5"),
        ((0, True, 2), "segment 0: start must be a non-negative integer, got True"),
        ((2, 0, 2.0), "segment 2: end must be a non-negative integer, got 2.0"),
        ((1, -1, 2), "segment 1: start must be a non-negative integer, got -1"),
        ((-1, 0, 2), "segment index must be a non-negative integer, got -1"),
        ((1.0, 0, 2), "segment index must be a non-negative integer, got 1.0"),
    ])
    def test_fields_must_be_integers(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Segment(*fields)

    def test_numpy_integers_become_ints(self):
        seg = Segment(*np.array([3, 1, 4]))
        assert seg == Segment(3, 1, 4)
        assert all(type(v) is int for v in (seg.index, seg.start, seg.end))

    def test_record_bounds_must_be_integers(self):
        """A record with the same fields is embedded when its bounds are integers and named
        when they are not, before numpy slices with them."""
        net = init_subnet(0, 3, 4, 2)
        frames = np.random.default_rng(0).normal(size=(8, 3))
        record = SimpleNamespace(index=3, start=np.int64(2), end=5)
        want = segment_features(net, frames, [Segment(3, 2, 5)])[0].feature
        np.testing.assert_array_equal(segment_features(net, frames, [record])[0].feature, want)
        record.start = 2.0
        with pytest.raises(ValueError, match="^segment 3: start must be a non-negative integer"):
            segment_features(net, frames, [record])

    def test_empty_segment_names_the_segment(self):
        """A Segment cannot be empty; a record with the same fields is rejected by name."""
        net = init_subnet(0, 3, 4, 2)
        with pytest.raises(ValueError, match=r"^segment 3: start 2 >= end 2$"):
            Segment(3, 2, 2)
        empty = SimpleNamespace(index=3, start=2, end=2)
        with pytest.raises(ValueError, match=r"^segment 3 range \[2, 2\) is empty$"):
            segment_features(net, np.zeros((8, 3)), [Segment(0, 0, 2), empty])


class TestClusteringCost:
    def test_all_points_as_medoids(self):
        pts = np.random.default_rng(0).normal(size=(6, 2))
        assert clustering_cost(pts, range(6)) == 0.0

    def test_two_points_on_a_line(self):
        pts = np.array([[0.0], [2.0]])
        assert clustering_cost(pts, [0]) == 4.0

    def test_matches_brute_force_min_sum(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(8, 3))
        for medoids in itertools.combinations(range(8), 2):
            expected = sum(
                min(float((p - pts[m]) @ (p - pts[m])) for m in medoids) for p in pts
            )
            assert np.isclose(clustering_cost(pts, medoids), expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "call",
        [
            lambda pts: clustering_cost(pts, [0]),
            lambda pts: kmedoids(pts, 2),
            lambda pts: next(pam_iterations(pts, 2)),
        ],
        ids=["clustering_cost", "kmedoids", "pam_iterations"],
    )
    def test_non_finite_point_rejected(self, call):
        points = [[0.0, 1.0], [2.0, np.nan], [3.0, 3.0]]
        with pytest.raises(ValueError, match="point 1 has a non-finite coordinate at column 1"):
            call(points)

    def test_empty_medoids_rejected(self):
        with pytest.raises(ValueError):
            clustering_cost(np.zeros((3, 2)), [])

    def test_overflowing_distances_rejected(self):
        with pytest.raises(ValueError, match="squared distances between points overflow float64"):
            clustering_cost([[0.0], [1e200]], [0])

    def test_overflowing_sum_rejected(self):
        """Each distance 9.8e307 is finite; four of them overflow, three fewer do not."""
        pts = np.eye(5) * 7e153
        with pytest.raises(ValueError, match="^the clustering cost overflows float64$"):
            clustering_cost(pts, [0])
        assert clustering_cost(pts, [0, 1, 2, 3]) == 9.8e307

    @pytest.mark.parametrize("medoids, bad", [([0, 4], 4), ([9, 1], 9)])
    def test_medoid_index_out_of_range_named(self, medoids, bad):
        with pytest.raises(ValueError, match=f"^medoid index {bad} out of range for 4 points$"):
            clustering_cost(np.zeros((4, 2)), medoids)

    def test_medoid_set_that_is_no_iterable_rejected(self):
        with pytest.raises(ValueError, match="^medoids must be an iterable of point indices, got 3$"):
            clustering_cost(np.zeros((4, 2)), 3)

    @settings(max_examples=200, deadline=None)
    @given(pts=st.one_of(float_points, grid_points), data=st.data())
    def test_equals_every_cost_pam_yields(self, pts, data):
        k = data.draw(st.integers(1, len(pts)))
        for medoids, cost in pam_iterations(pts, k):
            assert clustering_cost(pts, medoids) == cost


class TestSqDists:
    """Rows of `_sq_dists_to`, PAM's and clustering_cost's one exact rule, are the columns of
    the broadcast: the matrix is symmetric bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(pts=st.one_of(float_points, grid_points), data=st.data())
    def test_bitwise_equal_to_broadcast(self, pts, data):
        cols = data.draw(st.lists(st.integers(0, len(pts) - 1), min_size=1, max_size=len(pts)))
        assert np.array_equal(exact_rows(pts, cols).T, broadcast_sq_dists(pts, cols))

    @pytest.mark.parametrize("dim", [1, 300, 1000])
    @pytest.mark.parametrize("n", [129, 257, 700])
    def test_bitwise_equal_to_broadcast_at_scale(self, n, dim):
        """D past numpy's 128-element pairwise-summation block; eight columns bound memory."""
        rng = np.random.default_rng(n * dim)
        pts = rng.normal(size=(n, dim))
        cols = sorted(rng.choice(n, size=8, replace=False))
        assert np.array_equal(exact_rows(pts, cols).T, broadcast_sq_dists(pts, cols))


class TestAllSqDists:
    """All n rows of `_sq_dists_to` make the whole matrix: symmetric, zero on the diagonal."""

    @staticmethod
    def check(pts):
        d2 = exact_rows(pts, range(len(pts)))
        assert np.array_equal(d2, assembled_sq_dists(pts))
        assert np.array_equal(d2, d2.T)
        assert np.array_equal(np.diag(d2), np.zeros(len(pts)))

    @settings(max_examples=300, deadline=None)
    @given(pts=st.one_of(float_points, grid_points))
    def test_bitwise_equal_to_broadcast_symmetric_zero_diagonal(self, pts):
        self.check(pts)

    @pytest.mark.parametrize("dim", [1, 300, 1000])
    @pytest.mark.parametrize("n", [129, 257])
    def test_bitwise_equal_to_broadcast_at_scale(self, n, dim):
        """n and D past numpy's 128-element pairwise-summation block."""
        self.check(np.random.default_rng(n * dim).normal(size=(n, dim)))


@st.composite
def wide_points(draw):
    """Up to 12 points at D = 1, 300 or 1000 from a drawn seed: standard normal, or copies of
    one normal point that differ from it by a few ulps or not at all."""
    dim = draw(st.sampled_from([1, 300, 1000]))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.normal(size=(n, dim))
    ulps = rng.integers(-4, 5, size=(n, dim)) * np.finfo(float).eps
    return rng.normal(size=dim) * (1.0 + ulps)


def planted_clusters(n=400, dim=300, clusters=20):
    """n points in equal clusters around seeded standard normal centres, spread 0.3."""
    rng = np.random.default_rng(24)
    centres = rng.normal(size=(clusters, dim))
    return np.repeat(centres, n // clusters, axis=0) + rng.normal(0.0, 0.3, size=(n, dim))


def counting_rows(monkeypatch):
    """Patch `_sq_dists_to` to record each exact row it computes; returns the live list."""
    calls = []
    exact = summarize._sq_dists_to

    def counted(p, *args, **kwargs):
        calls.append(p)
        return exact(p, *args, **kwargs)

    monkeypatch.setattr(summarize, "_sq_dists_to", counted)
    return calls


class TestGramBound:
    @settings(max_examples=200, deadline=None)
    @given(pts=st.one_of(float_points, grid_points, wide_points()),
           e=st.integers(-140, 140))
    def test_at_most_the_exact_distance(self, pts, e):
        """Squared norms scaled by 10**e, e in -140..140; outside _bounds.SUM_RANGE there is
        no bound (every row is exact)."""
        pts = pts * 10.0 ** (e / 2)
        lo = _gram_lower_bounds(pts)
        if lo is not None:
            assert (lo <= exact_rows(pts, range(len(pts)))).all()

    @pytest.mark.parametrize("scale", [1e-70, 1.0, 1e70])
    @pytest.mark.parametrize("dim", [1, 300, 1000])
    def test_in_range_points_are_bounded_and_tight(self, dim, scale):
        pts = np.random.default_rng(dim).normal(size=(40, dim)) * scale
        d2 = exact_rows(pts, range(40))
        lo = _gram_lower_bounds(pts)
        assert (lo <= d2).all()
        sq = (pts**2).sum(axis=1)
        assert (d2 - lo <= 1e-9 * (sq[:, None] + sq)).all()

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_out_of_range_points_have_no_bound(self, scale):
        pts = np.random.default_rng(0).normal(size=(5, 3)) * scale
        assert _gram_lower_bounds(pts) is None

    def test_origin_keeps_the_bound(self):
        assert np.array_equal(_gram_lower_bounds(np.zeros((3, 2))), np.zeros((3, 3)))

    def test_out_of_range_points_make_every_row_before_the_first_yield(self, monkeypatch):
        pts = np.random.default_rng(1).normal(size=(9, 2)) * 1e-200
        calls = counting_rows(monkeypatch)
        steps = pam_iterations(pts, 3)
        first = next(steps)
        assert len(calls) == 9
        assert [first, *steps] == list(reference_pam_iterations(pts, 3))


class TestKmedoids:
    def test_k_equals_n_selects_everything(self):
        pts = np.random.default_rng(0).normal(size=(5, 2))
        assert kmedoids(pts, 5) == [0, 1, 2, 3, 4]
        assert clustering_cost(pts, range(5)) == 0.0

    def test_symmetric_tie_breaks_low(self):
        pts = np.array([[1.0, 0.0], [-1.0, 0.0]])
        assert kmedoids(pts, 1) == [0]

    def test_two_blobs_hits_exhaustive_optimum(self):
        rng = np.random.default_rng(1)
        blob_a = rng.normal(0, 0.2, size=(3, 2)) + [5, 5]
        blob_b = rng.normal(0, 0.2, size=(3, 2)) - [5, 5]
        pts = np.vstack([blob_a, blob_b])
        chosen = kmedoids(pts, 2)
        assert (chosen[0] < 3) and (chosen[1] >= 3)
        assert np.isclose(clustering_cost(pts, chosen), brute_force_medoid_cost(pts, 2))

    def test_cost_never_increases_and_locally_optimal(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(4, 10))
            k = int(rng.integers(1, 4))
            pts = rng.normal(size=(n, 2))
            costs = [cost for _, cost in pam_iterations(pts, k)]
            assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
            final = kmedoids(pts, k)
            final_cost = clustering_cost(pts, final)
            for out in final:
                for cand in set(range(n)) - set(final):
                    trial = [x for x in final if x != out] + [cand]
                    assert clustering_cost(pts, trial) >= final_cost - 1e-12

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_reference_loop_on_grid_points(self, data):
        """Same (medoids, cost) sequence, floats compared with ==; grid points repeat."""
        n = data.draw(st.integers(1, 14))
        dim = data.draw(st.integers(1, 3))
        coords = data.draw(st.lists(st.integers(-3, 3), min_size=n * dim, max_size=n * dim))
        k = data.draw(st.integers(1, n))
        pts = np.array(coords, dtype=float).reshape(n, dim)
        assert list(pam_iterations(pts, k)) == list(reference_pam_iterations(pts, k))

    @settings(max_examples=200, deadline=None)
    @given(
        pts=st.one_of(
            arrays(float, st.tuples(st.integers(1, 25), st.integers(1, 3)),
                   elements=st.floats(-1e3, 1e3)),
            arrays(float, st.tuples(st.integers(1, 25), st.integers(1, 2)),
                   elements=st.integers(-2, 2).map(float)),
        ),
        data=st.data(),
    )
    def test_every_swap_lowers_the_cost_and_no_single_swap_improves_the_end(self, pts, data):
        """Costs fall strictly after each swap; every medoid/non-medoid exchange of the
        final medoids costs at least as much, compared exactly (grid points make ties)."""
        n = len(pts)
        k = data.draw(st.integers(1, n))
        steps = list(pam_iterations(pts, k))
        costs = [cost for _, cost in steps]
        assert all(b < a for a, b in zip(costs, costs[1:]))
        final, final_cost = steps[-1]
        for out in final:
            for cand in sorted(set(range(n)) - set(final)):
                trial = [x for x in final if x != out] + [cand]
                assert clustering_cost(pts, trial) >= final_cost

    @pytest.mark.parametrize("n, k, dim", [(129, 5, 3), (257, 7, 2), (700, 4, 3)])
    def test_matches_reference_loop_across_summation_blocks(self, n, k, dim):
        """n past numpy's 128-element pairwise-summation block keeps row-sums bitwise equal."""
        pts = np.random.default_rng(n).normal(size=(n, dim))
        assert list(pam_iterations(pts, k)) == list(reference_pam_iterations(pts, k))

    @settings(max_examples=60, deadline=None)
    @given(pts=planted_grid_clusters(), data=st.data())
    def test_matches_reference_loop_on_planted_grid_clusters(self, pts, data):
        """Sizes at which the swap rounds rule candidates out, with equal costs to break."""
        k = data.draw(st.integers(1, min(len(pts), 16)))
        assert list(pam_iterations(pts, k)) == list(reference_pam_iterations(pts, k))

    def test_swap_that_ties_the_best_only_after_rounding_is_kept(self):
        """Sums near 3.4e10 (ulp 3.8e-6) round off what the 2**-10 offsets tell apart, so
        swaps (2, 4) and (3, 6) cost the same float.  Medoid 3 is the cheaper to remove and is tried first; candidate 4's
        bound equals that best cost, and it must still be tried for medoid 2."""
        centres = [[1, 4], [-1, -2], [0, 3], [-3, -2], [0, 3], [2, -1], [-3, -2], [-3, -2]]
        offsets = [[-2, 3], [3, -3], [3, -3], [3, 2], [2, -2], [2, 3], [3, 0], [0, -3]]
        pts = np.array(centres) * 2.0**17 + np.array(offsets) * 2.0**-10
        steps = list(pam_iterations(pts, 4))
        assert steps == list(reference_pam_iterations(pts, 4))
        assert [medoids for medoids, _ in steps[:2]] == [[1, 2, 3, 5], [1, 3, 4, 5]]

    def test_overflowing_distances_rejected(self):
        pts = np.array([[0.0], [1e200], [2e200]])
        with pytest.raises(ValueError, match="overflow"):
            kmedoids(pts, 1)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_overflowing_build_cost_raises_before_the_first_yield(self, k):
        """Every distance is finite, but k medoids leave 5 - k > 1 of them to sum."""
        steps = pam_iterations(np.eye(5) * 7e153, k)
        with pytest.raises(ValueError, match="^the clustering cost overflows float64$"):
            next(steps)

    @pytest.mark.parametrize("k, want", [(4, [([0, 1, 2, 3], 9.8e307)]),
                                         (5, [([0, 1, 2, 3, 4], 0.0)])])
    def test_infinite_build_sums_pick_the_lowest_non_medoid(self, k, want):
        """Every candidate's sum overflows in the first three build steps; each such tie
        goes to the lowest point that is not yet a medoid, so no medoid repeats."""
        assert list(pam_iterations(np.eye(5) * 7e153, k)) == want

    def test_planted_clusters_need_few_exact_rows(self, monkeypatch):
        """The Gram bound leaves fewer than n/4 of the n exact rows to compute, and the
        sequence is the reference loop's on the oracle matrix."""
        pts = planted_clusters()
        calls = counting_rows(monkeypatch)
        steps = list(pam_iterations(pts, 20))
        assert len(calls) < len(pts) / 4
        assert steps == list(reference_pam_iterations(pts, 20, d2=assembled_sq_dists(pts)))

    def test_sequence_does_not_depend_on_blas_threads(self, child_env):
        """The Gram product's bytes may change with the thread count; the medoids and costs
        may not.  Each child prints the whole sequence, costs as exact float reprs; the 20
        planted clusters take 7 swaps."""
        script = ("import numpy as np; from videosum.summarize import pam_iterations; "
                  "rng = np.random.default_rng(7); "
                  "pts = np.repeat(rng.normal(size=(20, 300)), 20, axis=0) "
                  "+ rng.normal(0.0, 0.3, size=(400, 300)); "
                  "print(list(pam_iterations(pts, 20)))")
        printed = []
        for threads in ("1", None):
            env = {k: v for k, v in child_env.items() if k not in ("OPENBLAS_NUM_THREADS",
                                                                     "OMP_NUM_THREADS")}
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            printed.append(proc.stdout)
        assert printed[0].startswith("[([") and printed[0] == printed[1]

    def test_translation_and_scale_invariance(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(9, 3))
        base = kmedoids(pts, 3)
        assert kmedoids(pts + 10.0, 3) == base
        assert kmedoids(pts * 2.0, 3) == base

    def test_k_out_of_range(self):
        pts = np.zeros((4, 2))
        with pytest.raises(ValueError):
            kmedoids(pts, 0)
        with pytest.raises(ValueError):
            kmedoids(pts, 5)

    @pytest.mark.parametrize(
        "points, k, needle",
        [
            (np.zeros((4, 2)), "a", "^k must be a positive integer, got 'a'$"),
            (np.zeros((4, 2)), 5, r"^k must lie in 1\.\.4, got 5$"),
            ([[0.0], [math.nan]], 1, "^point 1 has a non-finite coordinate at column 0$"),
        ],
        ids=["text-k", "k-above-n", "non-finite-point"],
    )
    def test_pam_iterations_checks_its_arguments_when_called(self, points, k, needle):
        """The error comes from the call itself, before the iterator is advanced."""
        with pytest.raises(ValueError, match=needle):
            pam_iterations(points, k)


class TestGenerateSummary:
    @staticmethod
    def feats_from(points):
        return [
            SegmentFeature(segment=Segment(i, i * 4, (i + 1) * 4), feature=np.asarray(p, float))
            for i, p in enumerate(points)
        ]

    def test_k_equals_l_keeps_temporal_order(self):
        pts = np.random.default_rng(0).normal(size=(4, 2))
        segs = generate_summary(self.feats_from(pts), 4)
        assert [s.index for s in segs] == [0, 1, 2, 3]
        starts = [s.start for s in segs]
        assert starts == sorted(starts)

    def test_k_one(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.1, 0.0]])
        segs = generate_summary(self.feats_from(pts), 1)
        assert len(segs) == 1

    def test_no_segment_named(self):
        with pytest.raises(ValueError, match="^there is no segment to choose k=2 from$"):
            generate_summary([], 2)

    def test_output_sorted_and_duplicate_free(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(10, 3))
        segs = generate_summary(self.feats_from(pts), 4)
        starts = [s.start for s in segs]
        assert starts == sorted(starts)
        assert len(set(starts)) == len(starts)

    def test_planted_events_recovered(self):
        """One medoid segment lands inside each well-separated event cluster."""
        rng = np.random.default_rng(11)
        centers = np.eye(5) * 8.0
        feats = []
        idx = 0
        for i in range(5):
            for _ in range(3):  # three segments per event
                feats.append(
                    SegmentFeature(
                        segment=Segment(idx, idx * 4, (idx + 1) * 4),
                        feature=centers[i] + rng.normal(0, 0.1, size=5),
                    )
                )
                idx += 1
        chosen = generate_summary(feats, 5)
        owners = sorted(s.index // 3 for s in chosen)
        assert owners == [0, 1, 2, 3, 4]


class TestSemanticScore:
    def test_no_rois(self):
        assert semantic_score([], 100, 80, 25.0) == 0.0

    def test_centered_full_frame_roi(self):
        roi = Roi(confidence=1.0, center=(50.0, 40.0), area=100 * 80)
        assert semantic_score([roi], 100, 80, 25.0) == 1.0

    def test_two_rois_hand_computed(self):
        rois = [
            Roi(confidence=0.8, center=(50.0, 40.0), area=2000.0),
            Roi(confidence=0.5, center=(80.0, 40.0), area=1600.0),
        ]
        # 0.8*1.0*0.25 + 0.5*exp(-900/1250)*0.2
        np.testing.assert_allclose(
            semantic_score(rois, 100, 80, 25.0), 0.2486752255959972, rtol=1e-14
        )

    def test_oversized_area_clamped(self):
        roi = Roi(confidence=1.0, center=(50.0, 40.0), area=1e9)
        assert semantic_score([roi], 100, 80, 25.0) == 1.0

    def test_default_sigma_is_quarter_diagonal(self):
        roi = Roi(confidence=1.0, center=(0.0, 0.0), area=100 * 80)
        sigma = 0.25 * math.hypot(100, 80)
        assert semantic_score([roi], 100, 80) == semantic_score([roi], 100, 80, sigma)

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.tuples(st.one_of(st.integers(1, 4000), st.floats(1.0, 4000.0)),
                                 st.one_of(st.integers(1, 4000), st.floats(1.0, 4000.0))),
                       min_size=1, max_size=3),
        frames=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 2.0),
                                   st.floats(-1.0, 2.0), st.floats(0.0, 2.0)), max_size=5),
            ),
            min_size=1, max_size=8,
        ),
        sigma=st.one_of(st.none(), st.floats(0.5, 3000.0)),
    )
    def test_bits_equal_the_per_roi_formula(self, sizes, frames, sigma):
        """Frames of a few sizes, in any order, so each default sigma is reused; ROI centers
        and areas are drawn relative to the frame."""
        for which, drawn in frames:
            w, h = sizes[which % len(sizes)]
            rois = [Roi(confidence=c, center=(x * w, y * h), area=a * w * h)
                    for c, x, y, a in drawn]
            got = semantic_score(rois, w, h, sigma)
            assert got.hex() == per_roi_score(rois, w, h, sigma).hex()

    def test_frame_terms_are_computed_once_per_frame_size_and_sigma(self):
        """An int frame and the same frame as floats are kept apart, so each ROI area
        divides the area as computed from the sizes given."""
        summarize._frame.cache_clear()
        roi = Roi(confidence=0.5, center=(1.0, 2.0), area=3)
        for _ in range(3):
            for frame_w, sigma in ((641, None), (641, 4.0), (641.0, None)):
                semantic_score([roi], frame_w, 359, sigma)
        info = summarize._frame.cache_info()
        assert (info.misses, info.hits) == (3, 6)

    def test_int_frame_whose_area_is_beyond_float64(self):
        """An area beyond float64 is refused for ints as for floats, as every computed sum
        is: an int frame once scored otherwise than the same frame given as floats."""
        roi = Roi(confidence=1.0, center=(5e154, 1e154), area=1e308)
        for frame_w, frame_h, shown in [
            (10**200, 10**200, f"{10**200} x {10**200}"), (1e200, 1e200, "1e+200 x 1e+200"),
            (10**155, 2 * 10**154, f"{10**155} x {2 * 10**154}"),
            (1e155, 2e154, "1e+155 x 2e+154"),
        ]:
            with pytest.raises(ValueError) as exc:
                semantic_score([roi], frame_w, frame_h, 1e150)
            assert str(exc.value) == (f"frame size {shown} with sigma=1e+150 is out of range: "
                                      "frame_w * frame_h overflows float64")

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            semantic_score([], 0, 80, 10.0)
        with pytest.raises(ValueError):
            semantic_score([], 100, 80, 0.0)
        with pytest.raises(ValueError):
            Roi(confidence=1.5, center=(0, 0), area=1.0)
        with pytest.raises(ValueError):
            Roi(confidence=0.5, center=(0, 0), area=-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_roi_fields_rejected(self, bad):
        with pytest.raises(ValueError, match=rf"^confidence must be in \[0, 1\], got {bad}$"):
            Roi(confidence=bad, center=(1.0, 1.0), area=1.0)
        with pytest.raises(ValueError, match=f"^center x must be finite, got {bad}$"):
            Roi(confidence=0.5, center=(bad, 1.0), area=1.0)
        with pytest.raises(ValueError, match=f"^center y must be finite, got {bad}$"):
            Roi(confidence=0.5, center=(1.0, bad), area=1.0)
        with pytest.raises(ValueError, match=f"^area must be finite and non-negative, got {bad}$"):
            Roi(confidence=0.5, center=(1.0, 1.0), area=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["frame_w", "frame_h", "sigma"])
    def test_frame_size_and_sigma_must_be_finite_and_positive(self, name, bad):
        args = {"frame_w": 10.0, "frame_h": 10.0, "sigma": 2.0, name: bad}
        with pytest.raises(ValueError, match=f"{name} must be finite and positive, got {bad}"):
            semantic_score([], args["frame_w"], args["frame_h"], args["sigma"])

    @pytest.mark.parametrize(
        "center, frame_w, sigma, needle",
        [
            ((1e200, 1.0), 10.0, 2.0,
             r"ROI center \(1e\+200, 1.0\) is too far from the frame center \(5.0, 5.0\)"),
            ((5.0, 5.0), 10.0, 1e200, r"sigma=1e\+200 for a 10.0 x 10.0 frame is out of range"),
            ((5.0, 5.0), 10.0, 1e-200, r"sigma=1e-200 for a 10.0 x 10.0 frame is out of range"),
            ((5.0, 5.0), 1e300, None, r"sigma=3.5\d*e\+299 for a 1e\+300 x 1e\+300 frame"),
            ((5.0, 5.0), 1e300, 2.0,
             r"frame size 1e\+300 x 1e\+300 with sigma=2.0 is out of range: frame_w \* frame_h "
             "overflows float64"),
            ((0.0, 0.0), 1e-200, 1.0, r"frame size 1e-200 x 1e-200 with sigma=1.0 is out of range"),
            ((5.0, 5.0), 1.7e308, None, r"sigma=inf for a 1.7e\+308 x 1.7e\+308 frame"),
        ],
        ids=["far-center", "huge-sigma", "tiny-sigma", "huge-frame", "huge-frame-sigma",
             "tiny-frame", "overflowing-diagonal"],
    )
    def test_out_of_range_arithmetic_names_the_input(self, center, frame_w, sigma, needle):
        roi = Roi(confidence=1.0, center=center, area=1.0)
        with pytest.raises(ValueError, match=f"^{needle}"):
            semantic_score([roi], frame_w, frame_w, sigma)

    @pytest.mark.parametrize(
        "frame_w, sigma, needle",
        [
            (10.0, 1.3e-162, r"sigma=1.3e-162 for a 10.0 x 10.0 frame is out of range"),
            (3.7e-162, None, r"sigma=1.3\d*e-162 for a 3.7e-162 x 3.7e-162 frame is out of range"),
            (10, 10**200, r"sigma=10{200} for a 10 x 10 frame is out of range"),
        ],
        ids=["square-underflows", "default-square-underflows", "int-square-overflows"],
    )
    def test_spread_is_checked_as_divided_by(self, frame_w, sigma, needle):
        """2 * sigma**2 is checked as the loop computes it: at the bottom of the subnormal
        range sigma**2 underflows to 0 where (2 * sigma) * sigma still rounds up."""
        roi = Roi(confidence=0.5, center=(1.0, 1.0), area=1.0)
        with pytest.raises(ValueError, match=f"^{needle}: 2 \\* sigma\\*\\*2 is not a positive"):
            semantic_score([roi], frame_w, frame_w, sigma)


class TestSemanticThresholdSplit:
    def test_constant_scores_all_semantic(self):
        threshold, sem, non = semantic_threshold_split(np.full(4, 3.7))
        assert threshold == 3.7
        assert sem == [(0, 4)]
        assert non == []

    def test_step_scores(self):
        threshold, sem, non = semantic_threshold_split(np.array([0.0, 0.0, 1.0, 1.0]))
        assert threshold == 0.5
        assert sem == [(2, 4)]
        assert non == [(0, 2)]

    def test_outlier_removed_from_threshold_and_semantic_set(self):
        threshold, sem, non = semantic_threshold_split(np.array([1, 1, 2, 2, 2, 50.0]))
        assert threshold == 1.5
        assert sem == [(2, 5)]
        assert non == [(0, 2), (5, 6)]

    def test_partition_property(self):
        for seed in range(30):
            scores = np.random.default_rng(seed).uniform(0, 5, size=17)
            threshold, sem, non = semantic_threshold_split(scores)
            seen = sorted(sem + non)
            flat = [f for s, e in seen for f in range(s, e)]
            assert flat == list(range(17))
            inliers = scores[np.abs(scores - scores.mean()) <= 2 * scores.std()]
            assert inliers.min() <= threshold <= inliers.max()

    def test_equal_scores_whose_deviations_underflow_are_all_semantic(self):
        """The mean is one ulp off and its squared deviation underflows, so sd == 0 left
        no inlier, and min() over none raised numpy's zero-size reduction error."""
        score = 1.6369616873214545e-192
        assert np.std(np.full(7, score)) == 0.0 != np.mean(np.full(7, score)) - score
        assert semantic_threshold_split(np.full(7, score)) == (score, [(0, 7)], [])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            semantic_threshold_split(np.array([]))

    @pytest.mark.parametrize("shape", [(4, 3), (6, 1), ()], ids=["matrix", "column", "0-d"])
    def test_scores_that_are_not_a_vector_named(self, shape):
        """A score matrix is not read as more frames, nor a scalar as one frame."""
        needle = rf"^scores must be a 1-D vector, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=needle):
            semantic_threshold_split(np.arange(math.prod(shape), dtype=float).reshape(shape))

    def test_non_finite_score_names_frame(self):
        with pytest.raises(ValueError, match="non-finite value at frame 2"):
            semantic_threshold_split(np.array([0.1, 0.5, np.nan, 0.3]))

    @pytest.mark.parametrize(
        "scores, needle",
        [
            ([1e308, -1e308], "the mean and std of the scores overflow float64: 0.0, inf"),
            ([1e308] * 3, "the mean and std of the scores overflow float64: inf, inf"),
            # numpy's eight partial sums reach +inf and -inf, so the mean is NaN.
            (([1e308, -1e308] + [0] * 6) * 2, "the mean and std of the scores overflow float64"),
            ([1.5e308], r"the midpoint of the scores 1.5e\+308 and 1.5e\+308 overflows float64"),
        ],
        ids=["std", "mean", "mean-nan", "midpoint"],
    )
    def test_overflowing_statistics_rejected(self, scores, needle):
        """Finite scores whose statistics overflow raise a ValueError; a warning would fail."""
        with pytest.raises(ValueError, match=f"^{needle}"):
            semantic_threshold_split(np.array(scores))

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        arrays(float, st.integers(1, 60), elements=st.floats(-1e6, 1e6)),
        arrays(float, st.integers(1, 60), elements=st.integers(-3, 3).map(float)),
    ))
    def test_ranges_partition_alternate_and_are_the_inliers_at_or_above(self, scores):
        """The non-empty ranges of both lists tile [0, T) in alternation, and the semantic
        frames are exactly the inliers scoring at or above the threshold."""
        threshold, sem, non = semantic_threshold_split(scores)
        tiles = sorted([(s, e, True) for s, e in sem] + [(s, e, False) for s, e in non])
        assert tiles[0][0] == 0 and tiles[-1][1] == len(scores)
        assert all(s < e for s, e, _ in tiles)
        for (_, end, kind), (start, _, next_kind) in zip(tiles, tiles[1:]):
            assert end == start and kind != next_kind
        inlier = np.abs(scores - scores.mean()) <= 2 * scores.std()
        inlier |= not inlier.any()  # none within two deviations: no score is an outlier
        assert scores[inlier].min() <= threshold <= scores[inlier].max()
        semantic = np.zeros(len(scores), dtype=bool)
        for s, e in sem:
            semantic[s:e] = True
        assert np.array_equal(semantic, inlier & (scores >= threshold))

    @given(arrays(bool, st.integers(0, 40)))
    def test_runs_match_reference_loop(self, mask):
        runs = _runs(mask)
        assert runs == reference_runs(mask)
        assert all(type(v) is int for run in runs for v in run)


class TestSegmentSpeedups:
    def test_uniform_speedup(self):
        assert segment_speedups(100, 300, 4.0, 4.0) == pytest.approx(4.0)

    def test_documented_example(self):
        assert segment_speedups(100, 300, 4.0, 2.0) == 6.0

    def test_no_semantic_part(self):
        for rho_s in (1.0, 2.0, 4.0):
            assert segment_speedups(0, 250, 4.0, rho_s) == pytest.approx(4.0)

    def test_substitution_recovers_target(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            len_s = float(rng.integers(1, 500))
            len_ns = float(rng.integers(1, 500))
            target = float(rng.uniform(1.0, 12.0))
            rho_s = float(rng.uniform(1.0, target))
            try:
                rho_ns = segment_speedups(len_s, len_ns, target, rho_s)
            except ValueError:
                continue
            achieved = (len_s + len_ns) / (len_s / rho_s + len_ns / rho_ns)
            assert abs(achieved - target) <= 1e-9

    def test_infeasible_named(self):
        with pytest.raises(ValueError, match="infeasible"):
            segment_speedups(100, 1, 4.0, 2.0)

    @settings(max_examples=300, deadline=None)
    @given(
        len_s=st.floats(0, 1e12, allow_subnormal=False),
        len_ns=st.floats(0, 1e12, allow_subnormal=False),
        target=st.floats(1, 100),
        share=st.floats(0, 1),
    )
    def test_parts_fill_the_output_budget_property(self, len_s, len_ns, target, share):
        """len_s / rho_s + len_ns / rho_ns equals (len_s + len_ns) / target within 1e-9
        relative; when the semantic part alone fills the budget, the call is infeasible."""
        rho_s = min(target, 1.0 + share * (target - 1.0))
        budget = (len_s + len_ns) / target
        if not len_s / rho_s < budget:
            with pytest.raises(ValueError, match="^infeasible"):
                segment_speedups(len_s, len_ns, target, rho_s)
            return
        rho_ns = segment_speedups(len_s, len_ns, target, rho_s)
        assert rho_ns > 0
        assert math.isclose(len_s / rho_s + len_ns / rho_ns, budget, rel_tol=1e-9)

    def test_precondition_validation(self):
        with pytest.raises(ValueError):
            segment_speedups(10, 10, 0.5, 0.5)
        with pytest.raises(ValueError):
            segment_speedups(10, 10, 4.0, 5.0)
        with pytest.raises(ValueError):
            segment_speedups(-1, 10, 4.0, 2.0)

    @pytest.mark.parametrize(
        "args, needle",
        [
            ((math.inf, 10, 6, 3), "len_s must be finite and non-negative, got inf"),
            ((math.nan, 10, 6, 3), "len_s must be finite and non-negative, got nan"),
            ((10, math.inf, 6, 3), "len_ns must be finite and non-negative, got inf"),
            ((10, -1, 6, 3), "len_ns must be finite and non-negative, got -1"),
            ((10, 10, math.nan, 1), "target speed-up must be finite and at least 1, got nan"),
            ((10, 10, math.inf, 3), "target speed-up must be finite and at least 1, got inf"),
            ((10, 10, 6, math.nan), r"semantic speed-up rho_s must be in \[1, 6\], got nan"),
            ((1e308, 1e308, 2, 1), r"len_s \+ len_ns overflows float64: 1e\+308 \+ 1e\+308"),
        ],
        ids=["len-s-inf", "len-s-nan", "len-ns-inf", "len-ns-negative", "target-nan",
             "target-inf", "rho-s-nan", "sum-overflows"],
    )
    def test_bad_argument_named(self, args, needle):
        with pytest.raises(ValueError, match=f"^{needle}$"):
            segment_speedups(*args)


class TestSpeedupFrameSelection:
    def test_unit_rate_keeps_every_frame(self):
        sel = speedup_frame_selection(np.ones(7), 1.0, 3, 1.0, 0.0)
        assert sel == list(range(7))

    def test_exact_gap_steps(self):
        sel = speedup_frame_selection(np.ones(9), 4.0, 8, 1.0, 0.0)
        assert sel == [0, 4, 8]

    def test_matches_brute_force(self):
        for seed in range(25):
            rng = np.random.default_rng(seed)
            t = int(rng.integers(4, 13))
            max_skip = int(rng.integers(1, t))
            rho = float(rng.uniform(1, 5))
            ls = float(rng.uniform(0.2, 2))
            lm = float(rng.uniform(0, 2))
            scores = rng.uniform(0, 1, size=t)
            sel = speedup_frame_selection(scores, rho, max_skip, ls, lm)
            got = path_cost(scores, sel, rho, max_skip, ls, lm)
            want = brute_force_path_cost(scores, rho, max_skip, ls, lm)
            assert np.isclose(got, want, rtol=1e-12, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        scores=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=9),
        max_skip=st.integers(1, 3),
        rho=st.floats(1.0, 5.0),
        lambda_speed=st.floats(0.0, 2.0),
        lambda_sem=st.floats(0.0, 2.0),
    )
    def test_optimal_against_enumerated_paths(
        self, scores, max_skip, rho, lambda_speed, lambda_sem
    ):
        """A valid skip-bounded 0 -> T-1 path whose cost is the enumerated minimum."""
        sel = speedup_frame_selection(scores, rho, max_skip, lambda_speed, lambda_sem)
        assert sel[0] == 0 and sel[-1] == len(scores) - 1
        assert all(1 <= b - a <= max_skip for a, b in zip(sel, sel[1:]))
        got = path_cost(scores, sel, rho, max_skip, lambda_speed, lambda_sem)
        want = brute_force_path_cost(scores, rho, max_skip, lambda_speed, lambda_sem)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        scores=st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=2, max_size=60),
        max_skip=st.integers(1, 12),
        rho=st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.5]), st.floats(1.0, 8.0)),
        lambda_speed=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 2.0)),
        lambda_sem=st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 2.0)),
    )
    def test_path_equals_the_float64_scalar_loop(
        self, scores, max_skip, rho, lambda_speed, lambda_sem
    ):
        """The exact path, not only its cost: scores of three values make equal-cost
        predecessors common, and the smallest index must win each tie."""
        assert speedup_frame_selection(scores, rho, max_skip, lambda_speed, lambda_sem) == (
            float64_scalar_path(scores, rho, max_skip, lambda_speed, lambda_sem)
        )

    def test_zero_semantic_weight_ignores_the_score_range(self):
        """Every edge cost is finite: with lambda_sem = 0 a score range beyond float64 adds
        nothing, so 0 * inf never makes a NaN."""
        assert speedup_frame_selection([1e308, -1e308, 0.0], 2.0, 1, 1.0, 0.0) == [0, 1, 2]

    def test_overflowing_score_range_named(self):
        needle = "the score range [-1e+308, 1e+308] overflows float64 with lambda_sem=0.5"
        with pytest.raises(ValueError, match=re.escape(needle)):
            speedup_frame_selection([1e308, -1e308, 0.0], 2.0, 2, 1.0, 0.5)

    def test_structural_constraints(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            t = int(rng.integers(10, 60))
            max_skip = int(rng.integers(1, 9))
            scores = rng.uniform(0, 1, size=t)
            sel = speedup_frame_selection(scores, 2.0, max_skip, 1.0, 1.0)
            assert sel[0] == 0 and sel[-1] == t - 1
            gaps = np.diff(sel)
            assert np.all(gaps >= 1) and np.all(gaps <= max_skip)

    def test_semantic_pull(self):
        """A max-score frame on the way costs nothing extra and is kept."""
        scores = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        sel = speedup_frame_selection(scores, 2.0, 4, 0.01, 10.0)
        assert sel == [0, 2, 4]

    @pytest.mark.parametrize(
        "kwargs, needle",
        [
            ({"scores": np.array([0.2, 0.4, np.nan, 0.1, 0.3])}, "non-finite value at frame 2"),
            ({"scores": np.array([0.2, -np.inf, 0.1])}, "non-finite value at frame 1"),
            ({"rho": np.nan}, "rho must be finite"),
            ({"rho": np.inf}, "rho must be finite"),
            ({"lambda_speed": np.inf}, "lambda_speed must be finite"),
            ({"lambda_sem": np.inf}, "lambda_sem must be finite"),
            ({"lambda_sem": np.nan}, "lambda_sem must be finite"),
        ],
    )
    def test_non_finite_input_rejected(self, kwargs, needle):
        args = {"scores": np.linspace(0, 1, 8), "rho": 2.0, "max_skip": 3}
        args.update(kwargs)
        with pytest.raises(ValueError, match=needle):
            speedup_frame_selection(**args)

    def test_overflowing_edge_costs_raise(self):
        """Finite inputs whose every edge cost overflows leave no predecessor."""
        with pytest.raises(ValueError, match="no finite-cost path reaches frame"):
            speedup_frame_selection(np.ones(5), 4.0, 2, lambda_speed=1e308)

    @pytest.mark.parametrize(
        "rho, lambda_speed",
        [(1e200, 1.0), (4.0, 1e308)],
        ids=["square-overflows", "product-overflows"],
    )
    def test_overflow_names_rho_and_lambda_speed(self, rho, lambda_speed):
        needle = f"overflow float64 with rho={rho}, lambda_speed={lambda_speed}"
        with pytest.raises(ValueError, match=re.escape(needle)):
            speedup_frame_selection(np.ones(5), rho, 2, lambda_speed=lambda_speed)

    @pytest.mark.parametrize("name", ["lambda_speed", "lambda_sem"])
    def test_negative_weight_rejected(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite and non-negative, got -1$"):
            speedup_frame_selection(np.linspace(0, 1, 8), 2, 3, **{name: -1})

    @pytest.mark.parametrize("shape", [(4, 3), (6, 1), ()], ids=["matrix", "column", "0-d"])
    def test_scores_that_are_not_a_vector_named(self, shape):
        """np.zeros((4, 3)) once gave the path [0, 2, 4, 6, 8, 11] over twelve "frames"."""
        needle = rf"^scores must be a 1-D vector, got shape {re.escape(str(shape))}$"
        with pytest.raises(ValueError, match=needle):
            speedup_frame_selection(np.zeros(shape), 2, 3)

    def test_too_few_frames(self):
        with pytest.raises(ValueError):
            speedup_frame_selection(np.ones(1), 2.0, 2)
        with pytest.raises(ValueError):
            speedup_frame_selection(np.ones(5), 2.0, 0)
        with pytest.raises(ValueError):
            speedup_frame_selection(np.ones(5), 0.5, 2)
