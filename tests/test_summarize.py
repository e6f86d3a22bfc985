"""Unit tests for segmentation, k-medoids selection, and fast-forward."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videosum.model import embed_frames, init_subnet
from videosum.summarize import (
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


def reference_pam_iterations(points, k, max_iters=100):
    """The per-candidate PAM loop that pam_iterations replaced, kept as its oracle."""
    arr = np.asarray(points, dtype=float)
    n = arr.shape[0]
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


def path_cost(scores, path, rho, max_skip, lambda_speed, lambda_sem):
    scores = np.asarray(scores, dtype=float)
    s_max = scores.max()
    return sum(
        lambda_speed * ((b - a) - rho) ** 2 + lambda_sem * (s_max - scores[b])
        for a, b in zip(path, path[1:])
    )


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

    @pytest.mark.parametrize("n, k, dim", [(129, 5, 3), (257, 7, 2), (700, 4, 3)])
    def test_matches_reference_loop_across_summation_blocks(self, n, k, dim):
        """n past numpy's 128-element pairwise-summation block keeps row-sums bitwise equal."""
        pts = np.random.default_rng(n).normal(size=(n, dim))
        assert list(pam_iterations(pts, k)) == list(reference_pam_iterations(pts, k))

    def test_overflowing_distances_rejected(self):
        pts = np.array([[0.0], [1e200], [2e200]])
        with pytest.raises(ValueError, match="overflow"):
            kmedoids(pts, 1)

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

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            semantic_score([], 0, 80, 10.0)
        with pytest.raises(ValueError):
            semantic_score([], 100, 80, 0.0)
        with pytest.raises(ValueError):
            Roi(confidence=1.5, center=(0, 0), area=1.0)
        with pytest.raises(ValueError):
            Roi(confidence=0.5, center=(0, 0), area=-1.0)


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

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            semantic_threshold_split(np.array([]))

    def test_non_finite_score_names_frame(self):
        with pytest.raises(ValueError, match="non-finite value at frame 2"):
            semantic_threshold_split(np.array([0.1, 0.5, np.nan, 0.3]))


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

    def test_precondition_validation(self):
        with pytest.raises(ValueError):
            segment_speedups(10, 10, 0.5, 0.5)
        with pytest.raises(ValueError):
            segment_speedups(10, 10, 4.0, 5.0)
        with pytest.raises(ValueError):
            segment_speedups(-1, 10, 4.0, 2.0)


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

    def test_too_few_frames(self):
        with pytest.raises(ValueError):
            speedup_frame_selection(np.ones(1), 2.0, 2)
        with pytest.raises(ValueError):
            speedup_frame_selection(np.ones(5), 2.0, 0)
        with pytest.raises(ValueError):
            speedup_frame_selection(np.ones(5), 0.5, 2)
