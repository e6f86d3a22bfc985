"""Unit tests for keyshot precision/recall, jitter, and speed-up deviation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videosum.metrics import (
    jitter_amount,
    keyshot_pr,
    normalize_intervals,
    speedup_deviation,
)

HORIZON = 200


def random_interval_set(rng, max_frame=HORIZON, max_intervals=6):
    out = []
    for _ in range(int(rng.integers(1, max_intervals + 1))):
        start = int(rng.integers(0, max_frame - 1))
        end = int(rng.integers(start + 1, max_frame + 1))
        out.append((start, end))
    return out


def membership(intervals, max_frame=HORIZON):
    """Per-frame counting oracle: boolean coverage over [0, max_frame)."""
    mask = np.zeros(max_frame, dtype=bool)
    for start, end in intervals:
        mask[start:end] = True
    return mask


class TestNormalizeIntervals:
    def test_adjacent_merge(self):
        assert normalize_intervals([[0, 5], [5, 10]]) == [(0, 10)]

    def test_sorting(self):
        assert normalize_intervals([[3, 4], [0, 2]]) == [(0, 2), (3, 4)]

    def test_overlap_merge(self):
        assert normalize_intervals([[0, 6], [4, 9], [12, 13]]) == [(0, 9), (12, 13)]

    def test_covered_length_matches_membership_count(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            raw = random_interval_set(rng)
            merged = normalize_intervals(raw)
            total = sum(e - s for s, e in merged)
            assert total == membership(raw).sum()

    def test_idempotent(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            merged = normalize_intervals(random_interval_set(rng))
            assert normalize_intervals(merged) == merged

    def test_invalid_record_position_reported(self):
        with pytest.raises(ValueError, match="record 1"):
            normalize_intervals([[0, 3], [7, 7]])

    @pytest.mark.parametrize(
        "pair, rule",
        [
            ((math.nan, 3), "start must be finite, got nan"),
            ((0, math.nan), "end must be finite, got nan"),
            ((0, math.inf), "end must be finite, got inf"),
            ((-math.inf, 2), "start must be finite, got -inf"),
            ((0, 10**400), f"end must be finite, got {10**400}"),
            ((-10**400, 2), f"start must be finite, got {-10**400}"),
        ],
        ids=[f"pair{i}" for i in range(6)],
    )
    def test_non_finite_record_rejected(self, pair, rule):
        with pytest.raises(ValueError, match=f"^interval record 1: {rule}$"):
            normalize_intervals([(0, 1), pair])
        with pytest.raises(ValueError, match=f"^interval record 0: {rule}$"):
            keyshot_pr([pair], [(0, 2)])


class TestKeyshotPr:
    def test_identical_sets(self):
        assert keyshot_pr([[0, 10], [20, 30]], [[20, 30], [0, 10]]) == (1.0, 1.0, 1.0)

    def test_disjoint_sets(self):
        assert keyshot_pr([[0, 10]], [[10, 20]]) == (0.0, 0.0, 0.0)

    def test_half_overlap(self):
        p, r, f1 = keyshot_pr([[0, 10]], [[5, 20]])
        assert p == 0.5
        assert r == pytest.approx(1.0 / 3.0)
        assert f1 == pytest.approx(0.4)

    def test_matches_counting_oracle(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            a = random_interval_set(rng)
            b = random_interval_set(rng)
            p, r, f1 = keyshot_pr(a, b)
            mem_a, mem_b = membership(a), membership(b)
            overlap = int((mem_a & mem_b).sum())
            assert abs(p - overlap / mem_a.sum()) <= 1e-9
            assert abs(r - overlap / mem_b.sum()) <= 1e-9
            if overlap:
                expected_f1 = 2 * p * r / (p + r)
                assert abs(f1 - expected_f1) <= 1e-9
            else:
                assert f1 == 0.0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_counting_oracle_property(self, data):
        """On a 12-frame horizon the drawn intervals often overlap, touch or repeat."""
        interval = st.tuples(st.integers(0, 11), st.integers(1, 4)).map(
            lambda p: (p[0], min(p[0] + p[1], 12))
        )
        a = data.draw(st.lists(interval, min_size=1, max_size=6))
        b = data.draw(st.lists(interval, min_size=1, max_size=6))
        p, r, f1 = keyshot_pr(a, b)
        mem_a, mem_b = membership(a, 12), membership(b, 12)
        overlap = int((mem_a & mem_b).sum())
        assert abs(p - overlap / mem_a.sum()) <= 1e-9
        assert abs(r - overlap / mem_b.sum()) <= 1e-9
        assert abs(f1 - 2 * overlap / (mem_a.sum() + mem_b.sum())) <= 1e-9

    def test_precision_recall_duality(self):
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            a = random_interval_set(rng)
            b = random_interval_set(rng)
            p_ab, r_ab, _ = keyshot_pr(a, b)
            p_ba, r_ba, _ = keyshot_pr(b, a)
            assert p_ab == r_ba
            assert r_ab == p_ba

    def test_bounds_and_f1_relation(self):
        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            p, r, f1 = keyshot_pr(random_interval_set(rng), random_interval_set(rng))
            assert 0.0 <= p <= 1.0 and 0.0 <= r <= 1.0 and 0.0 <= f1 <= 1.0
            assert f1 <= max(p, r) + 1e-12
            assert (f1 == 0.0) == (p == 0.0 and r == 0.0)

    def test_resplitting_invariance(self):
        """Splitting an interval into adjacent pieces never changes the metrics."""
        a = [[0, 30]]
        a_split = [[0, 7], [7, 19], [19, 30]]
        b = [[10, 40]]
        assert keyshot_pr(a, b) == keyshot_pr(a_split, b)

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            keyshot_pr([], [[0, 5]])
        with pytest.raises(ValueError):
            keyshot_pr([[0, 5]], [])

    @pytest.mark.parametrize(
        "a, b, needle",
        [
            ([[0, 1e308]], [[-1e308, 1e308]], "reference b overflows float64: inf"),
            ([[-1.7e308, 0], [1, 1.7e308]], [[0, 5]], "summary a overflows float64: inf"),
            ([[-10**308, 10**308]], [[0, 5]], "summary a overflows float64: 2000"),
        ],
        ids=["float-reference", "sum-of-pieces", "int-summary"],
    )
    def test_overflowing_total_duration_named(self, a, b, needle):
        """A duration float64 cannot hold is rejected, not turned into a wrong recall."""
        with pytest.raises(ValueError, match=f"^the total duration of {needle}"):
            keyshot_pr(a, b)


class TestJitterAmount:
    def test_constant_track(self):
        assert jitter_amount([(3.0, 4.0)] * 5) == 0.0

    def test_single_345_step(self):
        assert jitter_amount([(0.0, 0.0), (3.0, 4.0)]) == 5.0

    def test_matches_per_pair_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(10, 2))
        expected = sum(
            math.hypot(pts[i + 1, 0] - pts[i, 0], pts[i + 1, 1] - pts[i, 1]) for i in range(9)
        ) / 9.0
        assert jitter_amount(pts) == pytest.approx(expected, rel=1e-12)

    def test_translation_invariance_and_scaling(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(8, 2))
        base = jitter_amount(pts)
        assert jitter_amount(pts + [100.0, -40.0]) == pytest.approx(base, rel=1e-9)
        assert jitter_amount(pts * 3.0) == pytest.approx(3.0 * base, rel=1e-9)

    def test_too_short_track(self):
        with pytest.raises(ValueError):
            jitter_amount([(0.0, 0.0)])

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            jitter_amount(np.zeros((4, 3)))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_point_named(self, bad):
        with pytest.raises(ValueError, match=r"track point 2 is not finite"):
            jitter_amount([[0, 0], [1, 1], [bad, 1], [2, 2]])

    def test_overflowing_difference_names_the_points(self):
        needle = "^distance between track points 0 and 1 overflows float64: "
        with pytest.raises(ValueError, match=needle):
            jitter_amount([[-1e308, 0], [1e308, 0]])

    @pytest.mark.parametrize(
        "track, expected",
        [([[0, 0], [1e200, 0]], 1e200), ([[0, 0], [1, 1], [1, 1e200], [2, 2]], 2e200 / 3)],
        ids=["one-step", "square"],
    )
    def test_step_whose_square_overflows_is_measured(self, track, expected):
        """A step of 1e200 is a finite float64 distance even though its square is not."""
        assert jitter_amount(track) == pytest.approx(expected, rel=1e-15)

    def test_overflowing_sum_of_distances_rejected(self):
        with pytest.raises(ValueError, match="^the sum of the distances .* overflows float64"):
            jitter_amount([[0, 0], [1.5e308, 0], [0, 0]])

class TestSpeedupDeviation:
    def test_exact_hit(self):
        assert speedup_deviation(8.0, 800, 100) == 0.0

    def test_overshoot(self):
        assert speedup_deviation(8.0, 800, 80) == 2.0

    def test_matches_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            desired = float(rng.uniform(1, 16))
            n_in = int(rng.integers(1, 10_000))
            n_out = int(rng.integers(1, n_in + 1))
            assert speedup_deviation(desired, n_in, n_out) == abs(desired - n_in / n_out)

    def test_zero_output_rejected(self):
        with pytest.raises(ValueError):
            speedup_deviation(8.0, 800, 0)

    @pytest.mark.parametrize("n_output", [2.5, True, 2.0, "3"])
    def test_output_count_follows_the_integer_rule(self, n_output):
        """A fraction or a bool is not a frame count; 2.5 used to give 0.2 and True 4.0."""
        with pytest.raises(ValueError, match=re.escape(
                f"n_output must be a positive integer, got {n_output!r}")):
            speedup_deviation(3, 7, n_output)

    def test_numpy_integer_output_count_accepted(self):
        assert speedup_deviation(3, 7, np.int64(2)) == 0.5

    def test_desired_below_one_rejected(self):
        with pytest.raises(ValueError):
            speedup_deviation(0.5, 800, 100)

    @pytest.mark.parametrize(
        "args, needle",
        [
            ((math.nan, 10, 2), "desired speed-up must be finite and at least 1, got nan"),
            ((math.inf, 10, 2), "desired speed-up must be finite and at least 1, got inf"),
            ((4.0, math.nan, 2), "n_input must be finite and non-negative, got nan"),
            ((4.0, math.inf, 2), "n_input must be finite and non-negative, got inf"),
            ((4.0, -10, 2), "n_input must be finite and non-negative, got -10"),
            ((10**5000, 10, 2), "desired speed-up must be finite and at least 1, "
             "got an int of 16610 bits"),
        ],
        ids=["desired-nan", "desired-inf", "n-input-nan", "n-input-inf", "n-input-negative",
             "desired-too-long-to-print"],
    )
    def test_bad_argument_named(self, args, needle):
        with pytest.raises(ValueError, match=f"^{needle}$"):
            speedup_deviation(*args)
