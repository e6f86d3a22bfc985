"""Exact oracles for the floating-point error model of `videosum._bounds`, and an audit of
every skip both certified bounds make on bench-shaped inputs.

Each property computes the exact value with integers or `fractions.Fraction` and checks
that the bound contains it.  Draws cover widths 1 to 5000, subnormals, signed zeros and
values scaled to both edges of SUM_RANGE.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videosum import _bounds, summarize, train
from videosum._bounds import (SUM_RANGE, TINY, U, UP, dist_range, dot_err, norm_up, outer_up,
                              spectral_up, sq_dist_err, step_up, sum_shrink)
from videosum.model import _forward, init_subnet
from videosum.summarize import _gram_lower_bounds, _sq_dists_to, pam_iterations, uniform_segments
from videosum.synth import SynthSpec, synth_generate
from videosum.train import TrainConfig, contrastive_loss, sample_pairs, sgd_train

SCALE = 1 << 1074  # every float64 times this is an integer


def ints(a) -> list[int]:
    """Each entry of `a` times 2**1074, exactly."""
    out = []
    for x in np.ravel(a).tolist():
        num, den = x.as_integer_ratio()
        out.append(num * (SCALE // den))
    return out


def exact_dot(a, b) -> Fraction:
    return Fraction(sum(p * q for p, q in zip(ints(a), ints(b))), SCALE * SCALE)


def exact_abs_dot(a, b) -> Fraction:
    return Fraction(sum(abs(p * q) for p, q in zip(ints(a), ints(b))), SCALE * SCALE)


def exact_sq_dist(a, b) -> Fraction:
    return Fraction(sum((p - q) ** 2 for p, q in zip(ints(a), ints(b))), SCALE * SCALE)


def sq(x: float) -> Fraction:
    return Fraction(x) ** 2


@st.composite
def vectors(draw, count=1, widths=st.integers(1, 5000)):
    """`count` float vectors of one drawn width, from a seeded generator: normal entries,
    some made subnormal, ±0.0 or huge, the whole draw scaled by a power of two that puts
    the squares anywhere from below SUM_RANGE to past it."""
    n = draw(st.one_of(st.integers(1, 6), widths, st.sampled_from([128, 129, 1000, 5000])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = rng.normal(size=(count, n))
    kind = draw(st.sampled_from(["normal", "mixed", "near", "sparse"]))
    if kind == "mixed":  # subnormals, signed zeros and entries 2**40 larger
        pick = rng.integers(0, 4, size=out.shape)
        out = np.where(pick == 0, out * 2.0**-1060, out)
        out = np.where(pick == 1, np.copysign(0.0, out), out)
        out = np.where(pick == 2, out * 2.0**40, out)
    elif kind == "near":  # the later vectors within a few ulps of the first
        out[1:] = out[0] * (1.0 + rng.integers(-4, 5, size=out[1:].shape) * 2 * U)
    elif kind == "sparse":
        out[rng.random(out.shape) < 0.9] = 0.0
    exponent = draw(st.sampled_from([0, -333, -332, -331, 331, 332, 333, -20, 20]))
    return out * 2.0**exponent


class TestModel:
    def test_up_covers_a_hundred_roundings(self):
        u = Fraction(U)
        assert (1 - u) ** -100 < Fraction(UP) * (1 - u)

    def test_underflow_of_many_products_is_below_u_of_the_safe_range(self):
        assert 10**100 * Fraction(1, 2**1075) < Fraction(U) * Fraction(SUM_RANGE[0])

    def test_tanh_allowance_is_the_measured_constant(self):
        """16 eps: measured against 120-bit mpmath, which the test extra does not install, so
        only the value is pinned here."""
        assert _bounds.TANH_ERR == 16 * np.finfo(float).eps


class TestDotErr:
    @settings(max_examples=150, deadline=None)
    @given(vectors(count=2))
    def test_dot_products_and_gemm_entries_are_within_it(self, xy):
        x, y = xy
        n = x.size
        exact, mag = exact_dot(x, y), exact_abs_dot(x, y)
        allowed = Fraction(dot_err(n)) * mag + (0 if mag >= SUM_RANGE[0] else Fraction(TINY))
        stacked = np.stack([y, y[::-1], -y], axis=1)
        for got in (x @ y, np.einsum("i,i", x, y), (x[None, :] @ stacked)[0, 0],
                    (stacked.T @ x)[0], (x * y).sum()):
            assert abs(Fraction(float(got)) - exact) <= allowed

    @settings(max_examples=100, deadline=None)
    @given(vectors(count=1))
    def test_sums_of_squares_are_within_it(self, x):
        x = x[0]
        exact = exact_dot(x, x)
        allowed = Fraction(dot_err(x.size)) * exact + (0 if exact >= SUM_RANGE[0] else Fraction(TINY))
        for got in (x @ x, np.einsum("ij,ij->i", x[None], x[None])[0], np.square(x).sum()):
            assert abs(Fraction(float(got)) - exact) <= allowed


class TestDistRange:
    @staticmethod
    def computed(a, b):
        """Both ways the package computes a squared distance: the loss's dot product and
        `_sq_dists_to`'s pairwise sum."""
        diff = a - b
        return float(diff @ diff), float(_sq_dists_to(a, b[None, :])[0])

    @settings(max_examples=200, deadline=None)
    @given(vectors(count=2))
    def test_squared_distances_are_within_sq_dist_err(self, ab):
        a, b = ab
        exact = exact_sq_dist(a, b)
        if exact >= SUM_RANGE[0] and exact <= SUM_RANGE[1]:
            for s in self.computed(a, b):
                assert abs(Fraction(s) - exact) <= Fraction(sq_dist_err(a.size)) * exact

    @settings(max_examples=300, deadline=None)
    @given(vectors(count=2))
    def test_contains_the_exact_distance(self, ab):
        a, b = ab
        exact = exact_sq_dist(a, b)
        for s in self.computed(a, b):
            lo, hi = dist_range(s, a.size)
            assert sq(lo) <= exact
            assert hi == math.inf or exact <= sq(hi)
            # hi bounds every pair computed at or below any larger value too.
            above = dist_range(math.nextafter(s, math.inf), a.size)[1]
            assert above == math.inf or exact <= sq(above)

    def test_below_the_range_only_hi_bounds(self):
        assert dist_range(0.0, 3) == (0.0, dist_range(SUM_RANGE[0], 3)[1])
        assert dist_range(math.inf, 3) == dist_range(math.nan, 3) == (0.0, math.inf)


class TestNormUp:
    @settings(max_examples=100, deadline=None)
    @given(vectors(count=3))
    def test_bounds_every_row(self, rows):
        bound = norm_up(rows)
        exact = max(exact_dot(r, r) for r in rows)
        assert bound == math.inf or exact <= sq(bound)
        if exact <= SUM_RANGE[1] / 2:
            assert bound < math.inf

    def test_nan_and_overflow_are_inf(self):
        assert norm_up(np.array([[math.nan, 1.0]])) == math.inf
        assert norm_up(np.array([[1e150, 1e150]])) == math.inf


class TestSpectralUp:
    @staticmethod
    def exact_bound(w) -> Fraction:
        """min(Frobenius, Gershgorin on the exact Gram matrix of w's shorter side), both at
        least the squared spectral norm."""
        side = w if w.shape[0] >= w.shape[1] else w.T
        cols = [ints(side[:, j]) for j in range(side.shape[1])]
        gersh = max(sum(abs(sum(p * q for p, q in zip(c, d))) for d in cols) for c in cols)
        return Fraction(min(sum(p * p for c in cols for p in c), gersh), SCALE * SCALE)

    @settings(max_examples=150, deadline=None)
    @given(vectors(count=4), st.integers(1, 4), st.booleans())
    def test_contains_gershgorin_and_frobenius(self, rows, width, flip):
        w = rows[:width].T if flip else rows[:width]
        bound = spectral_up(w)
        assert bound <= norm_up(w.reshape(1, -1))
        assert bound == math.inf or self.exact_bound(w) <= sq(bound)


class TestStepUp:
    @settings(max_examples=150, deadline=None)
    @given(vectors(count=2), st.sampled_from([1e-9, 0.01, 1.0, 3.0]))
    def test_bounds_the_rounded_update(self, wg, lr):
        w, g = wg[0].copy(), wg[1] * lr
        old = w.copy()
        w -= g
        step, norm = norm_up(g[None]), norm_up(old[None])
        moved = Fraction(sum((p - q) ** 2 for p, q in zip(ints(w), ints(old))), SCALE * SCALE)
        bound = step_up(step, norm)
        assert bound == math.inf or moved <= sq(bound)


class TestOuterUp:
    @settings(max_examples=50, deadline=None)
    @given(vectors(count=2, widths=st.integers(1, 80)), st.integers(1, 64),
           st.sampled_from([1e-9, 0.01, 1.0, 3.0]))
    def test_bounds_the_blocked_outer_product(self, xy, h, lr):
        """As `train._step` forms a one-row w1 step: g_i x_j, then scaled by lr."""
        g, x = xy[0][:h], xy[1]
        out = np.multiply(g[:, None], x)
        out *= lr
        bound = outer_up(lr, norm_up(g[None]), norm_up(x[None]), out.size)
        assert bound == math.inf or exact_dot(out, out) <= sq(bound)


def sequential(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


class TestSumShrink:
    @settings(max_examples=200, deadline=None)
    @given(vectors(count=2), st.sampled_from(["equal", "lower", "zeroed"]))
    def test_shrunk_bound_is_at_most_any_computed_exact_sum(self, ts, how):
        """Non-negative terms t and bound terms b <= t, summed in different orders."""
        t = np.abs(ts[0])
        b = {"equal": t, "lower": np.minimum(t, np.abs(ts[1])),
             "zeroed": np.where(ts[1] > 0, t, 0.0)}[how]
        n = t.size
        exact = Fraction(sum(ints(t)), SCALE)
        sums = [float(t.sum()), sequential(t.tolist()), sequential(t[::-1].tolist()),
                sequential(sorted(t.tolist()))]
        u = Fraction(U)
        floor = exact * (1 - (n - 1) * u / (1 - (n - 1) * u))
        for bound in (float(b.sum()), sequential(b.tolist()), sequential(b[::-1].tolist())):
            shrunk = bound * sum_shrink(n)
            assert shrunk <= min(sums)
            if exact >= SUM_RANGE[0] and math.isfinite(shrunk):
                assert Fraction(shrunk) <= floor


class TestGramShrink:
    @settings(max_examples=200, deadline=None)
    @given(vectors(count=5, widths=st.integers(1, 1000)), st.integers(2, 5))
    def test_gram_bound_is_at_most_every_computed_distance(self, pts, n):
        pts = pts[:n]
        lo = _gram_lower_bounds(pts)
        if lo is not None:
            assert (lo <= np.array([_sq_dists_to(p, pts) for p in pts])).all()


def bench_training_inputs():
    """The train bench's shapes: 20 events of 32 frames and 4 gap frames at 1024-d, 36-frame
    segments, descriptions through a seeded 4800-d projection."""
    data = synth_generate(SynthSpec(seed=0, n_events=20, frames_per_event=32, gap_frames=4,
                                    dim=1024))
    descs = data.descs @ np.random.default_rng([0, 1]).normal(size=(20, 4800))
    segments = uniform_segments(len(data.features), 36)
    return sample_pairs([data.features[s.start : s.end] for s in segments], descs, data.labels)


class TestSkipAudit:
    """Every skip either bound makes is recomputed exactly."""

    def test_every_cleared_negative_pair_has_loss_zero(self, monkeypatch):
        """The train bench's inputs and nets, two epochs at learning rate 0.01."""
        real = train._EmbeddingCache.beyond_margin
        cleared = []

        def audited(cache, inputs, margin):
            result = real(cache, inputs, margin)
            if result:
                emb = [_forward(cache.nets[k], rows)[1].mean(axis=0)
                       for k, rows in (cache.inputs[n] for n in inputs)]
                assert contrastive_loss(*emb, 0, margin) == 0.0
                cleared.append(inputs)
            return result

        monkeypatch.setattr(train._EmbeddingCache, "beyond_margin", audited)
        sgd_train(init_subnet(0, 1024, 256, 300), init_subnet(1, 4800, 256, 300),
                  bench_training_inputs(),
                  TrainConfig(margin=1.0, learning_rate=0.01, epochs=2))
        assert len(cleared) > 100

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 2), dims=st.tuples(*[st.integers(1, 4)] * 4),
           learning_rate=st.sampled_from([1e-16, 1e-12, 1e-4, 0.05]))
    def test_no_pair_within_the_slack_is_below_a_cleared_margin(self, seed, dims, learning_rate):
        """Whenever the bound is asked about a pair, move the cached embeddings toward each
        other by a little less than each stale input's drift + rounding, less what rounding
        the move can add: the bound must not clear any margin above that pair's computed
        squared distance.  Tiny learning rates leave the rounding allowance most of it."""
        video_dim, desc_dim, hidden, embed = dims
        rng = np.random.default_rng(seed)
        dataset = sample_pairs([rng.normal(size=(n, video_dim)) for n in (1, 2, 3)],
                               rng.normal(size=(3, desc_dim)),
                               [(i, j, int(i == j == 0)) for i in range(3) for j in range(3)])
        real = train._EmbeddingCache.beyond_margin

        def inside(cache, n):
            """A move just inside input n's slack, less what rounding the move can add."""
            if cache.fresh(n):
                return 0.0
            slack, e = cache.drift[n] + cache.rounding[n], cache.pooled[n]
            return slack * (1 - 1e-3) - 4 * U * (math.sqrt(e @ e) + slack)

        def adversary(cache, inputs, margin):
            v, d = (cache.pooled[n] for n in inputs)
            diff = None if v is None or d is None else v - d
            norm = 0.0 if diff is None else math.sqrt(diff @ diff)
            moved = [inside(cache, n) for n in inputs] if norm > 0 else [-1.0]
            if min(moved) >= 0:
                x, y = v - moved[0] * diff / norm, d + moved[1] * diff / norm
                closest = float((x - y) @ (x - y))
                assert not real(cache, inputs, math.nextafter(closest, math.inf))
            return real(cache, inputs, margin)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(train._EmbeddingCache, "beyond_margin", adversary)
            sgd_train(init_subnet(seed, video_dim, hidden, embed),
                      init_subnet(seed + 1, desc_dim, hidden, embed), dataset,
                      TrainConfig(margin=0.5, learning_rate=learning_rate, epochs=3, seed=seed))

    @pytest.mark.parametrize("clusters, noise", [(20, 0.3), (5, 1.0)])
    def test_every_candidate_pam_skips_has_a_larger_key(self, monkeypatch, clusters, noise):
        """For each candidate whose exact sum PAM never took, that sum is above the chosen
        one, or equal with a higher index; 400 points at D = 300, k = 20."""
        real = summarize._least
        skipped = []

        def audited(bound, keys, best, most):
            taken = []

            def recorded(idx):
                taken.extend(idx.tolist())
                return keys(idx)

            result = real(bound, recorded, best, most)
            rest = np.setdiff1d(np.flatnonzero(~np.isnan(bound)), taken)
            for start in range(0, rest.size, most):
                assert all(key > result for key in keys(rest[start : start + most]))
            skipped.append(rest.size)
            return result

        rng = np.random.default_rng(clusters)
        pts = (np.repeat(rng.normal(size=(clusters, 300)), 400 // clusters, axis=0)
               + rng.normal(0.0, noise, size=(400, 300)))
        monkeypatch.setattr(summarize, "_least", audited)
        assert len(list(pam_iterations(pts, 20))) > 1
        assert sum(skipped) > 1000
