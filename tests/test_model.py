"""Unit tests for the numeric kernels: LSTM cell, scorer, embedding subnets."""

import math
import warnings

import numpy as np
import pytest

from videosum.model import (
    DEFAULT_DESC_DIM,
    DEFAULT_EMBED_DIM,
    DEFAULT_HIDDEN_DIM,
    ImportanceScorer,
    LstmParams,
    LstmState,
    Subnet,
    embed_frames,
    ffn_forward,
    init_lstm,
    init_scorer,
    init_subnet,
    lstm_scan,
    lstm_step,
    score_importance,
    sigmoid,
    zero_state,
)


class TestSigmoid:
    def test_saturation_is_silent(self):
        """exp(1000) overflows to inf; the limit 0.0 comes back with no warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sigmoid(-1000.0) == 0.0
            np.testing.assert_array_equal(sigmoid(np.array([-1000.0, 0.0, 1000.0])), [0.0, 0.5, 1.0])


def scalar_lstm_step(w_i, w_f, w_o, w_c, h_prev, c_prev, x):
    """Independent 1-dim evaluation of the bias-free cell with math only.

    Each gate weight is a pair (input weight, recurrent weight).
    """
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    zi = w_i[0] * x + w_i[1] * h_prev
    zf = w_f[0] * x + w_f[1] * h_prev
    zo = w_o[0] * x + w_o[1] * h_prev
    zc = w_c[0] * x + w_c[1] * h_prev
    c = sig(zi) * math.tanh(zc) + sig(zf) * c_prev
    h = sig(zo) * math.tanh(c)
    return h, c


def make_1d_params(w_i, w_f, w_o, w_c):
    return LstmParams(w=np.array([w_i, w_f, w_o, w_c], dtype=float))


class TestLstmStep:
    def test_zero_weights_zero_state(self):
        """All-zero weights force every gate to 0.5 and leave c' = h' = 0."""
        params = init_lstm(0, 3, 2)
        params.w[:] = 0.0
        state = lstm_step(params, zero_state(params), np.ones(3))
        np.testing.assert_array_equal(state.c, 0.0)
        np.testing.assert_array_equal(state.h, 0.0)

    def test_zero_weights_nonzero_cell(self):
        """Gates forced to 0.5: c' = 0.5 * c_prev, h' = 0.5 * tanh(c')."""
        params = make_1d_params([0, 0], [0, 0], [0, 0], [0, 0])
        prev = LstmState(h=np.zeros(1), c=np.ones(1))
        state = lstm_step(params, prev, np.array([7.0]))
        np.testing.assert_allclose(state.c, [0.5], rtol=0, atol=0)
        np.testing.assert_allclose(state.h, [0.23105857863000487], rtol=1e-15)

    def test_unit_weight_scalar_case(self):
        """D=H=1 with all gate weights [1, 1], x=1, zero state."""
        params = make_1d_params([1, 1], [1, 1], [1, 1], [1, 1])
        state = lstm_step(params, zero_state(params), np.array([1.0]))
        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        c_expect = sig1 * math.tanh(1.0)
        h_expect = sig1 * math.tanh(c_expect)
        np.testing.assert_allclose(state.c, [c_expect], rtol=1e-15)
        np.testing.assert_allclose(state.h, [h_expect], rtol=1e-15)

    def test_matches_independent_scalar_oracle(self):
        """Seeded 1-dim cases agree with a pure-math evaluation to 1e-12."""
        for seed in range(50):
            rng = np.random.default_rng(seed)
            w = rng.uniform(-2, 2, size=(4, 2))
            h_prev, c_prev, x = rng.uniform(-1, 1, size=3)
            params = make_1d_params(*w)
            state = lstm_step(
                params, LstmState(h=np.array([h_prev]), c=np.array([c_prev])), np.array([x])
            )
            h_ref, c_ref = scalar_lstm_step(*w, h_prev, c_prev, x)
            assert abs(state.h[0] - h_ref) <= 1e-12
            assert abs(state.c[0] - c_ref) <= 1e-12

    def test_gate_and_hidden_ranges(self):
        """Gates stay strictly in (0,1) and h strictly in (-1,1)."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = init_lstm(seed, 6, 4)
            state = zero_state(params)
            for _ in range(5):
                x = rng.normal(size=6)
                xh = np.concatenate([x, state.h])
                for w in np.split(params.w, 4)[:3]:
                    gate = 1.0 / (1.0 + np.exp(-(w @ xh)))
                    assert np.all(gate > 0) and np.all(gate < 1)
                state = lstm_step(params, state, x)
                assert np.all(state.h > -1) and np.all(state.h < 1)

    def test_shape_errors(self):
        params = init_lstm(0, 3, 2)
        with pytest.raises(ValueError):
            lstm_step(params, zero_state(params), np.ones(4))
        bad_state = LstmState(h=np.zeros(3), c=np.zeros(3))
        with pytest.raises(ValueError):
            lstm_step(params, bad_state, np.ones(3))

    @pytest.mark.parametrize("shape", [(7, 5), (8, 2), (0, 3), (8,), (2, 8, 5)])
    def test_non_stacked_gate_matrix_rejected(self, shape):
        """Only a (4H, D+H) matrix with H, D >= 1 is a valid stack of four gates."""
        with pytest.raises(ValueError, match=r"expected \(4H, D\+H\)"):
            LstmParams(w=np.zeros(shape))


class TestLstmScan:
    def test_empty_sequence(self):
        params = init_lstm(0, 3, 2)
        out = lstm_scan(params, np.zeros((0, 3)))
        assert out.shape == (0, 2)

    def test_zero_weights_all_zero_rows(self):
        params = init_lstm(0, 3, 2)
        params.w[:] = 0.0
        out = lstm_scan(params, np.random.default_rng(1).normal(size=(5, 3)))
        np.testing.assert_array_equal(out, 0.0)

    def test_matches_chained_steps(self):
        """Scan rows equal explicitly chained lstm_step calls."""
        rng = np.random.default_rng(3)
        params = make_1d_params(*rng.uniform(-1, 1, size=(4, 2)))
        frames = rng.normal(size=(3, 1))
        out = lstm_scan(params, frames)
        state = zero_state(params)
        for t in range(3):
            state = lstm_step(params, state, frames[t])
            np.testing.assert_array_equal(out[t], state.h)

    def test_causality(self):
        """Truncating the input after t leaves rows 0..t bitwise unchanged."""
        rng = np.random.default_rng(4)
        params = init_lstm(4, 5, 3)
        frames = rng.normal(size=(8, 5))
        full = lstm_scan(params, frames)
        for t in (1, 4, 7):
            np.testing.assert_array_equal(lstm_scan(params, frames[: t + 1]), full[: t + 1])

    def test_shape_error(self):
        params = init_lstm(0, 3, 2)
        with pytest.raises(ValueError):
            lstm_scan(params, np.zeros((4, 2)))


class TestScoreImportance:
    def test_zero_everything_gives_half(self):
        scorer = init_scorer(0, 4, 3)
        for cell in (scorer.forward, scorer.backward):
            cell.w[:] = 0.0
        scorer.readout_w[:] = 0.0
        scorer.readout_b = 0.0
        scores = score_importance(scorer, np.random.default_rng(0).normal(size=(6, 4)))
        np.testing.assert_array_equal(scores, 0.5)

    def test_single_frame_matches_manual(self):
        scorer = init_scorer(1, 4, 3)
        frame = np.random.default_rng(2).normal(size=(1, 4))
        h_f = lstm_step(scorer.forward, zero_state(scorer.forward), frame[0]).h
        h_b = lstm_step(scorer.backward, zero_state(scorer.backward), frame[0]).h
        z = scorer.readout_w @ np.concatenate([h_f, h_b]) + scorer.readout_b
        expected = 1.0 / (1.0 + np.exp(-z))
        np.testing.assert_allclose(score_importance(scorer, frame), [expected], rtol=1e-15)

    def test_reversal_symmetry(self):
        """Reversing input and swapping the directional halves reverses scores."""
        scorer = init_scorer(5, 4, 3)
        frames = np.random.default_rng(6).normal(size=(7, 4))
        swapped = ImportanceScorer(
            forward=scorer.backward,
            backward=scorer.forward,
            readout_w=np.concatenate([scorer.readout_w[3:], scorer.readout_w[:3]]),
            readout_b=scorer.readout_b,
        )
        fwd = score_importance(scorer, frames)
        rev = score_importance(swapped, frames[::-1])
        np.testing.assert_allclose(rev, fwd[::-1], rtol=1e-12)

    def test_pinned_seeded_scores(self):
        """Scores of a seeded scorer, recorded before the LSTM init was shared."""
        scorer = init_scorer(3, 6, 4)
        scores = score_importance(scorer, np.random.default_rng(8).normal(size=(10, 6)))
        expected = [
            0.4511808239568684, 0.4289018744833479, 0.42497122392149067,
            0.4436217781192675, 0.44254879657522617, 0.44793422943907546,
            0.4142560748090893, 0.45752499374481737, 0.43538253557296897,
            0.39936035986651636,
        ]
        np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=0)

    def test_readout_shape_checked_before_the_scans(self):
        """A wrong readout is named even when the frames would also fail the scan."""
        scorer = init_scorer(0, 4, 3)
        scorer.readout_w = np.zeros(5)
        for frames in (np.zeros((6, 4)), np.zeros((6, 9))):
            with pytest.raises(ValueError, match=r"readout has shape \(5,\), expected \(6,\)"):
                score_importance(scorer, frames)

    def test_scores_in_open_unit_interval(self):
        for seed in range(5):
            scorer = init_scorer(seed, 3, 4)
            frames = np.random.default_rng(seed).normal(size=(10, 3))
            scores = score_importance(scorer, frames)
            assert np.all(scores > 0) and np.all(scores < 1)


class TestFfnForward:
    def test_zero_net(self):
        net = init_subnet(0, 3, 4, 2)
        for name in ("w1", "b1", "w2", "b2"):
            getattr(net, name)[:] = 0.0
        np.testing.assert_array_equal(ffn_forward(net, np.ones(3)), 0.0)

    def test_scalar_toy(self):
        """1-dim identity-weight net: tanh(tanh(1))."""
        net = Subnet(w1=np.array([[1.0]]), b1=np.zeros(1), w2=np.array([[1.0]]), b2=np.zeros(1))
        np.testing.assert_allclose(
            ffn_forward(net, np.array([1.0])), [0.6420149920119997], rtol=1e-15
        )

    def test_outputs_strictly_inside_unit_cube(self):
        net = init_subnet(7, 5, 6, 4)
        for seed in range(20):
            x = np.random.default_rng(seed).normal(scale=10, size=5)
            out = ffn_forward(net, x)
            assert np.all(out > -1) and np.all(out < 1)
            assert np.all(np.isfinite(out))

    def test_shape_error(self):
        net = init_subnet(0, 3, 4, 2)
        with pytest.raises(ValueError):
            ffn_forward(net, np.ones(4))


class TestEmbedFrames:
    def test_identical_frames_collapse_to_single_forward(self):
        net = init_subnet(1, 4, 5, 3)
        frame = np.random.default_rng(0).normal(size=4)
        segment = np.tile(frame, (6, 1))
        np.testing.assert_allclose(embed_frames(net, segment), ffn_forward(net, frame), rtol=1e-12)

    def test_single_frame(self):
        net = init_subnet(2, 4, 5, 3)
        frame = np.random.default_rng(1).normal(size=4)
        np.testing.assert_allclose(
            embed_frames(net, frame[None, :]), ffn_forward(net, frame), rtol=1e-14
        )

    def test_two_frames_average(self):
        """1-dim toy: the segment embedding is the mean of the two outputs."""
        net = Subnet(w1=np.array([[1.0]]), b1=np.zeros(1), w2=np.array([[1.0]]), b2=np.zeros(1))
        seg = np.array([[1.0], [-0.5]])
        expected = (ffn_forward(net, seg[0]) + ffn_forward(net, seg[1])) / 2.0
        np.testing.assert_allclose(embed_frames(net, seg), expected, rtol=1e-14)

    def test_permutation_invariance(self):
        net = init_subnet(3, 4, 5, 3)
        rng = np.random.default_rng(3)
        seg = rng.normal(size=(7, 4))
        perm = rng.permutation(7)
        np.testing.assert_allclose(embed_frames(net, seg), embed_frames(net, seg[perm]), rtol=1e-12)

    def test_empty_segment_rejected(self):
        net = init_subnet(0, 4, 5, 3)
        with pytest.raises(ValueError):
            embed_frames(net, np.zeros((0, 4)))


class TestEmbedDescription:
    def test_zero_net(self):
        net = init_subnet(0, 6, 4, 3)
        for name in ("w1", "b1", "w2", "b2"):
            getattr(net, name)[:] = 0.0
        np.testing.assert_array_equal(ffn_forward(net, np.ones(6)), 0.0)

    def test_scalar_toy_matches_ffn(self):
        net = Subnet(w1=np.array([[1.0]]), b1=np.zeros(1), w2=np.array([[1.0]]), b2=np.zeros(1))
        np.testing.assert_allclose(
            ffn_forward(net, np.array([1.0])), [0.6420149920119997], rtol=1e-15
        )

    def test_range(self):
        net = init_subnet(9, 8, 4, 3)
        v = np.random.default_rng(9).normal(scale=5, size=8)
        out = ffn_forward(net, v)
        assert np.all(np.abs(out) < 1)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = init_subnet(42, 5, 4, 3)
        b = init_subnet(42, 5, 4, 3)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(init_lstm(42, 5, 4).w, init_lstm(42, 5, 4).w)

    def test_stacked_gates_equal_four_consecutive_draws(self):
        """The one (4H, D+H) draw holds the values four (H, D+H) gate draws gave, in order."""
        for seed, (d, h) in enumerate([(5, 4), (3, 7), (1, 1)]):
            bound = 1.0 / np.sqrt(d + h)
            rng = np.random.default_rng(seed)
            gates = [rng.uniform(-bound, bound, size=(h, d + h)) for _ in range(4)]
            np.testing.assert_array_equal(init_lstm(seed, d, h).w, np.vstack(gates))

    def test_scorer_forward_cell_is_init_lstm(self):
        """Both initialisers draw the i, f, o, c gates from a fresh generator first."""
        scorer = init_scorer(7, 5, 4)
        cell = init_lstm(7, 5, 4)
        np.testing.assert_array_equal(scorer.forward.w, cell.w)

    def test_different_seeds_differ(self):
        a = init_subnet(0, 5, 4, 3)
        b = init_subnet(1, 5, 4, 3)
        assert not np.array_equal(a.w1, b.w1)

    def test_fan_in_bounds(self):
        """Every entry lies within [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
        for seed in range(25):
            net = init_subnet(seed, 7, 5, 3)
            assert np.all(np.abs(net.w1) <= 1 / np.sqrt(7))
            assert np.all(np.abs(net.b1) <= 1 / np.sqrt(7))
            assert np.all(np.abs(net.w2) <= 1 / np.sqrt(5))
            assert np.all(np.abs(net.b2) <= 1 / np.sqrt(5))
            params = init_lstm(seed, 7, 5)
            assert params.w.shape == (20, 12)
            assert np.all(np.abs(params.w) <= 1 / np.sqrt(12))
            scorer = init_scorer(seed, 7, 5)
            assert np.all(np.abs(scorer.readout_w) <= 1 / np.sqrt(10))

    @pytest.mark.parametrize("dims", [(0, 4, 3), (4, 0, 3), (4, 3, 0), (-1, 2, 2)])
    def test_invalid_dims_rejected(self, dims):
        with pytest.raises(ValueError):
            init_subnet(0, *dims)

    def test_invalid_lstm_dims_rejected(self):
        with pytest.raises(ValueError):
            init_lstm(0, 0, 3)
        with pytest.raises(ValueError):
            init_scorer(0, 3, 0)

    def test_unconfigured_dims_use_defaults(self):
        assert (DEFAULT_EMBED_DIM, DEFAULT_HIDDEN_DIM, DEFAULT_DESC_DIM) == (300, 256, 4800)
        net = init_subnet(0, 10)
        assert net.hidden_dim == 256 and net.embed_dim == 300
        desc = init_subnet(0, DEFAULT_DESC_DIM, hidden_dim=4, embed_dim=3)
        assert desc.input_dim == 4800
        assert init_lstm(0, 10).hidden_dim == 256
