"""Unit tests for the numeric kernels: LSTM cell, scorer, embedding subnets."""

import hashlib
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from videosum import model
from videosum.io import load_checkpoint, save_checkpoint
from videosum.model import (
    _CHUNK,
    _cell,
    _signed,
    DEFAULT_DESC_DIM,
    DEFAULT_EMBED_DIM,
    DEFAULT_HIDDEN_DIM,
    ImportanceScorer,
    LstmParams,
    Subnet,
    embed_frames,
    init_scorer,
    init_subnet,
    lstm_scan,
    score_importance,
    sigmoid,
)
from videosum.summarize import segment_features, uniform_segments
from videosum.train import PairExample, TrainConfig, loss_gradients, sgd_train

PARAMS = ("w1", "b1", "w2", "b2")


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


def step(w, x, h, c):
    """One step on [x ; h]: the kernel takes the sign-folded recurrent block and input
    projection, and updates copies of (h, c) in place, c in its [z | c] buffer."""
    d, gates, w = x.shape[0], w.shape[0], _signed(w)
    h, zc = np.array(h, dtype=float), np.concatenate([np.empty(gates), np.asarray(c, dtype=float)])
    _cell(w[:, d:], zc)(w[:, :d] @ x, h, h)
    return h, zc[gates:]


def concatenated_scan(w, frames, forced=None):
    """Hidden rows from the textbook step z = w @ [x ; h], written out without the kernel.

    With `forced` (teacher forcing), step t takes h = forced[t - 1] instead of its own last
    row, so a rounding difference in h does not compound over the steps; the cell state
    still follows the textbook recurrence.
    """
    h_dim = w.shape[0] // 4
    h = c = np.zeros(h_dim)
    rows = []
    for t, x in enumerate(frames):
        z = w @ np.concatenate([x, h])
        i, f, o = (1.0 / (1.0 + np.exp(-z[k * h_dim : (k + 1) * h_dim])) for k in range(3))
        c = i * np.tanh(z[3 * h_dim :]) + f * c
        h = o * np.tanh(c)
        rows.append(h)
        if forced is not None:
            h = forced[t]
    return np.array(rows)


def two_scan_scores(scorer, frames):
    """The scores as the readout over one lstm_scan per direction, run one after the other."""
    h_f = lstm_scan(scorer.forward, frames)
    h_b = lstm_scan(scorer.backward, frames[::-1])[::-1]
    w, h_dim = scorer.readout_w, scorer.forward.hidden_dim
    return sigmoid(h_f @ w[:h_dim] + h_b @ w[h_dim:] + scorer.readout_b)


# H = 2, D = 1.  Gates i, f, o saturate at 1; the candidate rows add 100 x to
# -1.7e308 (h_1 + h_2), so once h is about 0.76 a frame of 1e307 gives inf + -inf.
OVERFLOWING_CELL = LstmParams([[100, 0, 0]] * 6 + [[100, -1.7e308, -1.7e308]] * 2)


class TestLstmStep:
    """One step of the private cell kernel from a chosen (h, c)."""

    def test_zero_weights_zero_state(self):
        """All-zero weights force every gate to 0.5 and leave c' = h' = 0."""
        params = init_scorer(0, 3, 2).forward
        params.w[:] = 0.0
        h, c = step(params.w, np.ones(3), np.zeros(2), np.zeros(2))
        np.testing.assert_array_equal(c, 0.0)
        np.testing.assert_array_equal(h, 0.0)

    def test_zero_weights_nonzero_cell(self):
        """Gates forced to 0.5: c' = 0.5 * c_prev, h' = 0.5 * tanh(c')."""
        params = make_1d_params([0, 0], [0, 0], [0, 0], [0, 0])
        h, c = step(params.w, np.array([7.0]), np.zeros(1), np.ones(1))
        np.testing.assert_allclose(c, [0.5], rtol=0, atol=0)
        np.testing.assert_allclose(h, [0.23105857863000487], rtol=1e-15)

    def test_unit_weight_scalar_case(self):
        """D=H=1 with all gate weights [1, 1], x=1, zero state."""
        params = make_1d_params([1, 1], [1, 1], [1, 1], [1, 1])
        h, c = step(params.w, np.array([1.0]), np.zeros(1), np.zeros(1))
        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        c_expect = sig1 * math.tanh(1.0)
        h_expect = sig1 * math.tanh(c_expect)
        np.testing.assert_allclose(c, [c_expect], rtol=1e-15)
        np.testing.assert_allclose(h, [h_expect], rtol=1e-15)

    def test_matches_independent_scalar_oracle(self):
        """Seeded 1-dim cases agree with a pure-math evaluation to 1e-12."""
        for seed in range(50):
            rng = np.random.default_rng(seed)
            w = rng.uniform(-2, 2, size=(4, 2))
            h_prev, c_prev, x = rng.uniform(-1, 1, size=3)
            params = make_1d_params(*w)
            h, c = step(params.w, np.array([x]), np.array([h_prev]), np.array([c_prev]))
            h_ref, c_ref = scalar_lstm_step(*w, h_prev, c_prev, x)
            assert abs(h[0] - h_ref) <= 1e-12
            assert abs(c[0] - c_ref) <= 1e-12

    def test_gate_and_hidden_ranges(self):
        """Gates stay strictly in (0,1) and h strictly in (-1,1)."""
        for seed in range(10):
            rng = np.random.default_rng(seed)
            params = init_scorer(seed, 6, 4).forward
            h = c = np.zeros(4)
            for _ in range(5):
                x = rng.normal(size=6)
                xh = np.concatenate([x, h])
                for w in np.split(params.w, 4)[:3]:
                    gate = 1.0 / (1.0 + np.exp(-(w @ xh)))
                    assert np.all(gate > 0) and np.all(gate < 1)
                h, c = step(params.w, x, h, c)
                assert np.all(h > -1) and np.all(h < 1)

    @pytest.mark.parametrize("shape", [(7, 5), (8, 2), (0, 3), (8,), (2, 8, 5)])
    def test_non_stacked_gate_matrix_rejected(self, shape):
        """Only a (4H, D+H) matrix with H, D >= 1 is a valid stack of four gates."""
        with pytest.raises(ValueError, match=r"expected \(4H, D\+H\)"):
            LstmParams(w=np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, bad):
        w = np.zeros((8, 3))
        w[5, 1] = bad
        with pytest.raises(ValueError, match="non-finite weight at row 5, column 1"):
            LstmParams(w)


class TestLstmScan:
    def test_empty_sequence(self):
        params = init_scorer(0, 3, 2).forward
        out = lstm_scan(params, np.zeros((0, 3)))
        assert out.shape == (0, 2)

    @pytest.mark.parametrize("width", [2, 7])
    def test_empty_sequence_of_the_wrong_width_rejected(self, width):
        """No frames still have a width, and it must be the cell's input width."""
        scorer = init_scorer(0, 3, 2)
        for call in (lambda f: lstm_scan(scorer.forward, f), lambda f: score_importance(scorer, f)):
            with pytest.raises(ValueError, match=f"^frames has {width} columns, cell expects 3$"):
                call(np.zeros((0, width)))

    def test_zero_weights_all_zero_rows(self):
        params = init_scorer(0, 3, 2).forward
        params.w[:] = 0.0
        out = lstm_scan(params, np.random.default_rng(1).normal(size=(5, 3)))
        np.testing.assert_array_equal(out, 0.0)

    def test_matches_chained_steps(self):
        """Scan rows of a 1-dim cell are within 1e-12 of the pure-math oracle chained."""
        for seed in range(20):
            rng = np.random.default_rng(seed)
            w = rng.uniform(-2, 2, size=(4, 2))
            frames = rng.normal(size=(6, 1))
            out = lstm_scan(make_1d_params(*w), frames)
            h = c = 0.0
            for t in range(6):
                h, c = scalar_lstm_step(*w, h, c, frames[t, 0])
                assert abs(out[t, 0] - h) <= 1e-12

    def test_matches_concatenated_steps_over_several_chunks(self):
        """300 frames span three input-projection chunks; rows stay within 1e-12 of w @ [x ; h]."""
        params = init_scorer(6, 5, 4).forward
        frames = np.random.default_rng(6).normal(size=(300, 5))
        np.testing.assert_allclose(
            lstm_scan(params, frames), concatenated_scan(params.w, frames), rtol=0, atol=1e-12
        )

    def test_causality(self):
        """Truncating the input after t leaves rows 0..t bitwise unchanged, at chunk edges too."""
        rng = np.random.default_rng(4)
        params = init_scorer(4, 5, 3).forward
        frames = rng.normal(size=(300, 5))
        full = lstm_scan(params, frames)
        for t in (0, 1, 4, 7, 127, 128, 129, 255):
            np.testing.assert_array_equal(lstm_scan(params, frames[: t + 1]), full[: t + 1])

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 300), d=st.integers(1, 6), h=st.integers(1, 5),
           scale=st.sampled_from([0.1, 1.0, 4.0]), seed=st.integers(0, 2**32 - 1),
           cut=st.integers(0, 299))
    # Run freely, the textbook scan drifts 1.2e-12 from the kernel's rows by frame 196: two
    # valid summation orders of z, compounded over 197 steps of a scale-4 recurrence.
    @example(n=197, d=1, h=5, scale=4.0, seed=144, cut=196)
    def test_matches_concatenated_steps_property(self, n, d, h, scale, seed, cut):
        """Across chunk edges and weight scales, each row is within 1e-12 of the textbook step
        w @ [x ; h] taken from the scan's previous row, and truncating the input after frame
        t = cut mod n leaves rows 0..t bitwise unchanged."""
        rng = np.random.default_rng(seed)
        params = LstmParams(rng.uniform(-scale, scale, size=(4 * h, d + h)))
        frames = rng.normal(size=(n, d))
        full = lstm_scan(params, frames)
        np.testing.assert_allclose(
            full, concatenated_scan(params.w, frames, forced=full).reshape(n, h), rtol=0, atol=1e-12
        )
        if n:
            t = cut % n
            np.testing.assert_array_equal(lstm_scan(params, frames[: t + 1]), full[: t + 1])

    @pytest.mark.parametrize("h", [4, 256])  # H = 256 tiles the projection at D = 5
    @pytest.mark.parametrize("n", [1023, 1024, 1025, 2049])
    def test_rows_do_not_depend_on_the_frames_that_follow(self, n, h):
        """Cut at or next to a chunk edge, the input gives the bytes of the longer input's
        first n rows: a short last chunk, and the stale rows its buffer holds past the cut,
        change no row."""
        params = init_scorer(n, 5, h).forward
        frames = np.random.default_rng(n).normal(size=(n + _CHUNK + 1, 5))
        rows = lstm_scan(params, frames)
        assert lstm_scan(params, frames[:n]).tobytes() == rows[:n].tobytes()

    def test_strided_input_matches_its_contiguous_copy(self):
        """Reversed, strided and column-major inputs give the rows of their contiguous copies."""
        params = init_scorer(5, 5, 3).forward
        frames = np.random.default_rng(5).normal(size=(300, 10))
        for view in (frames[::-1, :5], frames[:, ::2], frames[::2, 5:],
                     np.asfortranarray(frames[:, :5])):
            np.testing.assert_array_equal(
                lstm_scan(params, view), lstm_scan(params, np.ascontiguousarray(view))
            )

    def test_shape_error(self):
        params = init_scorer(0, 3, 2).forward
        with pytest.raises(ValueError):
            lstm_scan(params, np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_frame_named(self, bad):
        frames = np.zeros((5, 3))
        frames[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite value at frame 3"):
            lstm_scan(init_scorer(0, 3, 2).forward, frames)

    def test_overflow_on_finite_input_is_silent_or_named(self):
        """A projection beyond float64 raises no warning; the rows are finite or frame 0 is named."""
        params = LstmParams([[2, -2, 0], [0] * 3, [0] * 3, [0] * 3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = lstm_scan(params, [[1e308, 1e308]])
            except ValueError as exc:
                assert "from frame 0" in str(exc)
            else:
                assert np.isfinite(out).all()

    def test_hidden_state_that_overflows_names_the_first_frame(self):
        """z_c = inf + -inf at frame 1 makes h NaN from there on; frame 1 is named, not frame 2."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite from frame 1: the cell overflowed"):
                lstm_scan(OVERFLOWING_CELL, [[1], [1e307], [1]])


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
        zero = np.zeros(3)
        h_f = step(scorer.forward.w, frame[0], zero, zero)[0]
        h_b = step(scorer.backward.w, frame[0], zero, zero)[0]
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

    def test_backward_cell_scans_the_reversed_frames(self):
        """Scores equal the readout over lstm_scan forwards and lstm_scan on frames[::-1]."""
        scorer = init_scorer(7, 5, 4)
        frames = np.random.default_rng(7).normal(size=(300, 5))
        h_f = lstm_scan(scorer.forward, frames)
        h_b = np.ascontiguousarray(lstm_scan(scorer.backward, frames[::-1])[::-1])
        expected = sigmoid(h_f @ scorer.readout_w[:4] + h_b @ scorer.readout_w[4:] + scorer.readout_b)
        np.testing.assert_array_equal(score_importance(scorer, frames), expected)

    def test_non_finite_frame_named(self):
        frames = np.zeros((6, 3))
        frames[4, 0] = math.nan
        with pytest.raises(ValueError, match="non-finite value at frame 4"):
            score_importance(init_scorer(0, 3, 2), frames)

    @pytest.mark.parametrize("frames, first", [([[1], [1], [1e307], [1]], 2),
                                               ([[1e307], [1], [1], [1]], 0)])
    def test_backward_overflow_names_the_frame_in_input_order(self, frames, first):
        """The forward scan stays finite; the backward scan goes bad at `first`, counted as given."""
        scorer = ImportanceScorer(OVERFLOWING_CELL, OVERFLOWING_CELL, np.zeros(4), 0.0)
        assert np.isfinite(lstm_scan(OVERFLOWING_CELL, frames)).all()
        with pytest.raises(ValueError, match=f"not finite from frame {first}:"):
            score_importance(scorer, frames)

    def test_readout_shape_checked_before_the_scans(self):
        """A wrong readout is named when the scorer is built, before any frames are seen."""
        scorer = init_scorer(0, 4, 3)
        with pytest.raises(ValueError, match=r"^readout has shape \(5,\), expected \(6,\)$"):
            ImportanceScorer(scorer.forward, scorer.backward, np.zeros(5), 0.0)

    def test_cells_of_different_input_widths_rejected(self):
        """No frames fit two cells of different input widths, so the scorer is refused."""
        with pytest.raises(ValueError, match="^forward cell takes 3 inputs, backward cell takes 4$"):
            ImportanceScorer(init_scorer(0, 3, 2).forward, init_scorer(0, 4, 2).backward,
                             np.zeros(4), 0.0)

    def test_cell_of_another_input_width_assigned_after_construction_is_checked(self):
        scorer = init_scorer(0, 3, 2)
        scorer.backward = init_scorer(0, 4, 2).backward
        with pytest.raises(ValueError, match="^forward cell takes 3 inputs, backward cell takes 4$"):
            score_importance(scorer, np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_readout_weight_named(self, bad):
        scorer = init_scorer(0, 3, 2)
        readout_w = scorer.readout_w.copy()
        readout_w[[2, 3]] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^readout has a non-finite weight at index 2$"):
                ImportanceScorer(scorer.forward, scorer.backward, readout_w, scorer.readout_b)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, True, "0.5"])
    def test_bad_readout_bias_rejected(self, bad):
        """A NaN bias used to give NaN scores without an error."""
        scorer = init_scorer(0, 3, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"readout_b must be finite, got {bad!r}")):
                ImportanceScorer(scorer.forward, scorer.backward, scorer.readout_w, bad)

    @pytest.mark.parametrize("name, value, message", [
        ("readout_b", math.nan, "readout_b must be finite, got nan"),
        ("readout_w", np.zeros(5), r"readout has shape \(5,\), expected \(6,\)"),
    ])
    def test_readout_reassigned_after_construction_is_checked(self, name, value, message):
        """An assignment after construction is checked again before the scans start."""
        scorer = init_scorer(0, 4, 3)
        setattr(scorer, name, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                score_importance(scorer, np.zeros((3, 4)))

    def test_caller_records_are_not_written_to(self):
        """Both entry points check copies: reassigned lists stay the caller's objects, and
        the outputs are those of the arrays they hold."""
        scorer = init_scorer(0, 4, 3)
        frames = np.random.default_rng(0).normal(size=(6, 4))
        hidden, scores = lstm_scan(scorer.forward, frames), score_importance(scorer, frames)
        lists = [scorer.forward.w.tolist(), scorer.backward.w.tolist(), scorer.readout_w.tolist()]
        scorer.forward.w, scorer.backward.w, scorer.readout_w = lists
        assert lstm_scan(scorer.forward, frames).tobytes() == hidden.tobytes()
        assert scorer.forward.w is lists[0]
        assert score_importance(scorer, frames).tobytes() == scores.tobytes()
        for got, want in zip((scorer.forward.w, scorer.backward.w, scorer.readout_w), lists):
            assert got is want

    def test_gate_weight_changed_after_construction_is_checked(self):
        scorer = init_scorer(0, 4, 3)
        scorer.backward.w[2, 1] = math.nan
        with pytest.raises(ValueError, match="^LSTM gate matrix has a non-finite weight at row 2, column 1$"):
            score_importance(scorer, np.zeros((3, 4)))

    @pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 127])
    def test_block_edges_match_two_scans(self, n):
        """Across chunk edges, scores stay within 1e-12 of the two scans run one after the
        other, and a second call gives the same bits."""
        scorer = init_scorer(9, 5, 4)
        frames = np.random.default_rng(n).normal(size=(n, 5))
        scores = score_importance(scorer, frames)
        np.testing.assert_allclose(scores, two_scan_scores(scorer, frames), rtol=1e-12, atol=0)
        np.testing.assert_array_equal(score_importance(scorer, frames), scores)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 300), d=st.integers(1, 6), h_f=st.integers(1, 5), h_b=st.integers(1, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_two_scans_property(self, n, d, h_f, h_b, seed):
        """For drawn sizes, and cells of different widths, scores stay within 1e-12 of the two
        scans run one after the other."""
        rng = np.random.default_rng(seed)
        scorer = ImportanceScorer(
            forward=init_scorer(seed, d, h_f).forward,
            backward=init_scorer(seed, d, h_b).backward,
            readout_w=rng.uniform(-1, 1, size=h_f + h_b),
            readout_b=rng.uniform(-1, 1),
        )
        frames = rng.normal(size=(n, d))
        scores = score_importance(scorer, frames)
        np.testing.assert_allclose(scores, two_scan_scores(scorer, frames), rtol=1e-12, atol=0)

    def test_backward_steps_run_on_one_worker_thread(self, monkeypatch):
        """The caller runs every forward block; one other thread runs every backward block."""
        recur, seen = model._Scan.recur, []

        def spy(scan, s, out):
            seen.append((scan.reverse, threading.get_ident()))
            recur(scan, s, out)

        monkeypatch.setattr(model._Scan, "recur", spy)
        score_importance(init_scorer(0, 3, 2), np.zeros((300, 3)))
        caller = threading.get_ident()
        workers = {ident for reverse, ident in seen if reverse}
        assert {ident for reverse, ident in seen if not reverse} == {caller}
        assert len(workers) == 1 and caller not in workers
        assert len(seen) == 6

    def test_forward_scan_never_waits_for_a_backward_block(self, monkeypatch):
        """Every backward block waits until the forward scan has run its last block: the
        call ends with all waits met only if the forward scan runs on alone."""
        recur, forward_done, waits = model._Scan.recur, threading.Event(), []

        def spy(scan, s, out):
            if scan.reverse:
                waits.append(forward_done.wait(timeout=5))
            recur(scan, s, out)
            if not scan.reverse and s + len(out) == scan.n:
                forward_done.set()

        monkeypatch.setattr(model._Scan, "recur", spy)
        score_importance(init_scorer(0, 3, 2), np.zeros((2 * _CHUNK + 1, 3)))
        assert waits == [True] * 3

    def test_concurrent_calls_under_fast_thread_switching_give_the_same_bits(self):
        """Four callers at once, each with its own worker, switching threads every microsecond:
        every result equals a lone call's, so no state is shared between calls."""
        scorer = init_scorer(2, 5, 4)
        frames = np.random.default_rng(2).normal(size=(300, 5))
        expected = score_importance(scorer, frames)
        results = [None] * 4

        def call(k):
            results[k] = score_importance(scorer, frames)

        callers = [threading.Thread(target=call, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for scores in results:
            np.testing.assert_array_equal(scores, expected)

    @pytest.mark.parametrize("overflow_at, first", [
        # Frame 0 is the backward scan's last step, in its third block; the forward scan
        # stays finite.
        ([0], 0),
        # The backward scan overflows at frame 280 in its first block, the forward scan at
        # frame 201 in its second: the forward error wins, as when the scans ran in turn.
        ([201, 280], 201),
    ])
    def test_overflow_in_a_later_block_is_named_and_leaves_no_thread(self, overflow_at, first):
        frames = np.ones((300, 1))
        frames[overflow_at] = 1e307
        scorer = ImportanceScorer(OVERFLOWING_CELL, OVERFLOWING_CELL, np.zeros(4), 0.0)
        threads = threading.active_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"not finite from frame {first}:"):
                score_importance(scorer, frames)
        assert threading.active_count() == threads

    def test_scores_in_open_unit_interval(self):
        for seed in range(5):
            scorer = init_scorer(seed, 3, 4)
            frames = np.random.default_rng(seed).normal(size=(10, 3))
            scores = score_importance(scorer, frames)
            assert np.all(scores > 0) and np.all(scores < 1)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 300), d=st.sampled_from([1, 5, 128]), h=st.sampled_from([1, 3, 192]),
           seed=st.integers(0, 2**32 - 1))
    def test_inputs_left_unchanged_and_calls_repeat_property(self, n, d, h, seed):
        """lstm_scan and score_importance leave the frames, the gate weights and the readout
        bitwise unchanged, and a second call gives the same bytes.  H = 192 tiles for
        D = 5 and 128."""
        scorer = init_scorer(seed, d, h)
        frames = np.random.default_rng(seed).normal(size=(n, d))
        inputs = (frames, scorer.forward.w, scorer.backward.w, scorer.readout_w)
        before = [a.tobytes() for a in inputs] + [scorer.readout_b]
        calls = [(lstm_scan(scorer.forward, frames).tobytes(),
                  score_importance(scorer, frames).tobytes()) for _ in range(2)]
        assert calls[0] == calls[1]
        assert [a.tobytes() for a in inputs] + [scorer.readout_b] == before


# (D, H) at which a chunk's 128 x D x 4H input projection is beyond OpenBLAS's one-thread
# bound, so it is multiplied as a stack of 32 x 64 tiles: the tile rule's narrowest hidden
# width at its widest input, and an odd input width.
TILED_DIMS = [(128, 192), (5, 256)]


class TestTiledProjection:
    """Tier-1's other dims are too small to tile."""

    @pytest.mark.parametrize("d, h", TILED_DIMS)
    def test_these_dims_tile(self, d, h):
        scan = model._Scan(init_scorer(0, d, h).forward, np.zeros((1, d)), False)
        assert scan.tile_rows == model._TILE_ROWS < _CHUNK

    @pytest.mark.parametrize("d, h", [(128, 176), (128, 352), (2, 256), (129, 256)])
    def test_dims_past_each_edge_keep_the_gemm(self, d, h):
        scan = model._Scan(init_scorer(0, d, h).forward, np.zeros((1, d)), False)
        assert scan.tile_rows == _CHUNK

    @pytest.mark.parametrize("d, h", TILED_DIMS)
    @pytest.mark.parametrize("n", [31, 32, 33, 1100])
    def test_scan_is_causal_and_scores_equal_two_scans(self, d, h, n):
        """Rows are within 1e-12 of the textbook step from the scan's previous row; truncating
        the input leaves the rows before the cut bitwise unchanged; the scores equal the
        readout over two lstm_scans bitwise.  1100 frames span nine 128-frame chunks."""
        scorer = init_scorer(n, d, h)
        frames = np.random.default_rng(n).normal(size=(n, d))
        h_f = lstm_scan(scorer.forward, frames)
        np.testing.assert_allclose(
            h_f, concatenated_scan(scorer.forward.w, frames, forced=h_f), rtol=0, atol=1e-12
        )
        for t in (0, 30, 31, 32, 127, 128, 1023, 1024):
            if t < n - 1:
                np.testing.assert_array_equal(lstm_scan(scorer.forward, frames[: t + 1]), h_f[: t + 1])
        h_b = np.ascontiguousarray(lstm_scan(scorer.backward, frames[::-1])[::-1])
        w = scorer.readout_w
        expected = sigmoid(h_f @ w[:h] + h_b @ w[h:] + scorer.readout_b)
        np.testing.assert_array_equal(score_importance(scorer, frames), expected)


def _traced_peak(f, *args):
    """f(*args) and the peak of the bytes it held allocated at once, as tracemalloc saw them
    in every thread.  A trace already running (PYTHONTRACEMALLOC, -X tracemalloc) is kept
    on, and what it held before the call is not counted."""
    tracing = tracemalloc.is_tracing()
    if tracing:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
    else:
        before = 0
        tracemalloc.start()
    try:
        result = f(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestScanMemory:
    """A scan holds one chunk's projections and hidden rows per direction, whatever the
    number of frames."""

    def test_tiled_scans_hold_one_chunk(self):
        """At the bench's D = 128, H = 256, the sign-folded weight copies take 3 MiB per
        direction and one chunk's buffers 1.25 MiB; 1024-frame blocks would take 10 MiB per
        direction (26.6 and 13.4 MiB in all)."""
        scorer = init_scorer(0, 128, 256)
        frames = np.random.default_rng(0).normal(size=(2048, 128))
        _, peak = _traced_peak(score_importance, scorer, frames)
        assert peak < 16 * 2**20
        rows, peak = _traced_peak(lstm_scan, scorer.forward, frames)
        assert peak - rows.nbytes < 8 * 2**20

    def test_untiled_scans_hold_one_chunk(self):
        """At D = 300, H = 100, whose projection is one GEMM, the weight copies take 1.2 MiB
        per direction and one chunk's buffers 0.8 MiB; 1024-frame blocks would take 4 MiB
        per direction (11.0 and 5.5 MiB in all)."""
        scorer = init_scorer(0, 300, 100)
        frames = np.random.default_rng(0).normal(size=(2048, 300))
        _, peak = _traced_peak(score_importance, scorer, frames)
        assert peak < 7 * 2**20
        rows, peak = _traced_peak(lstm_scan, scorer.forward, frames)
        assert peak - rows.nbytes < 3 * 2**20


def _numeric_environment():
    """numpy's version, its BLAS build's version and the SIMD extensions it found; None
    before numpy 1.26, whose show_config has no dict mode."""
    try:
        cfg = np.show_config(mode="dicts")
    except TypeError:
        return None
    return (np.__version__, cfg["Build Dependencies"]["blas"].get("version"),
            tuple(cfg["SIMD Extensions"]["found"]))


# sha256 of the scores and of the forward cell's lstm_scan rows, 1100 frames at one tiled
# and one untiled shape, recorded on 1 and 2 OpenBLAS threads before the step was rewritten
# with sign-folded gate rows.  The bytes depend on the BLAS kernels and on numpy's SIMD
# loops for exp and tanh, so they are pinned for the environment they were recorded in.
PINNED_ENVIRONMENT = ("2.4.6", "0.3.31.188.0", ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"))
PINNED_LSTM_BYTES = {
    (128, 256): ("639d85eccdc36343f627f117f01858cb030dc330b171182c88623f444a999816",
                 "9afef118fab09e3b1b7775ee30778f57c6c74a22d42a092d8b67f9cdf2a606a6"),
    (300, 100): ("81b43d8f9cf4164d76e312b95f2b89e170933112f15694efa1517f69c8b355a1",
                 "b585e9c248027716364282e115579a3898298aeb72c82f707e637e3dbd654727"),
}


class TestPinnedBytes:
    @pytest.mark.parametrize("d, h", sorted(PINNED_LSTM_BYTES))
    def test_scores_and_rows_keep_their_recorded_bytes(self, d, h):
        if _numeric_environment() != PINNED_ENVIRONMENT:
            pytest.skip(f"pins recorded with {PINNED_ENVIRONMENT}, not {_numeric_environment()}")
        scorer = init_scorer(7, d, h)
        tiled = model._Scan(scorer.forward, np.zeros((1, d)), False).tile_rows < _CHUNK
        assert tiled == (h == 256)  # one tiled shape, one untiled
        frames = np.random.default_rng([d, h]).normal(size=(1100, d))
        got = (hashlib.sha256(score_importance(scorer, frames).tobytes()).hexdigest(),
               hashlib.sha256(lstm_scan(scorer.forward, frames).tobytes()).hexdigest())
        assert got == PINNED_LSTM_BYTES[d, h]


class TestEmbedFrames:
    @pytest.mark.parametrize("dims", [(3, 4, 2), (6, 4, 3)])
    def test_zero_net(self, dims):
        net = init_subnet(0, *dims)
        for name in ("w1", "b1", "w2", "b2"):
            getattr(net, name)[:] = 0.0
        np.testing.assert_array_equal(embed_frames(net, np.ones((1, dims[0]))), 0.0)

    def test_scalar_toy(self):
        """1-dim identity-weight net: tanh(tanh(1))."""
        net = Subnet(w1=np.array([[1.0]]), b1=np.zeros(1), w2=np.array([[1.0]]), b2=np.zeros(1))
        np.testing.assert_allclose(
            embed_frames(net, np.array([[1.0]])), [0.6420149920119997], rtol=1e-15
        )

    @pytest.mark.parametrize("net_seed, dims, scale", [(7, (5, 6, 4), 10), (9, (8, 4, 3), 5)])
    def test_one_row_strictly_inside_unit_cube(self, net_seed, dims, scale):
        net = init_subnet(net_seed, *dims)
        for seed in range(20):
            x = np.random.default_rng(seed).normal(scale=scale, size=dims[0])
            out = embed_frames(net, x[None, :])
            assert np.all(out > -1) and np.all(out < 1)
            assert np.all(np.isfinite(out))

    def test_column_count_checked(self):
        net = init_subnet(0, 3, 4, 2)
        with pytest.raises(ValueError, match="rows has 4 columns, net expects 3"):
            embed_frames(net, np.ones((1, 4)))

    def test_identical_frames_collapse_to_single_forward(self):
        net = init_subnet(1, 4, 5, 3)
        frame = np.random.default_rng(0).normal(size=4)
        segment = np.tile(frame, (6, 1))
        np.testing.assert_allclose(
            embed_frames(net, segment), embed_frames(net, frame[None, :]), rtol=1e-12
        )

    def test_single_frame(self):
        """One row embeds as the two-layer forward written out with matvecs."""
        net = init_subnet(2, 4, 5, 3)
        frame = np.random.default_rng(1).normal(size=4)
        expected = np.tanh(net.w2 @ np.tanh(net.w1 @ frame + net.b1) + net.b2)
        np.testing.assert_allclose(embed_frames(net, frame[None, :]), expected, rtol=1e-14)

    def test_two_frames_average(self):
        """1-dim toy: the segment embedding is the mean of the two outputs."""
        net = Subnet(w1=np.array([[1.0]]), b1=np.zeros(1), w2=np.array([[1.0]]), b2=np.zeros(1))
        seg = np.array([[1.0], [-0.5]])
        expected = (embed_frames(net, seg[:1]) + embed_frames(net, seg[1:])) / 2.0
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


def faulty_net(data, dims, fault, container) -> Subnet:
    """A seeded net of dims (D, H, E) with one fault, its fields held in `container`.

    A fault is "none", a "nan", "inf" or "-inf" entry, a "shape" one longer or shorter on
    one axis of one field, a "rank" one above or a 0-d field, or an "empty" width.
    """
    if fault == "empty":
        gone = data.draw(st.integers(0, 2))
        dims = tuple(0 if i == gone else d for i, d in enumerate(dims))
    d, h, e = dims
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    arrays = [rng.uniform(-1, 1, size=shape) for shape in ((h, d), (h,), (e, h), (e,))]
    k = data.draw(st.integers(0, 3))
    if fault in ("nan", "inf", "-inf"):
        arrays[k].reshape(-1)[data.draw(st.integers(0, arrays[k].size - 1))] = float(fault)
    elif fault == "shape":
        axis = data.draw(st.integers(0, arrays[k].ndim - 1))
        if data.draw(st.booleans()):
            arrays[k] = np.concatenate([arrays[k], np.take(arrays[k], [0], axis=axis)], axis=axis)
        else:
            arrays[k] = np.delete(arrays[k], 0, axis=axis)
    elif fault == "rank":
        arrays[k] = arrays[k][None] if data.draw(st.booleans()) else arrays[k].reshape(-1)[0]
    convert = {"float64": lambda a: a, "float32": lambda a: np.float32(a),
               "list": lambda a: np.asarray(a).tolist()}[container]
    return Subnet(*map(convert, arrays))


def outcome(call) -> str | None:
    """The message of the ValueError `call()` raises, or None if it returns."""
    try:
        call()
    except ValueError as exc:
        return str(exc)
    return None


class TestNetRule:
    """Every entry point that takes a net converts and checks it by one rule."""

    @settings(max_examples=80, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 3)] * 4), side=st.sampled_from(["video", "description"]),
           fault=st.sampled_from(["none", "nan", "inf", "-inf", "shape", "rank", "empty"]),
           container=st.sampled_from(["float64", "float32", "list"]), data=st.data())
    def test_save_refuses_what_load_refuses(self, tmp_path_factory, dims, side, fault,
                                            container, data):
        """save_checkpoint raises exactly the error load_checkpoint raises, but for the path,
        on the same values written as float64 members, and a net both accept round-trips
        bit for bit.  A rejected net makes every other entry point raise a ValueError that
        names the net's field, never an AttributeError or a TypeError."""
        video_dim, desc_dim, hidden, embed = dims
        nets = {"video": init_subnet(0, video_dim, hidden, embed),
                "description": init_subnet(1, desc_dim, hidden, embed)}
        nets[side] = faulty_net(data, (nets[side].input_dim, hidden, embed), fault, container)
        as_float64 = {which: [np.asarray(getattr(net, name), dtype=float) for name in PARAMS]
                      for which, net in nets.items()}
        folder = tmp_path_factory.mktemp("ckpt")
        saved, written = folder / "saved.npz", folder / "written.npz"
        with open(written, "wb") as fh:
            np.savez(fh, **{f"{which}.{name}": arr for which, arrays in as_float64.items()
                            for name, arr in zip(PARAMS, arrays)})
        refused = outcome(lambda: save_checkpoint(saved, nets["video"], nets["description"]))
        loaded = outcome(lambda: load_checkpoint(written))
        assert loaded == (None if refused is None else f"{written}: {refused}")
        if refused is None:
            for which, net in zip(nets, load_checkpoint(saved)):
                for name, want in zip(PARAMS, as_float64[which]):
                    assert getattr(net, name).tobytes() == want.tobytes()
            assert not fault.endswith(("nan", "inf"))
            return
        assert not saved.exists()
        assert fault != "none"
        needle = r"net field '(w1|b1|w2|b2)' "
        assert re.match(f"{side} {needle}", refused)
        net = nets[side]
        width = (video_dim, desc_dim)[side == "description"]
        frames = np.zeros((4, width))
        with pytest.raises(ValueError, match=f"^{needle}"):
            embed_frames(net, frames)
        with pytest.raises(ValueError, match=f"^{needle}"):
            segment_features(net, frames, uniform_segments(4, 2))
        ex = PairExample(np.zeros((2, video_dim)), np.zeros(desc_dim), 1)
        with pytest.raises(ValueError, match=f"^{side} {needle}"):
            loss_gradients(nets["video"], nets["description"], ex)
        with pytest.raises(ValueError, match=f"^{side} {needle}"):
            sgd_train(nets["video"], nets["description"], [ex], TrainConfig(epochs=1))


    @pytest.mark.parametrize("shapes, message", [
        (((0, 3), (0,), (2, 0), (2,)), "field 'w1' is empty, with shape (0, 3)"),
        (((2, 0), (2,), (2, 2), (2,)), "field 'w1' is empty, with shape (2, 0)"),
    ], ids=["no-hidden-units", "no-inputs"])
    @pytest.mark.parametrize("side", ["video", "description"])
    def test_empty_net_refused_by_every_entry_point(self, tmp_path, side, shapes, message):
        """A net whose fields agree in shape but hold no weight is refused by name; the
        checkpoint writer refuses before it opens the file, the reader with the path first."""
        empty = Subnet(*(np.zeros(shape) for shape in shapes))
        nets = {"video": init_subnet(0, 3, 2, 2), "description": init_subnet(1, 3, 2, 2)}
        nets[side] = empty
        named = f"^{side} net {re.escape(message)}$"
        with pytest.raises(ValueError, match=f"^net {re.escape(message)}$"):
            embed_frames(empty, np.zeros((2, empty.input_dim)))
        ex = PairExample(np.zeros((2, 3)), np.zeros(3), 1)
        with pytest.raises(ValueError, match=named):
            loss_gradients(nets["video"], nets["description"], ex)
        with pytest.raises(ValueError, match=named):
            sgd_train(nets["video"], nets["description"], [ex], TrainConfig(epochs=1))
        saved = tmp_path / "saved.npz"
        saved.write_bytes(b"old")
        with pytest.raises(ValueError, match=named):
            save_checkpoint(saved, nets["video"], nets["description"])
        assert saved.read_bytes() == b"old"
        written = tmp_path / "written.npz"
        with open(written, "wb") as fh:
            np.savez(fh, **{f"{which}.{name}": getattr(net, name)
                            for which, net in nets.items() for name in PARAMS})
        with pytest.raises(ValueError) as exc:
            load_checkpoint(written)
        assert str(exc.value) == f"{written}: {side} net {message}"

class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = init_subnet(42, 5, 4, 3)
        b = init_subnet(42, 5, 4, 3)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        np.testing.assert_array_equal(
            init_scorer(42, 5, 4).forward.w, init_scorer(42, 5, 4).forward.w
        )

    def test_stacked_gates_equal_four_consecutive_draws(self):
        """Each (4H, D+H) draw holds the values four (H, D+H) gate draws gave, in order.

        The forward cell's gates are the first draws of a fresh generator and
        the backward cell's gates the next four.
        """
        for seed, (d, h) in enumerate([(5, 4), (3, 7), (1, 1)]):
            bound = 1.0 / np.sqrt(d + h)
            rng = np.random.default_rng(seed)
            gates = [rng.uniform(-bound, bound, size=(h, d + h)) for _ in range(8)]
            scorer = init_scorer(seed, d, h)
            np.testing.assert_array_equal(scorer.forward.w, np.vstack(gates[:4]))
            np.testing.assert_array_equal(scorer.backward.w, np.vstack(gates[4:]))

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
            scorer = init_scorer(seed, 7, 5)
            for params in (scorer.forward, scorer.backward):
                assert params.w.shape == (20, 12)
                assert np.all(np.abs(params.w) <= 1 / np.sqrt(12))
            assert np.all(np.abs(scorer.readout_w) <= 1 / np.sqrt(10))

    @pytest.mark.parametrize("dims", [(0, 4, 3), (4, 0, 3), (4, 3, 0), (-1, 2, 2)])
    def test_invalid_dims_rejected(self, dims):
        with pytest.raises(ValueError):
            init_subnet(0, *dims)

    def test_invalid_lstm_dims_rejected(self):
        with pytest.raises(ValueError):
            init_scorer(0, 0, 3)
        with pytest.raises(ValueError):
            init_scorer(0, 3, 0)

    def test_unconfigured_dims_use_defaults(self):
        assert (DEFAULT_EMBED_DIM, DEFAULT_HIDDEN_DIM, DEFAULT_DESC_DIM) == (300, 256, 4800)
        net = init_subnet(0, 10)
        assert net.hidden_dim == 256 and net.embed_dim == 300
        desc = init_subnet(0, DEFAULT_DESC_DIM, hidden_dim=4, embed_dim=3)
        assert desc.input_dim == 4800
        assert init_scorer(0, 10).forward.hidden_dim == 256
