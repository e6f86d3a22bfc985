"""Unit tests for the contrastive loss, analytic gradients, and SGD loop."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from videosum import train
from videosum.model import Subnet, embed_frames, init_subnet
from videosum.summarize import segment_features, uniform_segments
from videosum.train import (
    PairExample,
    TrainConfig,
    contrastive_loss,
    finite_diff_check,
    loss_gradients,
    sample_pairs,
    sgd_train,
)

PARAM_NAMES = ("w1", "b1", "w2", "b2")


def random_case(seed, label=None):
    """Small random nets (D=8, H1=6, E=4, desc_dim=5) plus one pair example."""
    rng = np.random.default_rng(seed)
    vnet = init_subnet(seed, 8, 6, 4)
    dnet = init_subnet(seed + 10_000, 5, 6, 4)
    ex = PairExample(
        segment=rng.normal(size=(3, 8)),
        desc=rng.normal(size=5),
        label=seed % 2 if label is None else label,
    )
    return vnet, dnet, ex


class TestContrastiveLoss:
    def test_identical_positive_pair_is_zero(self):
        x = np.array([0.3, -0.2, 0.7])
        assert contrastive_loss(x, x.copy(), 1, margin=5.0) == 0.0

    def test_identical_negative_pair_hits_margin(self):
        x = np.array([0.3, -0.2, 0.7])
        assert contrastive_loss(x, x.copy(), 0, margin=1.0) == 1.0

    def test_unit_vectors(self):
        assert contrastive_loss(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1) == 2.0

    def test_nonnegative_and_zero_conditions(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x, y = rng.normal(size=(2, 4))
            m = float(rng.uniform(0, 3))
            tn = int(rng.integers(0, 2))
            loss = contrastive_loss(x, y, tn, m)
            d = float((x - y) @ (x - y))
            assert loss >= 0.0
            if loss == 0.0:
                assert (tn == 1 and d == 0.0) or (tn == 0 and d >= m)

    def test_orthogonal_transform_invariance(self):
        """The loss depends on x - y only through its norm."""
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(2, 3))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        for tn in (0, 1):
            np.testing.assert_allclose(
                contrastive_loss(q @ x, q @ y, tn, 1.5),
                contrastive_loss(x, y, tn, 1.5),
                rtol=1e-10,
                atol=1e-12,
            )

    @pytest.mark.parametrize("label", [0, 1])
    def test_nan_embedding_gives_nan(self, label):
        """A NaN distance is not beyond the margin: both labels give NaN, not 0.0."""
        assert math.isnan(contrastive_loss([math.nan, -0.5], [0.25, -0.5], label))

    def test_errors(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.zeros(3), np.zeros(2), 1)
        with pytest.raises(ValueError):
            contrastive_loss(np.zeros(3), np.zeros(3), 0, margin=-0.1)

    @pytest.mark.parametrize("margin", [float("nan"), float("inf")])
    def test_non_finite_margin_rejected(self, margin):
        with pytest.raises(ValueError, match="margin must be finite and non-negative"):
            contrastive_loss(np.zeros(3), np.ones(3), 0, margin=margin)


class TestLossGradients:
    def test_inactive_hinge_gives_zero_gradients(self):
        """Negative pair with d >= margin: every gradient is exactly zero."""
        vnet, dnet, ex = random_case(3, label=0)
        x = embed_frames(vnet, ex.segment)
        y = embed_frames(dnet, ex.desc[None, :])
        d = float((x - y) @ (x - y))
        _, grad_v, grad_d = loss_gradients(vnet, dnet, ex, margin=d / 2.0)
        for grads in (grad_v, grad_d):
            for name in PARAM_NAMES:
                np.testing.assert_array_equal(getattr(grads, name), 0.0)

    def test_coincident_embeddings_give_zero_gradients(self):
        """Positive pair at d = 0 sits at the minimum of d."""
        net = init_subnet(5, 4, 3, 2)
        twin = Subnet(w1=net.w1.copy(), b1=net.b1.copy(), w2=net.w2.copy(), b2=net.b2.copy())
        v = np.random.default_rng(5).normal(size=4)
        ex = PairExample(segment=v[None, :], desc=v, label=1)
        _, grad_v, grad_d = loss_gradients(net, twin, ex, margin=1.0)
        for grads in (grad_v, grad_d):
            for name in PARAM_NAMES:
                np.testing.assert_allclose(getattr(grads, name), 0.0, atol=1e-15)

    @pytest.mark.parametrize("label", [0, 1])
    def test_matches_finite_differences(self, label):
        for seed in (11, 12, 13):
            vnet, dnet, ex = random_case(seed, label=label)
            assert finite_diff_check(vnet, dnet, ex, margin=1.0, h=1e-5) <= 1e-4


    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        frames=st.integers(1, 5),
        label=st.integers(0, 1),
        margin=st.floats(0.0, 4.0),
    )
    def test_loss_is_contrastive_loss_of_public_embeddings(self, seed, frames, label, margin):
        rng = np.random.default_rng(seed)
        vnet = init_subnet(seed, 7, 5, 3)
        dnet = init_subnet(seed ^ 1, 4, 5, 3)
        ex = PairExample(segment=rng.normal(size=(frames, 7)), desc=rng.normal(size=4), label=label)
        x = embed_frames(vnet, ex.segment)
        y = embed_frames(dnet, ex.desc[None, :])
        assert loss_gradients(vnet, dnet, ex, margin)[0] == contrastive_loss(x, y, label, margin)

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 2),
        dims=st.tuples(*[st.integers(1, 4)] * 4),
        frames=st.integers(2, 5),
        label=st.integers(0, 1),
        margin=st.floats(0.0, 3.0),
    )
    # video w2[0, 1] is 3.6619e-8 analytic, 3.6615e-8 numeric: a gap of 3.7e-12, below the
    # central difference's rounding error eps * max(|loss(+h)|, |loss(-h)|) / h = 2.2e-11
    # (both losses near 0.985).
    @example(seed=145, dims=(2, 3, 3, 2), frames=3, label=0, margin=1.0)
    def test_matches_central_differences_property(self, seed, dims, frames, label, margin):
        """Every gradient entry agrees with central differences, away from the hinge kink."""
        video_dim, desc_dim, hidden, embed = dims
        rng = np.random.default_rng(seed)
        vnet = init_subnet(seed, video_dim, hidden, embed)
        dnet = init_subnet(seed + 1, desc_dim, hidden, embed)
        ex = PairExample(rng.normal(size=(frames, video_dim)), rng.normal(size=desc_dim), label)
        x = embed_frames(vnet, ex.segment)
        y = embed_frames(dnet, ex.desc[None, :])
        assume(label or abs(margin - float((x - y) @ (x - y))) > 1e-3)
        assert finite_diff_check(vnet, dnet, ex, margin, h=1e-5) <= 1e-4


class TestFiniteDiffCheck:
    def test_zero_loss_configuration(self):
        """At the loss minimum both gradients vanish.

        The residual relative error is the O(h^2) curvature term over the
        1e-8 denominator floor, so it shrinks quadratically with h.
        """
        net = init_subnet(2, 4, 3, 2)
        twin = Subnet(w1=net.w1.copy(), b1=net.b1.copy(), w2=net.w2.copy(), b2=net.b2.copy())
        v = np.random.default_rng(2).normal(size=4)
        ex = PairExample(segment=v[None, :], desc=v, label=1)
        assert finite_diff_check(net, twin, ex, margin=1.0, h=1e-6) <= 1e-4

    def test_larger_step_is_less_accurate(self):
        """Truncation error grows with h on a curved loss."""
        vnet, dnet, ex = random_case(7, label=1)
        coarse = finite_diff_check(vnet, dnet, ex, margin=1.0, h=1e-2)
        fine = finite_diff_check(vnet, dnet, ex, margin=1.0, h=1e-5)
        assert coarse > fine

    def test_rejects_nonpositive_step(self):
        vnet, dnet, ex = random_case(8)
        with pytest.raises(ValueError):
            finite_diff_check(vnet, dnet, ex, margin=1.0, h=0.0)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_rejects_non_finite_step(self, h):
        vnet, dnet, ex = random_case(8)
        with pytest.raises(ValueError, match=f"^step h must be finite and positive, got {h}$"):
            finite_diff_check(vnet, dnet, ex, h=h)

    def test_nan_input_is_named(self):
        """A NaN written into a segment after construction is named by both entry points,
        not turned into a NaN loss and NaN gradients."""
        vnet, dnet, ex = random_case(9)
        ex.segment[1, 2] = np.nan
        for entry in (loss_gradients, finite_diff_check):
            with pytest.raises(ValueError, match="^segment has a non-finite value at frame 1$"):
                entry(vnet, dnet, ex)

    def test_nan_error_fails_the_check(self, monkeypatch):
        """A NaN relative error is reported as NaN, not 0: here every perturbed loss is NaN."""
        forward_loss = train._forward_loss

        def nan_loss(*args):
            acts, _, g_x = forward_loss(*args)
            return acts, math.nan, g_x

        monkeypatch.setattr(train, "_forward_loss", nan_loss)
        vnet, dnet, ex = random_case(9)
        assert math.isnan(finite_diff_check(vnet, dnet, ex))

    def test_caller_nets_never_change_during_the_call(self, monkeypatch):
        """Every forward pass, perturbed ones included, sees the caller's weights as they
        were before the call: the perturbations go into copies."""
        vnet, dnet, ex = random_case(7, label=1)
        before = [getattr(net, name).copy() for net in (vnet, dnet) for name in PARAM_NAMES]
        seen = []
        forward_loss = train._forward_loss

        def spy(*args):
            seen.append([getattr(net, name).copy() for net in (vnet, dnet)
                         for name in PARAM_NAMES])
            return forward_loss(*args)

        monkeypatch.setattr(train, "_forward_loss", spy)
        finite_diff_check(vnet, dnet, ex)
        assert len(seen) > 2
        for weights in seen:
            for got, want in zip(weights, before):
                assert got.tobytes() == want.tobytes()

    def test_one_backward_pass_per_net(self, monkeypatch):
        """The analytic gradient is taken once; each perturbed loss is a forward pass alone."""
        calls = []
        backward = train._backward
        monkeypatch.setattr(train, "_backward", lambda *args: calls.append(1) or backward(*args))
        vnet, dnet, ex = random_case(7, label=1)
        finite_diff_check(vnet, dnet, ex)
        assert len(calls) == 2


class TestExampleWidths:
    """An example as wide as neither net's input is named before any product runs."""

    @pytest.mark.parametrize("segment_cols, desc_len, message", [
        (7, 5, "segment has 7 columns, video net expects 8"),
        (9, 5, "segment has 9 columns, video net expects 8"),
        (8, 4, "description has 4 columns, description net expects 5"),
        (8, 6, "description has 6 columns, description net expects 5"),
    ])
    def test_named_by_every_entry_point(self, segment_cols, desc_len, message):
        vnet, dnet, ex = random_case(3)
        bad = PairExample(np.zeros((2, segment_cols)), np.zeros(desc_len), 1)
        with pytest.raises(ValueError, match=f"^example 3: {message}$"):
            sgd_train(vnet, dnet, [ex, ex, ex, bad], TrainConfig(epochs=1))
        for entry in (loss_gradients, finite_diff_check):
            with pytest.raises(ValueError, match=f"^{message}$"):
                entry(vnet, dnet, bad)


class TestReassignedExample:
    """An example whose arrays were reassigned after construction meets `PairExample`'s
    conversion and rank rule at every entry point, with its messages."""

    @pytest.mark.parametrize("field, value, message", [
        ("segment", np.zeros(4), r"segment must be a 2-D matrix, got shape \(4,\)"),
        ("segment", [[0.0] * 4], "segment has 4 columns, video net expects 8"),
        ("segment", np.zeros((0, 8)), "segment must have at least 1 row, got 0"),
        ("segment", [["x"] * 8], "segment must be an array of real numbers: "),
        ("desc", np.zeros((1, 5)), r"desc must be a non-empty 1-D vector, got shape \(1, 5\)"),
        ("desc", 2.0, r"desc must be a non-empty 1-D vector, got shape \(\)"),
    ], ids=["1-d-segment", "list-segment", "empty-segment", "text-segment", "2-d-desc",
            "0-d-desc"])
    def test_named_by_every_entry_point(self, field, value, message):
        vnet, dnet, ex = random_case(3)
        setattr(ex, field, value)
        for entry in (loss_gradients, finite_diff_check):
            with pytest.raises(ValueError, match=f"^{message}"):
                entry(vnet, dnet, ex)
        with pytest.raises(ValueError, match=f"^example 0: {message}"):
            sgd_train(vnet, dnet, [ex], TrainConfig(epochs=1))

    def test_lists_are_converted(self):
        """Arrays reassigned as nested lists give the same loss and gradients, bit for bit."""
        vnet, dnet, ex = random_case(4)
        want = loss_gradients(vnet, dnet, ex)
        error = finite_diff_check(vnet, dnet, ex)
        ex.segment, ex.desc = ex.segment.tolist(), ex.desc.tolist()
        got = loss_gradients(vnet, dnet, ex)
        assert got[0] == want[0]
        for grads, expected in zip(got[1:], want[1:]):
            for name in PARAM_NAMES:
                assert getattr(grads, name).tobytes() == getattr(expected, name).tobytes()
        assert finite_diff_check(vnet, dnet, ex) == error

    def test_caller_example_is_not_written_to(self):
        """Every entry point checks a copy: reassigned lists stay the caller's objects."""
        vnet, dnet, ex = random_case(4)
        segment, desc = ex.segment.tolist(), ex.desc.tolist()
        ex.segment, ex.desc = segment, desc
        for entry, *args in ((loss_gradients, ex), (finite_diff_check, ex),
                             (sgd_train, [ex, ex], TrainConfig(epochs=2))):
            entry(vnet, dnet, *args)
            assert ex.segment is segment and ex.desc is desc


def two_cluster_dataset(seed):
    """Two far-apart frame clusters, each positively paired with its own one-hot."""
    rng = np.random.default_rng(seed)
    centers = np.array([[4.0, 0.0, 0.0], [-4.0, 0.0, 0.0]])
    descs = np.eye(2)
    segments = [centers[i] + rng.normal(0, 0.05, size=(4, 3)) for i in range(2)]
    labels = [(i, j, int(i == j)) for i in range(2) for j in range(2)]
    return sample_pairs(segments, descs, labels)


class TestSgdTrain:
    def test_zero_epochs_is_identity(self):
        vnet, dnet, ex = random_case(1)
        cfg = TrainConfig(epochs=0, learning_rate=0.1, seed=0)
        v2, d2, history = sgd_train(vnet, dnet, [ex], cfg)
        assert history == []
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(v2, name), getattr(vnet, name))
            np.testing.assert_array_equal(getattr(d2, name), getattr(dnet, name))

    def test_vanishing_learning_rate_leaves_params_unchanged(self):
        """In the lr -> 0 limit the update underflows below one ulp."""
        vnet, dnet, ex = random_case(2)
        cfg = TrainConfig(epochs=1, learning_rate=1e-300, seed=0)
        v2, d2, _ = sgd_train(vnet, dnet, [ex], cfg)
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(v2, name), getattr(vnet, name))
            np.testing.assert_array_equal(getattr(d2, name), getattr(dnet, name))

    def test_inputs_not_mutated(self):
        vnet, dnet, ex = random_case(3)
        before = {name: getattr(vnet, name).copy() for name in PARAM_NAMES}
        sgd_train(vnet, dnet, [ex], TrainConfig(epochs=3, learning_rate=0.1, seed=0))
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(vnet, name), before[name])

    def test_deterministic_given_seed(self):
        dataset = two_cluster_dataset(0)
        vnet = init_subnet(0, 3, 4, 2)
        dnet = init_subnet(1, 2, 4, 2)
        cfg = TrainConfig(epochs=5, learning_rate=0.05, seed=9)
        va, da, ha = sgd_train(vnet, dnet, dataset, cfg)
        vb, db, hb = sgd_train(vnet, dnet, dataset, cfg)
        assert ha == hb
        for name in PARAM_NAMES:
            np.testing.assert_array_equal(getattr(va, name), getattr(vb, name))
            np.testing.assert_array_equal(getattr(da, name), getattr(db, name))

    def test_small_step_never_increases_example_loss(self):
        """One tiny SGD step on a single example cannot raise that loss."""
        for seed in range(10):
            vnet, dnet, ex = random_case(seed)
            before = loss_gradients(vnet, dnet, ex, 1.0)[0]
            cfg = TrainConfig(epochs=1, learning_rate=1e-6, seed=0)
            v2, d2, _ = sgd_train(vnet, dnet, [ex], cfg)
            after = loss_gradients(v2, d2, ex, 1.0)[0]
            assert after <= before + 1e-12

    def test_two_cluster_separation(self):
        dataset = two_cluster_dataset(4)
        vnet = init_subnet(4, 3, 8, 4)
        dnet = init_subnet(5, 2, 8, 4)
        v2, d2, history = sgd_train(
            vnet, dnet, dataset, TrainConfig(epochs=150, learning_rate=0.1, seed=4)
        )
        pos, neg = [], []
        for ex in dataset:
            x = embed_frames(v2, ex.segment)
            y = embed_frames(d2, ex.desc[None, :])
            (pos if ex.label else neg).append(float((x - y) @ (x - y)))
        assert np.mean(pos) < np.mean(neg)
        assert history[-1] < history[0]

    def test_bitwise_equal_to_the_update_over_loss_gradients(self):
        """Three epochs equal `w -= lr * g` over loss_gradients bit for bit.

        H = 37 leaves a partial last block of description rows; the dataset has a
        one-frame segment, positive pairs, and negatives on both sides of the margin.
        """
        rng = np.random.default_rng(21)
        vnet = init_subnet(21, 9, 37, 5)
        dnet = init_subnet(22, 23, 37, 5)
        segments = [rng.normal(size=(n, 9)) for n in (3, 1, 4, 2)]
        descs = rng.normal(size=(3, 23))
        labels = [(i, j, int(i % 3 == j)) for i in range(4) for j in range(3)]
        dataset = sample_pairs(segments, descs, labels)
        dists = [float(((embed_frames(vnet, ex.segment)
                         - embed_frames(dnet, ex.desc[None, :])) ** 2).sum())
                 for ex in dataset if not ex.label]
        margin = float(np.median(dists))
        cfg = TrainConfig(margin=margin, learning_rate=0.05, epochs=3, seed=5)
        before = [getattr(net, name).copy() for net in (vnet, dnet) for name in PARAM_NAMES]

        want_v, want_d = (Subnet(*(getattr(net, name).copy() for name in PARAM_NAMES))
                          for net in (vnet, dnet))
        order = np.random.default_rng(cfg.seed)
        want_history, kinds = [], set()
        for _ in range(cfg.epochs):
            total = 0.0
            for idx in order.permutation(len(dataset)):
                loss, grad_v, grad_d = loss_gradients(want_v, want_d, dataset[idx], margin)
                kinds.add("positive" if dataset[idx].label else
                          "inside" if loss > 0 else "outside")
                total += loss
                for net, grads in ((want_v, grad_v), (want_d, grad_d)):
                    for name in PARAM_NAMES:
                        getattr(net, name)[...] -= cfg.learning_rate * getattr(grads, name)
            want_history.append(total / len(dataset))
        assert kinds == {"positive", "inside", "outside"}

        got_v, got_d, history = sgd_train(vnet, dnet, dataset, cfg)
        assert history == want_history
        for got, want in ((got_v, want_v), (got_d, want_d)):
            for name in PARAM_NAMES:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        after = [getattr(net, name) for net in (vnet, dnet) for name in PARAM_NAMES]
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_empty_dataset_rejected(self):
        vnet, dnet, _ = random_case(0)
        with pytest.raises(ValueError):
            sgd_train(vnet, dnet, [], TrainConfig(epochs=1, learning_rate=0.1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(margin=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("margin", float("nan"), "margin must be finite and non-negative, got nan"),
            ("margin", float("inf"), "margin must be finite and non-negative, got inf"),
            ("learning_rate", float("nan"), "learning_rate must be finite and positive, got nan"),
            ("learning_rate", float("inf"), "learning_rate must be finite and positive, got inf"),
            ("epochs", -2, "epochs must be a non-negative integer, got -2"),
        ],
    )
    def test_non_finite_or_negative_settings_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("learning_rate", math.nan, "learning_rate must be finite and positive, got nan"),
        ("epochs", -3, "epochs must be a non-negative integer, got -3"),
        ("epochs", 2.5, "epochs must be a non-negative integer, got 2.5"),
        ("seed", -1, "seed must be a non-negative integer, got -1"),
    ])
    def test_settings_reassigned_after_construction_rejected(self, monkeypatch, field, value,
                                                            message):
        """A setting reassigned after construction meets the constructor's rule before the
        first step, and the caller's config keeps the value it was given."""
        monkeypatch.setattr(train, "_loss_and_pooled_gradient", lambda *args: pytest.fail())
        vnet, dnet, ex = random_case(2)
        cfg = TrainConfig(epochs=1)
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=f"^{message}$"):
            sgd_train(vnet, dnet, [ex], cfg)
        assert getattr(cfg, field) is value


def reference_sgd(vnet, dnet, dataset, cfg):
    """The `w -= lr * g` loop over loss_gradients, on copies of the nets."""
    nets = [Subnet(*(getattr(net, name).copy() for name in PARAM_NAMES)) for net in (vnet, dnet)]
    order = np.random.default_rng(cfg.seed)
    history = []
    for _ in range(cfg.epochs):
        total = 0.0
        for idx in order.permutation(len(dataset)):
            loss, *grads = loss_gradients(*nets, dataset[idx], cfg.margin)
            total += loss
            for net, grad in zip(nets, grads):
                for name in PARAM_NAMES:
                    getattr(net, name)[...] -= cfg.learning_rate * getattr(grad, name)
        history.append(total / len(dataset))
    return (*nets, history)


def sq_dist(vnet, dnet, ex):
    diff = embed_frames(vnet, ex.segment) - embed_frames(dnet, ex.desc[None, :])
    return float(diff @ diff)


def assert_same_bits(got, want):
    for name in PARAM_NAMES:
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestZeroGradientSkip:
    """A step whose pooled gradient 2 * g_d * (x - y) is zero runs no backward pass and
    no update; every other step runs `_step` once per net."""

    @staticmethod
    def negative_pairs():
        """(vnet, dnet, closest, rest, margin) for nine negative pairs, with the margin
        between the two smallest distances: the closest pair is inside it, the rest beyond."""
        rng = np.random.default_rng(54)
        vnet = init_subnet(54, 6, 7, 3)
        dnet = init_subnet(55, 5, 7, 3)
        segments = [rng.normal(size=(n, 6)) for n in (1, 2, 4)]
        pairs = sample_pairs(segments, rng.normal(size=(3, 5)),
                             [(i, j, 0) for i in range(3) for j in range(3)])
        pairs.sort(key=lambda ex: sq_dist(vnet, dnet, ex))
        first, second = (sq_dist(vnet, dnet, ex) for ex in pairs[:2])
        assert second - first > 0.1
        return vnet, dnet, pairs[0], pairs[1:], (first + second) / 2

    @staticmethod
    def spy_on_step(monkeypatch):
        """Record the net of every _step call, then run the real step."""
        calls = []
        real = train._step

        def spy(net, *args):
            calls.append(net)
            real(net, *args)

        monkeypatch.setattr(train, "_step", spy)
        return calls

    def test_negatives_beyond_the_margin_change_nothing(self, monkeypatch):
        vnet, dnet, _, beyond, margin = self.negative_pairs()
        calls = self.spy_on_step(monkeypatch)
        got_v, got_d, history = sgd_train(
            vnet, dnet, beyond, TrainConfig(margin=margin, learning_rate=0.5, epochs=3, seed=2))
        assert calls == []
        assert history == [0.0, 0.0, 0.0]
        assert_same_bits(got_v, vnet)
        assert_same_bits(got_d, dnet)

    @pytest.mark.parametrize("added", ["positive", "inside"])
    def test_one_step_per_net_for_each_example_with_a_gradient(self, monkeypatch, added):
        vnet, dnet, inside, beyond, margin = self.negative_pairs()
        extra = inside if added == "inside" else PairExample(inside.segment, inside.desc, 1)
        dataset = beyond + [extra]
        cfg = TrainConfig(margin=margin, learning_rate=1e-3, epochs=3, seed=7)
        calls = self.spy_on_step(monkeypatch)
        got_v, got_d, history = sgd_train(vnet, dnet, dataset, cfg)
        assert calls == [got_v, got_d] * cfg.epochs
        # The small steps leave every beyond-margin pair beyond the margin.
        assert all(sq_dist(got_v, got_d, ex) > margin for ex in beyond)
        want_v, want_d, want_history = reference_sgd(vnet, dnet, dataset, cfg)
        assert history == want_history
        assert_same_bits(got_v, want_v)
        assert_same_bits(got_d, want_d)

    def test_equal_embeddings_inside_the_margin_skip_the_step(self, monkeypatch):
        """A negative pair with x == y has loss `margin` but a zero pooled gradient."""
        net = init_subnet(8, 5, 4, 3)
        twin = Subnet(*(getattr(net, name).copy() for name in PARAM_NAMES))
        desc = np.random.default_rng(8).normal(size=5)
        ex = PairExample(desc[None, :], desc, 0)
        calls = self.spy_on_step(monkeypatch)
        got_v, got_d, history = sgd_train(
            net, twin, [ex], TrainConfig(margin=0.75, learning_rate=0.5, epochs=2))
        assert calls == []
        assert history == [0.75, 0.75]
        assert_same_bits(got_v, net)
        assert_same_bits(got_d, twin)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 2),
        dims=st.tuples(*[st.integers(1, 4)] * 4),
        rows=st.lists(st.integers(1, 3), min_size=1, max_size=3),
        n_descs=st.integers(1, 3),
        records=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 1)),
                         min_size=1, max_size=6),
        shared=st.booleans(),
        margin=st.floats(0.0, 3.0),
        scale=st.sampled_from([1.0, 1e-170]),
        epochs=st.integers(1, 2),
    )
    def test_bitwise_equal_to_the_update_over_loss_gradients_property(
        self, seed, dims, rows, n_descs, records, shared, margin, scale, epochs
    ):
        """Drawn dims, pools of segments of 1 to 3 rows and of descriptions, records,
        labels and margins on both sides of the hinge.  With `shared` the examples are
        the views `sample_pairs` hands out, so examples share arrays; otherwise each
        example owns copies.  At scale 1e-170 the embeddings are so small that a
        positive pair's squared distance underflows to a zero loss while its gradient
        is not zero."""
        video_dim, desc_dim, hidden, embed = dims
        rng = np.random.default_rng(seed)
        vnet, dnet = (Subnet(*(scale * getattr(init_subnet(s, dim, hidden, embed), name)
                               for name in PARAM_NAMES))
                      for s, dim in ((seed, video_dim), (seed + 1, desc_dim)))
        segments = [rng.normal(size=(n, video_dim)) for n in rows]
        descs = rng.normal(size=(n_descs, desc_dim))
        dataset = sample_pairs(segments, descs, [(i % len(rows), j % n_descs, label)
                                                 for i, j, label in records])
        if not shared:
            dataset = [PairExample(ex.segment.copy(), ex.desc.copy(), ex.label) for ex in dataset]
        cfg = TrainConfig(margin=margin, learning_rate=0.3, epochs=epochs, seed=seed)
        got_v, got_d, history = sgd_train(vnet, dnet, dataset, cfg)
        want_v, want_d, want_history = reference_sgd(vnet, dnet, dataset, cfg)
        assert history == want_history
        assert_same_bits(got_v, want_v)
        assert_same_bits(got_d, want_d)


class TestEmbeddingReuse:
    """Between two updates sgd_train embeds each input once; inputs are the same when
    they are the same memory."""

    @staticmethod
    def spy_on_forward(monkeypatch):
        """Record (net, rows) of every _forward call, then run the real forward."""
        calls = []
        real = train._forward

        def spy(net, rows):
            calls.append((net, rows))
            return real(net, rows)

        monkeypatch.setattr(train, "_forward", spy)
        return calls

    def test_each_input_embedded_once_while_no_update(self, monkeypatch):
        """3 segments x 4 descriptions, every pair a negative beyond a zero margin:
        7 forward passes over 3 epochs, where each example would take 2 per epoch."""
        rng = np.random.default_rng(3)
        vnet, dnet = init_subnet(3, 6, 5, 3), init_subnet(4, 7, 5, 3)
        segments = [rng.normal(size=(n, 6)) for n in (2, 3, 1)]
        dataset = sample_pairs(segments, rng.normal(size=(4, 7)),
                               [(i, j, 0) for i in range(3) for j in range(4)])
        calls = self.spy_on_forward(monkeypatch)
        got_v, got_d, history = sgd_train(
            vnet, dnet, dataset, TrainConfig(margin=0.0, learning_rate=0.5, epochs=3, seed=1))
        assert len(calls) == 7
        assert sorted((net is got_v, len(rows)) for net, rows in calls) == [
            (False, 1)] * 4 + [(True, 1), (True, 2), (True, 3)]
        assert history == [0.0, 0.0, 0.0]
        assert_same_bits(got_v, vnet)
        assert_same_bits(got_d, dnet)

    def test_each_input_embedded_once_per_weight_version(self, monkeypatch):
        """The calls replayed by hand: an example embeds each of its two inputs not yet
        embedded since the last update; one that updates (here, the positive pairs)
        runs its two forward passes again and starts a new weight version."""
        rng = np.random.default_rng(12)
        vnet, dnet = init_subnet(12, 6, 5, 3), init_subnet(13, 7, 5, 3)
        records = [(i, j, int(i == j == 1)) for i in range(3) for j in range(3)]
        dataset = sample_pairs([rng.normal(size=(n, 6)) for n in (2, 3, 1)],
                               rng.normal(size=(3, 7)), records)
        cfg = TrainConfig(margin=0.0, learning_rate=1e-3, epochs=4, seed=6)
        order = np.random.default_rng(cfg.seed)
        want_calls, seen = 0, set()
        for _ in range(cfg.epochs):
            for idx in order.permutation(len(dataset)):
                seg, desc, label = records[idx]
                want_calls += len({("video", seg), ("description", desc)} - seen)
                seen |= {("video", seg), ("description", desc)}
                if label:
                    want_calls += 2
                    seen = set()
        calls = self.spy_on_forward(monkeypatch)
        got_v, got_d, history = sgd_train(vnet, dnet, dataset, cfg)
        assert len(calls) == want_calls < 2 * len(dataset) * cfg.epochs
        want_v, want_d, want_history = reference_sgd(vnet, dnet, dataset, cfg)
        assert history == want_history
        assert_same_bits(got_v, want_v)
        assert_same_bits(got_d, want_d)

    def test_inputs_sharing_an_address_are_told_apart_by_shape_and_net(self):
        """frames[0:4] and frames[0:8] start at one address, and a description is also
        the one-frame segment of a video net of its width; each keeps its own embedding."""
        rng = np.random.default_rng(31)
        vnet, dnet = init_subnet(31, 5, 6, 3), init_subnet(32, 5, 6, 3)
        frames = rng.normal(size=(8, 5))
        descs = rng.normal(size=(2, 5))
        dataset = sample_pairs([frames[0:4], frames[0:8], descs[0][None, :]], descs,
                               [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 0), (2, 0, 1), (2, 1, 0)])
        assert dataset[0].segment.ctypes.data == dataset[1].segment.ctypes.data
        cfg = TrainConfig(margin=0.0, learning_rate=0.2, epochs=6, seed=3)
        got_v, got_d, history = sgd_train(vnet, dnet, dataset, cfg)
        want_v, want_d, want_history = reference_sgd(vnet, dnet, dataset, cfg)
        assert history == want_history
        assert_same_bits(got_v, want_v)
        assert_same_bits(got_d, want_d)

    def test_dataset_building_fresh_arrays_trains_like_the_list(self):
        """A Sequence whose every __getitem__ builds new arrays: a freed array's address
        may be taken by the next one, which must not reuse its embedding."""

        class Fresh:
            def __init__(self, examples):
                self.examples = examples

            def __len__(self):
                return len(self.examples)

            def __getitem__(self, i):
                ex = self.examples[i]
                return PairExample(ex.segment.copy(), ex.desc.copy(), ex.label)

        rng = np.random.default_rng(41)
        vnet, dnet = init_subnet(41, 5, 6, 3), init_subnet(42, 4, 6, 3)
        dataset = sample_pairs([rng.normal(size=(3, 5)) for _ in range(4)],
                               rng.normal(size=(4, 4)),
                               [(i, j, int(i == j)) for i in range(4) for j in range(4)])
        cfg = TrainConfig(margin=0.5, learning_rate=0.2, epochs=3, seed=8)
        got_v, got_d, history = sgd_train(vnet, dnet, Fresh(dataset), cfg)
        want_v, want_d, want_history = sgd_train(vnet, dnet, dataset, cfg)
        assert history == want_history
        assert_same_bits(got_v, want_v)
        assert_same_bits(got_d, want_d)


class TestSgdTrainRejectsNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, index, where", [
        ("w1", (2, 1), "row 2, column 1"),
        ("b1", (3,), "index 3"),
        ("w2", (1, 0), "row 1, column 0"),
        ("b2", (2,), "index 2"),
    ])
    @pytest.mark.parametrize("side", ["video", "description"])
    def test_weight_named(self, side, field, index, where, bad):
        vnet, dnet, ex = random_case(4)
        net = vnet if side == "video" else dnet
        getattr(net, field)[index] = bad
        getattr(net, field)[-1] = bad  # a later bad weight is not the one named
        with pytest.raises(ValueError,
                           match=f"^{side} net field '{field}' holds a non-finite value at {where}$"):
            sgd_train(vnet, dnet, [ex], TrainConfig(epochs=0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_example_value_named_at_construction(self, bad):
        segment = np.zeros((4, 3))
        segment[2, 1] = bad
        with pytest.raises(ValueError, match="^segment has a non-finite value at frame 2$"):
            PairExample(segment, np.zeros(2), 0)
        desc = np.zeros(5)
        desc[3] = bad
        with pytest.raises(ValueError, match="^description has a non-finite value at index 3$"):
            PairExample(np.zeros((1, 3)), desc, 1)

    @pytest.mark.parametrize("array, message", [
        ("segment", "^example 1: segment has a non-finite value at frame 2$"),
        ("desc", "^example 1: description has a non-finite value at index 4$"),
    ])
    def test_example_changed_after_construction_named(self, array, message):
        vnet, dnet, ex = random_case(5)
        _, _, bad = random_case(6)
        getattr(bad, array)[2 if array == "segment" else 4] = math.inf
        with pytest.raises(ValueError, match=message):
            sgd_train(vnet, dnet, [ex, bad], TrainConfig(epochs=1))


def pinned_run(seed):
    """Seeded SGD on a 12-pair dataset at small dims (D=6, desc 5, H=5, E=4)."""
    rng = np.random.default_rng(100 + seed)
    segments = [rng.normal(size=(3, 6)) for _ in range(4)]
    descs = rng.normal(size=(3, 5))
    labels = [(i, j, int(i % 3 == j)) for i in range(4) for j in range(3)]
    dataset = sample_pairs(segments, descs, labels)
    vnet = init_subnet(seed, 6, 5, 4)
    dnet = init_subnet(seed + 1, 5, 5, 4)
    return sgd_train(vnet, dnet, dataset, TrainConfig(epochs=4, learning_rate=0.1, seed=seed))


class TestPinnedTraining:
    """Outputs recorded before the forward pass was shared by loss and gradients."""

    HISTORIES = {
        0: [0.7754656409631139, 0.458786718573166, 0.3466229778201817, 0.2504913386495978],
        1: [0.5008407500151784, 0.6182977296756927, 0.40887511292180445, 0.18660419550255825],
        2: [0.8068090597900013, 0.37227965736604934, 0.24216539303439497, 0.22039058464371256],
    }
    FEATURES = [
        [-0.17449280116854418, -0.1476404704917445, -0.32378309693689344, -0.3231429531825132],
        [-0.03320929763678091, 0.23602726673206256, -0.17070065458269146, -0.12745584778026176],
        [-0.018297254614919396, -0.19175910145330557, -0.43480900457259014, -0.44889319381345727],
        [-0.1159231490903898, -0.0690039382910697, -0.24995610611708474, -0.26480808641814185],
    ]

    @pytest.mark.parametrize("seed", sorted(HISTORIES))
    def test_loss_history(self, seed):
        _, _, history = pinned_run(seed)
        np.testing.assert_allclose(history, self.HISTORIES[seed], rtol=1e-12, atol=0)

    def test_trained_segment_features(self):
        vnet, _, _ = pinned_run(0)
        frames = np.random.default_rng(7).normal(size=(12, 6))
        feats = segment_features(vnet, frames, uniform_segments(12, 3))
        np.testing.assert_allclose(
            [sf.feature for sf in feats], self.FEATURES, rtol=1e-12, atol=0
        )


class TestSamplePairs:
    def test_empty_labels(self):
        assert sample_pairs([np.ones((2, 3))], np.eye(2), []) == []

    def test_single_positive(self):
        out = sample_pairs([np.ones((2, 3))], np.eye(2), [(0, 1, 1)])
        assert len(out) == 1
        assert out[0].label == 1
        np.testing.assert_array_equal(out[0].desc, [0.0, 1.0])

    def test_mixed_records_in_order(self):
        segments = [np.full((2, 3), i, dtype=float) for i in range(3)]
        labels = [(2, 0, 1), (0, 1, 0), (1, 1, 1)]
        out = sample_pairs(segments, np.eye(2), labels)
        assert [ex.label for ex in out] == [1, 0, 1]
        np.testing.assert_array_equal(out[0].segment, segments[2])
        np.testing.assert_array_equal(out[1].segment, segments[0])

    def test_out_of_range_names_record(self):
        with pytest.raises(ValueError, match="record 1.*segment index 5"):
            sample_pairs([np.ones((1, 2))], np.eye(2), [(0, 0, 1), (5, 0, 0)])
        with pytest.raises(ValueError, match="record 0.*description index 9"):
            sample_pairs([np.ones((1, 2))], np.eye(2), [(0, 9, 1)])

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label must be 0 or 1"):
            sample_pairs([np.ones((1, 2))], np.eye(2), [(0, 0, 2)])

    @pytest.mark.parametrize("record", [(0, 1), 5, (0, 1, 1, 0), "011", None, b"\x00\x01\x01",
                                        {0, 1, 2}, {0: 0, 1: 1, 2: 1}],
                             ids=["pair", "int", "quadruple", "text", "none", "bytes", "set",
                                  "dict"])
    def test_record_that_is_no_triple_names_the_record(self, record):
        with pytest.raises(
            ValueError, match=r"^label record 1 is not a \(segment, description, label\) triple$"
        ):
            sample_pairs([np.ones((2, 3))], np.eye(2), [(0, 1, 1), record])
