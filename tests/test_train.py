"""Unit tests for the contrastive loss, analytic gradients, and SGD loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videosum.model import Subnet, embed_frames, ffn_forward, init_subnet
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

    def test_errors(self):
        with pytest.raises(ValueError):
            contrastive_loss(np.zeros(3), np.zeros(2), 1)
        with pytest.raises(ValueError):
            contrastive_loss(np.zeros(3), np.zeros(3), 0, margin=-0.1)


class TestLossGradients:
    def test_inactive_hinge_gives_zero_gradients(self):
        """Negative pair with d >= margin: every gradient is exactly zero."""
        vnet, dnet, ex = random_case(3, label=0)
        x = embed_frames(vnet, ex.segment)
        y = ffn_forward(dnet, ex.desc)
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
        y = ffn_forward(dnet, ex.desc)
        assert loss_gradients(vnet, dnet, ex, margin)[0] == contrastive_loss(x, y, label, margin)


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
            y = ffn_forward(d2, ex.desc)
            (pos if ex.label else neg).append(float((x - y) @ (x - y)))
        assert np.mean(pos) < np.mean(neg)
        assert history[-1] < history[0]

    def test_empty_dataset_rejected(self):
        vnet, dnet, _ = random_case(0)
        with pytest.raises(ValueError):
            sgd_train(vnet, dnet, [], TrainConfig(epochs=1, learning_rate=0.1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(margin=-1.0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)


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
