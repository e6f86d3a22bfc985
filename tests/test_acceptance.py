"""Acceptance suite: nine property-based criteria with pinned tolerances.

Each test prints one `A<n> ... PASS/FAIL` line (visible with `pytest -s`)
before asserting, so a failing run still reports every criterion's status.
"""

import itertools
import math
import time

import numpy as np

from videosum.cli import cli_dispatch
from videosum.io import MAGIC_FEATURES, load_checkpoint, read_matrix, save_checkpoint, write_matrix
from videosum.metrics import keyshot_pr
from videosum.model import LstmParams, LstmState, embed_frames, ffn_forward, init_subnet, lstm_step
from videosum.summarize import (
    SegmentFeature,
    clustering_cost,
    generate_summary,
    kmedoids,
    pam_iterations,
    segment_speedups,
    speedup_frame_selection,
    uniform_segments,
)
from videosum.synth import SynthSpec, synth_generate
from videosum.train import PairExample, TrainConfig, finite_diff_check, sample_pairs, sgd_train


def report(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_a1_gradient_fidelity():
    """20 seeded configs (D=8, H1=6, E=4, desc_dim=5), h=1e-5, err <= 1e-4, < 5 s."""
    start = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        vnet = init_subnet(seed, 8, 6, 4)
        dnet = init_subnet(seed + 10_000, 5, 6, 4)
        ex = PairExample(
            segment=rng.normal(size=(3, 8)), desc=rng.normal(size=5), label=seed % 2
        )
        worst = max(worst, finite_diff_check(vnet, dnet, ex, margin=1.0, h=1e-5))
    elapsed = time.time() - start
    ok = worst <= 1e-4 and elapsed < 5.0
    assert report("A1 gradient fidelity", ok, f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_a2_lstm_oracle():
    """50 scalar cases within 1e-12 of an independent evaluation; ranges hold."""
    sig = lambda z: 1.0 / (1.0 + math.exp(-z))
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        w = rng.uniform(-2, 2, size=(4, 2))
        h_prev, c_prev, x = rng.uniform(-1, 1, size=3)
        params = LstmParams(w)
        state = lstm_step(
            params, LstmState(h=np.array([h_prev]), c=np.array([c_prev])), np.array([x])
        )
        zc = w[3][0] * x + w[3][1] * h_prev
        c_ref = sig(w[0][0] * x + w[0][1] * h_prev) * math.tanh(zc)
        c_ref += sig(w[1][0] * x + w[1][1] * h_prev) * c_prev
        h_ref = sig(w[2][0] * x + w[2][1] * h_prev) * math.tanh(c_ref)
        worst = max(worst, abs(state.h[0] - h_ref), abs(state.c[0] - c_ref))

    ranges_ok = True
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        d, h_dim = 12, 9
        bound = 1.0 / math.sqrt(d + h_dim)
        params = LstmParams(
            np.vstack([rng.uniform(-bound, bound, size=(h_dim, d + h_dim)) for _ in range(4)])
        )
        state = LstmState(h=np.zeros(h_dim), c=np.zeros(h_dim))
        for _ in range(4):
            x = rng.normal(size=d)
            xh = np.concatenate([x, state.h])
            for w in np.split(params.w, 4)[:3]:
                gate = 1.0 / (1.0 + np.exp(-(w @ xh)))
                ranges_ok &= bool(np.all(gate > 0) and np.all(gate < 1))
            state = lstm_step(params, state, x)
            ranges_ok &= bool(np.all(state.h > -1) and np.all(state.h < 1))

    ok = worst <= 1e-12 and ranges_ok
    assert report("A2 LSTM oracle", ok, f"max |diff| {worst:.2e}, ranges {ranges_ok}")


def clustered_instance(rng):
    """Small planted-cluster instance: the clustering regime this engine targets."""
    n = int(rng.integers(4, 11))
    k = min(int(rng.integers(1, 4)), n)
    centers = rng.uniform(-4, 4, size=(k, 2))
    for _ in range(50):
        gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
        np.fill_diagonal(gaps, np.inf)
        if k == 1 or gaps.min() >= 2.0:
            break
        centers = rng.uniform(-4, 4, size=(k, 2))
    points = centers[np.arange(n) % k] + rng.normal(0, 0.35, size=(n, 2))
    return points, k


def test_a3_kmedoids_small_scale_optimality():
    """200 seeded instances (n<=10, K<=3, dim 2): >=90% exhaustive-optimal,
    never worse than 1.1x, cost non-increasing in 100% of swap traces."""
    exact = 0
    never_worse = True
    monotone = True
    for seed in range(200):
        rng = np.random.default_rng(seed)
        points, k = clustered_instance(rng)
        trace = list(pam_iterations(points, k))
        costs = [c for _, c in trace]
        monotone &= all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        pam_cost = costs[-1]
        best = min(
            clustering_cost(points, s)
            for s in itertools.combinations(range(len(points)), k)
        )
        if abs(pam_cost - best) <= 1e-12 + 1e-9 * best:
            exact += 1
        if pam_cost > 1.1 * best + 1e-12:
            never_worse = False
    ok = exact >= 180 and never_worse and monotone
    assert report(
        "A3 k-medoids optimality",
        ok,
        f"exact {exact}/200, within 1.1x {never_worse}, monotone {monotone}",
    )


def test_a4_keyshot_metric_oracle():
    """1000 random pairs match per-frame counting within 1e-9; duality exact."""
    horizon = 240
    worst = 0.0
    duality = True
    for seed in range(1000):
        rng = np.random.default_rng(seed)

        def draw():
            return [
                (int(s), int(rng.integers(s + 1, horizon + 1)))
                for s in rng.integers(0, horizon - 1, size=rng.integers(1, 7))
            ]

        a, b = draw(), draw()
        mem_a = np.zeros(horizon, dtype=bool)
        mem_b = np.zeros(horizon, dtype=bool)
        for s, e in a:
            mem_a[s:e] = True
        for s, e in b:
            mem_b[s:e] = True
        overlap = int((mem_a & mem_b).sum())
        p, r, f1 = keyshot_pr(a, b)
        worst = max(worst, abs(p - overlap / mem_a.sum()), abs(r - overlap / mem_b.sum()))
        if overlap:
            worst = max(worst, abs(f1 - 2 * p * r / (p + r)))
        p_ba, r_ba, _ = keyshot_pr(b, a)
        duality &= (p == r_ba) and (r == p_ba)
    ok = worst <= 1e-9 and duality
    assert report("A4 keyshot metric oracle", ok, f"max |diff| {worst:.2e}, duality {duality}")


def test_a5_planted_event_recovery():
    """K=5 summary picks one segment inside each event window, >=95/100 seeds."""
    hits = 0
    for seed in range(100):
        data = synth_generate(
            SynthSpec(seed=seed, n_events=5, frames_per_event=32, gap_frames=4,
                      dim=16, noise_sigma=0.05)
        )
        segments = uniform_segments(data.features.shape[0], 4)
        feats = [
            SegmentFeature(segment=s, feature=data.features[s.start : s.end].mean(axis=0))
            for s in segments
        ]
        chosen = generate_summary(feats, 5)
        covered = [
            any(w_start <= s.start and s.end <= w_end for s in chosen)
            for w_start, w_end in data.truth
        ]
        inside = all(
            any(w_start <= s.start and s.end <= w_end for w_start, w_end in data.truth)
            for s in chosen
        )
        if all(covered) and inside:
            hits += 1
    ok = hits >= 95
    assert report("A5 planted-event recovery", ok, f"{hits}/100 seeds")


def test_a6_contrastive_separation():
    """<=500 epochs at default lr/margin: mean positive distance < 0.5x mean
    negative distance for >= 9 of 10 seeds, < 60 s."""
    start = time.time()
    separated = 0
    for seed in range(10):
        data = synth_generate(SynthSpec(seed=seed))
        seg_frames = [data.features[s:e] for s, e in data.truth]
        dataset = sample_pairs(seg_frames, data.descs, data.labels)
        vnet = init_subnet(seed, 16, 16, 8)
        dnet = init_subnet(seed + 10_000, 5, 16, 8)
        vnet, dnet, _ = sgd_train(vnet, dnet, dataset, TrainConfig(epochs=200, seed=seed))
        pos, neg = [], []
        for ex in dataset:
            x = embed_frames(vnet, ex.segment)
            y = ffn_forward(dnet, ex.desc)
            (pos if ex.label else neg).append(float((x - y) @ (x - y)))
        if np.mean(pos) < 0.5 * np.mean(neg):
            separated += 1
    elapsed = time.time() - start
    ok = separated >= 9 and elapsed < 60.0
    assert report("A6 contrastive separation", ok, f"{separated}/10 seeds, {elapsed:.1f}s")


def brute_force_path_cost(scores, rho, max_skip, lambda_speed, lambda_sem):
    scores = np.asarray(scores, dtype=float)
    t = scores.size
    s_max = scores.max()
    best = math.inf
    for r in range(t - 1):
        for combo in itertools.combinations(range(1, t - 1), r):
            path = (0, *combo, t - 1)
            if all(1 <= b - a <= max_skip for a, b in zip(path, path[1:])):
                cost = sum(
                    lambda_speed * ((b - a) - rho) ** 2 + lambda_sem * (s_max - scores[b])
                    for a, b in zip(path, path[1:])
                )
                best = min(best, cost)
    return best


def test_a7_fastforward_correctness():
    """DP cost equals brute force for T<=14; exact-gap case; +-10% speed-up
    whenever max_skip >= 2*rho with lambda_sem = 0."""
    dp_matches = True
    for seed in range(30):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(4, 15))
        max_skip = int(rng.integers(1, t))
        rho = float(rng.uniform(1, 6))
        ls = float(rng.uniform(0.2, 2.0))
        lm = float(rng.uniform(0.0, 2.0))
        scores = rng.uniform(0, 1, size=t)
        sel = speedup_frame_selection(scores, rho, max_skip, ls, lm)
        s_max = scores.max()
        dp_cost = sum(
            ls * ((b - a) - rho) ** 2 + lm * (s_max - scores[b])
            for a, b in zip(sel, sel[1:])
        )
        bf = brute_force_path_cost(scores, rho, max_skip, ls, lm)
        dp_matches &= bool(np.isclose(dp_cost, bf, rtol=1e-12, atol=1e-12))

    exact_case = speedup_frame_selection(np.ones(9), 4.0, 8, 1.0, 0.0) == [0, 4, 8]

    within_band = True
    for seed in range(50):
        rng = np.random.default_rng(500 + seed)
        t = int(rng.integers(150, 301))
        rho = int(rng.integers(2, 9))
        sel = speedup_frame_selection(rng.uniform(0, 1, t), float(rho), 2 * rho, 1.0, 0.0)
        achieved = t / len(sel)
        within_band &= abs(achieved - rho) <= 0.1 * rho

    ok = dp_matches and exact_case and within_band
    assert report(
        "A7 fast-forward correctness",
        ok,
        f"brute-force match {dp_matches}, exact gaps {exact_case}, +-10% {within_band}",
    )


def test_a8_speedup_algebra():
    """100 feasible tuples: substituted result hits the target within 1e-9."""
    worst = 0.0
    checked = 0
    rng = np.random.default_rng(0)
    while checked < 100:
        len_s = float(rng.integers(1, 500))
        len_ns = float(rng.integers(1, 500))
        target = float(rng.uniform(1.0, 12.0))
        rho_s = float(rng.uniform(1.0, target))
        try:
            rho_ns = segment_speedups(len_s, len_ns, target, rho_s)
        except ValueError:
            continue
        achieved = (len_s + len_ns) / (len_s / rho_s + len_ns / rho_ns)
        worst = max(worst, abs(achieved - target))
        checked += 1
    exact = segment_speedups(100, 300, 4.0, 2.0) == 6.0
    ok = worst <= 1e-9 and exact
    assert report("A8 speed-up algebra", ok, f"max |dev| {worst:.2e}, (100,300,4,2)->6 {exact}")


def test_a9_round_trips_and_cli_determinism(tmp_path):
    """Binary/checkpoint round trips are bitwise; same-seed CLI runs match bytes."""
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(6, 5))
    mpath = tmp_path / "m.vsf"
    write_matrix(mpath, matrix, MAGIC_FEATURES)
    back = read_matrix(mpath, MAGIC_FEATURES)
    matrix_ok = np.array_equal(back, matrix.astype(np.float32).astype(np.float64))

    vnet = init_subnet(1, 6, 5, 4)
    dnet = init_subnet(2, 7, 5, 4)
    frames = rng.normal(size=(4, 6))
    before = embed_frames(vnet, frames)
    cpath = tmp_path / "ckpt.json"
    save_checkpoint(cpath, vnet, dnet)
    v2, _ = load_checkpoint(cpath)
    ckpt_ok = np.array_equal(embed_frames(v2, frames), before)

    cli_ok = True
    outputs = {}
    for run_dir in ("run_a", "run_b"):
        base = tmp_path / run_dir
        base.mkdir()
        files = {
            "features": base / "f.vsf",
            "truth": base / "t.json",
            "descs": base / "d.vsd",
            "labels": base / "p.txt",
            "ckpt": base / "model.json",
            "summary": base / "s.json",
            "ff": base / "ff.json",
        }
        assert cli_dispatch([
            "gen-synth", "--seed", "11",
            "--features", str(files["features"]), "--truth", str(files["truth"]),
            "--descs", str(files["descs"]), "--labels", str(files["labels"]),
        ]) == 0
        assert cli_dispatch([
            "train", "--features", str(files["features"]), "--descs", str(files["descs"]),
            "--pairs", str(files["labels"]), "--seg-len", "36", "--embed-dim", "4",
            "--hidden", "6", "--lr", "0.1", "--epochs", "5", "--seed", "11",
            "--out", str(files["ckpt"]),
        ]) == 0
        assert cli_dispatch([
            "summarize", "--features", str(files["features"]), "--model", str(files["ckpt"]),
            "--seg-len", "4", "--k", "5", "--out", str(files["summary"]),
        ]) == 0
        outputs[run_dir] = files

    # fastforward determinism on a generated score column
    for run_dir, files in outputs.items():
        scores_path = files["features"].parent / "scores.vsf"
        assert cli_dispatch([
            "score-lstm", "--features", str(files["features"]), "--hidden", "5",
            "--seed", "3", "--out", str(scores_path),
        ]) == 0
        assert cli_dispatch([
            "fastforward", "--scores", str(scores_path), "--speedup", "4",
            "--max-skip", "8", "--lambda-sem", "0.5", "--out", str(files["ff"]),
        ]) == 0
        files["scores"] = scores_path

    for key in ("features", "truth", "descs", "labels", "ckpt", "summary", "scores", "ff"):
        a = outputs["run_a"][key].read_bytes()
        b = outputs["run_b"][key].read_bytes()
        cli_ok &= a == b

    ok = matrix_ok and ckpt_ok and cli_ok
    assert report(
        "A9 round trips",
        ok,
        f"matrix {matrix_ok}, checkpoint {ckpt_ok}, cli bytes {cli_ok}",
    )
