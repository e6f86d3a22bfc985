"""The benchmark's three workloads: input generation, one pass, output checks.

Set-up generates every input from the workload seed and writes it as real
VSF1/VSD1/JSON/text files in the run's work directory.  A pass then calls
the public videosum API in the order the CLI subcommands would, reading and
writing files in that directory, and returns what it produced.  Passes take
a tracer (see spans.py) whose spans wrap the calls into each module.

Workloads, and why each was chosen:

- train: gen-synth -> train -> summarize -> eval at the paper's default
  dims.  One SGD epoch over all event x description pairs and the JSON
  checkpoint write and read do most of the work.  The planted clusters are
  well separated, so PAM's greedy build is nearly optimal and PAM is a small
  share of the pass.
- summarize: a stream of scenes, each a pan from one static shot to another
  through a short transition.  Greedy build puts one medoid per scene on the
  transition, and PAM needs exactly one swap per scene to move it to the
  second static shot.  The number of swaps is thus fixed by the number of
  scenes and not by the seed, which keeps the work per pass equal across
  seeds while build, swaps and the n x n x D distance broadcast dominate.
  The checkpoint is only read.  Its description net, which summarize loads
  but never uses, takes 32-d input instead of 4800-d: that shrinks the JSON
  from 50 MB to 8 MB, whose parsing would otherwise be a third of the pass
  and its most host-sensitive part (train still reads and writes the full
  checkpoint).
- fastforward: 30 fps x 5 min of frames.  The CLI path scores frames with
  the bidirectional LSTM and selects frames at one rate; the paper path
  scores ROIs, splits the timeline and fast-forwards each part at its own
  rate.  The LSTM scan dominates; there is no PAM and no training.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
import tracemalloc
from pathlib import Path

import numpy as np

from videosum import io as vio
from videosum.metrics import jitter_amount, keyshot_pr, speedup_deviation
from videosum.model import init_scorer, init_subnet, score_importance
from videosum.summarize import (
    Roi,
    clustering_cost,
    generate_summary,
    pam_iterations,
    segment_features,
    segment_speedups,
    semantic_score,
    semantic_threshold_split,
    speedup_frame_selection,
    uniform_segments,
)
from videosum.synth import SynthSpec, synth_generate
from videosum.train import TrainConfig, sample_pairs, sgd_train

# Seed of the nets the pipeline initialises itself (the CLI's --seed); the
# workload seed only shapes the inputs.
PROGRAM_SEED = 0
# At the default dims the CLI's default rate of 0.1 diverges within one epoch
# (mean loss ~20), leaving an embedding whose clustering cost swings 50x
# between seeds; 0.01 trains stably.
LEARNING_RATE = 0.01
EPOCHS = 1

# Pinned tolerances for float outputs compared with the recorded reference.
LOSS_RTOL = 1e-9
LSTM_RTOL = 1e-9
SEMANTIC_RTOL = 1e-12


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(hashlib.sha256(chunk).digest())
    return h.hexdigest()


def _file_sha(*paths: Path) -> str:
    return _sha(*(p.read_bytes() for p in paths))


def _ints_sha(values) -> str:
    return _sha(json.dumps([int(v) for v in values]).encode())


def _dump_json(path: Path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _dp_edges(frames: int, max_skip: int) -> int:
    """Edges the fast-forward DP relaxes on a path of `frames` nodes."""
    full = min(max_skip, frames - 1)
    return full * (full + 1) // 2 + max(0, frames - 1 - max_skip) * max_skip


def _path_problems(path, last: int, max_skip: int, what: str) -> list[str]:
    steps = np.diff(path)
    if path[0] != 0 or path[-1] != last:
        return [f"{what}: path runs {path[0]}..{path[-1]}, expected 0..{last}"]
    if steps.size and (steps.min() < 1 or steps.max() > max_skip):
        return [f"{what}: steps span {steps.min()}..{steps.max()}, allowed 1..{max_skip}"]
    return []


def _summary_problems(chosen, n_segments: int, k: int) -> list[str]:
    idx = [s.index for s in chosen]
    problems = []
    if len(set(idx)) != k or len(idx) != k:
        problems.append(f"summary has {len(set(idx))} distinct of {len(idx)} medoids, expected {k}")
    if any(not 0 <= i < n_segments for i in idx):
        problems.append(f"medoid index out of range 0..{n_segments - 1}: {idx}")
    if [s.start for s in chosen] != sorted(s.start for s in chosen):
        problems.append("summary segments are not in temporal order")
    return problems


def _close(name: str, got, want, rtol: float) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.allclose(got, want, rtol=rtol, atol=0.0):
        return [f"{name} differs from the reference beyond rtol {rtol}"]
    return []


def _same(name: str, got, want) -> list[str]:
    return [] if got == want else [f"{name}: got {got!r}, reference {want!r}"]


class Workload:
    """Base: sizes by name, a work directory and the workload seed."""

    name = ""
    SIZES: dict[str, dict] = {}

    def __init__(self, size: str, seed: int, workdir: Path):
        self.p = self.SIZES[size]
        self.seed = seed
        self.dir = Path(workdir)
        self.frames = 0  # input frames per pass, set by setup()

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def probe(self, out) -> dict[str, float]:
        """Traced-run extras that must stay outside the pass's wall time."""
        return {}


def _pam_probe(out, k: int) -> dict[str, float]:
    """Re-run PAM on a pass's segment features: build time (to the first
    yield), swap time and count, then the tracemalloc peak of a second run."""
    points = [sf.feature for sf in out["feats"]]
    t0 = time.perf_counter()
    steps = pam_iterations(points, k)
    medoids, _ = next(steps)
    t1 = time.perf_counter()
    swaps = 0
    for medoids, _ in steps:
        swaps += 1
    t2 = time.perf_counter()
    tracemalloc.start()
    try:
        for _ in pam_iterations(points, k):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if medoids != sorted(s.index for s in out["chosen"]):
        raise RuntimeError("PAM probe medoids differ from the pass's summary")
    return {
        "summarize.pam_build_s": t1 - t0,
        "summarize.pam_swap_s": t2 - t1,
        "summarize.pam_swaps": swaps,
        "summarize.pam_peak_mb": peak / 2**20,
    }


def _summary_quality(out) -> dict[str, float]:
    points = [sf.feature for sf in out["feats"]]
    return {"summary_f1": out["f1"],
            "summary_cost": clustering_cost(points, [s.index for s in out["chosen"]])}


class Train(Workload):
    name = "train"
    SIZES = {
        "full": dict(events=20, frames_per_event=32, gap=4, dim=1024, hidden=256,
                     embed=300, desc_dim=4800, train_seg=36, seg_len=4, k=20),
        "tiny": dict(events=4, frames_per_event=8, gap=4, dim=16, hidden=8,
                     embed=6, desc_dim=32, train_seg=12, seg_len=4, k=4),
    }

    def setup(self, t) -> str:
        p = self.p
        with t.span("synth.generate"):
            data = synth_generate(SynthSpec(
                seed=self.seed, n_events=p["events"], frames_per_event=p["frames_per_event"],
                gap_frames=p["gap"], dim=p["dim"],
            ))
        # Sentence vectors: the one-hot event labels through a seeded projection.
        proj = np.random.default_rng([self.seed, 1]).normal(size=(p["events"], p["desc_dim"]))
        with t.span("io.write_matrix"):
            vio.write_matrix(self.path("features.vsf"), data.features, vio.MAGIC_FEATURES)
            vio.write_matrix(self.path("descs.vsd"), data.descs @ proj, vio.MAGIC_DESCS)
        vio.write_intervals(self.path("truth.json"), data.truth)
        vio.write_pair_labels(self.path("pairs.txt"), data.labels)
        self.frames = data.features.shape[0]
        return _file_sha(*(self.dir / f for f in ("features.vsf", "descs.vsd", "truth.json", "pairs.txt")))

    def run_pass(self, t) -> dict:
        p = self.p
        # videosum train
        with t.span("io.read_matrix"):
            frames = vio.read_matrix(self.path("features.vsf"), vio.MAGIC_FEATURES)
            descs = vio.read_matrix(self.path("descs.vsd"), vio.MAGIC_DESCS)
        labels = vio.read_pair_labels(self.path("pairs.txt"))
        with t.span("train.sample_pairs"):
            segments = uniform_segments(frames.shape[0], p["train_seg"])
            dataset = sample_pairs([frames[s.start : s.end] for s in segments], descs, labels)
        with t.span("model.init"):
            vnet = init_subnet(PROGRAM_SEED, frames.shape[1], p["hidden"], p["embed"])
            dnet = init_subnet(PROGRAM_SEED + 1, descs.shape[1], p["hidden"], p["embed"])
        cfg = TrainConfig(margin=1.0, learning_rate=LEARNING_RATE, epochs=EPOCHS,
                          seed=PROGRAM_SEED)
        with t.span("train.sgd_train"):
            vnet, dnet, history = sgd_train(vnet, dnet, dataset, cfg)
        with t.span("io.save_checkpoint"):
            vio.save_checkpoint(self.path("model.json"), vnet, dnet)
        # videosum summarize
        with t.span("io.read_matrix"):
            frames = vio.read_matrix(self.path("features.vsf"), vio.MAGIC_FEATURES)
        with t.span("io.load_checkpoint"):
            vnet, _ = vio.load_checkpoint(self.path("model.json"))
        segs = uniform_segments(frames.shape[0], p["seg_len"])
        with t.span("summarize.segment_features"):
            feats = segment_features(vnet, frames, segs)
        with t.span("summarize.generate_summary"):
            chosen = generate_summary(feats, p["k"])
        with t.span("io.intervals"):
            vio.write_summary(self.path("summary.json"), chosen, p["k"], p["seg_len"])
        # videosum eval
        with t.span("io.intervals"):
            summary = vio.read_intervals(self.path("summary.json"))
            truth = vio.read_intervals(self.path("truth.json"))
        with t.span("metrics.eval"):
            f1 = keyshot_pr(summary, truth)[2]
        return {"history": history, "examples": len(dataset), "feats": feats,
                "chosen": chosen, "f1": f1}

    def quality(self, out) -> dict[str, float]:
        return _summary_quality(out)

    def check(self, out, ref: dict | None) -> list[str]:
        problems = _summary_problems(out["chosen"], len(out["feats"]), self.p["k"])
        if len(out["history"]) != EPOCHS or not all(math.isfinite(x) for x in out["history"]):
            problems.append(f"loss history {out['history']} is not one finite value per epoch")
        if ref:
            problems += _same("medoids", [s.index for s in out["chosen"]], ref["medoids"])
            problems += _close("loss history", out["history"], ref["history"], LOSS_RTOL)
        return problems

    def reference(self, out) -> dict:
        return {"medoids": [s.index for s in out["chosen"]], "history": out["history"]}

    def counts(self, out) -> dict[str, float]:
        return {"train.examples": out["examples"],
                "train.final_loss": out["history"][-1],
                "summarize.segments": len(out["feats"]),
                "io.checkpoint_bytes": (self.dir / "model.json").stat().st_size}

    def probe(self, out) -> dict[str, float]:
        return _pam_probe(out, self.p["k"])

    def cli_steps(self) -> list[tuple[str, list[str], list[tuple[str, str]]]]:
        """(command, argv, [(CLI output, pass output) files to byte-compare])."""
        p = self.p
        return [
            ("train", ["train", "--features", self.path("features.vsf"),
                       "--descs", self.path("descs.vsd"), "--pairs", self.path("pairs.txt"),
                       "--seg-len", str(p["train_seg"]), "--embed-dim", str(p["embed"]),
                       "--hidden", str(p["hidden"]), "--margin", "1.0", "--lr", str(LEARNING_RATE),
                       "--epochs", str(EPOCHS), "--seed", str(PROGRAM_SEED),
                       "--out", self.path("cli_model.json")],
             [("cli_model.json", "model.json")]),
            ("summarize", ["summarize", "--features", self.path("features.vsf"),
                           "--model", self.path("cli_model.json"),
                           "--seg-len", str(p["seg_len"]), "--k", str(p["k"]),
                           "--out", self.path("cli_summary.json")],
             [("cli_summary.json", "summary.json")]),
            ("eval", ["eval", "--summary", self.path("cli_summary.json"),
                      "--truth", self.path("truth.json")], []),
        ]


class Summarize(Workload):
    name = "summarize"
    # Per scene: `side` segments, `transition` segments, `side` segments.
    SIZES = {
        "full": dict(scenes=10, side=16, transition=8, dim=1024, hidden=256, embed=300,
                     desc_dim=32, seg_len=4, offset=1.0, radius=1.0, noise=0.02),
        "tiny": dict(scenes=3, side=4, transition=2, dim=16, hidden=8, embed=6,
                     desc_dim=32, seg_len=4, offset=1.0, radius=1.0, noise=0.02),
    }

    @property
    def k(self) -> int:
        return 2 * self.p["scenes"]

    def _stream(self) -> tuple[np.ndarray, list[tuple[int, int]]]:
        """Scene stream and the static-shot intervals the summary should pick.

        Scene g sits around a random base point B with a random unit axis u.
        Its first `side` segments show B - u (the first one a static shot of
        identical frames), then `transition` segments near B, then `side`
        segments near B + u (again opening on a static shot).
        """
        p = self.p
        rng = np.random.default_rng([self.seed, 2])
        L = p["seg_len"]
        blocks, truth = [], []
        row = 0
        for _ in range(p["scenes"]):
            base = rng.normal(size=p["dim"])
            base *= p["radius"] / np.linalg.norm(base)
            axis = rng.normal(size=p["dim"])
            axis *= p["offset"] / np.linalg.norm(axis)
            for centre, count, static in ((base - axis, p["side"], True),
                                          (base, p["transition"], False),
                                          (base + axis, p["side"], True)):
                for j in range(count):
                    if static and j == 0:
                        truth.append((row, row + L))
                        blocks.append(np.tile(centre, (L, 1)))
                    else:
                        blocks.append(centre + rng.normal(0.0, p["noise"], size=(L, p["dim"])))
                    row += L
        return np.concatenate(blocks), truth

    def setup(self, t) -> str:
        p = self.p
        stream, truth = self._stream()
        with t.span("io.write_matrix"):
            vio.write_matrix(self.path("stream.vsf"), stream, vio.MAGIC_FEATURES)
        vio.write_intervals(self.path("truth.json"), truth)
        with t.span("model.init"):
            vnet = init_subnet(self.seed, p["dim"], p["hidden"], p["embed"])
            dnet = init_subnet(self.seed + 1, p["desc_dim"], p["hidden"], p["embed"])
        with t.span("io.save_checkpoint"):
            vio.save_checkpoint(self.path("model.json"), vnet, dnet)
        self.frames = stream.shape[0]
        params = [getattr(net, f).tobytes() for net in (vnet, dnet) for f in ("w1", "b1", "w2", "b2")]
        return _sha(_file_sha(self.dir / "stream.vsf", self.dir / "truth.json").encode(), *params)

    def run_pass(self, t) -> dict:
        p = self.p
        # videosum summarize
        with t.span("io.read_matrix"):
            frames = vio.read_matrix(self.path("stream.vsf"), vio.MAGIC_FEATURES)
        with t.span("io.load_checkpoint"):
            vnet, _ = vio.load_checkpoint(self.path("model.json"))
        segs = uniform_segments(frames.shape[0], p["seg_len"])
        with t.span("summarize.segment_features"):
            feats = segment_features(vnet, frames, segs)
        with t.span("summarize.generate_summary"):
            chosen = generate_summary(feats, self.k)
        with t.span("io.intervals"):
            vio.write_summary(self.path("summary.json"), chosen, self.k, p["seg_len"])
        # videosum eval
        with t.span("io.intervals"):
            summary = vio.read_intervals(self.path("summary.json"))
            truth = vio.read_intervals(self.path("truth.json"))
        with t.span("metrics.eval"):
            f1 = keyshot_pr(summary, truth)[2]
        return {"feats": feats, "chosen": chosen, "f1": f1}

    def quality(self, out) -> dict[str, float]:
        return _summary_quality(out)

    def check(self, out, ref: dict | None) -> list[str]:
        problems = _summary_problems(out["chosen"], len(out["feats"]), self.k)
        if ref:
            problems += _same("medoids", [s.index for s in out["chosen"]], ref["medoids"])
        return problems

    def reference(self, out) -> dict:
        return {"medoids": [s.index for s in out["chosen"]]}

    def counts(self, out) -> dict[str, float]:
        return {"summarize.segments": len(out["feats"]),
                "io.checkpoint_bytes": (self.dir / "model.json").stat().st_size}

    def probe(self, out) -> dict[str, float]:
        return _pam_probe(out, self.k)

    def cli_steps(self):
        return [
            ("summarize", ["summarize", "--features", self.path("stream.vsf"),
                           "--model", self.path("model.json"),
                           "--seg-len", str(self.p["seg_len"]), "--k", str(self.k),
                           "--out", self.path("cli_summary.json")],
             [("cli_summary.json", "summary.json")]),
            ("eval", ["eval", "--summary", self.path("cli_summary.json"),
                      "--truth", self.path("truth.json")], []),
        ]


class FastForward(Workload):
    name = "fastforward"
    SIZES = {
        "full": dict(frames=9000, dim=128, hidden=256, actions=6, action_len=500,
                     speedup=6.0, max_skip=12, rho_s=3.0, lambda_sem=0.2),
        "tiny": dict(frames=600, dim=8, hidden=8, actions=3, action_len=60,
                     speedup=6.0, max_skip=12, rho_s=3.0, lambda_sem=0.2),
    }
    FRAME_W, FRAME_H = 640, 360
    SMOOTH = 9

    def _rois(self, rng) -> tuple[list, list[tuple[int, int]]]:
        """ROIs per frame: many, confident and central inside action stretches."""
        p = self.p
        block = p["frames"] // p["actions"]
        length = p["action_len"]
        actions = []
        for a in range(p["actions"]):
            start = a * block + int(rng.integers(0, block - length))
            actions.append((start, start + length))
        in_action = np.zeros(p["frames"], dtype=bool)
        for s, e in actions:
            in_action[s:e] = True
        w, h = self.FRAME_W, self.FRAME_H
        frames = []
        for act in in_action:
            rois = []
            for _ in range(rng.integers(2, 5) if act else rng.integers(0, 2)):
                if act:
                    cx, cy = w / 2 + rng.normal(0, 40), h / 2 + rng.normal(0, 30)
                    conf, frac = rng.uniform(0.7, 1.0), rng.uniform(0.05, 0.15)
                else:
                    cx, cy = rng.uniform(0, w), rng.uniform(0, h)
                    conf, frac = rng.uniform(0.1, 0.4), rng.uniform(0.005, 0.02)
                rois.append({"confidence": float(conf), "cx": float(cx), "cy": float(cy),
                             "area": float(frac) * w * h})
            frames.append(rois)
        return frames, actions

    def setup(self, t) -> str:
        p = self.p
        rng = np.random.default_rng([self.seed, 3])
        # Stationary, smooth features: a moving sum over a window of white noise.
        noise = np.cumsum(rng.normal(size=(p["frames"] + self.SMOOTH, p["dim"])), axis=0)
        features = (noise[self.SMOOTH :] - noise[: -self.SMOOTH]) / np.sqrt(self.SMOOTH)
        rois, actions = self._rois(rng)
        self.actions = actions
        # Focus-of-expansion track whose jitter the fast-forward is scored on.
        self.foe = np.cumsum(rng.normal(0.0, 1.0, size=(p["frames"], 2)), axis=0)
        with t.span("io.write_matrix"):
            vio.write_matrix(self.path("features.vsf"), features, vio.MAGIC_FEATURES)
        _dump_json(self.dir / "rois.json",
                   {"frame_w": self.FRAME_W, "frame_h": self.FRAME_H, "frames": rois})
        self.frames = p["frames"]
        return _sha(_file_sha(self.dir / "features.vsf", self.dir / "rois.json").encode(),
                    json.dumps(actions).encode(), self.foe.tobytes())

    def run_pass(self, t) -> dict:
        p = self.p
        # videosum score-lstm
        with t.span("io.read_matrix"):
            frames = vio.read_matrix(self.path("features.vsf"), vio.MAGIC_FEATURES)
        with t.span("model.init"):
            scorer = init_scorer(PROGRAM_SEED, frames.shape[1], p["hidden"])
        with t.span("model.score_importance"):
            lstm = score_importance(scorer, frames)
        with t.span("io.write_matrix"):
            vio.write_matrix(self.path("lstm.vsf"), lstm[:, None], vio.MAGIC_FEATURES)
        # videosum fastforward
        with t.span("io.read_matrix"):
            scores = vio.read_matrix(self.path("lstm.vsf"), vio.MAGIC_FEATURES).reshape(-1)
        with t.span("summarize.frame_selection"):
            selected = speedup_frame_selection(scores, p["speedup"], p["max_skip"], 1.0, 1.0)
        with t.span("io.write_fastforward"):
            _dump_json(self.dir / "ff.json", {"selected": selected,
                                              "desired_speedup": p["speedup"],
                                              "achieved_speedup": scores.size / len(selected)})
        # videosum score-semantic
        with t.span("io.read_rois"):
            with open(self.path("rois.json"), "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            rois = [[Roi(confidence=r["confidence"], center=(r["cx"], r["cy"]), area=r["area"])
                     for r in frame] for frame in doc["frames"]]
        with t.span("summarize.semantic_score"):
            semantic = np.asarray([semantic_score(r, doc["frame_w"], doc["frame_h"], doc.get("sigma"))
                                   for r in rois])
        with t.span("io.write_matrix"):
            vio.write_matrix(self.path("semantic.vsf"), semantic[:, None], vio.MAGIC_FEATURES)
        # Per-part fast-forward, composed as in demos/04.
        with t.span("io.read_matrix"):
            sem = vio.read_matrix(self.path("semantic.vsf"), vio.MAGIC_FEATURES).reshape(-1)
        smoothed = np.convolve(sem, np.ones(self.SMOOTH) / self.SMOOTH, mode="same")
        with t.span("summarize.threshold_split"):
            _, sem_parts, ns_parts = semantic_threshold_split(smoothed)
        len_s = sum(e - s for s, e in sem_parts)
        len_ns = sum(e - s for s, e in ns_parts)
        with t.span("summarize.segment_speedups"):
            rho_ns = segment_speedups(len_s, len_ns, p["speedup"], p["rho_s"])
        parts, kept = [], []
        with t.span("summarize.frame_selection"):
            for ranges, rho in ((sem_parts, p["rho_s"]), (ns_parts, rho_ns)):
                skip = int(2 * np.ceil(rho))
                for start, end in ranges:
                    if end - start < 2:
                        kept.extend(range(start, end))
                        continue
                    local = speedup_frame_selection(sem[start:end], rho, skip, 1.0, p["lambda_sem"])
                    parts.append((start, end, skip, local))
                    kept.extend(start + i for i in local)
        kept = sorted(set(kept))
        with t.span("metrics.eval"):
            dev = speedup_deviation(p["speedup"], sem.size, len(kept))
            jitter = jitter_amount(self.foe[kept])
        return {"lstm": lstm, "selected": selected, "semantic": semantic,
                "ranges": sem_parts + ns_parts, "parts": parts, "kept": kept,
                "dev": dev, "jitter": jitter}

    def quality(self, out) -> dict[str, float]:
        """F1 of the kept frames against the action stretches, and FOE jitter.

        Jitter, the paper's smoothness measure of a fast-forward, stands in
        for the clustering cost the summaries report.
        """
        kept = [(i, i + 1) for i in out["kept"]]
        return {"summary_f1": keyshot_pr(kept, self.actions)[2], "summary_cost": out["jitter"]}

    def check(self, out, ref: dict | None) -> list[str]:
        p = self.p
        t = p["frames"]
        problems = []
        lstm, semantic = out["lstm"], out["semantic"]
        if lstm.shape != (t,) or not (np.all(lstm > 0) and np.all(lstm < 1)):
            problems.append("LSTM scores are not one value in (0, 1) per frame")
        if semantic.shape != (t,) or not (np.all(np.isfinite(semantic)) and np.all(semantic >= 0)):
            problems.append("semantic scores are not one finite non-negative value per frame")
        problems += _path_problems(out["selected"], t - 1, p["max_skip"], "single-rate path")
        for start, end, skip, local in out["parts"]:
            problems += _path_problems(local, end - start - 1, skip, f"part [{start}, {end})")
        covered = sorted(out["ranges"])
        if covered[0][0] != 0 or covered[-1][1] != t or any(
            a[1] != b[0] for a, b in zip(covered, covered[1:])
        ):
            problems.append("semantic and non-semantic parts do not partition the frames")
        if ref:
            problems += _same("selected frames", _ints_sha(out["selected"]), ref["selected_sha"])
            problems += _same("kept frames", _ints_sha(out["kept"]), ref["kept_sha"])
            problems += _close("LSTM scores", lstm[:: ref["stride"]], ref["lstm"], LSTM_RTOL)
            problems += _close("semantic scores", semantic[:: ref["stride"]], ref["semantic"],
                               SEMANTIC_RTOL)
        return problems

    def reference(self, out) -> dict:
        stride = max(1, self.p["frames"] // 40)
        return {"selected_sha": _ints_sha(out["selected"]), "kept_sha": _ints_sha(out["kept"]),
                "stride": stride, "lstm": out["lstm"][::stride].tolist(),
                "semantic": out["semantic"][::stride].tolist()}

    def counts(self, out) -> dict[str, float]:
        p = self.p
        edges = _dp_edges(p["frames"], p["max_skip"]) + sum(
            _dp_edges(end - start, skip) for start, end, skip, _ in out["parts"])
        return {"model.lstm_steps": 2 * p["frames"],
                "summarize.dp_edges": edges,
                "summarize.parts": len(out["ranges"]),
                "summarize.kept_frames": len(out["kept"]),
                "summarize.ff_speedup_dev": out["dev"]}

    def cli_steps(self):
        p = self.p
        return [
            ("score_lstm", ["score-lstm", "--features", self.path("features.vsf"),
                            "--hidden", str(p["hidden"]), "--seed", str(PROGRAM_SEED),
                            "--out", self.path("cli_lstm.vsf")],
             [("cli_lstm.vsf", "lstm.vsf")]),
            ("score_semantic", ["score-semantic", "--rois", self.path("rois.json"),
                                "--out", self.path("cli_semantic.vsf")],
             [("cli_semantic.vsf", "semantic.vsf")]),
            ("fastforward", ["fastforward", "--scores", self.path("cli_lstm.vsf"),
                             "--speedup", str(p["speedup"]), "--max-skip", str(p["max_skip"]),
                             "--lambda-speed", "1.0", "--lambda-sem", "1.0",
                             "--out", self.path("cli_ff.json")],
             [("cli_ff.json", "ff.json")]),
        ]


WORKLOADS = {w.name: w for w in (Train, Summarize, FastForward)}
