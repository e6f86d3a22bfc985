"""Command-line surface tying the pipeline together.

Subcommands: gen-synth, train, summarize, score-lstm, score-semantic,
fastforward, eval, gradcheck.  Every input and output is an explicit path;
nothing is inferred from file extensions.  Exit codes: 0 on success, 1 on
runtime or validation errors (message on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io as vio
from .metrics import keyshot_pr
from .model import (
    DEFAULT_EMBED_DIM,
    DEFAULT_HIDDEN_DIM,
    init_scorer,
    init_subnet,
    score_importance,
)
from .summarize import (
    generate_summary,
    segment_features,
    semantic_score,
    speedup_frame_selection,
    uniform_segments,
)
from .synth import SynthSpec, synth_generate
from .train import PairExample, TrainConfig, finite_diff_check, sample_pairs, sgd_train

__all__ = ["cli_dispatch", "main"]


def _emit(doc) -> None:
    print(json.dumps(doc, sort_keys=True))


def _cmd_gen_synth(args) -> int:
    spec = SynthSpec(
        seed=args.seed,
        n_events=args.n_events,
        frames_per_event=args.frames_per_event,
        gap_frames=args.gap_frames,
        dim=args.dim,
        noise_sigma=args.noise_sigma,
    )
    data = synth_generate(spec)
    vio.write_matrix(args.features, data.features, vio.MAGIC_FEATURES)
    vio.write_intervals(args.truth, data.truth)
    vio.write_matrix(args.descs, data.descs, vio.MAGIC_DESCS)
    vio.write_pair_labels(args.labels, data.labels)
    _emit(
        {
            "frames": int(data.features.shape[0]),
            "dim": int(data.features.shape[1]),
            "events": len(data.truth),
            "labels": len(data.labels),
        }
    )
    return 0


def _cmd_train(args) -> int:
    frames = vio.read_matrix(args.features, vio.MAGIC_FEATURES)
    descs = vio.read_matrix(args.descs, vio.MAGIC_DESCS)
    labels = vio.read_pair_labels(args.pairs)
    segments = uniform_segments(frames.shape[0], args.seg_len)
    seg_frames = [frames[s.start : s.end] for s in segments]
    dataset = sample_pairs(seg_frames, descs, labels)
    vnet = init_subnet(args.seed, frames.shape[1], args.hidden, args.embed_dim)
    dnet = init_subnet(args.seed + 1, descs.shape[1], args.hidden, args.embed_dim)
    cfg = TrainConfig(
        margin=args.margin,
        learning_rate=args.lr,
        epochs=args.epochs,
        seed=args.seed,
    )
    vnet, dnet, history = sgd_train(vnet, dnet, dataset, cfg)
    vio.save_checkpoint(args.out, vnet, dnet)
    _emit(
        {
            "examples": len(dataset),
            "epochs": args.epochs,
            "final_loss": history[-1] if history else None,
        }
    )
    return 0


def _cmd_summarize(args) -> int:
    frames = vio.read_matrix(args.features, vio.MAGIC_FEATURES)
    vnet, _ = vio.load_checkpoint(args.model)
    segments = uniform_segments(frames.shape[0], args.seg_len)
    feats = segment_features(vnet, frames, segments)
    chosen = generate_summary(feats, args.k)
    vio.write_summary(args.out, chosen, args.k, args.seg_len)
    _emit({"segments": len(segments), "selected": [[s.start, s.end] for s in chosen]})
    return 0


def _cmd_score_lstm(args) -> int:
    frames = vio.read_matrix(args.features, vio.MAGIC_FEATURES)
    scorer = init_scorer(args.seed, frames.shape[1], args.hidden)
    scores = score_importance(scorer, frames)
    vio.write_matrix(args.out, scores[:, None], vio.MAGIC_FEATURES)
    _emit({"frames": int(scores.size)})
    return 0


def _cmd_score_semantic(args) -> int:
    frame_w, frame_h, sigma, frames = vio.read_rois(args.rois)
    scores = [semantic_score(rois, frame_w, frame_h, sigma) for rois in frames]
    vio.write_matrix(args.out, np.asarray(scores)[:, None], vio.MAGIC_FEATURES)
    _emit({"frames": len(scores)})
    return 0


def _cmd_fastforward(args) -> int:
    matrix = vio.read_matrix(args.scores, vio.MAGIC_FEATURES)
    if matrix.shape[1] != 1:
        raise ValueError(
            f"{args.scores}: score files hold one column, got {matrix.shape[1]}"
        )
    scores = matrix.reshape(-1)
    selected = speedup_frame_selection(
        scores, args.speedup, args.max_skip, args.lambda_speed, args.lambda_sem
    )
    achieved = scores.size / len(selected)
    vio.write_selection(args.out, selected, args.speedup, achieved)
    _emit({"kept": len(selected), "achieved_speedup": achieved})
    return 0


def _cmd_eval(args) -> int:
    summary = vio.read_intervals(args.summary)
    truth = vio.read_intervals(args.truth)
    precision, recall, f1 = keyshot_pr(summary, truth)
    _emit({"precision": precision, "recall": recall, "f1": f1})
    return 0


def _cmd_gradcheck(args) -> int:
    worst = 0.0
    for trial in range(args.trials):
        rng = np.random.default_rng(args.seed + trial)
        vnet = init_subnet(args.seed + trial, 8, 6, 4)
        dnet = init_subnet(args.seed + trial + 10_000, 5, 6, 4)
        ex = PairExample(
            segment=rng.normal(size=(3, 8)),
            desc=rng.normal(size=5),
            label=trial % 2,
        )
        worst = max(worst, finite_diff_check(vnet, dnet, ex, margin=1.0, h=args.step))
    _emit({"trials": args.trials, "max_rel_error": worst, "tolerance": args.tolerance})
    return 0 if worst <= args.tolerance else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="videosum",
        description="Video summarization over per-frame feature streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic planted-event dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-events", type=int, default=5)
    p.add_argument("--frames-per-event", type=int, default=32)
    p.add_argument("--gap-frames", type=int, default=4)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--features", required=True, help="output feature file (VSF1)")
    p.add_argument("--truth", required=True, help="output event-window document")
    p.add_argument("--descs", required=True, help="output description file (VSD1)")
    p.add_argument("--labels", required=True, help="output pair-label file")
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("train", help="train the joint embedding nets")
    p.add_argument("--features", required=True, help="input feature file (VSF1)")
    p.add_argument("--descs", required=True, help="input description file (VSD1)")
    p.add_argument("--pairs", required=True, help="input pair-label file")
    p.add_argument("--seg-len", type=int, required=True)
    p.add_argument("--embed-dim", type=int, default=DEFAULT_EMBED_DIM)
    p.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN_DIM)
    p.add_argument("--margin", type=float, default=1.0)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("summarize", help="select k representative segments")
    p.add_argument("--features", required=True, help="input feature file (VSF1)")
    p.add_argument("--model", required=True, help="input checkpoint path")
    p.add_argument("--seg-len", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True, help="output summary document")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("score-lstm", help="per-frame importance scores")
    p.add_argument("--features", required=True, help="input feature file (VSF1)")
    p.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN_DIM)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output score file (VSF1, one column)")
    p.set_defaults(func=_cmd_score_lstm)

    p = sub.add_parser("score-semantic", help="per-frame semantic scores from ROIs")
    p.add_argument("--rois", required=True, help="input ROI document (JSON)")
    p.add_argument("--out", required=True, help="output score file (VSF1, one column)")
    p.set_defaults(func=_cmd_score_semantic)

    p = sub.add_parser("fastforward", help="speed-up frame selection by shortest path")
    p.add_argument("--scores", required=True, help="input score file (VSF1, one column)")
    p.add_argument("--speedup", type=float, required=True)
    p.add_argument("--max-skip", type=int, required=True)
    p.add_argument("--lambda-speed", type=float, default=1.0)
    p.add_argument("--lambda-sem", type=float, default=1.0)
    p.add_argument("--out", required=True, help="output selection document")
    p.set_defaults(func=_cmd_fastforward)

    p = sub.add_parser("eval", help="keyshot precision/recall/F1")
    p.add_argument("--summary", required=True, help="summary interval document")
    p.add_argument("--truth", required=True, help="reference interval document")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


def cli_dispatch(argv) -> int:
    """Parse argv (without the program name) and run one subcommand."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
