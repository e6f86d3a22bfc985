"""Command-line surface tying the pipeline together.

Subcommands: gen-synth, train, summarize, score-lstm, score-semantic,
fastforward, eval, gradcheck.  Every input and output is an explicit path;
nothing is inferred from file extensions.  Exit codes: 0 on success, 1 on
runtime, validation or out-of-memory errors (one message line on stderr), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields

import numpy as np

from . import io as vio
from ._checks import check_int, check_matrix, check_real
from .metrics import keyshot_pr
from .model import init_scorer, init_subnet, score_importance
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


def _given(args, *names) -> dict:
    """The options among `names` that were set; `**unset` leaves the rest out of `args`."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _cmd_gen_synth(args) -> int:
    data = synth_generate(SynthSpec(**_given(args, *(f.name for f in fields(SynthSpec)))))
    vio.write_matrix(args.features, data.features, vio.MAGIC_FEATURES)
    vio.write_intervals(args.truth, data.truth)
    vio.write_matrix(args.descs, data.descs, vio.MAGIC_DESCS)
    vio.write_pair_labels(args.labels, data.labels)
    frames, dim = data.features.shape
    _emit({"frames": frames, "dim": dim, "events": len(data.truth), "labels": len(data.labels)})
    return 0


def _cmd_train(args) -> int:
    frames = vio.read_matrix(args.features, vio.MAGIC_FEATURES)
    descs = vio.read_matrix(args.descs, vio.MAGIC_DESCS)
    labels = vio.read_pair_labels(args.pairs)
    segments = uniform_segments(frames.shape[0], args.seg_len)
    seg_frames = [frames[s.start : s.end] for s in segments]
    dataset = sample_pairs(seg_frames, descs, labels)
    cfg = TrainConfig(**_given(args, *(f.name for f in fields(TrainConfig))))
    dims = _given(args, "hidden_dim", "embed_dim")
    vnet = init_subnet(cfg.seed, frames.shape[1], **dims)
    dnet = init_subnet(cfg.seed + 1, descs.shape[1], **dims)
    vnet, dnet, history = sgd_train(vnet, dnet, dataset, cfg)
    vio.save_checkpoint(args.out, vnet, dnet)
    _emit(
        {
            "examples": len(dataset),
            "epochs": cfg.epochs,
            "final_loss": history[-1] if history else None,
        }
    )
    return 0


def _cmd_summarize(args) -> int:
    frames = vio.read_matrix(args.features, vio.MAGIC_FEATURES)
    vnet, _ = vio.load_checkpoint(args.model)
    check_matrix(args.features, frames, cols=vnet.input_dim, of=f"the video net of {args.model}")
    segments = uniform_segments(frames.shape[0], args.seg_len)
    feats = segment_features(vnet, frames, segments)
    chosen = generate_summary(feats, args.k)
    vio.write_summary(args.out, chosen, args.k, args.seg_len)
    _emit({"segments": len(segments), "selected": [[s.start, s.end] for s in chosen]})
    return 0


def _cmd_score_lstm(args) -> int:
    frames = vio.read_matrix(args.features, vio.MAGIC_FEATURES)
    scorer = init_scorer(args.seed, frames.shape[1], **_given(args, "hidden_dim"))
    scores = score_importance(scorer, frames)
    vio.write_matrix(args.out, scores[:, None], vio.MAGIC_FEATURES)
    _emit({"frames": int(scores.size)})
    return 0


def _cmd_score_semantic(args) -> int:
    frame_w, frame_h, sigma, frames = vio.read_rois(args.rois)
    scores = []
    for rec_no, rois in enumerate(frames):
        try:
            scores.append(semantic_score(rois, frame_w, frame_h, sigma))
        except ValueError as exc:
            raise ValueError(f"{args.rois}: frame {rec_no}: {exc}") from None
    vio.write_matrix(args.out, np.asarray(scores)[:, None], vio.MAGIC_FEATURES)
    _emit({"frames": len(scores)})
    return 0


def _cmd_fastforward(args) -> int:
    matrix = vio.read_matrix(args.scores, vio.MAGIC_FEATURES)
    scores = check_matrix(args.scores, matrix, cols=1, of="a score file").reshape(-1)
    weights = _given(args, "lambda_speed", "lambda_sem")
    selected = speedup_frame_selection(scores, args.speedup, args.max_skip, **weights)
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
    check_int("trials", args.trials, 1)
    check_real("tolerance", args.tolerance, 0)
    errors = []
    for trial in range(args.trials):
        vnet = init_subnet(args.seed + trial, 8, 6, 4)  # first, so it names a negative seed
        dnet = init_subnet(args.seed + trial + 10_000, 5, 6, 4)
        rng = np.random.default_rng(args.seed + trial)
        ex = PairExample(
            segment=rng.normal(size=(3, 8)),
            desc=rng.normal(size=5),
            label=trial % 2,
        )
        errors.append(finite_diff_check(vnet, dnet, ex, **_given(args, "h")))
    worst = float(np.max(errors))  # unlike max(), a NaN error fails the check
    _emit({"trials": args.trials, "max_rel_error": worst, "tolerance": args.tolerance})
    return 0 if worst <= args.tolerance else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="videosum",
        description="Video summarization over per-frame feature streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    unset = {"argument_default": argparse.SUPPRESS}

    p = sub.add_parser("gen-synth", help="generate a synthetic planted-event dataset", **unset)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-events", type=int)
    p.add_argument("--frames-per-event", type=int)
    p.add_argument("--gap-frames", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--features", required=True, help="output feature file (VSF1)")
    p.add_argument("--truth", required=True, help="output event-window document")
    p.add_argument("--descs", required=True, help="output description file (VSD1)")
    p.add_argument("--labels", required=True, help="output pair-label file")
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("train", help="train the joint embedding nets", **unset)
    p.add_argument("--features", required=True, help="input feature file (VSF1)")
    p.add_argument("--descs", required=True, help="input description file (VSD1)")
    p.add_argument("--pairs", required=True, help="input pair-label file")
    p.add_argument("--seg-len", type=int, required=True)
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--hidden", type=int, dest="hidden_dim", metavar="HIDDEN")
    p.add_argument("--margin", type=float)
    p.add_argument("--lr", type=float, dest="learning_rate", metavar="LR")
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("summarize", help="select k representative segments")
    p.add_argument("--features", required=True, help="input feature file (VSF1)")
    p.add_argument("--model", required=True, help="input checkpoint path")
    p.add_argument("--seg-len", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True, help="output summary document")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("score-lstm", help="per-frame importance scores", **unset)
    p.add_argument("--features", required=True, help="input feature file (VSF1)")
    p.add_argument("--hidden", type=int, dest="hidden_dim", metavar="HIDDEN")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output score file (VSF1, one column)")
    p.set_defaults(func=_cmd_score_lstm)

    p = sub.add_parser("score-semantic", help="per-frame semantic scores from ROIs")
    p.add_argument("--rois", required=True, help="input ROI document (JSON)")
    p.add_argument("--out", required=True, help="output score file (VSF1, one column)")
    p.set_defaults(func=_cmd_score_semantic)

    p = sub.add_parser("fastforward", help="speed-up frame selection by shortest path", **unset)
    p.add_argument("--scores", required=True, help="input score file (VSF1, one column)")
    p.add_argument("--speedup", type=float, required=True)
    p.add_argument("--max-skip", type=int, required=True)
    p.add_argument("--lambda-speed", type=float)
    p.add_argument("--lambda-sem", type=float)
    p.add_argument("--out", required=True, help="output selection document")
    p.set_defaults(func=_cmd_fastforward)

    p = sub.add_parser("eval", help="keyshot precision/recall/F1")
    p.add_argument("--summary", required=True, help="summary interval document")
    p.add_argument("--truth", required=True, help="reference interval document")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification", **unset)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--step", type=float, dest="h", metavar="STEP")
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
    except (ValueError, KeyError, TypeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
