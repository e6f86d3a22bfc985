"""CLI behavior: exit codes, file plumbing, and the full synthetic pipeline."""

import json
import math
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

from videosum.cli import cli_dispatch
from videosum.io import (
    MAGIC_DESCS,
    MAGIC_FEATURES,
    read_intervals,
    read_matrix,
    save_checkpoint,
    write_intervals,
    write_matrix,
    write_pair_labels,
    write_selection,
)
from videosum.model import init_scorer, init_subnet, score_importance
from videosum.summarize import speedup_frame_selection, uniform_segments
from videosum.synth import SynthSpec, synth_generate
from videosum.train import PairExample, TrainConfig, finite_diff_check, sample_pairs, sgd_train


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_synth(tmp_path, capsys, seed=0, **overrides):
    paths = {
        "features": tmp_path / f"feat{seed}.vsf",
        "truth": tmp_path / f"truth{seed}.json",
        "descs": tmp_path / f"desc{seed}.vsd",
        "labels": tmp_path / f"pairs{seed}.txt",
    }
    argv = [
        "gen-synth",
        "--seed", str(seed),
        "--features", str(paths["features"]),
        "--truth", str(paths["truth"]),
        "--descs", str(paths["descs"]),
        "--labels", str(paths["labels"]),
    ]
    for flag, value in overrides.items():
        argv += [f"--{flag}", str(value)]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return paths


class TestDispatchBasics:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "usage" in out.lower()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2
        assert "usage" in err.lower() or "invalid" in err.lower()

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "--summary", "x.json")
        assert code == 2

    def test_no_arguments_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_runtime_error_exits_one_with_message(self, tmp_path, capsys):
        missing = tmp_path / "nope.vsf"
        code, _, err = run(
            capsys, "score-lstm", "--features", str(missing), "--out", str(tmp_path / "o.vsf")
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "command, target, argv",
        [
            ("gen-synth", "synth_generate",
             ["--seed", "0", "--n-events", "10000000000", "--features", "f.vsf",
              "--truth", "t.json", "--descs", "d.vsd", "--labels", "l.txt"]),
            ("score-lstm", "init_scorer",
             ["--features", "f.vsf", "--hidden", "100000", "--out", "o.vsf"]),
        ],
    )
    def test_out_of_memory_exits_one_with_one_error_line(
            self, tmp_path, capsys, monkeypatch, command, target, argv):
        """The allocating call is replaced by one that raises as numpy does, so the test
        never tries a huge allocation."""
        message = "Unable to allocate 1.16 TiB for an array with shape (10000000000, 16)"

        def exhausted(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(f"videosum.cli.{target}", exhausted)
        monkeypatch.chdir(tmp_path)
        write_matrix("f.vsf", np.zeros((4, 3)), MAGIC_FEATURES)  # score-lstm's input
        code, out, err = run(capsys, command, *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_module_entry_point_prints_help(self, child_env):
        proc = subprocess.run([sys.executable, "-m", "videosum", "--help"],
                              capture_output=True, text=True, timeout=60, env=child_env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: videosum ")
        assert proc.stderr == ""

    @pytest.mark.parametrize(
        "payload, needle",
        [
            (b"XXXX" + b"\x00" * 8, "magic"),
            (b"VSF1" + (3).to_bytes(4, "little") + (2).to_bytes(4, "little") + b"\x00" * 10,
             "payload"),
            (b"VSF1" + (2**31).to_bytes(4, "little") + (2**31).to_bytes(4, "little"),
             "overflow"),
        ],
    )
    def test_corrupt_file_exits_one(self, tmp_path, capsys, payload, needle):
        """Each byte-level corruption the format forbids is a non-zero exit."""
        bad = tmp_path / "bad.vsf"
        bad.write_bytes(payload)
        code, _, err = run(
            capsys, "score-lstm", "--features", str(bad), "--out", str(tmp_path / "o.vsf")
        )
        assert code == 1
        assert needle in err


class TestPipeline:
    def test_gen_synth_outputs(self, tmp_path, capsys):
        paths = gen_synth(tmp_path, capsys, seed=3)
        feats = read_matrix(paths["features"], MAGIC_FEATURES)
        truth = read_intervals(paths["truth"])
        assert feats.shape[0] == 5 * (32 + 4)
        assert len(truth) == 5

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_gen_synth_non_finite_noise_exits_one(self, tmp_path, capsys, sigma):
        features = tmp_path / "feat.vsf"
        code, _, err = run(
            capsys,
            "gen-synth",
            "--seed", "0",
            "--noise-sigma", sigma,
            "--features", str(features),
            "--truth", str(tmp_path / "truth.json"),
            "--descs", str(tmp_path / "desc.vsd"),
            "--labels", str(tmp_path / "pairs.txt"),
        )
        assert code == 1
        assert err.splitlines() == [
            f"error: noise_sigma must be finite and non-negative, got {sigma}"
        ]
        assert not features.exists()

    def test_gen_synth_noise_beyond_float32_exits_one(self, tmp_path, capsys):
        outputs = {
            "--features": tmp_path / "feat.vsf",
            "--truth": tmp_path / "truth.json",
            "--descs": tmp_path / "desc.vsd",
            "--labels": tmp_path / "pairs.txt",
        }
        args = [str(v) for pair in outputs.items() for v in pair]
        code, _, err = run(capsys, "gen-synth", "--seed", "0", "--noise-sigma", "1e308", *args)
        assert code == 1
        assert err.splitlines() == [
            "error: noise_sigma=1e+308 is too large: 10 * noise_sigma exceeds "
            "the float32 range of feature files"
        ]
        assert not any(path.exists() for path in outputs.values())

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--lr", "nan", "learning_rate must be finite and positive, got nan"),
            ("--margin", "nan", "margin must be finite and non-negative, got nan"),
            ("--epochs", "-2", "epochs must be a non-negative integer, got -2"),
        ],
    )
    def test_train_bad_setting_exits_one(self, tmp_path, capsys, flag, value, message):
        paths = gen_synth(tmp_path, capsys, seed=0, **{"n-events": 2})
        ckpt = tmp_path / "model.json"
        code, _, err = run(
            capsys,
            "train",
            "--features", str(paths["features"]),
            "--descs", str(paths["descs"]),
            "--pairs", str(paths["labels"]),
            "--seg-len", "36",
            "--embed-dim", "3",
            "--hidden", "4",
            flag, value,
            "--out", str(ckpt),
        )
        assert code == 1
        assert err.splitlines() == [f"error: {message}"]
        assert not ckpt.exists()

    def test_full_pipeline_reports_metrics(self, tmp_path, capsys):
        """gen-synth -> train -> summarize -> eval end to end on one seed."""
        paths = gen_synth(tmp_path, capsys, seed=1)
        ckpt = tmp_path / "model.json"
        code, out, err = run(
            capsys,
            "train",
            "--features", str(paths["features"]),
            "--descs", str(paths["descs"]),
            "--pairs", str(paths["labels"]),
            "--seg-len", "36",
            "--embed-dim", "6",
            "--hidden", "8",
            "--lr", "0.1",
            "--epochs", "30",
            "--seed", "1",
            "--out", str(ckpt),
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["examples"] == 25

        summary = tmp_path / "summary.json"
        code, out, err = run(
            capsys,
            "summarize",
            "--features", str(paths["features"]),
            "--model", str(ckpt),
            "--seg-len", "4",
            "--k", "5",
            "--out", str(summary),
        )
        assert code == 0, err
        assert len(json.loads(out)["selected"]) == 5

        code, out, err = run(
            capsys, "eval", "--summary", str(summary), "--truth", str(paths["truth"])
        )
        assert code == 0, err
        metrics = json.loads(out)
        assert set(metrics) == {"precision", "recall", "f1"}
        assert 0.0 <= metrics["precision"] <= 1.0
        assert 0.0 <= metrics["recall"] <= 1.0

    def test_score_lstm_writes_unit_interval_column(self, tmp_path, capsys):
        paths = gen_synth(tmp_path, capsys, seed=2, **{"n-events": 2})
        out_path = tmp_path / "scores.vsf"
        code, _, err = run(
            capsys,
            "score-lstm",
            "--features", str(paths["features"]),
            "--hidden", "6",
            "--seed", "4",
            "--out", str(out_path),
        )
        assert code == 0, err
        scores = read_matrix(out_path, MAGIC_FEATURES)
        assert scores.shape == (2 * 36, 1)
        assert np.all(scores > 0) and np.all(scores < 1)

    def test_score_semantic(self, tmp_path, capsys):
        doc = {
            "frame_w": 100,
            "frame_h": 80,
            "sigma": 25.0,
            "frames": [
                [],
                [{"confidence": 1.0, "cx": 50.0, "cy": 40.0, "area": 8000.0}],
                [
                    {"confidence": 0.8, "cx": 50.0, "cy": 40.0, "area": 2000.0},
                    {"confidence": 0.5, "cx": 80.0, "cy": 40.0, "area": 1600.0},
                ],
            ],
        }
        rois = tmp_path / "rois.json"
        rois.write_text(json.dumps(doc))
        out_path = tmp_path / "sem.vsf"
        code, _, err = run(capsys, "score-semantic", "--rois", str(rois), "--out", str(out_path))
        assert code == 0, err
        scores = read_matrix(out_path, MAGIC_FEATURES).reshape(-1)
        assert scores[0] == 0.0
        assert scores[1] == 1.0
        np.testing.assert_allclose(scores[2], 0.2486752255959972, rtol=1e-6)

    def test_score_semantic_malformed_roi(self, tmp_path, capsys):
        rois = tmp_path / "rois.json"
        rois.write_text(json.dumps({"frame_w": 10, "frame_h": 10, "frames": [[{"cx": 1}]]}))
        code, _, err = run(
            capsys, "score-semantic", "--rois", str(rois), "--out", str(tmp_path / "o.vsf")
        )
        assert code == 1
        assert "frame 0" in err

    @pytest.mark.parametrize(
        "changes, needle",
        [
            ({"frames": [[], [{"confidence": 2.0, "cx": 1, "cy": 1, "area": 1}]]},
             "frame 1: confidence must be in [0, 1], got 2.0"),
            ({"frames": [[{"confidence": 0.5, "cx": 1, "cy": 1, "area": -3}]]},
             "frame 0: area must be finite and non-negative, got -3"),
            ({"frames": [[{"confidence": 0.5, "cx": "a", "cy": 1, "area": 1}]]},
             "frame 0: center x must be finite, got 'a'"),
            ({"frame_w": 0}, "frame_w must be finite and positive, got 0"),
            ({"frame_h": -2.5}, "frame_h must be finite and positive, got -2.5"),
            ({"sigma": 0}, "sigma must be finite and positive, got 0"),
            ({"frames": 5}, "frames must be a list of per-frame ROI lists"),
            ({"frames": [5]}, "frame 0: expected a list of ROI records"),
            ({"sigma": 1e200}, "sigma=1e+200 for a 10 x 10 frame is out of range: "
             "2 * sigma**2 is not a positive float64"),
            ({"frame_w": 1e-200, "frame_h": 1e-200},
             "sigma=3.5355339059327375e-201 for a 1e-200 x 1e-200 frame is out of range"),
            ({"frame_w": 1e-200, "frame_h": 1e-200, "sigma": 1},
             "frame size 1e-200 x 1e-200 with sigma=1 is out of range: "
             "frame_w * frame_h underflows to 0"),
            ({"frame_w": 1e200, "frame_h": 1e200, "sigma": 1},
             "frame size 1e+200 x 1e+200 with sigma=1 is out of range: "
             "frame_w * frame_h overflows float64"),
            ({"sigma": 1.3e-162, "frames": [[{"confidence": 0.5, "cx": 1, "cy": 1, "area": 1}]]},
             "sigma=1.3e-162 for a 10 x 10 frame is out of range: "
             "2 * sigma**2 is not a positive float64"),
        ],
        ids=["confidence", "area", "non-numeric-center", "frame-w", "frame-h", "sigma",
             "frames-not-a-list", "frame-not-a-list", "sigma-overflows", "tiny-frame",
             "tiny-frame-area", "huge-frame-area", "sigma-square-underflows"],
    )
    def test_score_semantic_bad_document_names_file(self, tmp_path, capsys, changes, needle):
        doc = {"frame_w": 10, "frame_h": 10, "frames": [[]]}
        doc.update(changes)
        rois = tmp_path / "rois.json"
        rois.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "score-semantic", "--rois", str(rois), "--out", str(tmp_path / "o.vsf")
        )
        assert code == 1
        (line,) = err.splitlines()
        assert line.startswith(f"error: {rois}: {needle}")

    def test_score_semantic_far_roi_exits_one(self, tmp_path, capsys):
        rois = tmp_path / "rois.json"
        rois.write_text(json.dumps({
            "frame_w": 10, "frame_h": 10,
            "frames": [[], [{"confidence": 0.5, "cx": 1e200, "cy": 1, "area": 1}]],
        }))
        out_path = tmp_path / "o.vsf"
        code, _, err = run(capsys, "score-semantic", "--rois", str(rois), "--out", str(out_path))
        assert code == 1
        assert err.splitlines() == [
            f"error: {rois}: frame 1: ROI center (1e+200, 1) is too far from the frame center "
            "(5.0, 5.0): its squared distance overflows float64"
        ]
        assert not out_path.exists()

    def test_score_semantic_int_frame_whose_area_is_beyond_float64(self, tmp_path, capsys):
        """A 201-digit frame_w and frame_h: the area overflows float64, so the document is
        refused with the file named, as the same frame given as floats is."""
        rois = tmp_path / "rois.json"
        rois.write_text(json.dumps({
            "frame_w": 10**200, "frame_h": 10**200, "sigma": 1e150,
            "frames": [[{"confidence": 1.0, "cx": 5e199, "cy": 5e199, "area": 1.0}]],
        }))
        out_path = tmp_path / "o.vsf"
        code, out, err = run(capsys, "score-semantic", "--rois", str(rois), "--out", str(out_path))
        assert code == 1
        assert err.splitlines() == [
            f"error: {rois}: frame size {10**200} x {10**200} with sigma=1e+150 is out of "
            "range: frame_w * frame_h overflows float64"
        ]
        assert out == ""
        assert not out_path.exists()

    def test_fastforward(self, tmp_path, capsys):
        scores_path = tmp_path / "scores.vsf"
        write_matrix(scores_path, np.ones((9, 1)), MAGIC_FEATURES)
        out_path = tmp_path / "ff.json"
        code, out, err = run(
            capsys,
            "fastforward",
            "--scores", str(scores_path),
            "--speedup", "4",
            "--max-skip", "8",
            "--lambda-sem", "0",
            "--out", str(out_path),
        )
        assert code == 0, err
        doc = json.loads(out_path.read_text())
        assert doc["selected"] == [0, 4, 8]
        assert json.loads(out)["kept"] == 3

    def test_fastforward_rejects_multi_column_scores(self, tmp_path, capsys):
        scores_path = tmp_path / "wide.vsf"
        write_matrix(scores_path, np.ones((4, 3)), MAGIC_FEATURES)
        code, _, err = run(
            capsys,
            "fastforward",
            "--scores", str(scores_path),
            "--speedup", "2",
            "--max-skip", "4",
            "--out", str(tmp_path / "o.json"),
        )
        assert code == 1
        assert err == f"error: {scores_path} has 3 columns, a score file expects 1\n"

    @pytest.mark.parametrize(
        "score, speedup, needle",
        [
            (np.nan, "4", "non-finite value nan at row 3, column 0"),
            (0.5, "nan", "rho must be finite"),
        ],
        ids=["nan-score", "nan-speedup"],
    )
    def test_fastforward_non_finite_exits_one(self, tmp_path, child_env, score, speedup, needle):
        """Runs in a subprocess with a timeout so a hang fails instead of stalling."""
        scores_path = tmp_path / "scores.vsf"
        column = np.linspace(0, 1, 9, dtype="<f4")
        column[3] = score
        scores_path.write_bytes(MAGIC_FEATURES + struct.pack("<II", 9, 1) + column.tobytes())
        proc = subprocess.run(
            [
                sys.executable, "-m", "videosum", "fastforward",
                "--scores", str(scores_path),
                "--speedup", speedup,
                "--max-skip", "4",
                "--out", str(tmp_path / "ff.json"),
            ],
            capture_output=True,
            text=True,
            timeout=10,
            env=child_env,
        )
        assert proc.returncode == 1, proc.stderr
        assert needle in proc.stderr
        assert not (tmp_path / "ff.json").exists()

    def test_fastforward_overflowing_speedup_exits_one(self, tmp_path, capsys):
        scores_path = tmp_path / "scores.vsf"
        write_matrix(scores_path, np.linspace(0, 1, 9)[:, None], MAGIC_FEATURES)
        code, _, err = run(
            capsys,
            "fastforward",
            "--scores", str(scores_path),
            "--speedup", "1e200",
            "--max-skip", "4",
            "--out", str(tmp_path / "ff.json"),
        )
        assert code == 1
        assert err.splitlines() == [
            "error: edge costs overflow float64 with rho=1e+200, lambda_speed=1.0"
        ]
        assert not (tmp_path / "ff.json").exists()

    @pytest.mark.parametrize("flag", ["--lambda-speed", "--lambda-sem"])
    def test_fastforward_negative_weight_exits_one(self, tmp_path, capsys, flag):
        scores_path = tmp_path / "scores.vsf"
        write_matrix(scores_path, np.linspace(0, 1, 8)[:, None], MAGIC_FEATURES)
        code, _, err = run(
            capsys,
            "fastforward",
            "--scores", str(scores_path),
            "--speedup", "2",
            "--max-skip", "3",
            flag, "-1",
            "--out", str(tmp_path / "ff.json"),
        )
        assert code == 1
        name = flag[2:].replace("-", "_")
        assert err.splitlines() == [f"error: {name} must be finite and non-negative, got -1.0"]
        assert not (tmp_path / "ff.json").exists()

    @pytest.mark.parametrize(
        "command, text, needle",
        [
            ("score-semantic", '{"frame_h": 10, "frames": []}', "missing field 'frame_w'"),
            ("summarize", '{"format_version": 1, "video": {}, "description": {}}',
             "not a checkpoint archive: File is not a zip file"),
            ("eval", '{"intervals": [[0, 2]],}', "invalid JSON: Expecting property name"),
        ],
        ids=["roi-missing-frame-w", "checkpoint-json", "eval-malformed-json"],
    )
    def test_json_input_errors_name_the_file(self, tmp_path, capsys, command, text, needle):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        features = tmp_path / "f.vsf"
        write_matrix(features, np.zeros((8, 2)), MAGIC_FEATURES)
        argv = {
            "score-semantic": ["--rois", str(doc), "--out", str(tmp_path / "o.vsf")],
            "summarize": ["--features", str(features), "--model", str(doc), "--seg-len", "4",
                          "--k", "1", "--out", str(tmp_path / "s.json")],
            "eval": ["--summary", str(doc), "--truth", str(doc)],
        }[command]
        code, _, err = run(capsys, command, *argv)
        assert code == 1
        assert err.startswith(f"error: {doc}: {needle}")

    @pytest.mark.parametrize(
        "command, text, needle",
        [
            ("eval", '{"intervals": [[0, 1%s]]}' % ("0" * 400),
             "interval record 0: end must be finite, got 1%s" % ("0" * 400)),
            ("score-semantic", '{"frame_w": 1%s, "frame_h": 10, "frames": [[]]}' % ("0" * 400),
             "frame_w must be finite and positive, got 1%s" % ("0" * 400)),
        ],
        ids=["eval-interval-end", "score-semantic-frame-w"],
    )
    def test_int_beyond_float64_exits_one(self, tmp_path, capsys, command, text, needle):
        """A JSON int of 10**400 is rejected with the file named, not an OverflowError."""
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        out_path = tmp_path / "o.vsf"
        argv = {
            "eval": ["--summary", str(doc), "--truth", str(doc)],
            "score-semantic": ["--rois", str(doc), "--out", str(out_path)],
        }[command]
        code, out, err = run(capsys, command, *argv)
        assert code == 1
        assert err.splitlines() == [f"error: {doc}: {needle}"]
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["eval", "score-semantic"])
    def test_deeply_nested_json_exits_one(self, tmp_path, capsys, command):
        """json.load's RecursionError becomes one error line naming the file."""
        doc = tmp_path / "doc.json"
        doc.write_text("[" * 100_000)
        out_path = tmp_path / "o.vsf"
        argv = {
            "eval": ["--summary", str(doc), "--truth", str(doc)],
            "score-semantic": ["--rois", str(doc), "--out", str(out_path)],
        }[command]
        code, out, err = run(capsys, command, *argv)
        assert code == 1
        assert err.splitlines() == [f"error: {doc}: invalid JSON: nesting too deep"]
        assert out == ""
        assert not out_path.exists()

    def test_eval_overflowing_duration_exits_one(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        summary.write_text('{"intervals": [[0, 1e308]]}')
        truth = tmp_path / "truth.json"
        truth.write_text('{"intervals": [[-1e308, 1e308]]}')
        code, out, err = run(capsys, "eval", "--summary", str(summary), "--truth", str(truth))
        assert code == 1
        assert err.splitlines() == [
            "error: the total duration of reference b overflows float64: inf"
        ]
        assert out == ""

    def test_gradcheck_passes_and_fails_by_tolerance(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--trials", "2", "--seed", "0")
        assert code == 0
        report = json.loads(out)
        assert report["max_rel_error"] <= 1e-4
        code, _, _ = run(
            capsys, "gradcheck", "--trials", "2", "--seed", "0", "--tolerance", "1e-12"
        )
        assert code == 1

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_gradcheck_non_finite_step_exits_one(self, capsys, step):
        code, out, err = run(capsys, "gradcheck", "--trials", "1", "--step", step)
        assert code == 1
        assert err.splitlines() == [f"error: step h must be finite and positive, got {step}"]
        assert out == ""

    def test_gradcheck_nan_error_fails(self, capsys, monkeypatch):
        """A NaN error from any trial is reported and fails the check."""
        errors = iter([0.0, math.nan, 0.0])
        monkeypatch.setattr("videosum.cli.finite_diff_check", lambda *a, **kw: next(errors))
        code, out, _ = run(capsys, "gradcheck", "--trials", "3")
        assert code == 1
        assert math.isnan(json.loads(out)["max_rel_error"])

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--trials", "0", "trials must be a positive integer, got 0"),
            ("--trials", "-3", "trials must be a positive integer, got -3"),
            ("--tolerance", "nan", "tolerance must be finite and non-negative, got nan"),
        ],
        ids=["trials-zero", "trials-negative", "tolerance-nan"],
    )
    def test_gradcheck_bad_setting_exits_one(self, capsys, flag, value, message):
        """No trial run, or a NaN tolerance, is an error rather than a vacuous pass."""
        code, out, err = run(capsys, "gradcheck", flag, value)
        assert code == 1
        assert err.splitlines() == [f"error: {message}"]
        assert out == ""

    @pytest.mark.parametrize("command", ["gen-synth", "train", "score-lstm", "gradcheck"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, command):
        paths = gen_synth(tmp_path, capsys, seed=0, **{"n-events": 2})
        out_path = tmp_path / "out"
        argv = {
            "gen-synth": ["--features", str(out_path), "--truth", str(tmp_path / "t.json"),
                          "--descs", str(tmp_path / "d.vsd"), "--labels", str(tmp_path / "p.txt")],
            "train": ["--features", str(paths["features"]), "--descs", str(paths["descs"]),
                      "--pairs", str(paths["labels"]), "--seg-len", "36", "--out", str(out_path)],
            "score-lstm": ["--features", str(paths["features"]), "--out", str(out_path)],
            "gradcheck": [],
        }[command]
        code, out, err = run(capsys, command, "--seed", "-1", *argv)
        assert code == 1
        assert err.splitlines() == ["error: seed must be a non-negative integer, got -1"]
        assert out == ""
        assert not out_path.exists()

    def test_summarize_video_shorter_than_a_segment_exits_one(self, tmp_path, capsys):
        features = tmp_path / "f.vsf"
        write_matrix(features, np.zeros((3, 2)), MAGIC_FEATURES)
        model = tmp_path / "m.npz"
        save_checkpoint(model, init_subnet(0, 2, 4, 3), init_subnet(1, 5, 4, 3))
        out_path = tmp_path / "s.json"
        code, out, err = run(
            capsys,
            "summarize",
            "--features", str(features),
            "--model", str(model),
            "--seg-len", "4",
            "--k", "1",
            "--out", str(out_path),
        )
        assert code == 1
        assert err.splitlines() == ["error: there is no segment to choose k=1 from"]
        assert out == ""
        assert not out_path.exists()


    def test_summarize_width_mismatch_names_both_files(self, tmp_path, capsys):
        features = tmp_path / "f.vsf"
        write_matrix(features, np.zeros((8, 7)), MAGIC_FEATURES)
        model = tmp_path / "m.npz"
        save_checkpoint(model, init_subnet(0, 6, 4, 3), init_subnet(1, 5, 4, 3))
        out_path = tmp_path / "s.json"
        code, out, err = run(
            capsys,
            "summarize",
            "--features", str(features),
            "--model", str(model),
            "--seg-len", "4",
            "--k", "1",
            "--out", str(out_path),
        )
        assert code == 1
        assert err.splitlines() == [
            f"error: {features} has 7 columns, the video net of {model} expects 6"
        ]
        assert out == ""
        assert not out_path.exists()


class TestDeterminism:
    def test_same_seed_gen_synth_is_byte_identical(self, tmp_path, capsys):
        a = gen_synth(tmp_path / "a", capsys, seed=9)
        b = gen_synth(tmp_path / "b", capsys, seed=9)
        for key in a:
            assert a[key].read_bytes() == b[key].read_bytes()

    @pytest.fixture(autouse=True)
    def _mkdirs(self, tmp_path):
        (tmp_path / "a").mkdir(exist_ok=True)
        (tmp_path / "b").mkdir(exist_ok=True)


def test_unset_options_take_library_defaults(tmp_path, capsys):
    """Each command given only its required options matches the library on its own defaults."""
    cli, lib = tmp_path / "cli", tmp_path / "lib"
    cli.mkdir()
    lib.mkdir()

    data = synth_generate(SynthSpec(seed=1))
    write_matrix(lib / "f.vsf", data.features, MAGIC_FEATURES)
    write_intervals(lib / "t.json", data.truth)
    write_matrix(lib / "d.vsd", data.descs, MAGIC_DESCS)
    write_pair_labels(lib / "p.txt", data.labels)
    code, out, err = run(capsys, "gen-synth", "--seed", "1", "--features", str(cli / "f.vsf"),
                         "--truth", str(cli / "t.json"), "--descs", str(cli / "d.vsd"),
                         "--labels", str(cli / "p.txt"))
    assert code == 0, err
    frames, dim = data.features.shape
    assert json.loads(out) == {"frames": frames, "dim": dim, "events": len(data.truth),
                               "labels": len(data.labels)}

    features = read_matrix(lib / "f.vsf", MAGIC_FEATURES)
    descs = read_matrix(lib / "d.vsd", MAGIC_DESCS)
    write_pair_labels(lib / "few.txt", data.labels[:4])  # so the full-width nets train in ~1 s
    segments = uniform_segments(frames, 8)
    dataset = sample_pairs([features[s.start : s.end] for s in segments], descs, data.labels[:4])
    cfg = TrainConfig()
    vnet, dnet, history = sgd_train(
        init_subnet(cfg.seed, dim), init_subnet(cfg.seed + 1, descs.shape[1]), dataset, cfg
    )
    save_checkpoint(lib / "m.npz", vnet, dnet)
    code, out, err = run(capsys, "train", "--features", str(cli / "f.vsf"),
                         "--descs", str(cli / "d.vsd"), "--pairs", str(lib / "few.txt"),
                         "--seg-len", "8", "--out", str(cli / "m.npz"))
    assert code == 0, err
    assert json.loads(out) == {"examples": len(dataset), "epochs": cfg.epochs,
                               "final_loss": history[-1]}

    scores = score_importance(init_scorer(0, dim), features)
    write_matrix(lib / "s.vsf", scores[:, None], MAGIC_FEATURES)
    code, out, err = run(capsys, "score-lstm", "--features", str(cli / "f.vsf"),
                         "--out", str(cli / "s.vsf"))
    assert code == 0, err
    assert json.loads(out) == {"frames": frames}

    scores = read_matrix(lib / "s.vsf", MAGIC_FEATURES).reshape(-1)
    selected = speedup_frame_selection(scores, 4.0, 8)
    write_selection(lib / "ff.json", selected, 4.0, frames / len(selected))
    code, out, err = run(capsys, "fastforward", "--scores", str(cli / "s.vsf"), "--speedup", "4",
                         "--max-skip", "8", "--out", str(cli / "ff.json"))
    assert code == 0, err
    assert json.loads(out) == {"kept": len(selected), "achieved_speedup": frames / len(selected)}

    for name in ("f.vsf", "t.json", "d.vsd", "p.txt", "m.npz", "s.vsf", "ff.json"):
        assert (cli / name).read_bytes() == (lib / name).read_bytes(), name

    # The nets and pair of each gradcheck trial, as `videosum gradcheck` builds them.
    errors = []
    for trial in range(5):
        rng = np.random.default_rng(trial)
        vnet, dnet = init_subnet(trial, 8, 6, 4), init_subnet(trial + 10_000, 5, 6, 4)
        ex = PairExample(segment=rng.normal(size=(3, 8)), desc=rng.normal(size=5), label=trial % 2)
        errors.append(finite_diff_check(vnet, dnet, ex))
    code, out, err = run(capsys, "gradcheck")
    assert code == 0, err
    assert json.loads(out) == {"trials": 5, "max_rel_error": max(errors), "tolerance": 1e-4}


def test_score_lstm_and_fastforward_bytes_do_not_depend_on_blas_threads(tmp_path, child_env):
    """`score-lstm -> fastforward` writes the same files on one BLAS thread and on the
    default count.  1100 frames span nine of score_importance's 128-frame chunks."""
    features = tmp_path / "f.vsf"
    write_matrix(features, np.random.default_rng(9).normal(size=(1100, 128)), MAGIC_FEATURES)
    written = []
    for threads in ("1", None):
        env = {k: v for k, v in child_env.items() if k not in ("OPENBLAS_NUM_THREADS",
                                                                 "OMP_NUM_THREADS")}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads or 'default'}"
        out.mkdir()
        for argv in (["score-lstm", "--features", str(features), "--out", str(out / "s.vsf")],
                     ["fastforward", "--scores", str(out / "s.vsf"), "--speedup", "4",
                      "--max-skip", "8", "--out", str(out / "ff.json")]):
            proc = subprocess.run([sys.executable, "-m", "videosum", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        written.append([(out / name).read_bytes() for name in ("s.vsf", "ff.json")])
    assert written[0] == written[1]


def _openblas_core(env) -> str:
    """The kernel set OpenBLAS chose for this CPU at run time, or "" for another BLAS."""
    proc = subprocess.run([sys.executable, "-c", "import numpy"],
                          env={**env, "OPENBLAS_VERBOSE": "2"}, capture_output=True, text=True,
                          timeout=60)
    found = re.search(r"Core: (\w+)", proc.stdout + proc.stderr)
    return found.group(1) if found else ""


def test_train_and_summarize_bytes_do_not_depend_on_blas_threads(tmp_path, child_env):
    """`gen-synth -> train -> summarize` writes the same files on one BLAS thread and on the
    default count.  The nets are the train bench's 1024 -> 256 -> 300 on 36-frame segments:
    OpenBLAS threads GEMMs that wide, and never those of small test dims.

    This was observed with OpenBLAS 0.3.31's SkylakeX kernels only; other kernels may sum
    these products in another order on one thread, so the test is skipped there."""
    core = _openblas_core(child_env)
    if core != "SkylakeX":
        pytest.skip(f"checked on OpenBLAS's SkylakeX kernels, not on {core or 'this BLAS'}")
    names = ("f.vsf", "t.json", "d.vsd", "p.txt", "m.npz", "s.json")
    written = []
    for threads in ("1", None):
        env = {k: v for k, v in child_env.items() if k not in ("OPENBLAS_NUM_THREADS",
                                                                 "OMP_NUM_THREADS")}
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"threads-{threads or 'default'}"
        out.mkdir()
        f, t, d, p, m, s = (str(out / name) for name in names)
        for argv in (["gen-synth", "--seed", "0", "--n-events", "4", "--frames-per-event", "32",
                      "--gap-frames", "4", "--dim", "1024", "--features", f, "--truth", t,
                      "--descs", d, "--labels", p],
                     ["train", "--features", f, "--descs", d, "--pairs", p, "--seg-len", "36",
                      "--hidden", "256", "--embed-dim", "300", "--lr", "0.01", "--epochs", "1",
                      "--out", m],
                     ["summarize", "--features", f, "--model", m, "--seg-len", "4", "--k", "5",
                      "--out", s]):
            proc = subprocess.run([sys.executable, "-m", "videosum", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        written.append({name: (out / name).read_bytes() for name in names})
    assert written[0] == written[1]
