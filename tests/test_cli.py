"""CLI behavior: exit codes, file plumbing, and the full synthetic pipeline."""

import json
import struct
import subprocess
import sys

import numpy as np
import pytest

from videosum.cli import cli_dispatch
from videosum.io import MAGIC_FEATURES, read_intervals, read_matrix, write_matrix


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
            ("--epochs", "-2", "epochs must be non-negative, got -2"),
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
             "frame 1: confidence must lie in [0, 1], got 2.0"),
            ({"frames": [[{"confidence": 0.5, "cx": 1, "cy": 1, "area": -3}]]},
             "frame 0: area must be non-negative, got -3"),
            ({"frames": [[{"confidence": 0.5, "cx": "a", "cy": 1, "area": 1}]]},
             "frame 0: ROI fields must be finite numbers"),
            ({"frame_w": 0}, "frame_w must be a positive number, got 0"),
            ({"frame_h": -2.5}, "frame_h must be a positive number, got -2.5"),
            ({"sigma": 0}, "sigma must be a positive number, got 0"),
            ({"frames": 5}, "frames must be a list of per-frame ROI lists"),
            ({"frames": [5]}, "frame 0: expected a list of ROI records"),
        ],
        ids=["confidence", "area", "non-numeric-center", "frame-w", "frame-h", "sigma",
             "frames-not-a-list", "frame-not-a-list"],
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
            "frames": [[{"confidence": 0.5, "cx": 1e200, "cy": 1, "area": 1}]],
        }))
        out_path = tmp_path / "o.vsf"
        code, _, err = run(capsys, "score-semantic", "--rois", str(rois), "--out", str(out_path))
        assert code == 1
        assert err.splitlines() == [
            "error: ROI center (1e+200, 1) is too far from the frame center (5.0, 5.0): "
            "its squared distance overflows float64"
        ]
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
        assert "one column" in err

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
        assert err.splitlines() == [f"error: {name} must be non-negative, got -1.0"]
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
             "interval record 0: start and end must be finite numbers"),
            ("score-semantic", '{"frame_w": 1%s, "frame_h": 10, "frames": [[]]}' % ("0" * 400),
             "frame_w must be a positive number"),
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
        (line,) = err.splitlines()
        assert line.startswith(f"error: {doc}: {needle}")
        assert out == ""
        assert not out_path.exists()

    def test_gradcheck_passes_and_fails_by_tolerance(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--trials", "2", "--seed", "0")
        assert code == 0
        report = json.loads(out)
        assert report["max_rel_error"] <= 1e-4
        code, _, _ = run(
            capsys, "gradcheck", "--trials", "2", "--seed", "0", "--tolerance", "1e-12"
        )
        assert code == 1


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
