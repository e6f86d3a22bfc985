"""CLI behavior: exit codes, file plumbing, and the full synthetic pipeline."""

import json
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
        column = np.linspace(0, 1, 9)[:, None]
        column[3, 0] = score
        write_matrix(scores_path, column, MAGIC_FEATURES)
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

    @pytest.mark.parametrize(
        "command, text, needle",
        [
            ("score-semantic", '{"frame_h": 10, "frames": []}', "missing field 'frame_w'"),
            ("summarize", '{"format_version": 1, "video": {}, "description": {}}',
             "missing field 'dims'"),
            ("eval", '{"intervals": [[0, 2]],}', "invalid JSON: Expecting property name"),
        ],
        ids=["roi-missing-frame-w", "checkpoint-missing-dims", "eval-malformed-json"],
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
