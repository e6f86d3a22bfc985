"""Unit tests for file formats, checkpoints, and the synthetic generator."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from videosum.io import (
    MAGIC_DESCS,
    MAGIC_FEATURES,
    load_checkpoint,
    read_intervals,
    read_matrix,
    read_pair_labels,
    read_rois,
    save_checkpoint,
    write_intervals,
    write_matrix,
    write_pair_labels,
    write_selection,
    write_summary,
)
from videosum.metrics import normalize_intervals
from videosum.model import DEFAULT_DESC_DIM, embed_frames, init_subnet
from videosum.summarize import Segment
from videosum.synth import SynthSpec, synth_generate


class TestMatrixFormat:
    def test_round_trip_preserves_f32_values(self, tmp_path):
        path = tmp_path / "m.vsf"
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(5, 7))
        write_matrix(path, matrix, MAGIC_FEATURES)
        back = read_matrix(path, MAGIC_FEATURES)
        assert back.shape == (5, 7)
        np.testing.assert_array_equal(back, matrix.astype(np.float32).astype(np.float64))

    def test_empty_matrix_is_header_only(self, tmp_path):
        path = tmp_path / "empty.vsf"
        write_matrix(path, np.zeros((0, 0)), MAGIC_FEATURES)
        assert path.stat().st_size == 12
        assert read_matrix(path, MAGIC_FEATURES).shape == (0, 0)

    def test_2x3_size(self, tmp_path):
        path = tmp_path / "m.vsf"
        write_matrix(path, np.arange(6.0).reshape(2, 3), MAGIC_FEATURES)
        assert path.stat().st_size == 12 + 24

    def test_wrong_magic_names_both(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"XXXX" + struct.pack("<II", 1, 1) + b"\x00" * 4)
        with pytest.raises(ValueError, match=r"XXXX.*VSF1"):
            read_matrix(path, MAGIC_FEATURES)

    def test_desc_magic_rejected_for_features(self, tmp_path):
        path = tmp_path / "d.vsd"
        write_matrix(path, np.ones((1, 2)), MAGIC_DESCS)
        with pytest.raises(ValueError, match="bad magic"):
            read_matrix(path, MAGIC_FEATURES)

    def test_truncated_payload_reports_byte_counts(self, tmp_path):
        path = tmp_path / "t.vsf"
        payload = b"\x00" * 159  # one byte short of 10 x 4 floats
        path.write_bytes(MAGIC_FEATURES + struct.pack("<II", 10, 4) + payload)
        with pytest.raises(ValueError, match=r"159.*160"):
            read_matrix(path, MAGIC_FEATURES)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "h.vsf"
        path.write_bytes(b"VSF1\x01")
        with pytest.raises(ValueError, match="truncated header"):
            read_matrix(path, MAGIC_FEATURES)

    def test_dimension_overflow_rejected(self, tmp_path):
        path = tmp_path / "o.vsf"
        path.write_bytes(MAGIC_FEATURES + struct.pack("<II", 2**31, 2**31))
        with pytest.raises(ValueError, match="overflow"):
            read_matrix(path, MAGIC_FEATURES)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_payload_names_row_and_column(self, tmp_path, bad):
        path = tmp_path / "n.vsf"
        matrix = np.ones((3, 2))
        matrix[2, 1] = bad
        write_matrix(path, matrix, MAGIC_FEATURES)
        with pytest.raises(ValueError, match=re.escape(str(path)) + r": non-finite value .* at row 2, column 1"):
            read_matrix(path, MAGIC_FEATURES)

    @pytest.mark.parametrize("magic", ["VSF1", bytearray(b"VSF1"), b"VSX1"])
    def test_only_the_two_magic_constants_accepted(self, tmp_path, magic):
        path = tmp_path / "m.vsf"
        write_matrix(path, np.ones((1, 1)), MAGIC_FEATURES)
        with pytest.raises(ValueError, match="magic must be MAGIC_FEATURES or MAGIC_DESCS"):
            read_matrix(path, magic)
        with pytest.raises(ValueError, match="magic must be MAGIC_FEATURES or MAGIC_DESCS"):
            write_matrix(tmp_path / "w.vsf", np.ones((1, 1)), magic)

    def test_non_2d_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix(tmp_path / "x.vsf", np.zeros(3), MAGIC_FEATURES)


class TestIntervalDocuments:
    def test_empty_document(self, tmp_path):
        path = tmp_path / "iv.json"
        write_intervals(path, [])
        assert read_intervals(path) == []

    def test_adjacent_pairs_normalize_on_use(self, tmp_path):
        path = tmp_path / "iv.json"
        path.write_text(json.dumps({"intervals": [[0, 5], [5, 9]]}))
        raw = read_intervals(path)
        assert raw == [(0, 5), (5, 9)]
        assert normalize_intervals(raw) == [(0, 9)]

    def test_summary_round_trip(self, tmp_path):
        path = tmp_path / "sum.json"
        segments = [Segment(0, 0, 4), Segment(2, 8, 12), Segment(5, 20, 24)]
        write_summary(path, segments, k=3, seg_len=4)
        assert read_intervals(path) == [(0, 4), (8, 12), (20, 24)]
        doc = json.loads(path.read_text())
        assert doc["k"] == 3 and doc["seg_len"] == 4

    def test_selection_document_format(self, tmp_path):
        path = tmp_path / "ff.json"
        write_selection(path, [0, 4, 8], 4.0, 3.0)
        assert path.read_text(encoding="utf-8") == (
            '{\n  "achieved_speedup": 3.0,\n  "desired_speedup": 4.0,\n'
            '  "selected": [\n    0,\n    4,\n    8\n  ]\n}\n'
        )

    def test_fps_field_tolerated(self, tmp_path):
        path = tmp_path / "iv.json"
        path.write_text(json.dumps({"intervals": [[0, 2]], "fps": 30}))
        assert read_intervals(path) == [(0, 2)]

    def test_bad_record_reports_index(self, tmp_path):
        path = tmp_path / "iv.json"
        path.write_text(json.dumps({"intervals": [[0, 2], [9, 3]]}))
        with pytest.raises(ValueError, match="record 1"):
            read_intervals(path)

    def test_invalid_json_names_file(self, tmp_path):
        path = tmp_path / "iv.json"
        path.write_text('{"intervals": [[0, 2]')
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid JSON"):
            read_intervals(path)

    def test_malformed_document(self, tmp_path):
        path = tmp_path / "iv.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="intervals"):
            read_intervals(path)

    @pytest.mark.parametrize(
        "intervals, needle",
        [
            ([[0, 2], ["a", 2]], "interval record 1: start and end must be finite numbers"),
            ([[0, 2], [1, True]], "interval record 1: start and end must be finite numbers"),
            (5, "intervals must be a list"),
        ],
        ids=["string-start", "boolean-end", "not-a-list"],
    )
    def test_non_numeric_record_names_file_and_record(self, tmp_path, intervals, needle):
        path = tmp_path / "iv.json"
        path.write_text(json.dumps({"intervals": intervals}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {needle}"):
            read_intervals(path)


class TestPairLabelFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "pairs.txt"
        labels = [(0, 0, 1), (0, 1, 0), (3, 2, 1)]
        write_pair_labels(path, labels)
        assert read_pair_labels(path) == labels

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("0 0 1\n\n1 1 0\n")
        assert read_pair_labels(path) == [(0, 0, 1), (1, 1, 0)]

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("0 0 1\n1 x 0\n")
        with pytest.raises(ValueError, match="pairs.txt:2"):
            read_pair_labels(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "pairs.txt"
        path.write_text("0 0\n")
        with pytest.raises(ValueError, match="expected"):
            read_pair_labels(path)

    @pytest.mark.parametrize("line", [b"1 \xff 0\n", b"\xff\n", b"1 2 3\xff\n"])
    def test_undecodable_byte_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "pairs.txt"
        path.write_bytes(b"0 0 1\n" + line)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            read_pair_labels(path)


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        path = tmp_path / "ckpt.json"
        vnet = init_subnet(0, 6, 5, 4)
        dnet = init_subnet(1, 9, 5, 4)
        save_checkpoint(path, vnet, dnet)
        v2, d2 = load_checkpoint(path)
        for name in ("w1", "b1", "w2", "b2"):
            np.testing.assert_array_equal(getattr(v2, name), getattr(vnet, name))
            np.testing.assert_array_equal(getattr(d2, name), getattr(dnet, name))

    def test_forward_output_unchanged_after_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.json"
        vnet = init_subnet(2, 6, 5, 4)
        dnet = init_subnet(3, 9, 5, 4)
        frames = np.random.default_rng(4).normal(size=(7, 6))
        before = embed_frames(vnet, frames)
        save_checkpoint(path, vnet, dnet)
        v2, _ = load_checkpoint(path)
        np.testing.assert_array_equal(embed_frames(v2, frames), before)

    def test_4800_dim_description_net(self, tmp_path):
        """Checkpoint with the default 4800-dim description input loads and runs."""
        path = tmp_path / "ckpt.json"
        vnet = init_subnet(0, 6, 4, 3)
        dnet = init_subnet(1, DEFAULT_DESC_DIM, hidden_dim=4, embed_dim=3)
        save_checkpoint(path, vnet, dnet)
        _, d2 = load_checkpoint(path)
        assert d2.input_dim == 4800
        v = np.random.default_rng(0).normal(size=4800)
        out = d2.w2 @ np.tanh(d2.w1 @ v + d2.b1) + d2.b2
        assert np.all(np.isfinite(out))

    def test_tampered_dims_detected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_subnet(0, 6, 5, 4), init_subnet(1, 9, 5, 4))
        doc = json.loads(path.read_text())
        doc["dims"]["embed_dim"] = 17
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="dimension mismatch"):
            load_checkpoint(path)

    @pytest.mark.parametrize("drop", [("dims",), ("dims", "hidden"), ("video", "w2")])
    def test_missing_field_names_file(self, tmp_path, drop):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_subnet(0, 6, 5, 4), init_subnet(1, 9, 5, 4))
        doc = json.loads(path.read_text())
        parent = doc
        for key in drop[:-1]:
            parent = parent[key]
        del parent[drop[-1]]
        path.write_text(json.dumps(doc))
        needle = f"^{re.escape(str(path))}: missing field '{drop[-1]}'"
        with pytest.raises(ValueError, match=needle):
            load_checkpoint(path)

    def test_seeded_checkpoint_bytes_pinned(self, tmp_path):
        """Keys are sorted, so the bytes do not depend on how the writer lists the fields."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_subnet(0, 6, 5, 4), init_subnet(1, 9, 5, 4))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "911da104206a24bc44664471e1e190b8b98b5b241dee44d9c9cb384a6d52a946"
        )

    @pytest.mark.parametrize(
        "field, value, needle",
        [
            ("b1", [0.1, 0.2], r"'b1' has shape \(2,\), expected \(5,\)"),
            ("w2", [[0.1] * 3] * 4, r"'w2' has shape \(4, 3\), expected \(4, 5\)"),
            ("b1", [[0.1] * 5], "'b1' is 2-D, expected 1-D"),
            ("w1", [0.1] * 6, "'w1' is 1-D, expected 2-D"),
            ("b2", ["x", 0.1, 0.2, 0.3], "'b2' is not a numeric array: could not convert"),
            ("b2", [[0.1], [0.2, 0.3]], "'b2' is not a numeric array"),
            ("b2", {"a": 1}, "'b2' is not a numeric array"),
        ],
        ids=["short-b1", "narrow-w2", "2d-b1", "1d-w1", "string-entry", "ragged", "object"],
    )
    def test_malformed_array_names_file_and_field(self, tmp_path, field, value, needle):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_subnet(0, 6, 5, 4), init_subnet(1, 9, 5, 4))
        doc = json.loads(path.read_text())
        doc["video"][field] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: video net field {needle}"):
            load_checkpoint(path)

    def test_overflowing_literal_names_file_and_field(self, tmp_path):
        """JSON reads 1e999 as inf, which a checkpoint never holds."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_subnet(0, 6, 5, 4), init_subnet(1, 9, 5, 4))
        doc = json.loads(path.read_text())
        doc["description"]["b1"][2] = "INF"
        path.write_text(json.dumps(doc).replace('"INF"', "1e999"))
        needle = f"^{re.escape(str(path))}: description net field 'b1' holds a non-finite value"
        with pytest.raises(ValueError, match=needle):
            load_checkpoint(path)

    def test_version_mismatch_detected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, init_subnet(0, 6, 5, 4), init_subnet(1, 9, 5, 4))
        doc = json.loads(path.read_text())
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_mismatched_nets_rejected_on_save(self, tmp_path):
        with pytest.raises(ValueError, match="embed dims"):
            save_checkpoint(tmp_path / "x.json", init_subnet(0, 6, 5, 4), init_subnet(1, 9, 5, 3))


class TestSynthGenerate:
    def test_same_seed_bitwise_identical(self):
        a = synth_generate(SynthSpec(seed=7))
        b = synth_generate(SynthSpec(seed=7))
        np.testing.assert_array_equal(a.features, b.features)
        assert a.truth == b.truth
        assert a.labels == b.labels

    def test_zero_noise_gives_identical_event_frames(self):
        data = synth_generate(SynthSpec(seed=1, noise_sigma=0.0))
        for start, end in data.truth:
            block = data.features[start:end]
            np.testing.assert_array_equal(block, np.tile(block[0], (end - start, 1)))

    def test_event_window_layout(self):
        spec = SynthSpec(seed=3, n_events=5, frames_per_event=10, gap_frames=3, dim=8)
        data = synth_generate(spec)
        assert len(data.truth) == 5
        for i, (start, end) in enumerate(data.truth):
            assert end - start == 10
            assert start == i * 13
        for (_, prev_end), (next_start, _) in zip(data.truth, data.truth[1:]):
            assert next_start - prev_end == 3
        assert data.features.shape == (5 * 13, 8)

    def test_center_separation(self):
        for sigma in (0.0, 0.05, 0.8):
            spec = SynthSpec(seed=5, noise_sigma=sigma)
            data = synth_generate(spec)
            sep = max(10 * sigma, 1.0)
            centers = np.array([data.features[s:e].mean(axis=0) for s, e in data.truth])
            gaps = np.linalg.norm(centers[:, None] - centers[None, :], axis=2)
            np.fill_diagonal(gaps, np.inf)
            # sample means sit within a few noise widths of the true centers
            assert gaps.min() >= sep - 4 * sigma

    def test_labels_pair_each_event_with_its_description(self):
        data = synth_generate(SynthSpec(seed=0, n_events=3))
        assert data.descs.shape == (3, 3)
        np.testing.assert_array_equal(data.descs, np.eye(3))
        positives = [(i, j) for i, j, tn in data.labels if tn == 1]
        negatives = [(i, j) for i, j, tn in data.labels if tn == 0]
        assert positives == [(0, 0), (1, 1), (2, 2)]
        assert len(negatives) == 6

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(seed=0, n_events=0)
        with pytest.raises(ValueError):
            SynthSpec(seed=0, noise_sigma=-0.1)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_noise_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="noise_sigma must be finite and non-negative"):
            SynthSpec(seed=0, noise_sigma=sigma)


def write_valid_file(kind, path):
    """A small well-formed input for the reader named `kind`."""
    if kind == "matrix":
        write_matrix(path, np.arange(6.0).reshape(2, 3), MAGIC_FEATURES)
    elif kind == "pairs":
        write_pair_labels(path, [(0, 0, 1), (1, 2, 0), (12, 3, 1)])
    elif kind == "intervals":
        write_intervals(path, [(0, 5), (9, 12)])
    elif kind == "rois":
        path.write_text(json.dumps({
            "frame_w": 100, "frame_h": 80, "sigma": 25.0,
            "frames": [[], [{"confidence": 0.8, "cx": 50.0, "cy": 40.0, "area": 2000.0}]],
        }))
    else:
        save_checkpoint(path, init_subnet(0, 3, 2, 2), init_subnet(1, 2, 2, 2))


READERS = {
    "matrix": lambda path: read_matrix(path, MAGIC_FEATURES),
    "pairs": read_pair_labels,
    "intervals": read_intervals,
    "rois": read_rois,
    "checkpoint": load_checkpoint,
}


class TestReaderFuzz:
    @settings(max_examples=500, deadline=None)
    @given(kind=st.sampled_from(sorted(READERS)), truncate=st.booleans(), data=st.data())
    def test_corrupted_file_reads_or_names_the_file(self, tmp_path_factory, kind, truncate, data):
        """A truncated file, or one with a flipped byte, is read or rejected by path."""
        path = tmp_path_factory.mktemp("fuzz") / f"input.{kind}"
        write_valid_file(kind, path)
        raw = path.read_bytes()
        offset = data.draw(st.integers(0, len(raw) - 1))
        if truncate:
            raw = raw[:offset]
        else:
            flipped = raw[offset] ^ data.draw(st.integers(1, 255))
            raw = raw[:offset] + bytes([flipped]) + raw[offset + 1 :]
        path.write_bytes(raw)
        try:
            READERS[kind](path)
        except ValueError as exc:
            assert str(path) in str(exc)
