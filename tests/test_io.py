"""Unit tests for file formats, checkpoints, and the synthetic generator."""

import hashlib
import json
import math
import os
import re
import struct
import threading
import time
import tracemalloc
import zipfile
from dataclasses import fields
from io import BytesIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from videosum import io as vio
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
from videosum.model import DEFAULT_DESC_DIM, Subnet, embed_frames, init_subnet
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

    @settings(max_examples=100, deadline=None)
    @given(
        matrix=arrays(np.float32, st.tuples(st.integers(0, 5), st.integers(0, 5)),
                      elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
        magic=st.sampled_from([MAGIC_FEATURES, MAGIC_DESCS]),
        transpose=st.booleans(),
    )
    def test_round_trip_is_bitwise_property(self, tmp_path_factory, matrix, magic, transpose):
        """Drawn shapes (empty ones too), 32-bit values from signed zeros and subnormals to
        the largest finite ones, and column-major input: every value reads back bit for bit."""
        path = tmp_path_factory.mktemp("matrix") / "m.bin"
        matrix = matrix.astype(np.float64)
        if transpose:
            matrix = matrix.T
        write_matrix(path, matrix, magic)
        back = read_matrix(path, magic)
        assert back.shape == matrix.shape
        assert back.tobytes() == np.ascontiguousarray(matrix).tobytes()

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
        matrix = np.ones((3, 2), dtype="<f4")
        matrix[2, 1] = bad
        path.write_bytes(MAGIC_FEATURES + struct.pack("<II", 3, 2) + matrix.tobytes())
        with pytest.raises(ValueError, match=re.escape(str(path)) + r": non-finite value .* at row 2, column 1"):
            read_matrix(path, MAGIC_FEATURES)

    @pytest.mark.parametrize("bits", [0x7F800001, 0xFFBFFFFF], ids=["positive", "negative"])
    def test_signalling_nan_payload_named_without_a_warning(self, tmp_path, bits):
        """A signalling NaN, as one flipped bit of an infinity makes, is named like any other
        NaN; widening it to float64 would raise numpy's "invalid value" warning."""
        path = tmp_path / "n.vsf"
        payload = np.ones((3, 2), dtype="<f4")
        payload.view("<u4")[1, 0] = bits
        path.write_bytes(MAGIC_FEATURES + struct.pack("<II", 3, 2) + payload.tobytes())
        needle = f"^{re.escape(str(path))}: non-finite value nan at row 1, column 0$"
        with pytest.raises(ValueError, match=needle):
            read_matrix(path, MAGIC_FEATURES)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e300, -3.5e38])
    def test_value_outside_float32_rejected_before_writing(self, tmp_path, bad):
        path = tmp_path / "n.vsf"
        matrix = np.ones((3, 2))
        matrix[2, 1] = bad
        needle = f"^value {re.escape(str(bad))} at row 2, column 1 is not a finite 32-bit float"
        with pytest.raises(ValueError, match=needle):
            write_matrix(path, matrix, MAGIC_FEATURES)
        assert not path.exists()

    @pytest.mark.parametrize("magic", ["VSF1", bytearray(b"VSF1"), b"VSX1"])
    def test_only_the_two_magic_constants_accepted(self, tmp_path, magic):
        path = tmp_path / "m.vsf"
        write_matrix(path, np.ones((1, 1)), MAGIC_FEATURES)
        with pytest.raises(ValueError, match="magic must be MAGIC_FEATURES or MAGIC_DESCS"):
            read_matrix(path, magic)
        with pytest.raises(ValueError, match="magic must be MAGIC_FEATURES or MAGIC_DESCS"):
            write_matrix(tmp_path / "w.vsf", np.ones((1, 1)), magic)

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (5, 3), (9, 3), (3, 20), (0, 3), (3, 0)])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_round_trip_across_block_edges(self, tmp_path, monkeypatch, shape, transpose):
        """With blocks of 4 rows of 3 columns: one row short of a block, one block, one row
        over, several blocks, and rows wider than a block each write the one-shot layout and
        read back bit for bit, from row-major and column-major input."""
        monkeypatch.setattr(vio, "_BLOCK_BYTES", 48)
        path = tmp_path / "m.vsf"
        matrix = np.random.default_rng(1).normal(size=shape[::-1] if transpose else shape)
        if transpose:
            matrix = matrix.T
        write_matrix(path, matrix, MAGIC_FEATURES)
        stored = np.ascontiguousarray(matrix, dtype="<f4")
        assert path.read_bytes() == MAGIC_FEATURES + struct.pack("<II", *shape) + stored.tobytes()
        back = read_matrix(path, MAGIC_FEATURES)
        assert back.shape == shape
        assert back.tobytes() == stored.astype(np.float64).tobytes()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("shape, at", [((5, 3), (4, 1)), ((9, 3), (8, 0)), ((3, 20), (2, 17))])
    def test_non_finite_value_in_the_last_block_named_by_its_row(
            self, tmp_path, monkeypatch, bad, shape, at):
        monkeypatch.setattr(vio, "_BLOCK_BYTES", 48)
        path = tmp_path / "n.vsf"
        matrix = np.ones(shape, dtype="<f4")
        matrix[at] = bad
        path.write_bytes(MAGIC_FEATURES + struct.pack("<II", *shape) + matrix.tobytes())
        needle = f"^{re.escape(str(path))}: non-finite value {bad} at row {at[0]}, column {at[1]}$"
        with pytest.raises(ValueError, match=needle):
            read_matrix(path, MAGIC_FEATURES)

    @pytest.mark.parametrize("bad_at, named", [
        ([(4, 2)], (4, 2)),
        ([(4, 2), (4, 0)], (4, 0)),
        ([(4, 2), (1, 2)], (1, 2)),
    ])
    @pytest.mark.parametrize("existing", [None, b"earlier bytes"])
    def test_value_outside_float32_in_the_last_block_rejected_before_writing(
            self, tmp_path, monkeypatch, bad_at, named, existing):
        """The first bad value in row-major order is named by its row, and the file is left
        as it was: absent, or holding its earlier bytes."""
        monkeypatch.setattr(vio, "_BLOCK_BYTES", 48)
        path = tmp_path / "n.vsf"
        if existing is not None:
            path.write_bytes(existing)
        matrix = np.ones((5, 3))
        for at in bad_at:
            matrix[at] = 1e39
        needle = f"^value 1e\\+39 at row {named[0]}, column {named[1]} is not a finite 32-bit float$"
        with pytest.raises(ValueError, match=needle):
            write_matrix(path, matrix, MAGIC_FEATURES)
        if existing is None:
            assert not path.exists()
        else:
            assert path.read_bytes() == existing

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    @pytest.mark.parametrize("size", [20, 24, 28])
    def test_pipe_payload_checked_as_it_is_read(self, tmp_path, monkeypatch, size):
        """A pipe has no size to check first: a complete payload reads back, and one short
        or long is reported with its byte count."""
        monkeypatch.setattr(vio, "_BLOCK_BYTES", 8)
        path = tmp_path / "pipe.vsf"
        os.mkfifo(path)
        payload = np.arange(size // 4, dtype="<f4").tobytes()
        writer = threading.Thread(
            target=path.write_bytes, args=(MAGIC_FEATURES + struct.pack("<II", 3, 2) + payload,),
            daemon=True)
        writer.start()
        try:
            if size == 24:
                assert read_matrix(path, MAGIC_FEATURES).tolist() == [[0, 1], [2, 3], [4, 5]]
            else:
                needle = f": payload has {size} bytes, needs 24 for a 3 x 2 matrix$"
                with pytest.raises(ValueError, match=needle):
                    read_matrix(path, MAGIC_FEATURES)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()

    def test_payload_size_checked_before_allocating(self, tmp_path):
        """A header claiming 2**32 cells over an empty payload is rejected from the file's
        size, before a 32 GiB result is allocated."""
        path = tmp_path / "big.vsf"
        path.write_bytes(MAGIC_FEATURES + struct.pack("<II", 2**31, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"payload has 0 bytes, needs 17179869184 "):
                read_matrix(path, MAGIC_FEATURES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_read_holds_its_result_and_one_block(self, tmp_path):
        """Reading a 16 MiB result peaks below the result plus 2 MiB: the payload is never
        held whole next to it."""
        path = tmp_path / "m.vsf"
        matrix = np.random.default_rng(2).normal(size=(2048, 1024))
        write_matrix(path, matrix, MAGIC_FEATURES)
        tracemalloc.start()
        try:
            back = read_matrix(path, MAGIC_FEATURES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.tobytes() == matrix.astype(np.float32).astype(np.float64).tobytes()
        assert peak < back.nbytes + 2 * 2**20

    def test_write_holds_one_block(self, tmp_path):
        """Writing a 16 MiB matrix peaks below 2 MiB: no copy of the whole matrix is made."""
        path = tmp_path / "m.vsf"
        matrix = np.random.default_rng(3).normal(size=(2048, 1024))
        tracemalloc.start()
        try:
            write_matrix(path, matrix, MAGIC_FEATURES)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size == 12 + matrix.size * 4
        assert peak < 2 * 2**20

    def test_non_2d_rejected_on_write(self, tmp_path):
        with pytest.raises(ValueError):
            write_matrix(tmp_path / "x.vsf", np.zeros(3), MAGIC_FEATURES)

    @pytest.mark.parametrize("shape", [(2**32, 0), (0, 2**32), (2**16 + 1, 2**16)],
                             ids=["rows", "columns", "cells"])
    def test_dimensions_the_format_cannot_hold_rejected_before_writing(
            self, tmp_path, monkeypatch, shape):
        """A count beyond the header's u32, or more cells than `read_matrix` accepts, is
        refused before any value is looked at, and an existing file keeps its bytes.  No
        matrix here allocates: each is empty or a broadcast view of one value."""

        def no_payload(rows, cols):  # so that a writer without the rule fails at once
            raise AssertionError(f"a {rows} x {cols} payload was about to be written")

        path = tmp_path / "m.vsf"
        write_matrix(path, np.ones((4, 2)), MAGIC_FEATURES)
        before = path.read_bytes()
        monkeypatch.setattr(vio, "_row_blocks", no_payload)
        rows, cols = shape
        needle = (f"^matrix: dimension overflow, {rows} x {cols} exceeds the format's limits "
                  f"of {2**32 - 1} rows or columns and {2**32} cells$")
        with pytest.raises(ValueError, match=needle):
            write_matrix(path, np.broadcast_to(0.0, shape), MAGIC_FEATURES)
        assert path.read_bytes() == before


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

    @pytest.mark.parametrize(
        "selected, desired, achieved, message",
        [
            ([0, 2.7], 2.0, 2.0, "selected index 1 must be a non-negative integer, got 2.7"),
            ([0, True], 2.0, 2.0, "selected index 1 must be a non-negative integer, got True"),
            ([0, -1], 2.0, 2.0, "selected index 1 must be a non-negative integer, got -1"),
            ([0, 2], math.nan, 2.0, "desired_speedup must be finite, got nan"),
            ([0, 2], 2.0, math.inf, "achieved_speedup must be finite, got inf"),
            ([0, 2], 2.0, "2", "achieved_speedup must be finite, got '2'"),
        ],
        ids=["fraction", "bool", "negative", "nan", "inf", "text"],
    )
    def test_selection_writer_refuses_before_it_opens_the_file(self, tmp_path, selected,
                                                               desired, achieved, message):
        """An index that is not a non-negative integer, or a speed-up that is not a finite
        number, raises; the file at the path keeps its bytes."""
        path = tmp_path / "ff.json"
        path.write_bytes(b"old")
        with pytest.raises(ValueError) as exc:
            write_selection(path, selected, desired, achieved)
        assert str(exc.value) == message
        assert path.read_bytes() == b"old"

    @pytest.mark.parametrize(
        "write, message",
        [
            (lambda path: write_summary(path, [Segment(0, 0, 4), (0, 4)], 1, 4),
             "segment record 1 must be a Segment, got (0, 4)"),
            (lambda path: write_summary(path, 5, 1, 4),
             "segments must be a sequence of Segment records, got 5"),
            (lambda path: write_selection(path, 5, 2.0, 2.0),
             "selected must be a sequence of frame indices, got 5"),
            (lambda path: write_pair_labels(path, 5),
             "labels must be a sequence of (segment, description, label) records, got 5"),
            (lambda path: write_intervals(path, 5),
             "intervals must be a sequence of [start, end] pairs, got 5"),
        ],
        ids=["summary-tuple-record", "summary-number", "selection-number", "labels-number",
             "intervals-number"],
    )
    def test_writer_names_records_that_are_not_a_sequence_of_its_records(self, tmp_path,
                                                                        write, message):
        """A ValueError names the argument or record, and the file keeps its bytes."""
        path = tmp_path / "out"
        path.write_bytes(b"old")
        with pytest.raises(ValueError) as exc:
            write(path)
        assert str(exc.value) == message
        assert path.read_bytes() == b"old"

    def test_summary_numpy_integers_written_as_ints(self, tmp_path):
        want, got = tmp_path / "want.json", tmp_path / "got.json"
        write_summary(want, [Segment(0, 0, 4)], 3, 4)
        write_summary(got, [Segment(0, 0, 4)], np.int64(3), np.int32(4))
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "k, seg_len, message",
        [
            (math.nan, 4, "k must be a positive integer, got nan"),
            (0, 4, "k must be a positive integer, got 0"),
            (3, True, "seg_len must be a positive integer, got True"),
            (3, 4.0, "seg_len must be a positive integer, got 4.0"),
        ],
        ids=["nan-k", "zero-k", "bool-seg-len", "float-seg-len"],
    )
    def test_summary_writer_refuses_before_it_opens_the_file(self, tmp_path, k, seg_len,
                                                             message):
        path = tmp_path / "sum.json"
        path.write_bytes(b"old")
        with pytest.raises(ValueError) as exc:
            write_summary(path, [Segment(0, 0, 4)], k, seg_len)
        assert str(exc.value) == message
        assert path.read_bytes() == b"old"

    @pytest.mark.parametrize("value", [math.nan, -math.inf, np.int64(3), object()],
                             ids=["nan", "-inf", "numpy-int", "object"])
    def test_json_writer_refuses_what_json_cannot_hold(self, tmp_path, value):
        """Every JSON writer builds its text before it opens the file, so NaN, an infinity
        or a value that is not JSON raises and leaves the file as it was."""
        path = tmp_path / "doc.json"
        path.write_bytes(b"old")
        with pytest.raises(ValueError, match="^not a JSON document: "):
            vio._dump_json(path, {"intervals": [[0, 4]], "k": value})
        assert path.read_bytes() == b"old"

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
            ([[0, 2], ["a", 2]], "interval record 1: start must be finite, got 'a'$"),
            ([[0, 2], [1, True]], "interval record 1: end must be finite, got True$"),
            (5, "intervals must be a list"),
        ],
        ids=["string-start", "boolean-end", "not-a-list"],
    )
    def test_non_numeric_record_names_file_and_record(self, tmp_path, intervals, needle):
        path = tmp_path / "iv.json"
        path.write_text(json.dumps({"intervals": intervals}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {needle}"):
            read_intervals(path)

    def test_written_records_read_back_as_written(self, tmp_path):
        """The writer writes the numbers `check_interval` returns, not their truncations;
        NumPy scalars are written as the Python numbers they hold."""
        path = tmp_path / "iv.json"
        records = [(0.5, 2.7), (3, 5), (np.int64(6), np.float64(7.5))]
        write_intervals(path, records)
        assert [tuple(map(repr, rec)) for rec in read_intervals(path)] == [
            ("0.5", "2.7"), ("3", "5"), ("6", "7.5")]

    def test_int_records_keep_their_bytes(self, tmp_path):
        path = tmp_path / "iv.json"
        write_intervals(path, [(0, 4), (np.int64(8), 12)])
        assert path.read_text(encoding="utf-8") == (
            '{\n  "intervals": [\n    [\n      0,\n      4\n    ],\n'
            '    [\n      8,\n      12\n    ]\n  ]\n}\n'
        )

    @pytest.mark.parametrize(
        "record, message",
        [
            ((5, 2), "interval record 1: start 5 >= end 2"),
            ((0, "a"), "interval record 1: end must be finite, got 'a'"),
            ((True, 2), "interval record 1: start must be finite, got True"),
            ((0, 1, 2), "interval record 1 is not a [start, end] pair"),
            (5, "interval record 1 is not a [start, end] pair"),
        ],
        ids=["reversed", "text-end", "bool-start", "three-items", "number"],
    )
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, record, message):
        """Refused before the file is opened, with the message the reader gives but for
        the path."""
        path = tmp_path / "iv.json"
        with pytest.raises(ValueError) as exc:
            write_intervals(path, [(0, 2), record])
        assert str(exc.value) == message
        assert not path.exists()
        path.write_text(json.dumps({"intervals": [[0, 2], record]}))
        with pytest.raises(ValueError) as exc:
            read_intervals(path)
        assert str(exc.value) == f"{path}: {message}"


class TestRoiDocuments:
    @pytest.mark.parametrize("size", [10**200, 1e200], ids=["int", "float"])
    def test_frame_area_beyond_float64_names_file(self, tmp_path, size):
        """The reader applies `semantic_score`'s area rule, to ints as to floats."""
        path = tmp_path / "rois.json"
        path.write_text(json.dumps({"frame_w": size, "frame_h": size, "sigma": 1e150,
                                    "frames": [[]]}))
        with pytest.raises(ValueError) as exc:
            read_rois(path)
        assert str(exc.value) == (f"{path}: frame size {size} x {size} with sigma=1e+150 is "
                                  "out of range: frame_w * frame_h overflows float64")


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

    def test_numpy_integers_written_as_ints(self, tmp_path):
        path = tmp_path / "pairs.txt"
        write_pair_labels(path, [(np.int64(3), np.int32(2), -1)])
        assert path.read_text(encoding="utf-8") == "3 2 -1\n"
        assert read_pair_labels(path) == [(3, 2, -1)]

    @pytest.mark.parametrize(
        "record, message",
        [
            ((0, 1.5, 7), "description index must be an integer, got 1.5"),
            ((True, 1, 1), "segment index must be an integer, got True"),
            ((0, 1, "2"), "label must be an integer, got '2'"),
            ((0, 1, np.float64(1.0)), "label must be an integer, got 1.0"),
            ((0, 1), None),
            ((0, 1, 1, 0), None),
            ("011", None),
            ({0, 1, 2}, None),
            (None, None),
        ],
        ids=["float", "bool", "text-field", "numpy-float", "pair", "quadruple", "text", "set",
             "none"],
    )
    def test_writer_refuses_a_record_that_is_not_three_integers(self, tmp_path, record,
                                                                message):
        """Refused before the file is opened: `read_pair_labels` reads only integer fields."""
        path = tmp_path / "pairs.txt"
        with pytest.raises(ValueError) as exc:
            write_pair_labels(path, [(0, 0, 1), record])
        assert str(exc.value) == ("label record 1 is not a (segment, description, label) triple"
                                  if message is None else f"label record 1: {message}")
        assert not path.exists()

    @pytest.mark.parametrize("line", [b"1 \xff 0\n", b"\xff\n", b"1 2 3\xff\n"])
    def test_undecodable_byte_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "pairs.txt"
        path.write_bytes(b"0 0 1\n" + line)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: "):
            read_pair_labels(path)


def seeded_nets():
    return init_subnet(0, 6, 5, 4), init_subnet(1, 9, 5, 4)


def members(vnet, dnet) -> dict:
    """Both nets' fields under their checkpoint member names."""
    return {
        f"{which}.{f.name}": getattr(net, f.name)
        for which, net in (("video", vnet), ("description", dnet))
        for f in fields(Subnet)
    }


def write_archive(path, arrays) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def npy_member(header: str, pad: int = 0, version: bytes = b"\x01\x00") -> bytes:
    """A hand-made .npy member: the header text and 8 data bytes.

    `pad` is added to the header length field, which numpy sets to the header's length.
    """
    text = header.encode("latin1") + b"\n"
    length = (len(text) + pad).to_bytes(2, "little")
    return b"\x93NUMPY" + version + length + text + bytes(8)


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

    @settings(max_examples=60, deadline=None)
    @given(dims=st.tuples(*[st.integers(1, 5)] * 4), fortran=st.booleans(), data=st.data())
    def test_round_trip_is_bitwise_property(self, tmp_path_factory, dims, fortran, data):
        """Drawn dims and finite float64 values, signed zeros and subnormals included, with
        row- or column-major weight matrices: every field loads bit for bit as an owned,
        writeable, row-major array."""
        video_dim, desc_dim, hidden, embed = dims
        finite = st.floats(allow_nan=False, allow_infinity=False)
        vnet, dnet = (
            Subnet(*(data.draw(arrays(np.float64, shape, elements=finite))
                     for shape in ((hidden, dim), (hidden,), (embed, hidden), (embed,))))
            for dim in (video_dim, desc_dim)
        )
        if fortran:
            for net in (vnet, dnet):
                net.w1, net.w2 = np.asfortranarray(net.w1), np.asfortranarray(net.w2)
        path = tmp_path_factory.mktemp("ckpt") / "m.npz"
        save_checkpoint(path, vnet, dnet)
        for got, want in zip(load_checkpoint(path), (vnet, dnet)):
            for f in fields(Subnet):
                arr = getattr(got, f.name)
                assert arr.shape == getattr(want, f.name).shape
                assert arr.tobytes() == np.ascontiguousarray(getattr(want, f.name)).tobytes()
                assert arr.flags.owndata and arr.flags.writeable and arr.flags.c_contiguous

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

    def test_nets_disagreeing_on_embed_dim_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        write_archive(path, members(init_subnet(0, 6, 5, 4), init_subnet(1, 9, 5, 3)))
        needle = f"^{re.escape(str(path))}: embed dims differ: video 4 vs description 3"
        with pytest.raises(ValueError, match=needle):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "drop, add, needle",
        [
            ("video.w2", None, "missing member 'video.w2.npy'"),
            (None, "format_version", "unexpected member 'format_version.npy'"),
        ],
        ids=["missing-video-w2", "unexpected-format-version"],
    )
    def test_member_set_names_file_and_member(self, tmp_path, drop, add, needle):
        path = tmp_path / "ckpt.json"
        arrays = members(*seeded_nets())
        if drop:
            del arrays[drop]
        if add:
            arrays[add] = np.array(2.0)
        write_archive(path, arrays)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {needle}"):
            load_checkpoint(path)

    def test_seeded_checkpoint_bytes_pinned(self, tmp_path):
        """The archive holds no clock or path, so the bytes depend only on the parameters."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, *seeded_nets())
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "365898a2a86fe221618000ddf033f5294970a01f063ba3db982b17b420a2f798"
        )

    def test_loaded_parameters_pinned(self, tmp_path):
        """Recorded with the JSON checkpoint format: a format change must not move it."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, *seeded_nets())
        digest = hashlib.sha256()
        for net in load_checkpoint(path):
            for f in fields(Subnet):
                digest.update(getattr(net, f.name).tobytes())
        assert digest.hexdigest() == (
            "e4d7982ece94955314fb5de5476e6e286413826ae15195d1651da1478c3d08d6"
        )

    def test_bytes_do_not_depend_on_the_clock(self, tmp_path, monkeypatch):
        saved = []
        for now in (1.7e9, 1.7e9 + 5 * 3600):
            monkeypatch.setattr(time, "time", lambda now=now: now)
            path = tmp_path / f"ckpt{len(saved)}.json"
            save_checkpoint(path, *seeded_nets())
            saved.append(path.read_bytes())
        assert saved[0] == saved[1]

    def test_path_is_written_as_given(self, tmp_path):
        """Given a path, numpy would append ".npz"; the checkpoint goes where it is asked."""
        save_checkpoint(tmp_path / "x.json", *seeded_nets())
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

    def test_fortran_ordered_w1_round_trips_bitwise(self, tmp_path):
        path = tmp_path / "ckpt.json"
        vnet, dnet = seeded_nets()
        vnet.w1 = np.asfortranarray(vnet.w1)
        save_checkpoint(path, vnet, dnet)
        with zipfile.ZipFile(path) as zf:
            assert b"'fortran_order': True" in zf.read("video.w1.npy")
        v2, _ = load_checkpoint(path)
        np.testing.assert_array_equal(v2.w1, vnet.w1)
        assert v2.w1.flags.writeable and v2.w1.flags.owndata

    @pytest.mark.parametrize(
        "field, value, needle",
        [
            ("b1", np.array([0.1, 0.2]), r"'b1' has shape \(2,\), expected \(5,\)"),
            ("w2", np.full((4, 3), 0.1), r"'w2' has shape \(4, 3\), expected \(4, 5\)"),
            ("b1", np.full((1, 5), 0.1), "'b1' is 2-D, expected 1-D"),
            ("w1", np.full(6, 0.1), "'w1' is 1-D, expected 2-D"),
            ("b2", np.full(4, 0.1, dtype=np.float32), "'b2' is not a float64 array in .npy format 1.0"),
        ],
        ids=["short-b1", "narrow-w2", "2d-b1", "1d-w1", "float32-b2"],
    )
    def test_malformed_array_names_file_and_field(self, tmp_path, field, value, needle):
        path = tmp_path / "ckpt.json"
        arrays = members(*seeded_nets())
        arrays[f"video.{field}"] = value
        write_archive(path, arrays)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: video net field {needle}"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "member, needle",
        [
            (npy_member("{'descr': '<f8', 'fortran_order': False, 'shape': (1000000000000,), }"),
             r"declares shape \(1000000000000,\) but holds 8 data bytes"),
            (npy_member("{'descr': '<f8', 'fortran_order': False, 'shape': (5L,), }"),
             "is not a float64 array in .npy format 1.0"),
            (npy_member("{'descr': '<f8', 'fortran_order': False, 'shape': (5,), }",
                        version=b"\x02\x00"), "is not a float64 array in .npy format 1.0"),
            (npy_member("{'descr': '<f8', 'fortran_order': False, 'shape': (5,), }", pad=-1),
             "is not a float64 array in .npy format 1.0"),
            (npy_member("{[1]: 0}"), "is not a float64 array in .npy format 1.0"),
        ],
        ids=["huge-shape", "python2-long", "version-2", "wrong-header-length", "not-a-header"],
    )
    def test_bad_member_header_names_file_and_field(self, tmp_path, member, needle):
        """A header is checked against the data bytes before any array is allocated."""
        path = tmp_path / "ckpt.json"
        with zipfile.ZipFile(path, "w") as zf:
            for name, value in members(*seeded_nets()).items():
                raw = BytesIO()
                np.lib.format.write_array(raw, value)
                zf.writestr(f"{name}.npy", member if name == "video.b1" else raw.getvalue())
        needle = f"^{re.escape(str(path))}: video net field 'b1' {needle}"
        with pytest.raises(ValueError, match=needle):
            load_checkpoint(path)

    def test_member_larger_than_the_archive_rejected(self, tmp_path):
        """A directory entry may claim more bytes than the whole file holds, with a header
        to match; that is rejected before the member's array is allocated."""
        path = tmp_path / "ckpt.json"
        claim = npy_member("{'descr': '<f8', 'fortran_order': False, 'shape': (16777216,), }")
        with zipfile.ZipFile(path, "w") as zf:
            for name, value in members(*seeded_nets()).items():
                raw = BytesIO()
                np.lib.format.write_array(raw, value)
                zf.writestr(f"{name}.npy", claim if name == "video.b1" else raw.getvalue())
        data = bytearray(path.read_bytes())
        # The central directory entry: its name starts 46 bytes in, after the compressed
        # and uncompressed sizes at 20 and 24.
        entry = data.rindex(b"video.b1.npy") - 46
        assert data[entry : entry + 4] == b"PK\x01\x02"
        size = len(claim) - 8 + 8 * 16777216
        data[entry + 20 : entry + 28] = struct.pack("<II", size, size)
        path.write_bytes(bytes(data))
        needle = (f"^{re.escape(str(path))}: video net field 'b1' claims {size} bytes in a "
                  f"{len(data)}-byte archive")
        with pytest.raises(ValueError, match=needle):
            load_checkpoint(path)

    def test_load_holds_each_member_once(self, tmp_path):
        """Members are read straight into their arrays: with an 8 MB w1, loading peaks near
        the arrays' own size, not at twice the largest member."""
        path = tmp_path / "ckpt.json"
        vnet, dnet = init_subnet(0, 1024, 1024, 4), init_subnet(1, 9, 1024, 4)
        save_checkpoint(path, vnet, dnet)
        total = sum(a.nbytes for a in members(vnet, dnet).values())
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded[0].w1, vnet.w1)
        assert peak < total + 4 * 2**20

    def test_compressed_member_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **members(*seeded_nets()))
        needle = f"^{re.escape(str(path))}: video net field 'w1' is compressed or encrypted"
        with pytest.raises(ValueError, match=needle):
            load_checkpoint(path)

    def test_non_finite_value_names_file_and_field(self, tmp_path):
        path = tmp_path / "ckpt.json"
        arrays = members(*seeded_nets())
        arrays["description.b1"] = arrays["description.b1"].copy()
        arrays["description.b1"][2] = np.inf
        write_archive(path, arrays)
        needle = f"^{re.escape(str(path))}: description net field 'b1' holds a non-finite value"
        with pytest.raises(ValueError, match=needle):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, index, where", [
        ("w1", (1, 2), "row 1, column 2"), ("b2", (1,), "index 1"),
    ])
    def test_non_finite_value_named_by_its_index(self, tmp_path, field, index, where):
        path = tmp_path / "ckpt.npz"
        arrays = members(*seeded_nets())
        arrays[f"video.{field}"] = arrays[f"video.{field}"].copy()
        arrays[f"video.{field}"][index] = np.nan
        arrays[f"video.{field}"][-1] = np.inf  # a later bad value is not the one named
        write_archive(path, arrays)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == (
            f"{path}: video net field {field!r} holds a non-finite value at {where}"
        )

    def test_json_checkpoint_rejected(self, tmp_path):
        """The earlier JSON checkpoint format is not read."""
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"format_version": 1, "dims": {}, "video": {}}))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: not a checkpoint archive"):
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

    def test_axis_layout_when_random_directions_cannot_separate(self):
        """Three centers of norm sep in one dimension cannot lie sep apart, so the axis
        layout puts them at sep, 2 * sep and 3 * sep (sep = 1 here)."""
        spec = SynthSpec(seed=0, n_events=3, dim=1)
        data = synth_generate(spec)
        assert data.truth == [(0, 32), (36, 68), (72, 104)]
        means = [data.features[s:e].mean() for s, e in data.truth]
        np.testing.assert_allclose(means, [1.0, 2.0, 3.0], atol=4 * spec.noise_sigma / 32**0.5)
        still = synth_generate(SynthSpec(seed=0, n_events=3, dim=1, noise_sigma=0.0))
        assert still.truth == data.truth
        expected = np.zeros((108, 1))
        for i, (s, e) in enumerate(still.truth):
            expected[s:e] = i + 1.0
        np.testing.assert_array_equal(still.features, expected)

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

    @pytest.mark.parametrize("sigma", [1e308, 3.5e37])
    def test_noise_sigma_beyond_float32_rejected(self, sigma):
        with pytest.raises(ValueError, match=r"10 \* noise_sigma exceeds the float32 range"):
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
