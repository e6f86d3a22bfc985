"""The number, integer, array and interval rules, applied at every entry point that takes one.

A real-valued setting or document number must be a number other than a bool that
float64 holds, within the parameter's range; an integer setting must be an int
other than a bool, at least its lower bound.  A rejection is one ValueError,
"<name> must be <rule>, got <value>", with the file first for a document; a NumPy
scalar behaves exactly like the Python number it holds.

An array input must convert to float64: an int beyond the float64 range, an entry
that is not a number or ragged rows raise one ValueError that starts with the
argument's name.  Where an entry must be finite, the error names the first bad one
by frame or index.  A float32 array gives the same bits as its float64 copy.  A
matrix input must also be 2-D, have the rows its entry point needs and, where a
width is set, exactly that many columns, even with no rows; each rejection is one
of three messages that start with the argument's name.  An interval record must be a pair, and a pair label's indices and its 0-or-1 label
follow the integer rule; text, bytes, a mapping or a set is never such a record, nor an
ROI center.  No public function writes to an array it is given: each gives the same bits
from read-only arrays as from writable ones.
"""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

import videosum
from videosum._checks import check_matrix
from videosum.cli import build_parser
from videosum.io import MAGIC_FEATURES, read_intervals, read_rois, save_checkpoint, write_matrix
from videosum.metrics import jitter_amount, keyshot_pr, normalize_intervals, speedup_deviation
from videosum.model import (
    ImportanceScorer,
    LstmParams,
    embed_frames,
    init_scorer,
    init_subnet,
    lstm_scan,
    score_importance,
    sigmoid,
)
from videosum.summarize import (
    Roi,
    Segment,
    SegmentFeature,
    clustering_cost,
    generate_summary,
    kmedoids,
    segment_features,
    segment_speedups,
    semantic_score,
    semantic_threshold_split,
    speedup_frame_selection,
    uniform_segments,
)
from videosum.synth import SynthSpec, synth_generate
from videosum.train import (
    PairExample,
    TrainConfig,
    contrastive_loss,
    finite_diff_check,
    loss_gradients,
    sample_pairs,
    sgd_train,
)

BAD = [math.nan, math.inf, -math.inf, 10**400, -10**400, True, "1", np.float32("nan")]
SCORES = np.linspace(0.0, 1.0, 9)


def _roi_score(confidence=0.75, x=3.0, y=4.0, area=5.0):
    return semantic_score([Roi(confidence, (x, y), area)], 10, 10)


def _frame_score(frame_w=10, frame_h=10, sigma=None):
    return semantic_score([Roi(0.75, (3.0, 4.0), 5.0)], frame_w, frame_h, sigma)


def _gradcheck(h):
    vnet, dnet = init_subnet(0, 3, 4, 2), init_subnet(1, 2, 4, 2)
    ex = PairExample(segment=np.ones((2, 3)), desc=np.ones(2), label=0)
    return finite_diff_check(vnet, dnet, ex, h=h)


def _synth(noise_sigma):
    spec = SynthSpec(seed=0, n_events=2, frames_per_event=2, gap_frames=1, dim=3,
                     noise_sigma=noise_sigma)
    return synth_generate(spec).features.tobytes()


# The message before ", got <value>", the call on the value, a valid float and a valid int.
PARAMETERS = [
    ("confidence must be in [0, 1]", lambda v: _roi_score(confidence=v), 0.3, 1),
    ("center x must be finite", lambda v: _roi_score(x=v), 3.3, 3),
    ("center y must be finite", lambda v: _roi_score(y=v), 4.1, 4),
    ("area must be finite and non-negative", lambda v: _roi_score(area=v), 5.7, 5),
    ("frame_w must be finite and positive", lambda v: _frame_score(frame_w=v), 10.3, 10),
    ("frame_h must be finite and positive", lambda v: _frame_score(frame_h=v), 9.7, 9),
    ("sigma must be finite and positive", lambda v: _frame_score(sigma=v), 3.3, 3),
    ("len_s must be finite and non-negative", lambda v: segment_speedups(v, 300, 4, 2), 100.3, 100),
    ("len_ns must be finite and non-negative",
     lambda v: segment_speedups(100, v, 4, 2), 300.7, 300),
    ("target speed-up must be finite and at least 1",
     lambda v: segment_speedups(100, 300, v, 2), 4.3, 4),
    ("semantic speed-up rho_s must be in [1, 4]",
     lambda v: segment_speedups(100, 300, 4, v), 2.3, 2),
    ("rho must be finite and at least 1", lambda v: speedup_frame_selection(SCORES, v, 4), 2.7, 3),
    ("lambda_speed must be finite and non-negative",
     lambda v: speedup_frame_selection(SCORES, 2, 4, lambda_speed=v), 0.7, 1),
    ("lambda_sem must be finite and non-negative",
     lambda v: speedup_frame_selection(SCORES, 2, 4, lambda_sem=v), 1.3, 2),
    ("interval record 0: start must be finite", lambda v: normalize_intervals([(v, 10)]), 2.5, 2),
    ("interval record 0: end must be finite", lambda v: normalize_intervals([(0, v)]), 7.5, 7),
    ("desired speed-up must be finite and at least 1",
     lambda v: speedup_deviation(v, 7, 3), 2.3, 2),
    ("n_input must be finite and non-negative", lambda v: speedup_deviation(3, v, 3), 7.3, 7),
    ("margin must be finite and non-negative", lambda v: TrainConfig(margin=v), 0.3, 1),
    ("learning_rate must be finite and positive",
     lambda v: TrainConfig(learning_rate=v), 0.05, 1),
    ("margin must be finite and non-negative",
     lambda v: contrastive_loss(np.array([0.1]), np.array([0.3]), 0, v), 1.3, 1),
    ("step h must be finite and positive", _gradcheck, 1e-5, 1),
    ("noise_sigma must be finite and non-negative", _synth, 0.3, 1),
]


@pytest.mark.parametrize(
    "rule, call, valid_float, valid_int", PARAMETERS,
    ids=[f"{i}-{p[0].split(' must')[0]}" for i, p in enumerate(PARAMETERS)],
)
def test_real_parameter_follows_the_number_rule(rule, call, valid_float, valid_int):
    for bad in BAD:
        with pytest.raises(ValueError) as exc:
            call(bad)
        shown = bad.item() if isinstance(bad, np.generic) else bad  # a number, not np.float32(…)
        assert str(exc.value) == f"{rule}, got {shown!r}"
    # repr tells float from np.float64 and prints every bit of a float.
    as_float32 = np.float32(valid_float)
    assert repr(call(as_float32)) == repr(call(float(as_float32)))
    assert repr(call(np.int64(valid_int))) == repr(call(valid_int))


@pytest.mark.parametrize("field", ["start", "end"])
def test_interval_document_number_follows_the_number_rule(tmp_path, field):
    path = tmp_path / "iv.json"
    for bad in BAD[:-1]:  # JSON holds no NumPy scalar
        pair = [bad, 5] if field == "start" else [0, bad]
        path.write_text(json.dumps({"intervals": [pair]}))
        with pytest.raises(ValueError) as exc:
            read_intervals(path)
        assert str(exc.value) == f"{path}: interval record 0: {field} must be finite, got {bad!r}"


@pytest.mark.parametrize(
    "field, rule",
    [
        ("frame_w", "frame_w must be finite and positive"),
        ("frame_h", "frame_h must be finite and positive"),
        ("sigma", "sigma must be finite and positive"),
        ("confidence", "frame 0: confidence must be in [0, 1]"),
        ("cx", "frame 0: center x must be finite"),
        ("cy", "frame 0: center y must be finite"),
        ("area", "frame 0: area must be finite and non-negative"),
    ],
)
def test_roi_document_number_follows_the_number_rule(tmp_path, field, rule):
    path = tmp_path / "rois.json"
    for bad in BAD[:-1]:  # JSON holds no NumPy scalar
        roi = {"confidence": 0.5, "cx": 1, "cy": 1, "area": 1}
        doc = {"frame_w": 10, "frame_h": 10, "frames": [[roi]]}
        (roi if field in roi else doc)[field] = bad
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            read_rois(path)
        assert str(exc.value) == f"{path}: {rule}, got {bad!r}"


# The message before ", got <value>", the call on the value, and the lowest valid value.
INT_PARAMETERS = [
    ("epochs must be a non-negative integer", lambda v: TrainConfig(epochs=v), 0),
    ("n_events must be a positive integer", lambda v: SynthSpec(seed=0, n_events=v), 1),
    ("frames_per_event must be a positive integer",
     lambda v: SynthSpec(seed=0, frames_per_event=v), 1),
    ("gap_frames must be a positive integer", lambda v: SynthSpec(seed=0, gap_frames=v), 1),
    ("dim must be a positive integer", lambda v: SynthSpec(seed=0, dim=v), 1),
    ("n_frames must be a non-negative integer", lambda v: uniform_segments(v, 2), 0),
    ("seg_len must be a positive integer", lambda v: uniform_segments(10, v), 1),
    ("max_skip must be a positive integer", lambda v: speedup_frame_selection(SCORES, 2, v), 1),
    ("input_dim must be a positive integer", lambda v: init_scorer(0, v, 3), 1),
    ("hidden_dim must be a positive integer", lambda v: init_scorer(0, 3, v), 1),
    ("input_dim must be a positive integer", lambda v: init_subnet(0, v, 3, 2), 1),
    ("hidden_dim must be a positive integer", lambda v: init_subnet(0, 3, v, 2), 1),
    ("embed_dim must be a positive integer", lambda v: init_subnet(0, 3, 4, v), 1),
    ("k must be a positive integer", lambda v: kmedoids(FRAMES[:, :2], v), 1),
    ("k must be a positive integer", lambda v: generate_summary(
        [SegmentFeature(Segment(i, 2 * i, 2 * i + 2), p) for i, p in enumerate(FRAMES)], v), 1),
    ("medoid index must be a non-negative integer",
     lambda v: clustering_cost(FRAMES[:, :2], [1, v]), 0),
]


@pytest.mark.parametrize(
    "rule, call, low", INT_PARAMETERS,
    ids=[f"{i}-{p[0].split(' must')[0]}" for i, p in enumerate(INT_PARAMETERS)],
)
def test_integer_parameter_follows_the_integer_rule(rule, call, low):
    for bad in [low - 1, np.int64(low - 1), 2.5, 2.0, True, "2", None]:
        with pytest.raises(ValueError) as exc:
            call(bad)
        shown = bad.item() if isinstance(bad, np.generic) else bad
        assert str(exc.value) == f"{rule}, got {shown!r}"
    assert repr(call(np.int64(low + 2))) == repr(call(low + 2))


@pytest.mark.parametrize(
    "center", [(1, 2, 3), (1,), 5, None, b"ab", bytearray(b"ab"), "ab", {1, 2}, {"x": 1, "y": 2}],
    ids=["triple", "single", "number", "none", "bytes", "bytearray", "text", "set", "dict"],
)
def test_roi_center_must_be_a_pair(center):
    with pytest.raises(ValueError) as exc:
        Roi(0.5, center, 1)
    assert str(exc.value) == f"center must be a pair (x, y), got {center!r}"


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: SynthSpec(seed=seed),
        lambda seed: TrainConfig(seed=seed),
        lambda seed: init_subnet(seed, 3, 4, 2),
        lambda seed: init_scorer(seed, 3, 4),
    ],
    ids=["SynthSpec", "TrainConfig", "init_subnet", "init_scorer"],
)
def test_seed_must_be_a_non_negative_integer(make):
    for bad, shown in [(-1, "-1"), (np.int64(-1), "-1"), (True, "True"), (1.0, "1.0")]:
        with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {shown}$"):
            make(bad)
    make(np.int64(3))


VNET, DNET = init_subnet(0, 3, 4, 2), init_subnet(1, 2, 4, 2)
SCORER = init_scorer(0, 3, 2)
FRAMES = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
DESC = np.array([0.25, -0.5])


def _file_bytes(writer):
    """`writer(path, *args)` as a call that returns the bytes it writes."""
    def call(*args):
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "out"
            writer(path, *args)
            return path.read_bytes()
    return call


def _written(matrix) -> bytes:
    return _file_bytes(write_matrix)(matrix, MAGIC_FEATURES)


def _pairs(descs):
    return [vars(ex) for ex in sample_pairs([FRAMES], descs, [(0, 1, 1), (0, 0, 0)])]


# The argument's name, the call on it, a valid value, and the error for a NaN at
# (1, 1) of a matrix or 1 of a vector (None where NaN computes to NaN).
ARRAYS = [
    ("rows", lambda a: embed_frames(VNET, a), FRAMES,
     "segment has a non-finite value at frame 1"),
    ("frames", lambda a: [sf.feature for sf in segment_features(VNET, a, uniform_segments(4, 2))],
     FRAMES, "frames contain a non-finite value at frame 1"),
    ("frames", lambda a: lstm_scan(SCORER.forward, a), FRAMES,
     "frames contain a non-finite value at frame 1"),
    ("frames", lambda a: score_importance(SCORER, a), FRAMES,
     "frames contain a non-finite value at frame 1"),
    ("points", lambda a: clustering_cost(a, [0]), FRAMES[:, :2],
     "point 1 has a non-finite coordinate at column 1"),
    ("points", lambda a: kmedoids(a, 2), FRAMES[:, :2],
     "point 1 has a non-finite coordinate at column 1"),
    ("scores", semantic_threshold_split, SCORES, "scores contain a non-finite value at frame 1"),
    ("scores", lambda a: speedup_frame_selection(a, 2, 3), SCORES,
     "scores contain a non-finite value at frame 1"),
    ("track", jitter_amount, FRAMES[:, :2],
     f"track point 1 is not finite: {[float(FRAMES[1, 0]), math.nan]}"),
    ("segment", lambda a: loss_gradients(VNET, DNET, PairExample(a, DESC, 0)), FRAMES,
     "segment has a non-finite value at frame 1"),
    ("desc", lambda a: loss_gradients(VNET, DNET, PairExample(FRAMES, a, 1)), DESC,
     "description has a non-finite value at index 1"),
    ("descs", _pairs, np.array([DESC, -DESC]),
     "label record 0: description has a non-finite value at index 1"),
    ("x", lambda a: contrastive_loss(a, DESC, 1), -DESC, None),
    ("y", lambda a: contrastive_loss(DESC, a, 1), -DESC, None),
    ("w", lambda a: lstm_scan(LstmParams(a), FRAMES), SCORER.forward.w,
     "LSTM gate matrix has a non-finite weight at row 1, column 1"),
    ("readout_w", lambda a: score_importance(
        ImportanceScorer(SCORER.forward, SCORER.backward, a, SCORER.readout_b), FRAMES),
     SCORER.readout_w, "readout has a non-finite weight at index 1"),
    ("matrix", _written, FRAMES, "value nan at row 1, column 1 is not a finite 32-bit float"),
    ("z", sigmoid, SCORES, None),
]


def _with_entry(valid: np.ndarray, entry) -> list:
    """`valid` as nested lists, with `entry` at (1, 1) of a matrix or 1 of a vector."""
    rows = valid.tolist()
    if valid.ndim == 2:
        rows[1][1] = entry
    else:
        rows[1] = entry
    return rows


def _bits(value):
    """Every bit of a result: an array or a number by its bytes, containers entry by entry."""
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        value = list(value.items())
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


@pytest.mark.parametrize(
    "arg, call, valid, nan_error", ARRAYS,
    ids=[f"{i}-{row[0]}" for i, row in enumerate(ARRAYS)],
)
def test_array_argument_follows_the_array_rule(arg, call, valid, nan_error):
    ragged = valid.tolist()
    if valid.ndim == 2:
        ragged[0].append(0.5)
    else:
        ragged[1] = [0.5, 0.5]
    for bad in [*(_with_entry(valid, entry) for entry in (10**400, "x", {})), ragged]:
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert type(exc.value) is ValueError
        assert str(exc.value).startswith(f"{arg} must be an array of real numbers: ")
        assert exc.value.__cause__ is None
        assert exc.value.__context__ is None or exc.value.__suppress_context__
    with_nan = np.array(_with_entry(valid, math.nan))
    if nan_error is None:
        assert np.isnan(call(with_nan)).any()
    else:
        with pytest.raises(ValueError) as exc:
            call(with_nan)
        assert str(exc.value) == nan_error
    as_float32 = valid.astype(np.float32)
    assert _bits(call(as_float32)) == _bits(call(as_float32.astype(np.float64)))


def _command(*argv):
    """The CLI command `argv` run on its parsed arguments, so that its error is raised."""
    args = build_parser().parse_args(argv)
    return args.func(args)


def _summarize_file(frames):
    write_matrix("f.vsf", frames, MAGIC_FEATURES)
    save_checkpoint("m.npz", VNET, DNET)
    return _command("summarize", "--features", "f.vsf", "--model", "m.npz", "--seg-len", "2",
                    "--k", "1", "--out", "s.json")


def _fastforward_file(scores):
    write_matrix("s.vsf", scores, MAGIC_FEATURES)
    return _command("fastforward", "--scores", "s.vsf", "--speedup", "2", "--max-skip", "3",
                    "--out", "ff.json")


# The call on a matrix, then each bad shape with its exact error: the rank, the row count
# where the entry point needs rows, and the width where it sets one, with no rows too.
MATRICES = [
    ("lstm_scan", lambda a: lstm_scan(SCORER.forward, a), [
        ((3,), "frames must be a 2-D matrix, got shape (3,)"),
        ((4, 2), "frames has 2 columns, cell expects 3"),
        ((0, 2), "frames has 2 columns, cell expects 3"),
        ((0, 7), "frames has 7 columns, cell expects 3"),
    ]),
    ("score_importance", lambda a: score_importance(SCORER, a), [
        ((3,), "frames must be a 2-D matrix, got shape (3,)"),
        ((4, 2), "frames has 2 columns, cell expects 3"),
        ((0, 2), "frames has 2 columns, cell expects 3"),
        ((0, 7), "frames has 7 columns, cell expects 3"),
    ]),
    ("segment_features",
     lambda a: segment_features(VNET, a, uniform_segments(len(a), 2)), [
        ((4,), "frames must be a 2-D matrix, got shape (4,)"),
        ((4, 5), "frames has 5 columns, net expects 3"),
        ((0, 5), "frames has 5 columns, net expects 3"),
     ]),
    ("embed_frames", lambda a: embed_frames(VNET, a), [
        ((3,), "rows must be a 2-D matrix, got shape (3,)"),
        ((0, 3), "rows must have at least 1 row, got 0"),
        ((0, 4), "rows must have at least 1 row, got 0"),
        ((2, 4), "rows has 4 columns, net expects 3"),
    ]),
    ("PairExample", lambda a: PairExample(a, DESC, 1), [
        ((3,), "segment must be a 2-D matrix, got shape (3,)"),
        ((0, 3), "segment must have at least 1 row, got 0"),
    ]),
    ("loss_gradients", lambda a: loss_gradients(VNET, DNET, PairExample(a, DESC, 1)), [
        ((3,), "segment must be a 2-D matrix, got shape (3,)"),
        ((0, 4), "segment must have at least 1 row, got 0"),
        ((2, 4), "segment has 4 columns, video net expects 3"),
        ((1, 2), "segment has 2 columns, video net expects 3"),
    ]),
    ("sgd_train", lambda a: sgd_train(VNET, DNET, [PairExample(a, DESC, 1)], TrainConfig()), [
        ((2, 4), "example 0: segment has 4 columns, video net expects 3"),
    ]),
    ("description width", lambda a: loss_gradients(VNET, DNET, PairExample(FRAMES, a[0], 1)), [
        ((1, 3), "description has 3 columns, description net expects 2"),
    ]),
    ("sample_pairs", lambda a: sample_pairs([FRAMES], a, []), [
        ((2,), "descs must be a 2-D matrix, got shape (2,)"),
        ((2, 2, 1), "descs must be a 2-D matrix, got shape (2, 2, 1)"),
    ]),
    ("clustering_cost", lambda a: clustering_cost(a, [0]), [
        ((2,), "points must be a 2-D matrix, got shape (2,)"),
    ]),
    ("kmedoids", lambda a: kmedoids(a, 1), [
        ((2,), "points must be a 2-D matrix, got shape (2,)"),
    ]),
    ("jitter_amount", jitter_amount, [
        ((2,), "track must be a 2-D matrix, got shape (2,)"),
        ((1, 2), "track must have at least 2 rows, got 1"),
        ((1, 3), "track must have at least 2 rows, got 1"),
        ((0, 3), "track must have at least 2 rows, got 0"),
        ((3, 3), "track has 3 columns, jitter_amount expects 2"),
    ]),
    ("write_matrix", _written, [
        ((3,), "matrix must be a 2-D matrix, got shape (3,)"),
        ((), "matrix must be a 2-D matrix, got shape ()"),
    ]),
    ("summarize command", _summarize_file, [
        ((4, 2), "f.vsf has 2 columns, the video net of m.npz expects 3"),
        ((0, 2), "f.vsf has 2 columns, the video net of m.npz expects 3"),
    ]),
    ("fastforward command", _fastforward_file, [
        ((4, 3), "s.vsf has 3 columns, a score file expects 1"),
        ((0, 3), "s.vsf has 3 columns, a score file expects 1"),
    ]),
]


@pytest.mark.parametrize("entry, call, cases", MATRICES, ids=[row[0] for row in MATRICES])
def test_matrix_argument_follows_the_matrix_rule(tmp_path, monkeypatch, entry, call, cases):
    monkeypatch.chdir(tmp_path)  # the CLI commands name their files relative to it
    for shape, message in cases:
        with pytest.raises(ValueError) as exc:
            call(np.zeros(shape))
        assert str(exc.value) == message, (entry, shape)


@pytest.mark.parametrize("kwargs", [{"cols": 2}, {"of": "net"}], ids=["cols-alone", "of-alone"])
def test_matrix_width_and_its_owner_come_together(kwargs):
    """A width without the name of what expects it would give a message with a hole in it."""
    with pytest.raises(TypeError, match="^check_matrix takes cols and of together$"):
        check_matrix("x", np.zeros((1, 2)), **kwargs)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: PairExample(FRAMES, np.float64(1.0), 1),
         "desc must be a non-empty 1-D vector, got shape ()"),
        (lambda: PairExample(FRAMES, [], 1),
         "desc must be a non-empty 1-D vector, got shape (0,)"),
        (lambda: PairExample(FRAMES, [DESC], 1),
         "desc must be a non-empty 1-D vector, got shape (1, 2)"),
        (lambda: sample_pairs([FRAMES], 5.0, [(0, 0, 1)]),
         "descs must be a 2-D matrix, got shape ()"),
        (lambda: sample_pairs([FRAMES], DESC, [(0, 0, 1)]),
         "descs must be a 2-D matrix, got shape (2,)"),
        (lambda: sample_pairs([FRAMES], np.zeros((1, 0)), [(0, 0, 1)]),
         "label record 0: desc must be a non-empty 1-D vector, got shape (0,)"),
    ],
    ids=["0-d-desc", "empty-desc", "2-d-desc", "0-d-descs", "1-d-descs", "empty-description"],
)
def test_description_shape_is_checked(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "call",
    [lambda: normalize_intervals([(1, 2, 3)]), lambda: normalize_intervals([5]),
     lambda: normalize_intervals(["ab"]), lambda: keyshot_pr([[0, 1]], [[0]]),
     lambda: normalize_intervals([b"\x00\x05"]), lambda: normalize_intervals([{5, 3}]),
     lambda: normalize_intervals([bytearray(b"\x00\x05")]),
     lambda: normalize_intervals([frozenset({5, 3})])],
    ids=["three-items", "number", "text", "keyshot-one-item", "bytes", "set", "bytearray",
         "frozenset"],
)
def test_interval_record_must_be_a_pair(call):
    with pytest.raises(ValueError, match=r"^interval record 0 is not a \[start, end\] pair$"):
        call()


@pytest.mark.parametrize("record", [[1, 2, 3], [1], 5, "ab", {"a": 1, "b": 2}, None])
def test_interval_document_record_must_be_a_pair(tmp_path, record):
    path = tmp_path / "iv.json"
    path.write_text(json.dumps({"intervals": [[0, 2], record]}))
    with pytest.raises(ValueError) as exc:
        read_intervals(path)
    assert str(exc.value) == f"{path}: interval record 1 is not a [start, end] pair"


def test_interval_numpy_rows_are_pairs():
    assert normalize_intervals(np.array([[3, 5], [0, 2]])) == [(0, 2), (3, 5)]
    assert normalize_intervals(np.array([[3.5, 5.0]])) == [(3.5, 5.0)]


@pytest.mark.parametrize(
    "record, message",
    [
        ((0.5, 0, 1), "segment index must be a non-negative integer, got 0.5"),
        ((0, 1.0, 1), "description index must be a non-negative integer, got 1.0"),
        ((-1, 0, 1), "segment index must be a non-negative integer, got -1"),
        ((0, 0, True), "label must be 0 or 1, got True"),
        ((0, 0, 1.0), "label must be 0 or 1, got 1.0"),
        ((0, 0, 2), "label must be 0 or 1, got 2"),
    ],
)
def test_pair_label_record_follows_the_integer_rule(record, message):
    with pytest.raises(ValueError) as exc:
        sample_pairs([FRAMES], np.eye(2), [(0, 1, 1), record])
    assert str(exc.value) == f"label record 1: {message}"


@pytest.mark.parametrize("label", [1.0, True, 2, -1, "1", None, np.float64(0.0)])
def test_pair_label_must_be_0_or_1(label):
    for call in (lambda: PairExample(FRAMES, DESC, label),
                 lambda: contrastive_loss(DESC, -DESC, label)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == f"label must be 0 or 1, got {label!r}"


def test_numpy_integer_label_and_indices_act_as_ints():
    ex = sample_pairs([FRAMES], np.eye(2), [(np.int64(0), np.int64(1), np.int64(1))])[0]
    assert type(ex.label) is int
    assert _bits(vars(ex)) == _bits(vars(PairExample(FRAMES, [0.0, 1.0], 1)))
    assert contrastive_loss(DESC, -DESC, np.int64(0)) == contrastive_loss(DESC, -DESC, 0)


def _listed(fn):
    """`fn` as a call that returns the list of what it yields."""
    return lambda *args: list(fn(*args))


POINTS = np.array([[0.0, 0.0], [0.1, 0.2], [4.0, 4.0], [4.2, 3.9], [0.3, -0.1]])
EXAMPLE = PairExample(FRAMES, DESC, 1)
# Each public function that takes an array: its arguments, then, where the result is not
# returned, how to get it.  Every array, in a record or a list too, is passed read-only.
READ_ONLY = {
    "ImportanceScorer": ((SCORER.forward, SCORER.backward, SCORER.readout_w, SCORER.readout_b),),
    "LstmParams": ((SCORER.forward.w,),),
    "PairExample": ((FRAMES, DESC, 1),),
    "SegmentFeature": ((Segment(0, 0, 2), DESC),),
    "Subnet": ((VNET.w1, VNET.b1, VNET.w2, VNET.b2),),
    "SynthData": ((FRAMES, [(0, 2)], np.eye(2), [(0, 0, 1)]),),
    "clustering_cost": ((POINTS, [0, 2]),),
    "contrastive_loss": ((DESC, -DESC, 0, 2.0),),
    "embed_frames": ((VNET, FRAMES),),
    "finite_diff_check": ((VNET, DNET, EXAMPLE),),
    "generate_summary": (([SegmentFeature(Segment(i, 2 * i, 2 * i + 2), p)
                           for i, p in enumerate(POINTS)], 2),),
    "jitter_amount": ((POINTS,),),
    "keyshot_pr": ((np.array([[0, 4], [6, 9]]), np.array([[2.0, 7.5]])),),
    "kmedoids": ((POINTS, 2),),
    "loss_gradients": ((VNET, DNET, EXAMPLE),),
    "lstm_scan": ((SCORER.forward, FRAMES),),
    "normalize_intervals": ((np.array([[3.0, 5.0], [0.0, 2.5], [2.0, 3.5]]),),),
    "pam_iterations": ((POINTS, 2), _listed),
    "sample_pairs": (([FRAMES, -FRAMES], np.array([DESC, -DESC]), [(0, 1, 1), (1, 0, 0)]),),
    "save_checkpoint": ((VNET, DNET), _file_bytes),
    "score_importance": ((SCORER, FRAMES),),
    "segment_features": ((VNET, FRAMES, uniform_segments(4, 2)),),
    "semantic_threshold_split": ((SCORES,),),
    "sgd_train": ((VNET, DNET, [EXAMPLE, PairExample(-FRAMES, DESC, 0)],
                   TrainConfig(epochs=2)),),
    "sigmoid": ((SCORES - 0.5,),),
    "speedup_frame_selection": ((SCORES, 2, 3),),
    "write_intervals": ((np.array([[0, 2], [3, 5]]),), _file_bytes),
    "write_matrix": ((FRAMES, MAGIC_FEATURES), _file_bytes),
    "write_pair_labels": ((np.array([[0, 1, 1], [1, 0, 0]]),), _file_bytes),
    "write_selection": ((np.array([0, 2, 5]), 2.0, 2.5), _file_bytes),
}
# Each public name that takes no array, and why.
NO_ARRAY = {
    **dict.fromkeys(["DEFAULT_DESC_DIM", "DEFAULT_EMBED_DIM", "DEFAULT_HIDDEN_DIM",
                     "MAGIC_DESCS", "MAGIC_FEATURES"], "a constant, not a function"),
    **dict.fromkeys(["read_intervals", "read_matrix", "read_pair_labels", "read_rois",
                     "load_checkpoint"], "takes a path; its arrays come from the file"),
    **dict.fromkeys(["Segment", "SynthSpec", "TrainConfig", "init_scorer", "init_subnet",
                     "segment_speedups", "speedup_deviation", "uniform_segments"],
                    "takes numbers only"),
    "Roi": "takes numbers and a pair of numbers",
    "semantic_score": "takes Roi records, which hold Python numbers, and numbers",
    "synth_generate": "takes a SynthSpec, which holds numbers",
    "write_summary": "takes Segment records, which hold ints, and numbers",
    "cli_dispatch": "takes argument strings; its arrays come from files",
}


def _copied(value, writable: bool):
    """`value` with every array in it, in records, lists and tuples too, copied and marked
    writable or read-only; a record is rebuilt by `dataclasses.replace`."""
    if isinstance(value, np.ndarray):
        value = value.copy()
        value.flags.writeable = writable
        return value
    if dataclasses.is_dataclass(value):
        return dataclasses.replace(value, **{f.name: _copied(getattr(value, f.name), writable)
                                             for f in dataclasses.fields(value)})
    if isinstance(value, (list, tuple)):
        return type(value)(_copied(v, writable) for v in value)
    return value


def _arrays_in(value) -> list:
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [arr for v in value for arr in _arrays_in(v)]
    return []


def test_every_public_name_is_in_the_read_only_table_or_exempt():
    assert not READ_ONLY.keys() & NO_ARRAY.keys()
    assert sorted(READ_ONLY.keys() | NO_ARRAY.keys()) == sorted(videosum.__all__)


@pytest.mark.parametrize("name", sorted(READ_ONLY))
def test_read_only_arrays_give_the_bits_of_writable_ones(name):
    """No public function writes to an array it is given, even for a moment, and a
    read-only array gives the same result, bit for bit, as a writable copy."""
    args, *how = READ_ONLY[name]
    call = how[0](getattr(videosum, name)) if how else getattr(videosum, name)
    read_only = _copied(args, writable=False)
    arrays = _arrays_in(read_only)
    assert arrays and not any(arr.flags.writeable for arr in arrays)
    assert _bits(call(*read_only)) == _bits(call(*_copied(args, writable=True)))
