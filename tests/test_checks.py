"""The number rule and the integer rule, applied at every entry point that takes one.

A real-valued setting or document number must be a number other than a bool that
float64 holds, within the parameter's range; an integer setting must be an int
other than a bool, at least its lower bound.  A rejection is one ValueError,
"<name> must be <rule>, got <value>", with the file first for a document; a NumPy
scalar behaves exactly like the Python number it holds.
"""

import json
import math

import numpy as np
import pytest

from videosum.io import read_intervals, read_rois
from videosum.metrics import normalize_intervals, speedup_deviation
from videosum.model import init_scorer, init_subnet
from videosum.summarize import (
    Roi,
    segment_speedups,
    semantic_score,
    speedup_frame_selection,
    uniform_segments,
)
from videosum.synth import SynthSpec, synth_generate
from videosum.train import PairExample, TrainConfig, contrastive_loss, finite_diff_check

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


@pytest.mark.parametrize("center", [(1, 2, 3), (1,), 5, None])
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
