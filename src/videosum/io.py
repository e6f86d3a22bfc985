"""File formats: binary feature matrices, interval documents, checkpoints.

Binary matrix layout: 4-byte magic ("VSF1" for frame features and score
columns, "VSD1" for description vectors), two little-endian u32 counts
(rows, cols), then rows*cols little-endian 32-bit IEEE floats, row-major.
Values are stored at 32-bit precision and widened to float64 in memory.

Interval documents and checkpoints are JSON with sorted keys so identical
content always produces identical bytes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import fields
from typing import Sequence

import numpy as np

from .model import Subnet
from .summarize import Roi, Segment

__all__ = [
    "MAGIC_FEATURES",
    "MAGIC_DESCS",
    "read_matrix",
    "write_matrix",
    "read_intervals",
    "read_rois",
    "write_intervals",
    "write_summary",
    "write_selection",
    "read_pair_labels",
    "write_pair_labels",
    "save_checkpoint",
    "load_checkpoint",
]

MAGIC_FEATURES = b"VSF1"
MAGIC_DESCS = b"VSD1"

_HEADER = struct.Struct("<4sII")
_MAX_CELLS = 2**32  # header dims are u32; anything larger is a corrupt file

CHECKPOINT_VERSION = 1


def _check_magic(magic) -> None:
    if not (isinstance(magic, bytes) and magic in (MAGIC_FEATURES, MAGIC_DESCS)):
        raise ValueError(f"magic must be MAGIC_FEATURES or MAGIC_DESCS, got {magic!r}")


def read_matrix(path, expected_magic: bytes) -> np.ndarray:
    """Read a binary matrix file, returning a float64 (rows, cols) array."""
    _check_magic(expected_magic)
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(
                f"{path}: truncated header, got {len(header)} bytes, "
                f"need {_HEADER.size}"
            )
        magic, rows, cols = _HEADER.unpack(header)
        if magic != expected_magic:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {expected_magic!r}")
        if rows * cols > _MAX_CELLS:
            raise ValueError(
                f"{path}: dimension overflow, {rows} x {cols} cells exceeds "
                f"the format limit of {_MAX_CELLS}"
            )
        needed = rows * cols * 4
        payload = fh.read()
    if len(payload) != needed:
        raise ValueError(
            f"{path}: payload has {len(payload)} bytes, needs {needed} "
            f"for a {rows} x {cols} matrix"
        )
    values = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(rows, cols)
    if not np.isfinite(values).all():
        row, col = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"{path}: non-finite value {values[row, col]} at row {row}, column {col}")
    return values


def write_matrix(path, matrix: np.ndarray, magic: bytes) -> None:
    """Write a matrix in the binary layout; values narrow to 32-bit floats."""
    _check_magic(magic)
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, rows, cols))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def _dump_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _read_json(path):
    """Parse a JSON document; text that is not JSON raises a ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{path}: invalid JSON: {exc}") from None


def _is_finite_number(value) -> bool:
    """A JSON number other than a boolean, NaN or an infinity."""
    if isinstance(value, bool):
        return False
    return isinstance(value, int) or isinstance(value, float) and math.isfinite(value)


def _fields(path, doc, *keys) -> list:
    """The values of `keys` in a JSON object; a missing one raises a ValueError naming the file."""
    if not isinstance(doc, dict):
        names = ", ".join(repr(key) for key in keys)
        raise ValueError(f"{path}: expected a JSON object with the fields {names}")
    for key in keys:
        if key not in doc:
            raise ValueError(f"{path}: missing field {key!r}")
    return [doc[key] for key in keys]


def read_intervals(path) -> list[tuple[int, int]]:
    """Read an interval document: {"intervals": [[start, end], ...], "fps"?}."""
    (records,) = _fields(path, _read_json(path), "intervals")
    if not isinstance(records, list):
        raise ValueError(f"{path}: intervals must be a list of [start, end] pairs")
    out = []
    for rec_no, pair in enumerate(records):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"{path}: interval record {rec_no} is not a [start, end] pair")
        start, end = pair
        if not all(_is_finite_number(v) for v in pair):
            raise ValueError(
                f"{path}: interval record {rec_no}: start and end must be finite numbers, "
                f"got {pair!r}"
            )
        if start >= end:
            raise ValueError(f"{path}: interval record {rec_no}: start {start} >= end {end}")
        out.append((start, end))
    return out


def read_rois(path) -> tuple[float, float, float | None, list[list[Roi]]]:
    """Read an ROI document: (frame_w, frame_h, sigma or None, each frame's ROIs)."""
    doc = _read_json(path)
    frame_w, frame_h, frame_docs = _fields(path, doc, "frame_w", "frame_h", "frames")
    sigma = doc.get("sigma")
    sizes = [("frame_w", frame_w), ("frame_h", frame_h)]
    if sigma is not None:
        sizes.append(("sigma", sigma))
    for name, value in sizes:
        if not (_is_finite_number(value) and value > 0):
            raise ValueError(f"{path}: {name} must be a positive number, got {value!r}")
    if not isinstance(frame_docs, list):
        raise ValueError(f"{path}: frames must be a list of per-frame ROI lists")
    frames = []
    for rec_no, frame_rois in enumerate(frame_docs):
        where = f"{path}: frame {rec_no}"
        if not isinstance(frame_rois, list):
            raise ValueError(f"{where}: expected a list of ROI records")
        rois = []
        for record in frame_rois:
            values = _fields(where, record, "confidence", "cx", "cy", "area")
            if not all(map(_is_finite_number, values)):
                raise ValueError(f"{where}: ROI fields must be finite numbers, got {record!r}")
            confidence, cx, cy, area = values
            try:
                rois.append(Roi(confidence=confidence, center=(cx, cy), area=area))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        frames.append(rois)
    return frame_w, frame_h, sigma, frames


def write_intervals(path, intervals: Sequence[tuple[int, int]]) -> None:
    """Write a bare interval document: {"intervals": [[start, end], ...]}."""
    _dump_json(path, {"intervals": [[int(s), int(e)] for s, e in intervals]})


def write_summary(path, segments: Sequence[Segment], k: int, seg_len: int) -> None:
    """Write selected segments as an interval document with k/seg_len metadata."""
    doc = {
        "intervals": [[seg.start, seg.end] for seg in segments],
        "k": k,
        "seg_len": seg_len,
    }
    _dump_json(path, doc)


def write_selection(
    path, selected: Sequence[int], desired_speedup: float, achieved_speedup: float
) -> None:
    """Write a fast-forward selection: kept frame indices and both speed-ups."""
    doc = {
        "selected": [int(i) for i in selected],
        "desired_speedup": desired_speedup,
        "achieved_speedup": achieved_speedup,
    }
    _dump_json(path, doc)


def read_pair_labels(path) -> list[tuple[int, int, int]]:
    """Read pair labels: one 'segment_index desc_index tn' record per line."""
    out = []
    # A byte that is not UTF-8 becomes a lone surrogate, which no integer field accepts,
    # so it is reported with its line like any other bad field.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(
                    f"{path}:{line_no}: expected 'segment_index desc_index tn', "
                    f"got {line!r}"
                )
            try:
                seg_idx, desc_idx, tn = (int(p) for p in parts)
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-integer field in {line!r}") from None
            out.append((seg_idx, desc_idx, tn))
    return out


def write_pair_labels(path, labels: Sequence[tuple[int, int, int]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for seg_idx, desc_idx, tn in labels:
            fh.write(f"{seg_idx} {desc_idx} {tn}\n")


def _net_doc(net: Subnet) -> dict:
    return {f.name: getattr(net, f.name).tolist() for f in fields(Subnet)}


def _net_from_doc(path, which: str, doc) -> Subnet:
    """One net's fields as finite arrays: 2-D, 1-D, 2-D and 1-D, with consistent shapes."""
    names = [f.name for f in fields(Subnet)]
    arrays = []
    for name, value, ndim in zip(names, _fields(path, doc, *names), (2, 1, 2, 1)):
        where = f"{path}: {which} net field {name!r}"
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{where} is not a numeric array: {exc}") from None
        if arr.ndim != ndim:
            raise ValueError(f"{where} is {arr.ndim}-D, expected {ndim}-D")
        if not np.isfinite(arr).all():
            raise ValueError(f"{where} holds a non-finite value")
        arrays.append(arr)
    net = Subnet(*arrays)
    hidden, embed = net.hidden_dim, net.embed_dim
    expected = ((hidden, net.input_dim), (hidden,), (embed, hidden), (embed,))
    for name, arr, shape in zip(names, arrays, expected):
        if arr.shape != shape:
            raise ValueError(
                f"{path}: {which} net field {name!r} has shape {arr.shape}, expected {shape}"
            )
    return net


def save_checkpoint(path, vnet: Subnet, dnet: Subnet) -> None:
    """Serialize both nets as JSON.

    Floats are written in shortest round-trip decimal form, so loading
    restores bitwise-identical float64 parameters.
    """
    if vnet.embed_dim != dnet.embed_dim:
        raise ValueError(
            f"embed dims differ: video {vnet.embed_dim} vs description {dnet.embed_dim}"
        )
    if vnet.hidden_dim != dnet.hidden_dim:
        raise ValueError(
            f"hidden dims differ: video {vnet.hidden_dim} vs description {dnet.hidden_dim}"
        )
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "dims": {
            "input_dim": vnet.input_dim,
            "hidden": vnet.hidden_dim,
            "embed_dim": vnet.embed_dim,
            "desc_dim": dnet.input_dim,
        },
        "video": _net_doc(vnet),
        "description": _net_doc(dnet),
    }
    _dump_json(path, doc)


def load_checkpoint(path) -> tuple[Subnet, Subnet]:
    """Load a checkpoint, validating version and declared dimensions."""
    doc = _read_json(path)
    version, dims, video, description = _fields(
        path, doc, "format_version", "dims", "video", "description"
    )
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint version {version!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    input_dim, hidden, embed_dim, desc_dim = _fields(
        path, dims, "input_dim", "hidden", "embed_dim", "desc_dim"
    )
    vnet = _net_from_doc(path, "video", video)
    dnet = _net_from_doc(path, "description", description)
    declared = {
        "video input_dim": (vnet.input_dim, input_dim),
        "video hidden": (vnet.hidden_dim, hidden),
        "video embed_dim": (vnet.embed_dim, embed_dim),
        "description input_dim": (dnet.input_dim, desc_dim),
        "description hidden": (dnet.hidden_dim, hidden),
        "description embed_dim": (dnet.embed_dim, embed_dim),
    }
    for what, (actual, expected) in declared.items():
        if actual != expected:
            raise ValueError(
                f"{path}: dimension mismatch, {what} is {actual} but header "
                f"declares {expected}"
            )
    return vnet, dnet
