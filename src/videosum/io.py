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
import struct
from typing import Sequence

import numpy as np

from .model import Subnet
from .summarize import Segment

__all__ = [
    "MAGIC_FEATURES",
    "MAGIC_DESCS",
    "read_matrix",
    "write_matrix",
    "read_intervals",
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


def _as_magic(magic) -> bytes:
    raw = magic.encode("ascii") if isinstance(magic, str) else bytes(magic)
    if len(raw) != 4:
        raise ValueError(f"magic must be 4 bytes, got {raw!r}")
    return raw


def read_matrix(path, expected_magic) -> np.ndarray:
    """Read a binary matrix file, returning a float64 (rows, cols) array."""
    expected = _as_magic(expected_magic)
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(
                f"{path}: truncated header, got {len(header)} bytes, "
                f"need {_HEADER.size}"
            )
        magic, rows, cols = _HEADER.unpack(header)
        if magic != expected:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {expected!r}")
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


def write_matrix(path, matrix: np.ndarray, magic) -> None:
    """Write a matrix in the binary layout; values narrow to 32-bit floats."""
    raw = _as_magic(magic)
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
    rows, cols = matrix.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(raw, rows, cols))
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def _dump_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_intervals(path) -> list[tuple[int, int]]:
    """Read an interval document: {"intervals": [[start, end], ...], "fps"?}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "intervals" not in doc:
        raise ValueError(f"{path}: expected an object with an 'intervals' field")
    out = []
    for rec_no, pair in enumerate(doc["intervals"]):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"{path}: interval record {rec_no} is not a [start, end] pair")
        start, end = pair
        if start >= end:
            raise ValueError(f"{path}: interval record {rec_no}: start {start} >= end {end}")
        out.append((start, end))
    return out


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
    with open(path, "r", encoding="utf-8") as fh:
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
    return {
        "w1": net.w1.tolist(),
        "b1": net.b1.tolist(),
        "w2": net.w2.tolist(),
        "b2": net.b2.tolist(),
    }


def _net_from_doc(doc: dict) -> Subnet:
    return Subnet(
        w1=np.asarray(doc["w1"], dtype=float),
        b1=np.asarray(doc["b1"], dtype=float),
        w2=np.asarray(doc["w2"], dtype=float),
        b2=np.asarray(doc["b2"], dtype=float),
    )


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
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"{path}: unsupported checkpoint version {version!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    dims = doc["dims"]
    vnet = _net_from_doc(doc["video"])
    dnet = _net_from_doc(doc["description"])
    declared = {
        "video input_dim": (vnet.input_dim, dims["input_dim"]),
        "video hidden": (vnet.hidden_dim, dims["hidden"]),
        "video embed_dim": (vnet.embed_dim, dims["embed_dim"]),
        "description input_dim": (dnet.input_dim, dims["desc_dim"]),
        "description hidden": (dnet.hidden_dim, dims["hidden"]),
        "description embed_dim": (dnet.embed_dim, dims["embed_dim"]),
    }
    for what, (actual, expected) in declared.items():
        if actual != expected:
            raise ValueError(
                f"{path}: dimension mismatch, {what} is {actual} but header "
                f"declares {expected}"
            )
    return vnet, dnet
