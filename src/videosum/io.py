"""File formats: binary feature matrices, interval documents, checkpoints.

Binary matrix layout: 4-byte magic ("VSF1" for frame features and score
columns, "VSD1" for description vectors), two little-endian u32 counts
(rows, cols), then rows*cols little-endian 32-bit IEEE floats, row-major.
Values are stored at 32-bit precision and widened to float64 in memory.

Interval documents are JSON with sorted keys so identical content always
produces identical bytes.  Checkpoints are uncompressed .npz archives.
"""

from __future__ import annotations

import json
import math
import os
import re
import stat
import struct
import zipfile
from dataclasses import fields
from typing import Sequence

import numpy as np

from ._checks import (check_int, check_interval, check_items, check_matrix, check_pair_label,
                      check_real, first_non_finite)
from .model import Subnet, _checked_net
from .summarize import Roi, Segment, semantic_score

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
_MAX_COUNT = 2**32 - 1  # the header's u32 row and column counts
_MAX_CELLS = 2**32  # a file that claims more is taken as corrupt, and none is written
_F32_MAX = float(np.finfo(np.float32).max)
# Matrix payloads and checkpoint members are read and written this many bytes at a time.
_BLOCK_BYTES = 1 << 20


def _check_magic(magic) -> None:
    if not (isinstance(magic, bytes) and magic in (MAGIC_FEATURES, MAGIC_DESCS)):
        raise ValueError(f"magic must be MAGIC_FEATURES or MAGIC_DESCS, got {magic!r}")


def _check_dims(name, rows: int, cols: int) -> None:
    """A ValueError starting with `name` unless each count fits the header's u32 and the
    matrix has at most _MAX_CELLS cells."""
    if max(rows, cols) > _MAX_COUNT or rows * cols > _MAX_CELLS:
        raise ValueError(f"{name}: dimension overflow, {rows} x {cols} exceeds the format's "
                         f"limits of {_MAX_COUNT} rows or columns and {_MAX_CELLS} cells")


def _row_blocks(rows: int, cols: int):
    """(first row, block) for each block of a (rows, cols) matrix: as many whole rows as
    fill _BLOCK_BYTES at 32 bits a value, and at least one.  Every block is a view of one
    little-endian 32-bit buffer, so each holds its rows only until the next is yielded."""
    if rows * cols == 0:
        return
    step = max(1, _BLOCK_BYTES // (4 * cols))
    buffer = np.empty((min(step, rows), cols), dtype="<f4")
    for start in range(0, rows, step):
        yield start, buffer[: min(step, rows - start)]


def read_matrix(path, expected_magic: bytes) -> np.ndarray:
    """Read a binary matrix file, returning a float64 (rows, cols) array.

    The payload size of a regular file is checked against the file's size before the
    result is allocated; that of another file, such as a pipe, as it is read.  The
    payload is read one block of rows at a time and widened into the result, so a read
    holds the result and one block.
    """
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
        _check_dims(path, rows, cols)
        needed = rows * cols * 4
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size - _HEADER.size != needed:
            raise _payload_error(path, info.st_size - _HEADER.size, rows, cols)
        values = np.empty((rows, cols))
        for start, block in _row_blocks(rows, cols):
            got = fh.readinto(memoryview(block).cast("B"))
            if got != block.nbytes:
                raise _payload_error(path, start * cols * 4 + got, rows, cols)
            # Checked before it is widened: widening a signalling NaN raises numpy's
            # "invalid value" warning.
            at = first_non_finite(block)
            if at is not None:
                raise ValueError(f"{path}: non-finite value {block[at]} at row {start + at[0]}, "
                                 f"column {at[1]}")
            values[start : start + len(block)] = block
        extra = len(fh.read())
    if extra:
        raise _payload_error(path, needed + extra, rows, cols)
    return values


def _payload_error(path, got: int, rows: int, cols: int) -> ValueError:
    return ValueError(f"{path}: payload has {got} bytes, needs {rows * cols * 4} "
                      f"for a {rows} x {cols} matrix")


def write_matrix(path, matrix: np.ndarray, magic: bytes) -> None:
    """Write a matrix in the binary layout; values narrow to 32-bit floats.

    The dimensions and every value are checked before the file is opened, the dimensions
    first, as `read_matrix` checks them.  The payload is then written one block of rows at
    a time, so a write holds one block and no copy of the matrix.
    """
    _check_magic(magic)
    matrix = check_matrix("matrix", matrix)
    rows, cols = matrix.shape
    _check_dims("matrix", rows, cols)
    # A NaN propagates through both reductions and fails both comparisons, so this passes
    # only finite float32 values, and makes no temporary array.
    if matrix.size and not (-_F32_MAX <= matrix.min() and matrix.max() <= _F32_MAX):
        row, col = np.argwhere(~(np.abs(matrix) <= _F32_MAX))[0]
        raise ValueError(
            f"value {matrix[row, col]} at row {row}, column {col} is not a finite 32-bit float"
        )
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(magic, rows, cols))
        for start, block in _row_blocks(rows, cols):
            block[...] = matrix[start : start + len(block)]
            fh.write(memoryview(block).cast("B"))


def _dump_json(path, doc) -> None:
    """Write `doc` as JSON with sorted keys.  The text is built before the file is opened, so
    NaN, an infinity or a value that is not JSON raises a ValueError and writes nothing."""
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"not a JSON document: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _read_json(path):
    """Parse a JSON document; text that is not JSON raises a ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: invalid JSON: nesting too deep") from None


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
    return [check_interval(f"{path}: interval record {rec_no}", pair)
            for rec_no, pair in enumerate(records)]


def read_rois(path) -> tuple[float, float, float | None, list[list[Roi]]]:
    """Read an ROI document: (frame_w, frame_h, sigma or None, each frame's ROIs).

    The frame size and sigma must pass `semantic_score`'s frame rule, each ROI `Roi`'s rule.
    """
    doc = _read_json(path)
    frame_w, frame_h, frame_docs = _fields(path, doc, "frame_w", "frame_h", "frames")
    sigma = doc.get("sigma")
    try:
        semantic_score([], frame_w, frame_h, sigma)  # the frame rule, checked once
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(frame_docs, list):
        raise ValueError(f"{path}: frames must be a list of per-frame ROI lists")
    frames = []
    for rec_no, frame_rois in enumerate(frame_docs):
        where = f"{path}: frame {rec_no}"
        if not isinstance(frame_rois, list):
            raise ValueError(f"{where}: expected a list of ROI records")
        rois = []
        for record in frame_rois:
            confidence, cx, cy, area = _fields(where, record, "confidence", "cx", "cy", "area")
            try:
                rois.append(Roi(confidence=confidence, center=(cx, cy), area=area))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        frames.append(rois)
    return frame_w, frame_h, sigma, frames


def write_intervals(path, intervals: Sequence[tuple[int, int]]) -> None:
    """Write a bare interval document: {"intervals": [[start, end], ...]}.

    Each record goes through `check_interval`, as `read_intervals` checks it, before the
    file is opened, and the numbers it returns are written, so reading the file back gives
    the records written.
    """
    records = [list(check_interval(f"interval record {rec_no}", record)) for rec_no, record
               in enumerate(check_items("intervals", intervals, "[start, end] pairs"))]
    _dump_json(path, {"intervals": records})


def write_summary(path, segments: Sequence[Segment], k: int, seg_len: int) -> None:
    """Write selected segments as an interval document with k/seg_len metadata.

    Each record must be a `Segment`; `k` and `seg_len` go through `check_int` as positive
    integers.  Like every JSON writer, it refuses a value that is not JSON before it opens
    the file.
    """
    segments = check_items("segments", segments, "Segment records")
    for rec_no, seg in enumerate(segments):
        if not isinstance(seg, Segment):
            raise ValueError(f"segment record {rec_no} must be a Segment, got {seg!r}")
    doc = {
        "intervals": [[seg.start, seg.end] for seg in segments],
        "k": check_int("k", k, 1),
        "seg_len": check_int("seg_len", seg_len, 1),
    }
    _dump_json(path, doc)


def write_selection(
    path, selected: Sequence[int], desired_speedup: float, achieved_speedup: float
) -> None:
    """Write a fast-forward selection: kept frame indices and both speed-ups.

    Each index goes through `check_int` as a non-negative integer and each speed-up through
    `check_real`, so NaN, an infinity, a bool or a fraction raises a ValueError before the
    file is opened, as it does in every JSON writer.
    """
    doc = {
        "selected": [check_int(f"selected index {i}", index, 0) for i, index
                     in enumerate(check_items("selected", selected, "frame indices"))],
        "desired_speedup": check_real("desired_speedup", desired_speedup),
        "achieved_speedup": check_real("achieved_speedup", achieved_speedup),
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
    """Write pair labels, one 'segment_index desc_index tn' line per record.

    Every record must be three integers, none a bool, as `read_pair_labels` reads them; a
    ValueError naming the record is raised before the file is opened otherwise.
    """
    lines = []
    for rec_no, record in enumerate(check_items("labels", labels, "(segment, description, "
                                                "label) records")):
        where = f"label record {rec_no}"
        values = [check_int(f"{where}: {name}", value, None) for name, value in
                  zip(("segment index", "description index", "label"),
                      check_pair_label(where, record))]
        lines.append("%d %d %d\n" % tuple(values))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


# The header numpy writes for a float64 array: magic, version 1.0, header length, header text.
_NPY_HEADER = re.compile(
    rb"(?s)\x93NUMPY\x01\x00(..)\{'descr': '<f8', 'fortran_order': (False|True), "
    rb"'shape': \((|\d+,|\d+(?:, \d+)+)\), \} *\n"
)


def _check_nets_agree(vnet: Subnet, dnet: Subnet) -> None:
    for what in ("embed", "hidden"):
        video, description = getattr(vnet, f"{what}_dim"), getattr(dnet, f"{what}_dim")
        if video != description:
            raise ValueError(f"{what} dims differ: video {video} vs description {description}")


def _member_array(where: str, fh, size: int) -> np.ndarray:
    """The float64 array in one open .npy member of `size` bytes, as an owned, writeable
    array.  The data bytes are read straight into the array, _BLOCK_BYTES at a time, so a
    large member is never held twice."""
    head = fh.read(10)
    if len(head) == 10:
        head += fh.read(int.from_bytes(head[8:], "little"))
    header = _NPY_HEADER.fullmatch(head)
    if header is None:
        raise ValueError(f"{where} is not a float64 array in .npy format 1.0")
    shape = tuple(map(int, header[3].replace(b",", b" ").split()))
    # Checked before any allocation: a corrupt header may claim a huge shape.
    if math.prod(shape) * 8 != size - len(head):
        raise ValueError(f"{where} declares shape {shape} but holds {size - len(head)} data bytes")
    fortran = header[2] == b"True"
    arr = np.empty(shape[::-1] if fortran else shape, dtype="<f8")
    view = memoryview(arr.reshape(-1)).cast("B")
    got = 0
    while got < len(view):
        n = fh.readinto(view[got : got + _BLOCK_BYTES])
        if not n:
            raise ValueError(f"{where} declares shape {shape} but holds {got} data bytes")
        got += n
    return np.ascontiguousarray(arr.T) if fortran else arr


def _read_net(zf: zipfile.ZipFile, which: str, archive_bytes: int) -> Subnet:
    """One net, each field read from its .npy member, as `_checked_net` checks it."""
    arrays = []
    for f in fields(Subnet):
        where = f"{which} net field {f.name!r}"
        info = zf.getinfo(f"{which}.{f.name}.npy")
        if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
            raise ValueError(f"{where} is compressed or encrypted")
        # The array is allocated before its bytes are read, so a size the archive cannot
        # hold is rejected first.
        if info.file_size > archive_bytes:
            raise ValueError(f"{where} claims {info.file_size} bytes in a "
                             f"{archive_bytes}-byte archive")
        with zf.open(info) as member:
            arrays.append(_member_array(where, member, info.file_size))
    return _checked_net(f"{which} net", Subnet(*arrays))


def save_checkpoint(path, vnet: Subnet, dnet: Subnet) -> None:
    """Write both nets as an uncompressed .npz: float64 members "video.w1" ... "description.b2".

    Each net is converted and checked as `load_checkpoint` checks it, with the same message
    but for the path, before the file is opened, so no checkpoint is written that
    `load_checkpoint` refuses.  numpy stamps every zip entry with one fixed date, so the
    bytes depend only on the parameters.
    """
    vnet, dnet = _checked_net("video net", vnet), _checked_net("description net", dnet)
    _check_nets_agree(vnet, dnet)
    arrays = {
        f"{which}.{f.name}": getattr(net, f.name)
        for which, net in (("video", vnet), ("description", dnet))
        for f in fields(Subnet)
    }
    # An open handle, because given a path numpy appends ".npz" to a name without it.
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path) -> tuple[Subnet, Subnet]:
    """Load a checkpoint written by save_checkpoint.

    Every member must be an uncompressed float64 .npy array, each net must pass
    `_checked_net` and the two nets must agree on their hidden and embedding dims; a
    ValueError starting with the path names the member or field at fault otherwise.
    """
    expected = [f"{net}.{f.name}.npy" for net in ("video", "description") for f in fields(Subnet)]
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as zf:
                names = zf.namelist()
                for name in names + expected:
                    if name not in expected:
                        raise ValueError(f"unexpected member {name!r}")
                    if name not in names:
                        raise ValueError(f"missing member {name!r}")
                size = os.fstat(fh.fileno()).st_size
                vnet, dnet = _read_net(zf, "video", size), _read_net(zf, "description", size)
            _check_nets_agree(vnet, dnet)
        except (zipfile.BadZipFile, EOFError, OSError, NotImplementedError) as exc:
            raise ValueError(f"{path}: not a checkpoint archive: {exc}") from None
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    return vnet, dnet
