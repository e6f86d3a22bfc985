"""The one rule for a real setting or document number, an integer, an array, a vector, a
matrix, a sequence of records, a record's shape, an interval and a pair-label record."""

from __future__ import annotations

import math

import numpy as np


# Text, bytes, a mapping or a set unpacks into its items, but is never a fixed-size record
# (an interval, a pair label or an ROI center).  Concrete types, so the test stays cheap.
NOT_A_RECORD = (str, bytes, bytearray, dict, set, frozenset)


def check_real(name: str, value, low=-math.inf, high=math.inf, *, positive: bool = False):
    """`value` as a Python number; a ValueError starting with `name` unless it is a number
    other than a bool that float64 holds, lies in [low, high] and, if `positive`, is above 0.

    A NumPy scalar becomes the Python number it holds, so callers compute as on that number.
    """
    # The common case, a float that passes, skips the general rule below.
    if type(value) is float and low <= value <= high and math.isfinite(value) and (
            value > 0 or not positive):
        return value
    if isinstance(value, np.generic):
        value = value.item()
    try:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and math.isfinite(value) and low <= value <= high and (value > 0 or not positive))
    except OverflowError:  # an int beyond the float64 range
        ok = False
    if ok:
        return value
    rule = (f"in [{low}, {high}]" if high < math.inf
            else "finite and positive" if positive
            else "finite and non-negative" if low == 0
            else f"finite and at least {low}" if low > -math.inf
            else "finite")
    try:
        shown = repr(value)
    except ValueError:  # an int with more digits than Python converts to text
        shown = f"an int of {value.bit_length()} bits"
    raise ValueError(f"{name} must be {rule}, got {shown}")


def check_int(name: str, value, low: int | None) -> int:
    """`value` as a Python int; a ValueError starting with `name` unless it is an integer
    other than a bool and, if `low` is 0 or 1, at least `low`.  A NumPy integer becomes the
    int it holds."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, int) and not isinstance(value, bool) and (low is None or value >= low):
        return value
    rule = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}[low]
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def as_floats(name: str, value) -> np.ndarray:
    """`np.asarray(value, dtype=float)`; a ValueError starting with `name` if that fails,
    as for an int beyond the float64 range, an entry that is not a number or ragged rows."""
    try:
        return np.asarray(value, dtype=float)
    except (OverflowError, TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be an array of real numbers: {exc}") from None


def check_vector(name: str, value) -> np.ndarray:
    """`value` through `as_floats`; a ValueError starting with `name` unless it is 1-D."""
    arr = as_floats(name, value)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {arr.shape}")
    return arr


def check_matrix(name: str, value, *, rows: int = 0, cols: int | None = None,
                 of: str | None = None) -> np.ndarray:
    """`value` through `as_floats`; a ValueError starting with `name` unless it is 2-D, has at
    least `rows` rows and, if `cols` is given, exactly `cols` columns, as `of` expects.  The
    width is checked even when there are no rows; `cols` and `of` come together or not at all."""
    if (cols is None) != (of is None):
        raise TypeError("check_matrix takes cols and of together")
    arr = as_floats(name, value)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if arr.shape[0] < rows:
        raise ValueError(f"{name} must have at least {rows} row{'s' * (rows != 1)}, "
                         f"got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise ValueError(f"{name} has {arr.shape[1]} columns, {of} expects {cols}")
    return arr


def first_non_finite(arr: np.ndarray) -> tuple | None:
    """The index of the first entry of `arr` in row-major order that is not finite, or None."""
    finite = np.isfinite(arr)
    return None if finite.all() else np.unravel_index(np.argmin(finite), arr.shape)


def check_finite(subject: str, arr: np.ndarray, *, by_row: bool = False) -> np.ndarray:
    """`arr` if every entry is finite, else a ValueError "<subject> at <where>" naming the
    first that is not: "frame i" if `by_row`, else "row r, column c" or "index i" (row-major)."""
    at = first_non_finite(arr if arr.ndim == 2 else arr.reshape(-1))
    if at is None:
        return arr
    where = (f"frame {at[0]}" if by_row else f"index {at[0]}" if len(at) == 1
             else f"row {at[0]}, column {at[1]}")
    raise ValueError(f"{subject} at {where}")


def check_items(name: str, value, items: str) -> list:
    """The items of `value` as a list; a ValueError starting with `name` unless it is
    iterable, saying it must hold `items`."""
    try:
        each = iter(value)
    except TypeError:
        raise ValueError(f"{name} must be a sequence of {items}, got {value!r}") from None
    return list(each)


def check_interval(where: str, record) -> tuple:
    """(start, end) of one interval record, each bound through `check_real`; a ValueError
    starting with `where` unless the record is a pair with start < end."""
    try:
        start, end = None if isinstance(record, NOT_A_RECORD) else record
    except (TypeError, ValueError):
        raise ValueError(f"{where} is not a [start, end] pair") from None
    start = check_real(f"{where}: start", start)
    end = check_real(f"{where}: end", end)
    if start >= end:
        raise ValueError(f"{where}: start {start} >= end {end}")
    return start, end


def check_pair_label(where: str, record) -> tuple:
    """(segment index, description index, label) of one pair-label record, unchecked; a
    ValueError starting with `where` unless the record unpacks into exactly three items."""
    try:
        seg_idx, desc_idx, label = None if isinstance(record, NOT_A_RECORD) else record
    except (TypeError, ValueError):
        raise ValueError(f"{where} is not a (segment, description, label) triple") from None
    return seg_idx, desc_idx, label
