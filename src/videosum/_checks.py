"""The one rule for a real-valued setting or document number, and the one for an integer."""

from __future__ import annotations

import math

import numpy as np


def check_real(name: str, value, low=-math.inf, high=math.inf, *, positive: bool = False):
    """`value` as a Python number; a ValueError starting with `name` unless it is a number
    other than a bool that float64 holds, lies in [low, high] and, if `positive`, is above 0.

    A NumPy scalar becomes the Python number it holds, so callers compute as on that number.
    """
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


def check_int(name: str, value, low: int) -> int:
    """`value` as a Python int; a ValueError starting with `name` unless it is an integer
    other than a bool and at least `low`.  A NumPy integer becomes the int it holds."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, int) and not isinstance(value, bool) and value >= low:
        return value
    rule = ("a non-negative integer" if low == 0
            else "a positive integer" if low == 1
            else f"an integer of at least {low}")
    raise ValueError(f"{name} must be {rule}, got {value!r}")
