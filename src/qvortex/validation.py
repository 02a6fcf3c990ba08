"""Input validation helpers shared across the package.

All validators either return the (possibly coerced) value or raise
ValueError with a message naming the offending argument. Numeric model
parameters are validated strictly: invalid values are rejected, never
clamped, because every downstream bound and check assumes them.
"""

from __future__ import annotations

import numpy as np


def check_positive(name, value):
    """Return value as float, requiring value > 0 and finite."""
    v = float(value)
    if not np.isfinite(v) or v <= 0.0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return v


def check_positive_int(name, value, minimum=1):
    """Return value as int, requiring value >= minimum."""
    v = int(value)
    if v != value or v < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return v


def check_finite(name, value):
    v = float(value)
    if not np.isfinite(v):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return v


def check_coeffs(name, coeffs, m):
    """Return coeffs as a 1-D float array of length m."""
    a = np.asarray(coeffs, dtype=float)
    if a.ndim != 1 or a.shape[0] != m:
        raise ValueError(
            f"{name} must be a vector of length {m}, got shape {a.shape}"
        )
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def readonly(arr):
    """Return a C-contiguous float64 copy marked read-only."""
    out = np.array(arr, dtype=float, order="C")
    out.setflags(write=False)
    return out


def freeze(arr):
    """Mark a freshly built C-contiguous float64 array read-only in place.

    Unlike readonly it makes no copy, so it is only for arrays that nothing
    else holds.
    """
    arr.setflags(write=False)
    return arr
