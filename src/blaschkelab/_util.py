"""Small shared helpers for scalar/array polymorphic evaluation."""

from __future__ import annotations

import numpy as np


def coerce_points(z):
    """Return (complex ndarray view of z, flag telling whether z was scalar).

    Raises ValueError for a non-finite point, which no evaluation accepts."""
    arr = np.asarray(z, dtype=complex)
    if not np.isfinite(arr).all():
        raise ValueError("evaluation points must be finite")
    scalar = arr.ndim == 0 and not isinstance(z, np.ndarray)
    return arr, scalar


def uncoerce(out, scalar):
    return complex(out) if scalar else out
