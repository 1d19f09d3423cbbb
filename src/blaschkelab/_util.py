"""Small shared helpers for scalar/array polymorphic evaluation and point grouping."""

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


def components(links) -> np.ndarray:
    """(..., n) labels, each point's smallest index in its connected component
    of the symmetric boolean (..., n, n) links, where every point links itself.
    Each pass lowers every label to the smallest among its links, starting
    from the indices, until none changes; the first pass is the first link."""
    label, lower = np.arange(links.shape[-1]), links.argmax(axis=-1)
    while not (lower == label).all():
        label = lower
        lower = np.where(links, label[..., None, :], links.shape[-1]).min(axis=-1)
    return lower
