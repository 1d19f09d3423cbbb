"""Small shared helpers: scalar/array polymorphic evaluation, point grouping, and array passes in blocks."""

from __future__ import annotations

import numpy as np

# Elements per block: the points of an evaluation block in `blaschke`, the
# (points x zeros) entries of a block of the fiber pass, the (zeros x zeros)
# links of a block of `critical_sets`' distinct zeros and of `hyperbolic`'s
# row-wise hulls, and the (roots x row) entries of `polyroots`' rounding links.  A
# block's complex arrays (128 KB) stay in cache and below numpy's 256 KB
# threshold for reusing temporaries in place, which can swap a complex
# multiply's operands and so its last bit: evaluation writes x *= y for x * y.
# The fiber pass's three temporaries keep this size: over 12 alternated runs
# of 32 targets on a shared 2-vCPU machine, blocks of 4,096 took 112 against
# 131 ms at order 128 but lost 10 of 12 pairs at order 64 and 9 of 12 at 16.
_BLOCK = 8192


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


def _blocked(size, step, block):
    """block(i, j) over the consecutive ranges [i, j) of size entries, step
    at a time, its arrays (or tuples of them) joined; one range returns
    block(0, size) as it is, with no copy."""
    if size <= step:
        return block(0, size)
    parts = [block(i, min(i + step, size)) for i in range(0, size, step)]
    return tuple(np.concatenate(x) for x in zip(*parts)) if isinstance(parts[0], tuple) else np.concatenate(parts)


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
