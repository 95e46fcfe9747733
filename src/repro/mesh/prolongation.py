"""Prolongation: slope-limited linear interpolation from coarse to fine cells.

Each coarse cell is split into ``2**ndim`` fine cells whose values are
``c ± s_a/4`` per active axis, with per-axis slopes ``s_a`` limited by minmod.
This is exact for linear fields (so ghost-zone fills across fine–coarse
boundaries introduce no error on smooth linear data — a property the tests
rely on) and preserves the coarse cell average, so refinement conserves the
total of every conserved variable.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def minmod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minmod slope limiter: 0 on sign disagreement, else the smaller."""
    return np.where(a * b <= 0.0, 0.0, np.where(np.abs(a) < np.abs(b), a, b))


def limited_slopes(arr: np.ndarray, axis: int) -> np.ndarray:
    """Minmod-limited slopes along ``axis`` for the cells ``1..n-2``.

    The returned array is two cells shorter along ``axis`` than the input.
    """
    d = np.moveaxis(np.diff(arr, axis=axis), axis, -1)
    return np.moveaxis(minmod(d[..., :-1], d[..., 1:]), -1, axis)


def prolong(coarse: np.ndarray, ndim: int, limit: bool = True) -> np.ndarray:
    """Interpolate ``coarse`` (with a 1-cell margin) to fine resolution.

    ``coarse`` has shape ``(..., ncomp, m3, m2, m1)`` — leading batch axes
    (one region per block in the ghost exchange) are carried through —
    where every *active* dimension carries at least one margin cell on each
    side for slope computation.  The result covers only the margin-stripped
    interior at double resolution: active extent ``2 * (m - 2)``.

    Each fine child is ``((c ± s_0/4) ± s_1/4) ± s_2/4``, accumulated in
    axis order, and is written into its strided slot of the output.

    When ``limit`` is False, unlimited central-difference slopes are used
    (useful to demonstrate why limiting matters near discontinuities).
    """
    nd = coarse.ndim
    if nd < 4:
        raise ValueError(
            f"expected (..., ncomp, m3, m2, m1), got {coarse.shape}"
        )
    axes = [nd - 1 - a for a in range(ndim)]
    for a, axis in enumerate(axes):
        if coarse.shape[axis] < 3:
            raise ValueError(
                f"active dimension {a} needs >= 3 cells (1-cell margins), "
                f"got {coarse.shape[axis]}"
            )

    # The coarse interior (margins stripped) and per-axis quarter slopes
    # on it, differenced against its neighbors one cell along each axis.
    inner = [slice(None)] * nd
    for axis in axes:
        inner[axis] = slice(1, -1)
    center = coarse[tuple(inner)]
    quarters = []
    for axis in axes:
        below, above = list(inner), list(inner)
        below[axis], above[axis] = slice(0, -2), slice(2, None)
        lo, hi = coarse[tuple(below)], coarse[tuple(above)]
        if limit:
            s = minmod(center - lo, hi - center)
        else:
            s = 0.5 * (hi - lo)
        quarters.append(s * 0.25)

    # Children by axis-ordered accumulation: ``c - q`` is bitwise
    # ``c + s * -0.25``.  Key: child parity per active axis.
    children = {(): center}
    for q in quarters:
        children = {
            key + (side,): (v - q if side == 0 else v + q)
            for key, v in children.items()
            for side in (0, 1)
        }
    shape = list(center.shape)
    for axis in axes:
        shape[axis] *= 2
    fine = np.empty(shape, dtype=np.result_type(coarse, 0.25))
    for key, value in children.items():
        slot = [slice(None)] * nd
        for axis, side in zip(axes, key):
            slot[axis] = slice(side, None, 2)
        fine[tuple(slot)] = value
    return fine


def prolong_shape(
    coarse_shape: Tuple[int, ...], ndim: int
) -> Tuple[int, ...]:
    """Output shape of :func:`prolong` for a given input shape."""
    out = list(coarse_shape)
    for a in range(ndim):
        out[-1 - a] = 2 * (out[-1 - a] - 2)
    return tuple(out)
