"""Restriction: volume-averaging fine cells onto the overlying coarse cells.

Used when derefining blocks, when filling the ghost exchange's coarse store,
and — crucially for communication volume (Section II-C) — *before* sending
data from a fine block to a coarser neighbor, which shrinks the message by
``2**ndim``.
"""

from __future__ import annotations

import numpy as np


def restrict(fine: np.ndarray, ndim: int) -> np.ndarray:
    """Average ``fine`` down by a factor of two per active dimension.

    ``fine`` has shape ``(..., ncomp, n3, n2, n1)``: any leading batch axes
    (the ghost exchange passes one region per block) are carried through.
    Every active dimension must have even extent.  Volume averaging is exact
    for conservation: the sum of ``coarse * 2**ndim`` equals the sum of
    ``fine``.  Each pair is averaged as ``((+0.0 + a) + b) * 0.5``, bitwise
    what a two-element ``np.mean`` computes (its sum starts from +0.0, so
    a pair of negative zeros averages to +0.0).
    """
    if fine.ndim < 4:
        raise ValueError(
            f"expected (..., ncomp, n3, n2, n1), got {fine.shape}"
        )
    for a in range(ndim):
        if fine.shape[-1 - a] % 2 != 0:
            raise ValueError(
                f"active dimension {a} has odd extent {fine.shape[-1 - a]}"
            )
    out = fine
    for a in range(ndim):
        even = [slice(None)] * out.ndim
        odd = [slice(None)] * out.ndim
        even[-1 - a] = slice(0, None, 2)
        odd[-1 - a] = slice(1, None, 2)
        pair_sum = out[tuple(even)] + 0.0
        pair_sum += out[tuple(odd)]
        pair_sum *= 0.5
        out = pair_sum
    return out
