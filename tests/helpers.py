"""Helpers shared by the tests; the package itself has no caller for them."""

import numpy as np

from anyprune.tensor import Tensor


def sum_all(x, tape=None):
    """Sum of every entry of ``x`` as a scalar tensor, recorded on ``tape``."""
    out = Tensor(x.data.sum())
    if tape is not None:
        def bwd(g):
            return (np.broadcast_to(g, x.shape).copy() if x.shape else np.asarray(g),)

        tape.record("sum_all", (x,), out, bwd)
    return out


def support_subset(mask, other):
    """True when every position ``mask`` keeps is also kept in ``other``."""
    return all(
        not np.any((a == 1.0) & (other.arrays[name] == 0.0))
        for name, a in mask.arrays.items()
    )
