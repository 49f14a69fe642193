"""Saliency scoring and progressive global pruning.

Masks are per-prunable-tensor bool arrays keyed by registry name that count
their own kept positions. Scorers rate every position from the weights and a
batch gradient alone; pruning only ever refines an existing mask, because
:func:`prune_global` ignores the scores of positions the mask already prunes.
It keeps exactly the requested number of highest-scoring positions across all
prunable tensors jointly, breaking ties toward the smaller global flat index
(registry order, then row-major offset). Selection is linear in the number of
positions and holds one float64 buffer: an in-place partition finds the
threshold score, every position above it is kept, and the positions tied at it
fill the remaining slots in flat-index order.

SNIP and GraSP take the mean loss gradient over the scoring set in slices
(``Model.row_slices``): ``SCORE_CHUNK`` rows for an MLP, one kernel block of
images for a convnet. The scoring set grows with the replay view, and one
taped call over all of it would hold every row's activations at once; in
slices the scoring peak stays the same at any set size.
"""

import numpy as np

from . import tensor as T
from .errors import (
    DataError,
    NumericError,
    ParameterError,
    RefinementError,
    ShapeError,
)
from .rng import STREAM_SCORE, rng_from, round_half_up

SCORE_CHUNK = 256


class SparsityMask:
    """Bool keep-masks per prunable tensor, counted in ``kept``, ``kept_count`` and ``size``."""

    def __init__(self, arrays):
        for name, a in arrays.items():
            if a.dtype != bool and not np.all((a == 0.0) | (a == 1.0)):
                raise ParameterError(f"mask {name!r} has entries outside {{0, 1}}")
        self.arrays = {name: np.ascontiguousarray(a, dtype=bool) for name, a in arrays.items()}
        self.kept = {name: int(np.count_nonzero(a)) for name, a in self.arrays.items()}
        self.kept_count = sum(self.kept.values())
        self.size = sum(a.size for a in self.arrays.values())

    @classmethod
    def full(cls, model):
        return cls({e.name: np.ones(e.tensor.shape, dtype=bool) for e in model.registry.prunable()})


def make_delta_schedule(tau, steps):
    """Per-megabatch sparsity exponents as a tuple: keep fraction 0.8**delta.

    Uniform from 1 to tau inclusive; a single step jumps to tau.
    """
    if tau < 1.0:
        raise ParameterError(f"tau must be >= 1, got {tau}")
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    if steps == 1:
        return (float(tau),)
    return tuple(float(v) for v in np.linspace(1.0, float(tau), steps))


def keep_count(delta, total):
    """Number of weights kept at exponent ``delta`` out of ``total`` dense ones.

    Round-half-up on 0.8**delta * total, floored at one kept weight.
    """
    if total < 1:
        raise ParameterError(f"total prunable count must be >= 1, got {total}")
    return max(1, round_half_up(0.8 ** float(delta) * total))


def _mean_grads(model, x, y):
    """Gradients of the mean loss over (x, y), as a name -> array mapping.

    The set is taped one slice of ``model.row_slices(n, SCORE_CHUNK)`` at a
    time, and each slice's mean gradients are weighted by its share of the
    rows and summed. A set of at most one slice is one slice of weight
    exactly 1.0, so it keeps the bits of a single ``loss_and_grads`` call.
    """
    n = x.shape[0]
    total = None
    for rows in model.row_slices(n, SCORE_CHUNK):
        grads = model.loss_and_grads(x[rows], y[rows])[1]
        # the tape hands back fresh buffers, so they are scaled and summed in place
        for g in grads.values():
            g *= y[rows].size / n
        if total is None:
            total = grads
        else:
            for name, g in grads.items():
                total[name] += g
        del grads  # summed into total; the next slice's backward builds a new set
    return total


def score_snip(model, x, y):
    """Connection sensitivity |grad * weight| of the mean loss over (x, y).

    The gradient is taken in slices (see :func:`_mean_grads`), so the memory
    it needs does not grow with the scoring set.
    """
    grads = _mean_grads(model, x, y)
    scores = {e.name: grads[e.name] for e in model.registry.prunable()}
    for name, g in scores.items():  # fresh buffers, so each is scored in place
        np.abs(np.multiply(g, model.registry[name].tensor.data, out=g), out=g)
    return scores


def score_grasp(model, mask, x, y):
    """Gradient-flow saliency -w * (H g) of the mean loss over (x, y).

    Smaller is better for keeping: callers selecting with a keep-largest rule
    must negate. The direction vector is the loss gradient restricted to the
    active mask support (pruned coordinates are frozen, so perturbing them
    would leak signal through dead connections). The gradient and both of
    the Hessian-vector product's gradient calls are taken in slices (see
    :func:`_mean_grads`), so the memory they need does not grow with the
    scoring set.
    """
    v = _mean_grads(model, x, y)
    for name, m in mask.arrays.items():  # fresh buffers, so each is masked in place
        v[name] *= m
    hv = T.hvp_fd(lambda: _mean_grads(model, x, y), model.params(), v)
    scores = {}
    for e in model.registry.prunable():
        s = -(e.tensor.data * hv[e.name])
        if not np.all(np.isfinite(s)):
            raise NumericError(f"non-finite GraSP scores for {e.name!r}")
        scores[e.name] = s
    return scores


def score_magnitude(model):
    """|weight|."""
    return {e.name: np.abs(e.tensor.data) for e in model.registry.prunable()}


def score_random(mask, seed):
    """Seeded i.i.d. uniform(0,1) scores, one per mask position.

    ``seed`` is a tuple of integers, the derived key of the draw.
    """
    g = rng_from(STREAM_SCORE, *seed)
    return {name: g.random(m.shape) for name, m in mask.arrays.items()}


def selection_scores(pruner, model, mask, x=None, y=None, seed=None):
    """Scores oriented so that prune_global's keep-largest rule applies."""
    if pruner in ("snip", "grasp") and x.shape[0] == 0:
        raise DataError("scoring set is empty")
    if pruner == "snip":
        return score_snip(model, x, y)
    if pruner == "grasp":
        return {name: np.negative(s, out=s) for name, s in score_grasp(model, mask, x, y).items()}
    if pruner == "magnitude":
        return score_magnitude(model)
    if pruner == "random":
        return score_random(mask, seed)
    raise ParameterError(f"unknown pruner {pruner!r}")


def _fill_negated(parts, mask, scores):
    """Write each tensor's negated scores into its view in ``parts``, +inf where ``mask`` prunes."""
    for (name, m), part in zip(mask.arrays.items(), parts):
        s = np.asarray(scores[name], dtype=np.float64)
        if s.shape != m.shape:
            raise ShapeError(f"score shape {s.shape} != mask shape {m.shape} for {name!r}")
        np.negative(s.ravel(), out=part)
        np.minimum(part, np.finfo(np.float64).max, out=part)  # kept -inf: before pruned ones
        part[~m.ravel()] = np.inf
        if np.isnan(part).any():
            raise NumericError(f"NaN score at a kept position of {name!r}")


def prune_global(mask, scores, keep):
    """Refine ``mask`` to exactly ``keep`` kept positions, ranked globally.

    Keeps the highest-scoring currently-kept positions across all prunable
    tensors jointly; equal scores keep the smaller global flat index. Scores
    at positions ``mask`` already prunes are ignored, so nothing re-enters.
    """
    if keep < 1:
        raise ParameterError(f"keep must be >= 1, got {keep}")
    if keep > mask.kept_count:
        raise RefinementError(f"cannot keep {keep} positions: only {mask.kept_count} currently kept")
    missing = [n for n in mask.arrays if n not in scores]
    if missing:
        raise ShapeError(f"scores missing for {missing}")
    cuts = np.cumsum([m.size for m in mask.arrays.values()])[:-1]
    # the keep-th smallest negated score is the threshold; the partition
    # reorders the buffer, so it is filled again in flat order to select
    neg = np.empty(mask.size)
    _fill_negated(np.split(neg, cuts), mask, scores)
    neg.partition(keep - 1)
    thr = neg[keep - 1]
    _fill_negated(np.split(neg, cuts), mask, scores)
    # keep every position below the threshold, then fill the slots left from
    # the positions tied at it, lowest first
    new_flat = neg < thr
    need = keep - int(np.count_nonzero(new_flat))
    new_flat[np.flatnonzero(neg == thr)[:need]] = True
    parts = np.split(new_flat, cuts)
    return SparsityMask({name: p.reshape(m.shape) for (name, m), p in zip(mask.arrays.items(), parts)})


def apply_mask(model, mask):
    """Zero every masked weight in place; idempotent."""
    for name, m in mask.arrays.items():
        p = model.registry[name].tensor
        if m.shape != p.shape:
            raise ShapeError(f"mask shape {m.shape} != param shape {p.shape} for {name!r}")
        p.data *= m


def layer_pruned_fraction(mask):
    """Per masked tensor (name, fraction pruned), plus a global row."""
    rows = [(name, 1.0 - mask.kept[name] / m.size) for name, m in mask.arrays.items()]
    rows.append(("global", (1.0 - mask.kept_count / mask.size) if mask.size else 0.0))
    return rows
