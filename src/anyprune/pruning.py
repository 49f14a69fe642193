"""Saliency scoring and progressive global pruning.

Masks are per-prunable-tensor 0/1 arrays keyed by registry name. Scorers rate
every position from the weights and a batch gradient alone; pruning only ever
refines an existing mask, because :func:`prune_global` ignores the scores of
positions the mask already prunes. It keeps exactly the requested number of
highest-scoring positions across all prunable tensors jointly, breaking ties
toward the smaller global flat index (registry order, then row-major offset).
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


class SparsityMask:
    """Binary keep-masks for every prunable tensor, with a cached kept count."""

    def __init__(self, arrays):
        for name, a in arrays.items():
            if not np.all((a == 0.0) | (a == 1.0)):
                raise ParameterError(f"mask {name!r} has entries outside {{0, 1}}")
        self.arrays = {name: np.ascontiguousarray(a, dtype=np.float64) for name, a in arrays.items()}
        self.kept_count = int(sum(a.sum() for a in self.arrays.values()))

    @classmethod
    def full(cls, model):
        return cls({e.name: np.ones(e.tensor.shape) for e in model.registry.prunable()})

    def support_subset_of(self, other):
        """True when every kept position here is also kept in ``other``."""
        return all(
            not np.any((a == 1.0) & (other.arrays[name] == 0.0))
            for name, a in self.arrays.items()
        )


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


def score_snip(model, x, y):
    """Connection sensitivity |grad * weight| of the mean loss over (x, y)."""
    _, grads, _ = model.loss_and_grads(x, y)
    return {e.name: np.abs(grads[e.name] * e.tensor.data) for e in model.registry.prunable()}


def score_grasp(model, mask, x, y):
    """Gradient-flow saliency -w * (H g) of the mean loss over (x, y).

    Smaller is better for keeping: callers selecting with a keep-largest rule
    must negate. The direction vector is the loss gradient restricted to the
    active mask support (pruned coordinates are frozen, so perturbing them
    would leak signal through dead connections).
    """
    _, grads, _ = model.loss_and_grads(x, y)
    params = [e.tensor for e in model.registry]
    v = [
        grads[e.name] * mask.arrays[e.name] if e.prunable else grads[e.name]
        for e in model.registry
    ]

    def loss_fn(tape):
        return model.loss_on_tape(x, y, tape)

    hv = T.hvp_fd(loss_fn, params, v)
    scores = {}
    for e, h in zip(model.registry, hv):
        if e.prunable:
            s = -(e.tensor.data * h)
            if not np.all(np.isfinite(s)):
                raise NumericError(f"non-finite GraSP scores for {e.name!r}")
            scores[e.name] = s
    return scores


def score_magnitude(model):
    """|weight|."""
    return {e.name: np.abs(e.tensor.data) for e in model.registry.prunable()}


def score_random(mask, seed):
    """Seeded i.i.d. uniform(0,1) scores, one per mask position."""
    keys = seed if isinstance(seed, (tuple, list)) else (seed,)
    g = rng_from(STREAM_SCORE, *keys)
    return {name: g.random(m.shape) for name, m in mask.arrays.items()}


def selection_scores(pruner, model, mask, x=None, y=None, seed=None):
    """Scores oriented so that prune_global's keep-largest rule applies."""
    if pruner in ("snip", "grasp") and x.shape[0] == 0:
        raise DataError("scoring set is empty")
    if pruner == "snip":
        return score_snip(model, x, y)
    if pruner == "grasp":
        return {name: -s for name, s in score_grasp(model, mask, x, y).items()}
    if pruner == "magnitude":
        return score_magnitude(model)
    if pruner == "random":
        return score_random(mask, seed)
    raise ParameterError(f"unknown pruner {pruner!r}")


def prune_global(mask, scores, keep):
    """Refine ``mask`` to exactly ``keep`` kept positions, ranked globally.

    Keeps the highest-scoring currently-kept positions across all prunable
    tensors jointly; equal scores keep the smaller global flat index. Scores
    at positions ``mask`` already prunes are ignored, so nothing re-enters.
    """
    if keep < 1:
        raise ParameterError(f"keep must be >= 1, got {keep}")
    if keep > mask.kept_count:
        raise RefinementError(
            f"cannot keep {keep} positions: only {mask.kept_count} currently kept"
        )
    names = list(mask.arrays)
    missing = [n for n in names if n not in scores]
    if missing:
        raise ShapeError(f"scores missing for {missing}")
    # negated scores in global flat order: kept positions sort by score and
    # all pruned ones (+inf) after them
    neg = np.empty(sum(a.size for a in mask.arrays.values()))
    offset = 0
    for name in names:
        m = mask.arrays[name]
        s = np.asarray(scores[name], dtype=np.float64)
        if s.shape != m.shape:
            raise ShapeError(f"score shape {s.shape} != mask shape {m.shape} for {name!r}")
        part = neg[offset : offset + m.size]
        np.negative(s.ravel(), out=part)
        np.minimum(part, np.finfo(np.float64).max, out=part)  # kept -inf: before pruned ones
        part[m.ravel() == 0.0] = np.inf
        if np.isnan(part).any():
            raise NumericError(f"NaN score at a kept position of {name!r}")
        offset += m.size
    order = np.argsort(neg, kind="stable")
    new_flat = np.zeros(neg.shape[0])
    new_flat[order[:keep]] = 1.0

    arrays = {}
    offset = 0
    for name in names:
        a = mask.arrays[name]
        arrays[name] = new_flat[offset : offset + a.size].reshape(a.shape)
        offset += a.size
    return SparsityMask(arrays)


def apply_mask(model, mask):
    """Zero every masked weight in place; idempotent."""
    for name, m in mask.arrays.items():
        p = model.registry[name].tensor
        if m.shape != p.shape:
            raise ShapeError(f"mask shape {m.shape} != param shape {p.shape} for {name!r}")
        p.data *= m


def layer_pruned_fraction(mask, registry):
    """Per prunable tensor (name, fraction pruned), plus a global row."""
    rows = []
    kept_total = 0
    size_total = 0
    for e in registry.prunable():
        m = mask.arrays[e.name]
        kept = int(m.sum())
        rows.append((e.name, 1.0 - kept / m.size))
        kept_total += kept
        size_total += m.size
    rows.append(("global", (1.0 - kept_total / size_total) if size_total else 0.0))
    return rows
