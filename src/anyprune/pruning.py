"""Saliency scoring and progressive global pruning.

Masks are per-prunable-tensor 0/1 arrays keyed by registry name. Pruning only
ever refines an existing mask: positions scored ``-inf`` (already pruned) can
never re-enter, and :func:`prune_global` keeps exactly the requested number of
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

    @property
    def total(self):
        return sum(a.size for a in self.arrays.values())

    def copy(self):
        return SparsityMask({name: a.copy() for name, a in self.arrays.items()})

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


def _accumulated_mean_grads(model, x, y, batch_size=None):
    """Gradient of the mean loss over all of (x, y), accumulated in chunks."""
    n = x.shape[0]
    if n == 0:
        raise DataError("scoring set is empty")
    bs = n if batch_size is None else int(batch_size)
    acc = None
    for start in range(0, n, bs):
        xb, yb = x[start : start + bs], y[start : start + bs]
        _, grads = model.loss_and_grads(xb, yb)
        w = xb.shape[0]
        if acc is None:
            acc = {name: g * w for name, g in grads.items()}
        else:
            for name, g in grads.items():
                acc[name] += g * w
    return {name: g / n for name, g in acc.items()}


def score_snip(model, mask, x, y, batch_size=None):
    """Connection sensitivity |grad * weight|; pruned positions score -inf."""
    grads = _accumulated_mean_grads(model, x, y, batch_size)
    scores = {}
    for e in model.registry.prunable():
        s = np.abs(grads[e.name] * e.tensor.data)
        s[mask.arrays[e.name] == 0.0] = -np.inf
        scores[e.name] = s
    return scores


def score_grasp(model, mask, x, y, batch_size=None):
    """Gradient-flow saliency -w * (H g); pruned positions score +inf.

    Smaller is better for keeping: callers selecting with a keep-largest rule
    must negate. The direction vector is the accumulated loss gradient
    restricted to the active mask support (pruned coordinates are frozen, so
    perturbing them would leak signal through dead connections).
    """
    grads = _accumulated_mean_grads(model, x, y, batch_size)
    params = [e.tensor for e in model.registry]
    v = []
    for e in model.registry:
        g = grads[e.name]
        if e.prunable:
            g = g * mask.arrays[e.name]
        v.append(g)

    def loss_fn(tape):
        return model.loss_on_tape(x, y, tape)

    hv = T.hvp_fd(loss_fn, params, v)
    hv_by_name = {e.name: h for e, h in zip(model.registry, hv)}
    scores = {}
    for e in model.registry.prunable():
        s = -(e.tensor.data * hv_by_name[e.name])
        if not np.all(np.isfinite(s)):
            raise NumericError(f"non-finite GraSP scores for {e.name!r}")
        s[mask.arrays[e.name] == 0.0] = np.inf
        scores[e.name] = s
    return scores


def score_magnitude(model, mask):
    """|weight|; pruned positions score -inf."""
    scores = {}
    for e in model.registry.prunable():
        s = np.abs(e.tensor.data)
        s[mask.arrays[e.name] == 0.0] = -np.inf
        scores[e.name] = s
    return scores


def score_random(mask, seed):
    """Seeded i.i.d. uniform(0,1) scores; pruned positions score -inf."""
    keys = seed if isinstance(seed, (tuple, list)) else (seed,)
    g = rng_from(STREAM_SCORE, *keys)
    scores = {}
    for name, m in mask.arrays.items():
        s = g.random(m.shape)
        s[m == 0.0] = -np.inf
        scores[name] = s
    return scores


def selection_scores(pruner, model, mask, x=None, y=None, seed=None, batch_size=None):
    """Scores oriented so that prune_global's keep-largest rule applies."""
    if pruner == "snip":
        return score_snip(model, mask, x, y, batch_size)
    if pruner == "grasp":
        return {name: -s for name, s in score_grasp(model, mask, x, y, batch_size=batch_size).items()}
    if pruner == "magnitude":
        return score_magnitude(model, mask)
    if pruner == "random":
        return score_random(mask, seed)
    raise ParameterError(f"unknown pruner {pruner!r}")


def prune_global(mask, scores, keep):
    """Refine ``mask`` to exactly ``keep`` kept positions, ranked globally.

    Keeps the highest-scoring currently-kept positions across all prunable
    tensors jointly; equal scores keep the smaller global flat index.
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
    flats = []
    for name in names:
        s = np.asarray(scores[name], dtype=np.float64)
        if s.shape != mask.arrays[name].shape:
            raise ShapeError(
                f"score shape {s.shape} != mask shape {mask.arrays[name].shape} for {name!r}"
            )
        flats.append(s.ravel())
    allscores = np.concatenate(flats) if flats else np.zeros(0)
    if np.any(np.isnan(allscores)):
        raise NumericError("scores contain NaN")
    order = np.argsort(-allscores, kind="stable")
    selected = order[:keep]
    new_flat = np.zeros(allscores.shape[0])
    new_flat[selected] = 1.0

    arrays = {}
    offset = 0
    for name in names:
        a = mask.arrays[name]
        part = new_flat[offset : offset + a.size].reshape(a.shape)
        if np.any((part == 1.0) & (a == 0.0)):
            raise RefinementError(f"selection re-entered pruned positions in {name!r}")
        arrays[name] = part
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
