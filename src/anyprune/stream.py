"""Megabatch streams: equal-size partitions with train/val splits and replay views.

``build_stream`` returns the stream as a list of ``Megabatch(train_idx,
val_idx)``. ``replay_view`` returns one ``Megabatch``: under ``"full"`` a new
one that joins the first t megabatches, under ``"none"`` the stream's own,
read-only t-th megabatch.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, PartitionError
from .rng import (
    STREAM_CAP,
    STREAM_PARTITION,
    STREAM_PI,
    rng_from,
    round_half_up,
)


@dataclass
class Megabatch:
    """Train and validation indices into the dataset's training pool."""

    train_idx: np.ndarray
    val_idx: np.ndarray


def build_stream(dataset, num_megabatches, val_frac=0.1, per_class_cap=None, seed=0):
    """Shuffle, optionally cap per class, and cut into equal megabatches.

    Any remainder after the equal split is dropped. Each megabatch is split
    into a train part of (1 - val_frac) and a validation part of val_frac.
    """
    if num_megabatches < 1:
        raise ParameterError(f"num_megabatches must be >= 1, got {num_megabatches}")
    if not 0.0 < val_frac < 1.0:
        raise ParameterError(f"val_frac must be in (0, 1), got {val_frac}")
    y = dataset.y
    pool = np.arange(y.shape[0])
    if per_class_cap is not None:
        if per_class_cap < 1:
            raise ParameterError(f"per_class_cap must be >= 1, got {per_class_cap}")
        parts = []
        for c in range(dataset.class_count):
            members = np.flatnonzero(y == c)
            if members.size < per_class_cap:
                raise DataError(
                    f"class {c} has {members.size} samples, fewer than cap {per_class_cap}"
                )
            pick = rng_from(STREAM_CAP, seed, c).permutation(members)[:per_class_cap]
            parts.append(pick)
        pool = np.concatenate(parts)
    per_mb = pool.size // num_megabatches
    if per_mb < 1:
        raise PartitionError(
            f"cannot split {pool.size} samples into {num_megabatches} megabatches"
        )
    perm = rng_from(STREAM_PARTITION, seed).permutation(pool)
    perm.flags.writeable = False  # every megabatch is a view of it
    val_n = round_half_up(val_frac * per_mb)
    train_n = per_mb - val_n
    if train_n < 1 or val_n < 1:
        raise PartitionError(
            f"megabatch size {per_mb} with val_frac {val_frac} leaves an empty split"
        )
    chunks = perm[: num_megabatches * per_mb].reshape(num_megabatches, per_mb)
    return [Megabatch(train_idx=c[:train_n], val_idx=c[train_n:]) for c in chunks]


def replay_view(stream, t, replay="full"):
    """Training view at megabatch ``t`` (1-based): union so far, or just M_t.

    Under ``"none"`` the view is the stream's own megabatch, not a copy.
    """
    if not 1 <= t <= len(stream):
        raise IndexError(f"megabatch index {t} outside 1..{len(stream)}")
    if replay == "full":
        return Megabatch(
            train_idx=np.concatenate([m.train_idx for m in stream[:t]]),
            val_idx=np.concatenate([m.val_idx for m in stream[:t]]),
        )
    if replay == "none":
        return stream[t - 1]
    raise ParameterError(f"unknown replay mode {replay!r}")


def draw_pi(view, fraction, seed):
    """Seeded uniform subset of the view's train split, without replacement.

    ``seed`` is a tuple of integers, the derived key of the draw.
    """
    if not 0.0 < fraction <= 1.0:
        raise ParameterError(f"fraction must be in (0, 1], got {fraction}")
    n = view.train_idx.size
    if n == 0:
        raise DataError("cannot draw a scoring subset from an empty view")
    size = round_half_up(fraction * n)
    perm = rng_from(STREAM_PI, *seed).permutation(view.train_idx)
    return perm[:size]
