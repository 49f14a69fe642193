"""Megabatch streams: equal-size partitions with train/val splits and replay views."""

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
    train_idx: np.ndarray
    val_idx: np.ndarray

    @property
    def size(self):
        return self.train_idx.size + self.val_idx.size


@dataclass
class MegabatchStream:
    """An ordered, pairwise-disjoint partition of the training pool."""

    dataset: object
    megabatches: list

    def __len__(self):
        return len(self.megabatches)


@dataclass
class TrainView:
    """One megabatch's training view: dataset plus train/validation indices."""

    dataset: object
    train_idx: np.ndarray
    val_idx: np.ndarray

    def train_xy(self, order):
        return self.dataset.x[order], self.dataset.y[order]

    def val_xy(self):
        return self.dataset.x[self.val_idx], self.dataset.y[self.val_idx]


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
    val_n = round_half_up(val_frac * per_mb)
    train_n = per_mb - val_n
    if train_n < 1 or val_n < 1:
        raise PartitionError(
            f"megabatch size {per_mb} with val_frac {val_frac} leaves an empty split"
        )
    megabatches = []
    for t in range(num_megabatches):
        chunk = perm[t * per_mb : (t + 1) * per_mb]
        megabatches.append(Megabatch(train_idx=chunk[:train_n], val_idx=chunk[train_n:]))
    return MegabatchStream(dataset=dataset, megabatches=megabatches)


def replay_view(stream, t, replay="full"):
    """Training view at megabatch ``t`` (1-based): union so far, or just M_t."""
    if not 1 <= t <= len(stream):
        raise IndexError(f"megabatch index {t} outside 1..{len(stream)}")
    if replay == "full":
        mbs = stream.megabatches[:t]
        return TrainView(
            dataset=stream.dataset,
            train_idx=np.concatenate([m.train_idx for m in mbs]),
            val_idx=np.concatenate([m.val_idx for m in mbs]),
        )
    if replay == "none":
        m = stream.megabatches[t - 1]
        return TrainView(
            dataset=stream.dataset,
            train_idx=m.train_idx.copy(),
            val_idx=m.val_idx.copy(),
        )
    raise ParameterError(f"unknown replay mode {replay!r}")


def draw_pi(view, fraction=0.2, seed=0):
    """Seeded uniform subset of the view's train split, without replacement."""
    if not 0.0 < fraction <= 1.0:
        raise ParameterError(f"fraction must be in (0, 1], got {fraction}")
    n = view.train_idx.size
    if n == 0:
        raise DataError("cannot draw a scoring subset from an empty view")
    size = round_half_up(fraction * n)
    keys = seed if isinstance(seed, (tuple, list)) else (seed,)
    perm = rng_from(STREAM_PI, *keys).permutation(view.train_idx)
    return perm[:size]
