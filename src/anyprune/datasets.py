"""Dataset ingestion and synthetic generators.

A :class:`Dataset` bundles a training pool with a held-out test set and counts
its own classes; features are [N, d] float64, or an IDX file's uint8 pixels
scaled as :meth:`Dataset.rows` fetches them, with the image shape kept for
convolutional models. Sources: IDX binary files (big-endian, ubyte), CSV with a
header, and one seeded synthetic family (Gaussian blobs). A small digit-glyph
generator exists for producing self-contained IDX fixtures.
"""

import csv
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FormatError
from .rng import (
    STREAM_BLOBS,
    STREAM_CENTERS,
    STREAM_DIGITS,
    STREAM_TEST_SPLIT,
    rng_from,
    round_half_up,
)

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Splits of float64 features or IDX uint8 pixels, read via :meth:`rows`; ``class_count`` is
    the largest label in either split plus one."""

    x: np.ndarray
    y: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    input_shape: tuple
    class_count: int = field(init=False)

    def __post_init__(self):
        labels = [y for y in (self.y, self.y_test) if y.size]
        if any(y.min() < 0 for y in labels):
            raise DataError("labels must be >= 0")
        self.class_count = max((int(y.max()) + 1 for y in labels), default=0)

    def rows(self, idx, test=False):
        """Float64 rows ``idx`` of the training (or test) split; uint8 pixels come back /255."""
        x = (self.x_test if test else self.x)[idx]
        # each quotient is correctly rounded: the bits of scaling the whole file at load
        return x / 255.0 if x.dtype == np.uint8 else x


# ---------------------------------------------------------------------------
# synthetic generators


def blob_centers(class_count, dim):
    """Class centers on the radius-3 sphere, fixed by (class_count, dim) only."""
    g = rng_from(STREAM_CENTERS, class_count, dim)
    raw = g.standard_normal((class_count, dim))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return 3.0 * raw / norms


def _draw_classes(stream, seed, class_count, per_class, draw):
    """Stacked rows and int64 labels; class c's rows come from its own ``rng_from(stream, seed, c)``."""
    x = np.concatenate([draw(rng_from(stream, seed, c), c, per_class) for c in range(class_count)])
    return x, np.repeat(np.arange(class_count, dtype=np.int64), per_class)


def gen_blobs(class_count, per_class, dim, noise_sigma, seed, test_per_class):
    """Isotropic Gaussian blobs around fixed per-class centers."""
    if class_count < 2:
        raise DataError(f"need at least 2 classes, got {class_count}")
    if per_class < 1:
        raise DataError(f"per_class must be >= 1, got {per_class}")
    centers = blob_centers(class_count, dim)

    def draw(g, c, n):
        return centers[c] + noise_sigma * g.standard_normal((n, dim))

    x, y = _draw_classes(STREAM_BLOBS, seed, class_count, per_class, draw)
    xt, yt = _draw_classes(STREAM_BLOBS, seed + 1, class_count, test_per_class, draw)
    return Dataset(x, y, xt, yt, (dim,))


# 5x7 glyph rows for digits 0-9; '#' marks an on pixel.
_GLYPHS = [
    ["#####", "#...#", "#...#", "#...#", "#...#", "#...#", "#####"],
    ["..#..", ".##..", "..#..", "..#..", "..#..", "..#..", ".###."],
    ["#####", "....#", "....#", "#####", "#....", "#....", "#####"],
    ["#####", "....#", "....#", ".####", "....#", "....#", "#####"],
    ["#...#", "#...#", "#...#", "#####", "....#", "....#", "....#"],
    ["#####", "#....", "#....", "#####", "....#", "....#", "#####"],
    ["#####", "#....", "#....", "#####", "#...#", "#...#", "#####"],
    ["#####", "....#", "...#.", "..#..", "..#..", ".#...", ".#..."],
    ["#####", "#...#", "#...#", "#####", "#...#", "#...#", "#####"],
    ["#####", "#...#", "#...#", "#####", "....#", "....#", "#####"],
]

_DIGIT_NOISE = 0.08  # amplitude of the uniform noise added to every pixel
_DIGIT_SHIFT = 2  # largest shift of a glyph along each axis, in pixels


def gen_digits(per_class, seed, side=14, label_noise=0.0):
    """Noisy shifted renderings of ten digit glyphs as [N, side*side] in [0, 1].

    ``label_noise`` resamples that fraction of labels uniformly at random; the
    resulting memorizable-but-not-generalizable samples give desk-scale runs a
    real train/validation gap.
    """
    base = np.zeros((10, side, side))
    scale_r = max(1, (side - 2 * _DIGIT_SHIFT) // 7)
    scale_c = max(1, (side - 2 * _DIGIT_SHIFT) // 5)
    for d, rows in enumerate(_GLYPHS):
        glyph = np.array([[1.0 if ch == "#" else 0.0 for ch in row] for row in rows])
        up = np.kron(glyph, np.ones((scale_r, scale_c)))
        r0 = (side - up.shape[0]) // 2
        c0 = (side - up.shape[1]) // 2
        base[d, r0 : r0 + up.shape[0], c0 : c0 + up.shape[1]] = up

    def draw(g, d, n):
        x = np.empty((n, side * side))
        for row in x:
            dr, dc = g.integers(-_DIGIT_SHIFT, _DIGIT_SHIFT + 1, size=2)
            img = np.roll(np.roll(base[d], dr, axis=0), dc, axis=1)
            img = img * g.uniform(0.7, 1.0) + _DIGIT_NOISE * g.random((side, side))
            row[:] = np.clip(img, 0.0, 1.0).ravel()
        return x

    x, y = _draw_classes(STREAM_DIGITS, seed, 10, per_class, draw)
    if label_noise > 0.0:
        g = rng_from(STREAM_DIGITS, seed, 9999)
        flips = g.random(y.size) < label_noise
        y[flips] = g.integers(0, 10, int(flips.sum()))
    return x, y, (1, side, side)


# ---------------------------------------------------------------------------
# IDX binary format


def _read_exact(f, n, path):
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"{path}: truncated file")
    return buf


def _read_body(f, declared, path):
    """The rest of ``f``, once the file holds exactly the ``declared`` bytes of its header."""
    size = os.fstat(f.fileno()).st_size
    if size != declared:
        raise FormatError(f"{path}: header declares {declared} bytes, file holds {size}")
    return f.read()


def load_idx(images_path, labels_path):
    """Load an IDX image/label file pair: [N, rows*cols] uint8 pixels, int64 labels, shape."""
    with open(images_path, "rb") as f:
        magic, count, rows, cols = struct.unpack(">iiii", _read_exact(f, 16, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"{images_path}: bad images magic 0x{magic:08x}")
        if count < 0 or rows < 1 or cols < 1:
            raise FormatError(f"{images_path}: invalid dimensions {count}x{rows}x{cols}")
        raw = _read_body(f, 16 + count * rows * cols, images_path)
    with open(labels_path, "rb") as f:
        magic, lcount = struct.unpack(">ii", _read_exact(f, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"{labels_path}: bad labels magic 0x{magic:08x}")
        lraw = _read_body(f, 8 + lcount, labels_path)
    if count != lcount:
        raise FormatError(f"image count {count} != label count {lcount}")
    if count == 0:
        raise DataError(f"{images_path}: holds no images")
    x = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    y = np.frombuffer(lraw, dtype=np.uint8).astype(np.int64)
    return x, y, (1, rows, cols)


def write_idx(x, y, images_path, labels_path, input_shape):
    """Write features in [0, 1] and integer labels in [0, 255] as an IDX pair.

    Anything else would wrap or not load, so it raises DataError before a file is opened.
    """
    rows, cols = input_shape[-2], input_shape[-1]
    x, y = np.asarray(x), np.asarray(y)
    n = x.shape[0]
    if y.shape != (n,):
        raise DataError(f"{n} images but labels of shape {y.shape}")
    if x.size != n * rows * cols:
        raise DataError(f"images of {x.size // n} values, but {rows}x{cols} images hold {rows * cols}")
    bad = np.flatnonzero(~((x >= 0.0) & (x <= 1.0)))
    if bad.size:
        raise DataError(f"pixel {x.flat[bad[0]]} at flat index {bad[0]} is outside [0, 1]")
    bad = np.flatnonzero(~((y >= 0) & (y <= 255) & (y == np.round(y))))
    if bad.size:
        raise DataError(f"label {y[bad[0]]} at index {bad[0]} is not an integer in [0, 255]")
    pixels = np.round(x.reshape(n, rows, cols) * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">iiii", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">ii", IDX_LABELS_MAGIC, n))
        f.write(np.asarray(y, dtype=np.uint8).tobytes())


# ---------------------------------------------------------------------------
# CSV


def load_csv(path, label_column):
    """Finite numeric-feature CSV with a header row and an integer label column."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        if label_column not in header:
            raise FormatError(f"{path}: no column named {label_column!r}")
        label_i = header.index(label_column)
        feats, labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise FormatError(f"{path}:{line_no}: expected {len(header)} fields")
            try:
                cells = [float(v) for v in row]
            except ValueError as exc:
                raise FormatError(f"{path}:{line_no}: non-numeric cell ({exc})") from None
            for name, cell, v in zip(header, row, cells):
                if not math.isfinite(v):
                    raise FormatError(f"{path}:{line_no}: {name} cell {cell!r} is not finite")
            label = cells.pop(label_i)
            if not label.is_integer():
                raise FormatError(f"{path}:{line_no}: label {row[label_i]!r} is not an integer")
            feats.append(cells)
            labels.append(int(label))
    if not feats:
        raise FormatError(f"{path}: no data rows")
    return np.asarray(feats), np.asarray(labels, dtype=np.int64)


def split_test(x, y, test_fraction, seed):
    """Seeded disjoint train/test split by fraction; half a test row rounds up."""
    n = x.shape[0]
    n_test = round_half_up(test_fraction * n)
    if n_test < 1 or n_test >= n:
        raise DataError(f"test fraction {test_fraction} leaves an empty split for n={n}")
    perm = rng_from(STREAM_TEST_SPLIT, seed).permutation(n)
    test_i, train_i = perm[:n_test], perm[n_test:]
    return x[train_i], y[train_i], x[test_i], y[test_i]
