"""Config parsing, dataset ingestion, serialization, and the CLI surface."""

import dataclasses
import json
import multiprocessing
import os
import pathlib
import re
import shutil
import struct
import subprocess
import sys
import time
import warnings
import xml.dom.minidom

import numpy as np
import pytest

import anyprune
from anyprune import kernels
from anyprune.cli import main
from anyprune.config import RunConfig, config_hash, parse_config, resolved_text
from anyprune.datasets import (
    Dataset,
    blob_centers,
    gen_blobs,
    gen_digits,
    load_csv,
    load_idx,
    split_test,
    write_idx,
)
from anyprune.errors import (
    AnypruneError,
    ConfigError,
    DataError,
    FormatError,
    ModelSpecError,
    NumericError,
)
from anyprune.harness import dataset_for_config, run
from anyprune.metrics import summarize
from anyprune.models import ModelSpec, build_model
from anyprune.optim import OptimState, sgd_momentum_step
from anyprune.pruning import SparsityMask
from anyprune.reporting import (
    CURVES_COLUMNS,
    RUN_ARTIFACTS,
    write_run_dir,
    write_summary_json,
)
from anyprune.rng import STREAM_BLOBS, rng_from

MINIMAL = """
variant = app_default
pruner = snip
tau = 4.5
megabatches = 8
dataset = synthetic_blobs
"""


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.replay == "full"
        assert cfg.epochs == 30
        assert cfg.warmup_epochs == 20
        assert cfg.lr0 == 0.1 and cfg.lr_gamma == 0.1 and cfg.post_m1_lr == 0.001
        assert cfg.momentum == 0.9 and cfg.weight_decay == 0.0
        assert cfg.minibatch == 32 and cfg.pi_fraction == 0.2 and cfg.val_fraction == 0.1
        assert cfg.mlp_hidden == (256, 128)
        assert cfg.blob_classes == 5 and cfg.test_per_class == 40
        assert cfg.seed == cfg.seed_partition == cfg.seed_init == 0

    def test_no_replay_combinations_accepted(self):
        cfg = parse_config(MINIMAL + "replay = none\n")
        assert cfg.replay == "none"
        cfg = parse_config(
            "variant = app_noreplay_snip\ntau = 2\nmegabatches = 2\n"
            "dataset = synthetic_blobs\nreplay = none\n"
        )
        assert cfg.variant == "app_noreplay_snip" and cfg.pruner == "snip"

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("app_default", "app_sometimes"))

    def test_tau_below_one_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("4.5", "0.5"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "fancy_option = 3\n")
        assert "fancy_option" in str(err.value)

    def test_inapplicable_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("variant = baseline\nmegabatches = 2\ndataset = synthetic_blobs\ntau = 2\n")
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "csv_path = data.csv\n")

    @pytest.mark.parametrize(
        "text, key, steering",
        [
            ("variant = baseline\ntau = 2\nmodel = mlp\ndataset = synthetic_blobs\n",
             "tau", "variant='baseline'"),
            (MINIMAL + "conv_kernel = 3\n", "conv_kernel", "variant='app_default', model='mlp'"),
            ("variant = baseline\nmegabatches = 2\ndataset = idx\nblob_noise = 0.1\n" + "".join(
                f"idx_{k} = {k}.idx\n"
                for k in ("train_images", "train_labels", "test_images", "test_labels")
            ), "blob_noise", "variant='baseline', model='mlp', dataset='idx'"),
        ],
        ids=["tau", "conv_kernel", "blob_noise"],
    )
    def test_inapplicable_key_names_only_resolved_steering_keys(self, text, key, steering):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value) == f"{key}: not applicable for {steering}"
        assert "None" not in str(err.value)

    def test_missing_required_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("variant = app_default\npruner = snip\ntau = 2\ndataset = synthetic_blobs\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "tau = 4.5\n")

    def test_noreplay_snip_pins_pruner(self):
        with pytest.raises(ConfigError):
            parse_config(
                "variant = app_noreplay_snip\npruner = magnitude\ntau = 2\n"
                "megabatches = 2\ndataset = synthetic_blobs\n"
            )

    def test_echo_round_trips(self):
        cfg = parse_config(MINIMAL + "epochs = 7\nseed = 5\nseed_pruning = 9\n")
        again = parse_config(resolved_text(cfg))
        assert again == cfg
        assert config_hash(again) == config_hash(cfg)

    def test_numpy_float_echoes_as_its_number(self):
        text = (pathlib.Path(__file__).parents[1] / "configs" / "app_blobs.cfg").read_text()
        cfg = parse_config(text)
        echo = resolved_text(dataclasses.replace(cfg, lr0=np.float64(0.05)))
        assert "lr0 = 0.05" in echo.splitlines()
        assert parse_config(echo) == dataclasses.replace(cfg, lr0=0.05)

    def test_colon_separator_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
            parse_config("variant = baseline\nmegabatches: 2\ndataset = synthetic_blobs\n")

    def test_seed_override_preserves_explicit_subseeds(self):
        cfg = parse_config(MINIMAL + "seed_pruning = 9\n", seed_override=4)
        assert cfg.seed == 4
        assert cfg.seed_partition == 4
        assert cfg.seed_pruning == 9

    @pytest.mark.parametrize(
        "key", ["seed", "seed_partition", "seed_init", "seed_pruning", "seed_shuffle"]
    )
    def test_negative_seed_rejected_naming_the_key(self, key):
        with pytest.raises(ConfigError, match=f"^{key}: must be >= 0, got -3$"):
            parse_config(MINIMAL + f"{key} = -3\n")

    def test_file_source(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text(MINIMAL)
        assert parse_config(p).tau == 4.5
        assert parse_config(str(p)).tau == 4.5

    def test_path_with_equals_sign_is_a_path(self, tmp_path):
        p = tmp_path / "a=b.cfg"
        p.write_text(MINIMAL)
        assert parse_config(str(p)).tau == 4.5
        with pytest.raises(ConfigError, match="cannot read config"):
            parse_config(str(tmp_path / "x=y.cfg"))


CSV = (
    "variant = baseline\nmegabatches = 2\ndataset = csv\n"
    "csv_path = data.csv\ncsv_label_column = label\n"
)
CONVNET = MINIMAL + "model = convnet\n"
# a config written for the deleted synthetic-spirals source fails naming the key
REMOVED_SPIRALS = [
    (MINIMAL.replace("synthetic_blobs", "synthetic_spirals"), "dataset"),
    (MINIMAL + "spiral_classes = 3\n", "spiral_classes"),
    (MINIMAL + "spiral_per_class = 200\n", "spiral_per_class"),
    (MINIMAL + "spiral_noise = 0.1\n", "spiral_noise"),
]


@pytest.mark.parametrize("text, key", [
    (MINIMAL.replace("app_default", "app_sometimes"), "variant"),
    (MINIMAL + "replay = sometimes\n", "replay"),
    (MINIMAL + "lr_mode = linear\n", "lr_mode"),
    (MINIMAL + "model = resnet\n", "model"),
    (MINIMAL.replace("synthetic_blobs", "imagenet"), "dataset"),
    (MINIMAL.replace("pruner = snip", "pruner = optimal"), "pruner"),
    (MINIMAL.replace("4.5", "0.5"), "tau"),
    (MINIMAL + "pi_fraction = 0\n", "pi_fraction"),
    (
        "variant = app_noreplay_snip\npruner = magnitude\ntau = 2\n"
        "megabatches = 2\ndataset = synthetic_blobs\n",
        "pruner",
    ),
    (MINIMAL.replace("megabatches = 8", "megabatches = 0"), "megabatches"),
    (MINIMAL + "epochs = 0\n", "epochs"),
    (MINIMAL + "warmup_epochs = 0\n", "warmup_epochs"),
    (MINIMAL + "minibatch = 0\n", "minibatch"),
    (MINIMAL + "val_fraction = 1.0\n", "val_fraction"),
    (MINIMAL + "lr0 = 0\n", "lr0"),
    (MINIMAL + "lr_gamma = 0\n", "lr_gamma"),
    (MINIMAL + "post_m1_lr = 0\n", "post_m1_lr"),
    (MINIMAL + "momentum = 1.0\n", "momentum"),
    (MINIMAL + "weight_decay = -0.1\n", "weight_decay"),
    (MINIMAL + "mlp_hidden = 8,0\n", "mlp_hidden"),
    (CONVNET + "conv_channels = 4,0\n", "conv_channels"),
    (CONVNET + "conv_channels =\n", "conv_channels"),
    (CONVNET + "head_hidden = 0\n", "head_hidden"),
    (CONVNET + "conv_kernel = 0\n", "conv_kernel"),
    (CONVNET + "conv_stride = 0\n", "conv_stride"),
    (CONVNET + "conv_padding = -1\n", "conv_padding"),
    (MINIMAL + "per_class_cap = 0\n", "per_class_cap"),
    (CSV + "test_fraction = 1.0\n", "test_fraction"),
    (MINIMAL + "blob_classes = 1\n", "blob_classes"),
    (MINIMAL + "blob_per_class = 0\n", "blob_per_class"),
    (MINIMAL + "blob_dim = 0\n", "blob_dim"),
    (MINIMAL + "blob_noise = -1\n", "blob_noise"),
    *REMOVED_SPIRALS,
    (MINIMAL + "test_per_class = 0\n", "test_per_class"),
])
def test_out_of_range_value_rejected_naming_its_key(text, key):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.field == key


# every float key, with a config in which it applies
FLOAT_KEYS = {
    "tau": MINIMAL.replace("tau = 4.5\n", ""),
    **dict.fromkeys(
        ("lr0", "lr_gamma", "post_m1_lr", "momentum", "weight_decay", "pi_fraction",
         "val_fraction", "blob_noise"),
        MINIMAL,
    ),
    "test_fraction": CSV,
}


def test_every_float_key_is_checked_for_finiteness():
    declared = {f.name for f in dataclasses.fields(RunConfig) if f.type in (float, float | None)}
    assert set(FLOAT_KEYS) == declared


@pytest.mark.parametrize("spelling", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_non_finite_number_rejected_naming_its_key(key, spelling):
    with pytest.raises(ConfigError, match=f"^{key}: expected a finite number, got '{spelling}'$"):
        parse_config(FLOAT_KEYS[key] + f"{key} = {spelling}\n")


@pytest.mark.parametrize("text, key", [
    ("variant = bogus\ntau = 2\nmegabatches = 2\ndataset = synthetic_blobs\n", "variant"),
    (MINIMAL + "model = resnet\nconv_kernel = 3\n", "model"),
    (MINIMAL.replace("synthetic_blobs", "imagenet") + "blob_noise = 1\n", "dataset"),
], ids=["variant", "model", "dataset"])
def test_bad_steering_key_reported_before_the_keys_it_steers(text, key):
    with pytest.raises(ConfigError, match=f"^{key}: must be one of ") as err:
        parse_config(text)
    assert err.value.field == key


# image counts and sizes far larger than the 16-byte files that claim them
OVERSIZED_IDX_HEADERS = [(2**30, 2**16, 2**16), (2**31 - 1,) * 3]


class TestIdx:
    def test_hand_crafted_pair(self, tmp_path):
        images = tmp_path / "imgs.idx"
        labels = tmp_path / "lbls.idx"
        pixels = bytes([0, 64, 128, 255, 10, 20, 30, 40])
        images.write_bytes(struct.pack(">iiii", 0x00000803, 2, 2, 2) + pixels)
        labels.write_bytes(struct.pack(">ii", 0x00000801, 2) + bytes([3, 7]))
        x, y, shape = load_idx(images, labels)
        assert shape == (1, 2, 2)
        assert x.shape == (2, 4)
        assert x.dtype == np.uint8  # the file's bytes, unscaled
        np.testing.assert_array_equal(x[0], [0, 64, 128, 255])
        scaled = Dataset(x, y, x, y, shape).rows([0])
        assert scaled[0, 3] == 1.0  # byte 255 scales to exactly 1.0
        np.testing.assert_allclose(scaled[0], np.array([0, 64, 128, 255]) / 255.0)
        np.testing.assert_array_equal(y, [3, 7])

    def test_wrong_magic_rejected(self, tmp_path):
        images = tmp_path / "imgs.idx"
        labels = tmp_path / "lbls.idx"
        images.write_bytes(struct.pack(">iiii", 0x00000803, 1, 1, 1) + b"\x00")
        labels.write_bytes(struct.pack(">ii", 0x00000803, 1) + b"\x00")
        with pytest.raises(FormatError):
            load_idx(images, labels)

    def test_truncated_rejected(self, tmp_path):
        images = tmp_path / "imgs.idx"
        labels = tmp_path / "lbls.idx"
        images.write_bytes(struct.pack(">iiii", 0x00000803, 2, 2, 2) + b"\x00" * 5)
        labels.write_bytes(struct.pack(">ii", 0x00000801, 2) + b"\x00\x00")
        with pytest.raises(FormatError):
            load_idx(images, labels)

    def test_count_mismatch_rejected(self, tmp_path):
        images = tmp_path / "imgs.idx"
        labels = tmp_path / "lbls.idx"
        images.write_bytes(struct.pack(">iiii", 0x00000803, 1, 1, 1) + b"\x00")
        labels.write_bytes(struct.pack(">ii", 0x00000801, 2) + b"\x00\x00")
        with pytest.raises(FormatError):
            load_idx(images, labels)

    @pytest.mark.parametrize("count, rows, cols", OVERSIZED_IDX_HEADERS)
    def test_oversized_header_rejected_before_reading(self, tmp_path, count, rows, cols):
        images = tmp_path / "imgs.idx"
        labels = tmp_path / "lbls.idx"
        images.write_bytes(struct.pack(">iiii", 0x00000803, count, rows, cols))
        labels.write_bytes(struct.pack(">ii", 0x00000801, 1) + b"\x00")
        declared = 16 + count * rows * cols
        with pytest.raises(FormatError, match=f"imgs.idx: header declares {declared} bytes, file holds 16$"):
            load_idx(images, labels)

    def test_negative_label_count_rejected_naming_both_sizes(self, tmp_path):
        images = tmp_path / "imgs.idx"
        labels = tmp_path / "lbls.idx"
        images.write_bytes(struct.pack(">iiii", 0x00000803, 1, 1, 1) + b"\x00")
        labels.write_bytes(struct.pack(">ii", 0x00000801, -1) + b"\x00")
        with pytest.raises(FormatError, match="lbls.idx: header declares 7 bytes, file holds 9$"):
            load_idx(images, labels)

    def test_zero_images_rejected_naming_the_file(self, tmp_path):
        images = tmp_path / "imgs.idx"
        labels = tmp_path / "lbls.idx"
        images.write_bytes(struct.pack(">iiii", 0x00000803, 0, 2, 2))
        labels.write_bytes(struct.pack(">ii", 0x00000801, 0))
        with pytest.raises(DataError, match=f"^{re.escape(str(images))}: holds no images$"):
            load_idx(images, labels)

    def test_round_trip(self, tmp_path):
        x, y, shape = gen_digits(per_class=3, seed=0, side=8)
        ip, lp = tmp_path / "a.idx", tmp_path / "b.idx"
        write_idx(x, y, ip, lp, shape)
        x2, y2, shape2 = load_idx(ip, lp)
        assert shape2 == shape
        np.testing.assert_array_equal(y2, y)
        # fetched pixels are k/255; writing re-rounds to the same bytes
        scaled = Dataset(x2, y2, x2, y2, shape).rows(slice(None))
        write_idx(scaled, y2, tmp_path / "c.idx", tmp_path / "d.idx", shape)
        x3, y3, _ = load_idx(tmp_path / "c.idx", tmp_path / "d.idx")
        np.testing.assert_array_equal(x3, x2)
        np.testing.assert_array_equal(y3, y2)

    @pytest.mark.parametrize(
        "pixel, label, labels, message",
        [
            (1.5, 3, 1, r"^pixel 1\.5 at flat index 1 is outside \[0, 1\]$"),
            (-0.2, 3, 1, r"^pixel -0\.2 at flat index 1 is outside \[0, 1\]$"),
            (float("nan"), 3, 1, r"^pixel nan at flat index 1 is outside \[0, 1\]$"),
            (0.5, 300, 1, r"^label 300 at index 0 is not an integer in \[0, 255\]$"),
            (0.5, -1, 1, r"^label -1 at index 0 is not an integer in \[0, 255\]$"),
            (0.5, 2.5, 1, r"^label 2\.5 at index 0 is not an integer in \[0, 255\]$"),
            (0.5, 3, 2, r"^1 images but labels of shape \(2,\)$"),
        ],
    )
    def test_out_of_range_values_rejected_before_writing(
        self, tmp_path, pixel, label, labels, message
    ):
        x = np.array([[0.0, pixel, 1.0, 0.25]])
        y = np.full(labels, label)
        ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
        with pytest.raises(DataError, match=message):
            write_idx(x, y, ip, lp, (1, 2, 2))
        assert not ip.exists() and not lp.exists()

    @pytest.mark.parametrize("width", [3, 5])
    def test_row_width_other_than_rows_times_cols_rejected_before_writing(self, tmp_path, width):
        ip, lp = tmp_path / "imgs.idx", tmp_path / "lbls.idx"
        with pytest.raises(DataError, match=rf"^images of {width} values, but 2x2 images hold 4$"):
            write_idx(np.zeros((1, width)), np.array([1]), ip, lp, (1, 2, 2))
        assert not ip.exists() and not lp.exists()


class TestIdxPixels:
    """IDX pixels stay uint8 in the dataset; every fetch scales them as loading once did."""

    def _dataset(self, tmp_path):
        # every byte value, shuffled, in both splits of sixteen 4x4 images
        g = np.random.default_rng(0)
        for part in ("train", "test"):
            pixels = g.permutation(256).astype(np.uint8).tobytes()
            (tmp_path / f"{part}-i").write_bytes(struct.pack(">iiii", 0x00000803, 16, 4, 4) + pixels)
            (tmp_path / f"{part}-l").write_bytes(struct.pack(">ii", 0x00000801, 16) + bytes(range(16)))
        return dataset_for_config(parse_config(
            "variant = baseline\nmegabatches = 2\ndataset = idx\nmodel = convnet\n"
            + "".join(f"idx_{p}_{k} = {tmp_path / f'{p}-{k[0]}'}\n"
                      for p in ("train", "test") for k in ("images", "labels"))
        ))

    def test_pixels_stay_uint8_and_fetched_rows_keep_the_bits_of_scaling_at_load(self, tmp_path):
        ds = self._dataset(tmp_path)
        assert ds.x.dtype == ds.x_test.dtype == np.uint8
        idx = np.random.default_rng(1).integers(0, 16, size=40)  # repeats and any order
        for x, test in ((ds.x, False), (ds.x_test, True)):
            assert set(x.ravel().tolist()) == set(range(256))
            at_load = x.astype(np.float64) / 255.0
            for rows in (idx, slice(None)):
                got = ds.rows(rows, test=test)
                assert got.dtype == np.float64
                np.testing.assert_array_equal(got.view(np.uint64), at_load[rows].view(np.uint64))

    def test_float_features_are_fetched_as_they_are(self):
        ds = gen_blobs(3, 10, 4, 0.5, seed=0, test_per_class=2)
        np.testing.assert_array_equal(ds.rows([4, 0, 4]), ds.x[[4, 0, 4]])
        assert ds.rows(slice(None), test=True).base is ds.x_test  # no copy

    def test_unscaled_pixels_cannot_reach_the_model(self, tmp_path):
        ds = self._dataset(tmp_path)
        model = build_model(ModelSpec(ds.input_shape, ds.class_count, conv_stack=((2, 3, 1, 1),)), 0)
        with pytest.raises(DataError, match="^model input is uint8;"):
            model.predict(ds.x)
        assert model.predict(ds.rows(slice(None))).shape == (16,)


class TestSynthetic:
    def test_blobs_deterministic(self):
        a = gen_blobs(2, 50, 2, 0.1, seed=0, test_per_class=10)
        b = gen_blobs(2, 50, 2, 0.1, seed=0, test_per_class=10)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.x_test, b.x_test)

    def test_blobs_linearly_separable_via_probe(self):
        ds = gen_blobs(2, 50, 2, 0.1, seed=0, test_per_class=10)
        model = build_model(ModelSpec((2,), 2), seed=0)
        state = OptimState(lr=0.5, momentum=0.9)
        for _ in range(200):
            _, grads, _ = model.loss_and_grads(ds.x, ds.y)
            sgd_momentum_step(model.params, grads, state, SparsityMask({}))
        acc = float((model.predict(ds.x) == ds.y).mean())
        assert acc >= 0.99

    def test_each_class_is_drawn_from_its_own_keyed_stream(self):
        # training rows are keyed by the seed, test rows by seed + 1
        ds = gen_blobs(3, 20, 4, 0.3, seed=5, test_per_class=4)
        centers = blob_centers(3, 4)
        for x, y, seed, n in ((ds.x, ds.y, 5, 20), (ds.x_test, ds.y_test, 6, 4)):
            assert y.dtype == np.int64
            np.testing.assert_array_equal(y, np.repeat(np.arange(3), n))
            for c in range(3):
                rows = centers[c] + 0.3 * rng_from(STREAM_BLOBS, seed, c).standard_normal((n, 4))
                np.testing.assert_array_equal(x[y == c], rows)

    def test_a_dataset_counts_its_own_classes(self):
        x = np.zeros((3, 2))
        ds = Dataset(x, np.array([0, 4, 1]), x[:2], np.array([6, 0]), input_shape=(2,))
        assert ds.class_count == 7  # the largest label in either split, plus one
        with pytest.raises(DataError, match="^labels must be >= 0$"):
            Dataset(x, np.array([0, 4, 1]), x[:2], np.array([-1, 0]), input_shape=(2,))


class TestCsv:
    def test_parse_and_errors(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_text("f1,f2,label\n1.0,2.0,0\n3.5,4.0,1\n")
        x, y = load_csv(p, "label")
        np.testing.assert_allclose(x, [[1.0, 2.0], [3.5, 4.0]])
        np.testing.assert_array_equal(y, [0, 1])
        p.write_text("f1,f2,label\n1.0,2.0,abc\n")
        with pytest.raises(FormatError):
            load_csv(p, "label")
        p.write_text("f1,f2,label\n1.0,xyz,1\n")
        with pytest.raises(FormatError):
            load_csv(p, "label")
        p.write_text("f1,f2,label\n1.0,2.0,0\n")
        with pytest.raises(FormatError):
            load_csv(p, "other")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "Infinity"])
    @pytest.mark.parametrize("column", [0, 2])
    def test_non_finite_cell_rejected_naming_the_line(self, tmp_path, cell, column):
        p = tmp_path / "data.csv"
        row = ["1.0", "2.0", "1"]
        row[column] = cell
        p.write_text("f1,f2,label\n1.0,2.0,0\n" + ",".join(row) + "\n3.0,4.0,1\n")
        with pytest.raises(FormatError, match=f"{p}:3: .*{cell!r} is not finite"):
            load_csv(p, "label")

    def test_split_test_is_a_seeded_disjoint_cover(self):
        x = np.arange(50.0).reshape(50, 1)
        y = np.arange(50) % 3
        x_train, y_train, x_test, y_test = split_test(x, y, 0.2, seed=4)
        assert (x_train.shape[0], x_test.shape[0]) == (40, 10)
        rows = np.concatenate([x_train[:, 0], x_test[:, 0]])
        np.testing.assert_array_equal(np.sort(rows), x[:, 0])  # disjoint and covering
        np.testing.assert_array_equal(y_train, x_train[:, 0].astype(int) % 3)
        np.testing.assert_array_equal(y_test, x_test[:, 0].astype(int) % 3)
        np.testing.assert_array_equal(split_test(x, y, 0.2, seed=4)[2], x_test)
        assert not np.array_equal(split_test(x, y, 0.2, seed=5)[2], x_test)

    @pytest.mark.parametrize("fraction, n, n_test", [(0.25, 10, 3), (0.3, 15, 5), (0.1, 5, 1)])
    def test_split_test_rounds_half_a_row_up(self, fraction, n, n_test):
        # as every other count in the package does (rng.round_half_up)
        x = np.arange(float(n)).reshape(n, 1)
        x_train, _, x_test, _ = split_test(x, np.zeros(n, dtype=np.int64), fraction, seed=0)
        assert (x_train.shape[0], x_test.shape[0]) == (n - n_test, n_test)

    def test_cli_run_is_byte_deterministic(self, tmp_path):
        rng = np.random.default_rng(7)
        labels = np.arange(120) % 3
        feats = rng.standard_normal((120, 4)) + labels[:, None]
        data = tmp_path / "data.csv"
        data.write_text("f1,f2,f3,f4,label\n" + "".join(
            ",".join(map(repr, row)) + f",{label}\n" for row, label in zip(feats.tolist(), labels)
        ))
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(
            "variant = app_default\npruner = snip\ntau = 2.0\nmegabatches = 2\nepochs = 2\n"
            f"mlp_hidden = 8\ndataset = csv\ncsv_path = {data}\ncsv_label_column = label\n"
        )
        outs = [tmp_path / "one", tmp_path / "two"]
        for out in outs:
            assert main(["run", str(cfg), "--out", str(out)]) == 0
        assert sorted(os.listdir(outs[0])) == sorted(RUN_ARTIFACTS)
        for name in RUN_ARTIFACTS - {"meta.json"}:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


SMALL_RUN = """
variant = app_default
pruner = snip
tau = 2.0
megabatches = 2
dataset = synthetic_blobs
blob_classes = 3
blob_per_class = 40
blob_dim = 6
epochs = 3
mlp_hidden = 8
"""


@pytest.fixture(scope="module")
def small_run_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("run")
    cfg = parse_config(SMALL_RUN)
    log = run(cfg)
    write_run_dir(log, outdir)
    return outdir, log


class TestReporting:
    def test_curves_golden_header_and_row_count(self, small_run_dir):
        outdir, log = small_run_dir
        lines = (outdir / "curves.csv").read_text().splitlines()
        assert lines[0] == ",".join(CURVES_COLUMNS)
        assert len(lines) == 1 + 2 * 3  # 2 megabatches x 3 epochs

    def test_megabatch_header_includes_layer_columns(self, small_run_dir):
        outdir, log = small_run_dir
        header = (outdir / "megabatches.csv").read_text().splitlines()[0]
        assert header == "megabatch,test_errors,test_acc,gen_gap,pruned_fc0_w,pruned_fc1_w"

    def test_summary_round_trip(self, small_run_dir, tmp_path):
        _, log = small_run_dir
        summary = summarize(log)
        path = tmp_path / "s.json"
        write_summary_json(summary, path)
        assert json.loads(path.read_text(encoding="utf-8")) == dataclasses.asdict(summary)

    def test_reserialization_is_byte_identical(self, small_run_dir, tmp_path):
        outdir, log = small_run_dir
        again = tmp_path / "again"
        write_run_dir(log, again)
        for name in ("curves.csv", "megabatches.csv", "predictions.csv", "summary.json",
                     "config.resolved", "events.csv", "gen_gap.svg", "cer.svg",
                     "layer_pruned.svg"):
            assert (outdir / name).read_bytes() == (again / name).read_bytes(), name

    def test_rerun_from_echo_reproduces_summary(self, small_run_dir, tmp_path):
        outdir, _ = small_run_dir
        cfg = parse_config(pathlib.Path(outdir / "config.resolved"))
        log = run(cfg)
        again = tmp_path / "echo"
        write_run_dir(log, again)
        assert (outdir / "summary.json").read_bytes() == (again / "summary.json").read_bytes()
        assert (outdir / "curves.csv").read_bytes() == (again / "curves.csv").read_bytes()

    def test_failed_write_leaves_no_partial_run_dir(self, small_run_dir, tmp_path, monkeypatch):
        _, log = small_run_dir

        def fail(log, path):
            raise OSError("disk full")

        monkeypatch.setattr("anyprune.reporting.write_events_csv", fail)
        with pytest.raises(OSError, match="disk full"):
            write_run_dir(log, tmp_path / "fresh")
        existing = tmp_path / "existing"
        existing.mkdir()
        (existing / "summary.json").write_text("earlier run")
        with pytest.raises(OSError, match="disk full"):
            write_run_dir(log, existing)
        assert os.listdir(tmp_path) == ["existing"]  # no outdir, no temp directory
        assert os.listdir(existing) == ["summary.json"]
        assert (existing / "summary.json").read_text() == "earlier run"

    def test_existing_run_dir_is_replaced_whole(self, small_run_dir, tmp_path):
        outdir, log = small_run_dir
        target = tmp_path / "target"
        target.mkdir()
        (target / "summary.json").write_text("earlier run")
        earlier = os.stat(target).st_ino
        write_run_dir(log, target)
        assert os.stat(target).st_ino != earlier
        assert sorted(os.listdir(target)) == sorted(os.listdir(outdir))
        assert os.listdir(tmp_path) == ["target"]
        assert (target / "summary.json").read_bytes() == (outdir / "summary.json").read_bytes()

    def test_symlinked_run_dir_is_replaced_through_the_link(self, small_run_dir, tmp_path):
        outdir, log = small_run_dir
        real = tmp_path / "real"
        real.mkdir()
        (real / "summary.json").write_text("earlier run")
        link = tmp_path / "link"
        link.symlink_to(real, target_is_directory=True)
        write_run_dir(log, link)
        assert link.is_symlink()
        assert sorted(os.listdir(tmp_path)) == ["link", "real"]
        assert (real / "summary.json").read_bytes() == (outdir / "summary.json").read_bytes()

    @pytest.mark.parametrize("foreign", ["notes.txt", ".git"])
    def test_directory_with_other_files_is_never_replaced(self, small_run_dir, tmp_path, foreign):
        _, log = small_run_dir
        (tmp_path / foreign).write_text("not a run artifact")
        (tmp_path / "summary.json").write_text("earlier run")
        with pytest.raises(ConfigError, match="not a run directory"):
            write_run_dir(log, tmp_path)
        assert sorted(os.listdir(tmp_path)) == sorted([foreign, "summary.json"])
        assert (tmp_path / foreign).read_text() == "not a run artifact"

    def test_one_megabatch_run_draws_every_line(self, tmp_path):
        log = run(parse_config(SMALL_RUN.replace("megabatches = 2", "megabatches = 1")
                               .replace("epochs = 3", "epochs = 1")))
        write_run_dir(log, tmp_path)
        polylines = {
            name: re.findall(r'<polyline points="([^"]*)"', (tmp_path / name).read_text())
            for name in ("cer.svg", "layer_pruned.svg")
        }
        assert len(polylines["cer.svg"]) == 1
        assert len(polylines["layer_pruned.svg"]) == len(log.layer_names) == 2
        for name, lines in polylines.items():
            assert all(len(points.split()) >= 2 for points in lines), (name, lines)

    def test_plot_escapes_markup_in_a_column_name(self, small_run_dir, tmp_path):
        outdir, _ = small_run_dir
        rundir = tmp_path / "run"
        shutil.copytree(outdir, rundir)
        path = rundir / "megabatches.csv"
        path.write_text(path.read_text().replace("pruned_fc0_w", "pruned_fc0_w<b> & c", 1))
        assert main(["plot", str(rundir)]) == 0
        texts = [
            node.firstChild.data
            for node in xml.dom.minidom.parse(str(rundir / "layer_pruned.svg")).getElementsByTagName("text")
        ]
        assert "fc0_w<b> & c" in texts and "fc1_w" in texts

    def test_meta_carries_identity(self, small_run_dir):
        outdir, log = small_run_dir
        meta = json.loads((outdir / "meta.json").read_text())
        assert meta["run_id"] == log.run_id
        assert meta["config_hash"] == log.config_hash
        assert meta["variant"] == "app_default"

    def test_meta_records_the_blas_thread_count(self, small_run_dir, tmp_path, monkeypatch):
        outdir, _ = small_run_dir
        # SMALL_RUN's step is under harness.SMALL_STEP_MACS, so it trains on one thread
        expected = None if kernels._openblas() is None else 1
        assert json.loads((outdir / "meta.json").read_text())["blas_threads"] == expected
        monkeypatch.setattr(kernels, "_openblas", lambda: None)
        write_run_dir(run(parse_config(SMALL_RUN)), tmp_path / "inert")
        assert json.loads((tmp_path / "inert" / "meta.json").read_text())["blas_threads"] is None


def _wait_for(path):
    """Poll, for up to 60 s, until ``path`` exists: how two job processes take turns."""
    deadline = time.monotonic() + 60
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


class TestCli:
    def test_run_subcommand(self, tmp_path):
        cfg_path = tmp_path / "a.cfg"
        cfg_path.write_text(SMALL_RUN)
        out = tmp_path / "out"
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0
        for name in ("summary.json", "curves.csv", "megabatches.csv", "gen_gap.svg"):
            assert (out / name).exists()

    def test_config_with_a_utf8_byte_order_mark_runs_like_the_plain_file(self, tmp_path):
        plain = pathlib.Path(__file__).parents[1] / "configs" / "app_blobs.cfg"
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())  # as Notepad-style editors save it
        out = tmp_path / "out"
        assert main(["run", str(bom), "--out", str(out)]) == 0
        assert (out / "config.resolved").read_text() == resolved_text(parse_config(plain))

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("variant = nope\nmegabatches = 2\ndataset = synthetic_blobs\n")
        assert main(["run", str(bad)]) == 1

    @pytest.mark.parametrize("text, key", REMOVED_SPIRALS, ids=[k for _, k in REMOVED_SPIRALS])
    def test_removed_spirals_config_exits_1_naming_the_key(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "spirals.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        reason = "must be one of " if key == "dataset" else "unknown key(s): "
        assert f"config error: {key}: {reason}" in capsys.readouterr().err

    def test_bad_conv_value_exits_1_naming_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(CONVNET + "conv_stride = 0\n")
        assert main(["run", str(cfg)]) == 1
        assert "config error: conv_stride: must be >= 1" in capsys.readouterr().err

    def test_empty_conv_channels_exits_1_naming_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(CONVNET + "conv_channels =\n")
        assert main(["run", str(cfg)]) == 1
        assert "config error: conv_channels: needs at least one conv layer" in capsys.readouterr().err

    def test_negative_seed_exits_1_and_writes_no_run(self, tmp_path, capsys):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "a.cfg").write_text(SMALL_RUN)
        (tmp_path / "neg.cfg").write_text(SMALL_RUN + "seed_init = -3\n")
        out = tmp_path / "out"
        for argv, key in (
            (["run", str(tmp_path / "neg.cfg")], "seed_init"),
            (["run", str(cfg_dir / "a.cfg"), "--seed", "-1"], "seed"),
            (["sweep", str(cfg_dir), "--seed", "-1"], "seed"),
        ):
            assert main([*argv, "--out", str(out)]) == 1
            assert f"config error: {key}: must be >= 0" in capsys.readouterr().err
            assert not out.exists()

    def test_non_finite_tau_exits_1_without_a_traceback(self, tmp_path, capsys):
        text = (pathlib.Path(__file__).parents[1] / "configs" / "app_blobs.cfg").read_text()
        cfg = tmp_path / "inf_tau.cfg"
        cfg.write_text(text.replace("tau = 4.5", "tau = inf"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: tau:")
        assert "Traceback" not in err

    def test_convnet_on_flat_input_exits_1_naming_the_model(self, tmp_path, capsys, monkeypatch):
        # synthetic blobs and CSV rows are flat feature vectors: the config is
        # rejected before any data is generated, and ModelSpec rejects the shape
        with pytest.raises(ModelSpecError, match=r"input shape, got \(16,\)"):
            ModelSpec((16,), 3, conv_stack=((8, 3, 1, 1),))
        for text in (CONVNET, CSV + "model = convnet\n"):
            with pytest.raises(ConfigError, match=r"^model: convnet needs \(c, h, w\) images"):
                parse_config(text)
        monkeypatch.setattr(anyprune.harness, "dataset_for_config", None)
        cfg = tmp_path / "conv.cfg"
        cfg.write_text(CONVNET)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert "config error: model: convnet needs (c, h, w) images" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_csv_cell_exits_2_naming_the_line(self, tmp_path, capsys, cell):
        x = np.random.default_rng(3).standard_normal((200, 2))
        rows = [f"{a},{b},{i % 2}" for i, (a, b) in enumerate(x)]
        rows[57] = f"{cell},1.0,1"
        data = tmp_path / "data.csv"
        data.write_text("f1,f2,label\n" + "\n".join(rows) + "\n")
        cfg = tmp_path / "a.cfg"
        cfg.write_text(
            "variant = baseline\nmegabatches = 2\nepochs = 2\nmlp_hidden = 8\n"
            f"dataset = csv\ncsv_path = {data}\ncsv_label_column = label\n"
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"{data}:59: f1 cell {cell!r} is not finite" in capsys.readouterr().err

    def test_empty_scoring_set_exits_2_naming_the_megabatch_and_key(self, tmp_path, capsys):
        text = (pathlib.Path(__file__).parents[1] / "configs" / "app_blobs.cfg").read_text()
        cfg = tmp_path / "tiny_pi.cfg"
        cfg.write_text(text + "pi_fraction = 0.001\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "megabatch 1, prune: pi_fraction = 0.001 of the view's 112 training samples" in err

    def test_error_inside_a_megabatch_names_it_and_keeps_its_class(
        self, tmp_path, capsys, monkeypatch
    ):
        def nan_score(mask, scores, keep):
            raise NumericError("NaN score at a kept position of 'fc0_w'")

        monkeypatch.setattr("anyprune.harness.prune_global", nan_score)
        cfg = pathlib.Path(__file__).parents[1] / "configs" / "app_blobs.cfg"
        with pytest.raises(NumericError, match="^megabatch 1, prune: NaN score") as info:
            run(parse_config(cfg))
        assert isinstance(info.value.__cause__, NumericError)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err.splitlines() == [
            "error: megabatch 1, prune: NaN score at a kept position of 'fc0_w'"
        ]

    @pytest.mark.parametrize("count, rows, cols", OVERSIZED_IDX_HEADERS)
    def test_oversized_idx_header_exits_2_and_writes_no_run(self, tmp_path, capsys, count, rows, cols):
        x, y, shape = gen_digits(per_class=3, seed=0, side=8)
        for part in ("train", "test"):
            write_idx(x, y, tmp_path / f"{part}-i", tmp_path / f"{part}-l", shape)
        (tmp_path / "train-i").write_bytes(struct.pack(">iiii", 0x00000803, count, rows, cols))
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(
            "variant = baseline\nmegabatches = 2\ndataset = idx\n"
            + "".join(
                f"idx_{part}_{kind} = {tmp_path / f'{part}-{kind[0]}'}\n"
                for part in ("train", "test") for kind in ("images", "labels")
            )
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        declared = 16 + count * rows * cols
        assert f"{tmp_path / 'train-i'}: header declares {declared} bytes, file holds 16" in (
            capsys.readouterr().err
        )

    def test_runtime_error_exit_code(self, tmp_path):
        cfg = tmp_path / "missing.cfg"
        cfg.write_text(
            "variant = baseline\nmegabatches = 2\ndataset = idx\n"
            "idx_train_images = /nonexistent/a\nidx_train_labels = /nonexistent/b\n"
            "idx_test_images = /nonexistent/c\nidx_test_labels = /nonexistent/d\n"
        )
        assert main(["run", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "message, line",
        [
            ("Unable to allocate 1.00 GiB", "error: out of memory: Unable to allocate 1.00 GiB"),
            ("", "error: out of memory"),
            # an unexpected exception also exits 2, its traceback before the line
            (RuntimeError("injected"), "error: RuntimeError: injected"),
        ],
    )
    def test_out_of_memory_exits_2_with_one_line_and_no_run_dir(
        self, tmp_path, capsys, monkeypatch, message, line
    ):
        cfg = tmp_path / "a.cfg"
        cfg.write_text(SMALL_RUN)

        def exhausted(config):
            raise message if isinstance(message, Exception) else MemoryError(message)

        monkeypatch.setattr("anyprune.cli.run", exhausted)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        captured = capsys.readouterr()
        if isinstance(message, Exception):
            assert captured.err.startswith("Traceback (most recent call last):\n")
            assert captured.err.endswith("\nRuntimeError: injected\n" + line + "\n")
        else:
            assert captured.err == line + "\n"
        assert captured.out == ""

    def test_sweep_records_an_out_of_memory_config_as_failed_and_runs_the_rest(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "a_huge.cfg").write_text(SMALL_RUN)
        (cfg_dir / "a_injected.cfg").write_text(SMALL_RUN + "seed = 2\n")
        (cfg_dir / "b_small.cfg").write_text(SMALL_RUN + "seed = 1\n")
        real = anyprune.cli.run

        def exhausted_at_seed_0(config):
            if config.seed == 0:
                raise MemoryError()
            if config.seed == 2:
                raise RuntimeError("injected")
            return real(config)

        monkeypatch.setattr("anyprune.cli.run", exhausted_at_seed_0)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg_dir), "--out", str(out)]) == 2
        assert not (out / "a_huge").exists()
        assert not (out / "a_injected").exists()
        assert (out / "b_small" / "summary.json").exists()
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-4:] == [
            "sweep: 1 of 3 configs finished",
            f"failed  {cfg_dir / 'a_huge.cfg'}: out of memory",
            f"failed  {cfg_dir / 'a_injected.cfg'}: RuntimeError: injected",
            f"ok      {cfg_dir / 'b_small.cfg'} -> {out / 'b_small'}",
        ]
        assert captured.err.endswith("\nRuntimeError: injected\n")

    @pytest.mark.parametrize("empty", ["train", "test"])
    def test_empty_idx_file_exits_2_naming_the_file(self, tmp_path, capsys, empty):
        x, y, shape = gen_digits(per_class=3, seed=0, side=8)
        for part in ("train", "test"):
            n = 0 if part == empty else len(y)
            write_idx(x[:n], y[:n], tmp_path / f"{part}-i", tmp_path / f"{part}-l", shape)
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(
            "variant = baseline\nmegabatches = 2\ndataset = idx\n"
            + "".join(
                f"idx_{part}_{kind} = {tmp_path / f'{part}-{kind[0]}'}\n"
                for part in ("train", "test") for kind in ("images", "labels")
            )
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert f"{tmp_path / f'{empty}-i'}: holds no images" in capsys.readouterr().err

    def test_diverging_run_fails_loudly(self, tmp_path, capsys):
        cfg = tmp_path / "diverge.cfg"
        text = (pathlib.Path(__file__).parents[1] / "configs" / "baseline_blobs.cfg").read_text()
        cfg.write_text(text + "lr0 = 1e6\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            # the overflow on the way to a non-finite loss is not printed
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "megabatch 1, train: training loss is nan at epoch 3, global_iter 10" in err

    def test_overflow_in_grasp_scoring_fails_loudly(self, tmp_path, capsys):
        # one epoch at lr0 = 1e4 keeps the training loss finite, but GraSP's
        # perturbed gradients overflow
        rows = np.random.default_rng(0).standard_normal((30, 3))
        (tmp_path / "data.csv").write_text("f0,f1,f2,label\n" + "".join(
            ",".join(repr(float(v)) for v in row) + f",{i % 3}\n" for i, row in enumerate(rows)
        ))
        cfg = tmp_path / "grasp.cfg"
        cfg.write_text(
            "variant = app_final\npruner = grasp\ntau = 1.0\nmegabatches = 1\nepochs = 1\n"
            "lr0 = 1e4\nlr_gamma = 0.5\nweight_decay = 0.01\nminibatch = 4\nmlp_hidden = 8,4\n"
            f"dataset = csv\ncsv_path = {tmp_path / 'data.csv'}\ncsv_label_column = label\n"
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "megabatch 1, prune: non-finite gradients in hvp_fd" in capsys.readouterr().err

    @pytest.mark.parametrize("minibatch, model", [
        # wide: matmuls large enough that OpenBLAS splits them when given two threads
        (128, "model = mlp\nmlp_hidden = 512,256\n"),
        # desk: a step under harness.SMALL_STEP_MACS, so the run sets one thread itself
        (32, "model = mlp\nmlp_hidden = 256,128\n"),
        # conv: the conv_digits benchmark's convnet, 32 x 72,000 multiply-adds a step, also under
        # the constant. Left at two threads, conv1's gw on a ragged 18-image minibatch changes bits
        (32, "model = convnet\nconv_channels = 8,16\n"),
    ], ids=["wide", "desk", "conv"])
    def test_artifacts_identical_at_one_and_two_blas_threads(self, tmp_path, minibatch, model):
        data = "dataset = synthetic_blobs\nblob_dim = 64\n"
        if "convnet" in model:  # on 14x14 digits, as the benchmark's
            for part, seed, per_class in (("train", 1, 70), ("test", 2, 40)):
                x, y, shape = gen_digits(per_class=per_class, seed=seed, side=14)
                write_idx(x, y, tmp_path / f"{part}-images", tmp_path / f"{part}-labels", shape)
            data = "dataset = idx\n" + "".join(
                f"idx_{part}_{kind} = {tmp_path / f'{part}-{kind}'}\n"
                for part in ("train", "test") for kind in ("images", "labels")
            )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "variant = app_default\npruner = snip\ntau = 4.5\nmegabatches = 3\n"
            f"epochs = 2\nminibatch = {minibatch}\n{model}{data}"
        )
        # the child imports the same anyprune as this process, from a checkout
        # or an install: the package's directory goes first on PYTHONPATH
        pkg_root = os.path.dirname(os.path.dirname(anyprune.__file__))
        pythonpath = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": pythonpath}
            done = subprocess.run(
                [sys.executable, "-m", "anyprune.cli", "run", str(cfg), "--out", str(out)],
                env=env, capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            outs.append(out)
        for name in ("summary.json", "curves.csv", "predictions.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_sweep_and_plot(self, tmp_path):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "one.cfg").write_text(SMALL_RUN)
        (cfg_dir / "two.cfg").write_text(SMALL_RUN.replace("app_default", "baseline").replace("pruner = snip\n", "").replace("tau = 2.0\n", ""))
        out = tmp_path / "sweep_out"
        assert main(["sweep", str(cfg_dir), "--out", str(out)]) == 0
        assert (out / "one" / "summary.json").exists()
        assert (out / "two" / "summary.json").exists()
        before = (out / "one" / "cer.svg").read_bytes()
        (out / "one" / "cer.svg").unlink()
        assert main(["plot", str(out / "one")]) == 0
        assert (out / "one" / "cer.svg").read_bytes() == before

    @pytest.mark.parametrize("parallel", ["1", "2"])
    def test_sweep_runs_every_config_and_reports_each(self, tmp_path, capsys, parallel):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        text = (pathlib.Path(__file__).parents[1] / "configs" / "baseline_blobs.cfg").read_text()
        (cfg_dir / "a_diverge.cfg").write_text(text + "lr0 = 1e6\n")
        (cfg_dir / "b_small.cfg").write_text(SMALL_RUN)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg_dir), "--out", str(out), "--parallel", parallel]) == 2
        assert not (out / "a_diverge").exists()
        assert (out / "b_small" / "summary.json").exists()
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == [
            "sweep: 1 of 2 configs finished",
            f"failed  {cfg_dir / 'a_diverge.cfg'}: megabatch 1, train: training loss is nan "
            "at epoch 3, global_iter 10",
            f"ok      {cfg_dir / 'b_small.cfg'} -> {out / 'b_small'}",
        ]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched _execute reaches the workers only when they are forked",
    )
    @pytest.mark.parametrize(
        "healthy", [("b_small",), ("b_small", "c_small")], ids=["two_configs", "three_configs"]
    )
    def test_sweep_records_a_dead_worker_as_failed(self, tmp_path, capsys, monkeypatch, healthy):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "a_dies.cfg").write_text(SMALL_RUN + "seed = 1\n")
        for name in healthy:
            (cfg_dir / f"{name}.cfg").write_text(SMALL_RUN)
        real = anyprune.cli._execute

        def die_at_seed_1(config, outdir):
            if config.seed == 1:
                os._exit(1)
            return real(config, outdir)

        monkeypatch.setattr("anyprune.cli._execute", die_at_seed_1)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg_dir), "--out", str(out), "--parallel", "2"]) == 2
        # each healthy job finished in a process of its own
        assert capsys.readouterr().out.splitlines()[-2 - len(healthy):] == [
            f"sweep: {len(healthy)} of {len(healthy) + 1} configs finished",
            f"failed  {cfg_dir / 'a_dies.cfg'}: worker process died",
        ] + [f"ok      {cfg_dir / f'{name}.cfg'} -> {out / name}" for name in healthy]
        assert sorted(os.listdir(out)) == list(healthy)  # no temporary directory is left
        for name in healthy:
            assert (out / name / "summary.json").exists()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched _execute reaches the workers only when they are forked",
    )
    def test_each_healthy_job_runs_once_when_another_jobs_process_dies(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "a_dies.cfg").write_text(SMALL_RUN + "seed = 1\n")
        healthy = ("b_small", "c_small")
        for name in healthy:
            (cfg_dir / f"{name}.cfg").write_text(SMALL_RUN)
        real = anyprune.cli._execute
        calls = tmp_path / "calls"
        calls.mkdir()

        def die_beside_b_small(config, outdir):  # runs in a job's process, so it counts in files
            if config.seed == 1:
                _wait_for(calls / "b_small")
                os._exit(1)
            with open(calls / os.path.basename(outdir), "a") as f:
                f.write("call\n")
            time.sleep(0.5)  # b_small is still running when a_dies's process dies
            return real(config, outdir)

        monkeypatch.setattr("anyprune.cli._execute", die_beside_b_small)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg_dir), "--out", str(out), "--parallel", "2"]) == 2
        assert capsys.readouterr().out.splitlines()[-4:] == [
            "sweep: 2 of 3 configs finished",
            f"failed  {cfg_dir / 'a_dies.cfg'}: worker process died",
        ] + [f"ok      {cfg_dir / f'{name}.cfg'} -> {out / name}" for name in healthy]
        assert {name: (calls / name).read_text() for name in healthy} == dict.fromkeys(healthy, "call\n")
        assert sorted(os.listdir(out)) == list(healthy)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched _execute reaches the workers only when they are forked",
    )
    def test_job_dying_while_another_writes_leaves_only_the_writers_run_dir(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "a_dies.cfg").write_text(SMALL_RUN + "seed = 1\n")
        (cfg_dir / "b_writes.cfg").write_text(SMALL_RUN)
        real_execute, real_write = anyprune.cli._execute, anyprune.reporting._write_artifacts
        writing, dying = tmp_path / "writing", tmp_path / "dying"

        def die_while_b_writes(config, outdir):
            if config.seed == 1:
                _wait_for(writing)
                dying.touch()
                os._exit(1)
            return real_execute(config, outdir)

        def write_as_a_dies(log, outdir):
            writing.touch()
            _wait_for(dying)
            return real_write(log, outdir)

        monkeypatch.setattr("anyprune.cli._execute", die_while_b_writes)
        monkeypatch.setattr("anyprune.reporting._write_artifacts", write_as_a_dies)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg_dir), "--out", str(out), "--parallel", "2"]) == 2
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "sweep: 1 of 2 configs finished",
            f"failed  {cfg_dir / 'a_dies.cfg'}: worker process died",
            f"ok      {cfg_dir / 'b_writes.cfg'} -> {out / 'b_writes'}",
        ]
        assert os.listdir(out) == ["b_writes"]
        assert (out / "b_writes" / "summary.json").exists()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched _execute reaches the workers only when they are forked",
    )
    @pytest.mark.skipif(
        kernels._openblas() is None, reason="numpy's OpenBLAS thread count is not settable"
    )
    def test_pooled_mlp_job_runs_at_its_share_of_blas_threads(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "a_mlp.cfg").write_text(SMALL_RUN)
        (cfg_dir / "b_conv.cfg").write_text(
            "variant = baseline\nmegabatches = 1\nmodel = convnet\nconv_channels = 2\n"
            "dataset = idx\n"
            + "".join(f"idx_{part}_{kind} = {tmp_path / 'unread'}\n"
                      for part in ("train", "test") for kind in ("images", "labels"))
        )

        def record_count(config, outdir):  # runs in a worker, so it reports through a file
            (tmp_path / f"{config.model}.threads").write_text(str(kernels._openblas()[1]()))

        monkeypatch.setattr("anyprune.cli._execute", record_count)
        out = tmp_path / "out"
        with kernels.blas_threads(os.cpu_count() or 1):  # the count the workers inherit
            inherited = kernels._openblas()[1]()
            assert main(["sweep", str(cfg_dir), "--out", str(out), "--parallel", "2"]) == 0
        share = max(1, (os.cpu_count() or 1) // 2)
        assert int((tmp_path / "mlp.threads").read_text()) == share
        assert int((tmp_path / "convnet.threads").read_text()) == inherited

    def test_sweep_reports_an_error_with_an_empty_message_as_failed(
        self, tmp_path, capsys, monkeypatch
    ):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "a.cfg").write_text(SMALL_RUN)

        def fail(config, outdir):
            raise OSError()

        monkeypatch.setattr("anyprune.cli._execute", fail)
        assert main(["sweep", str(cfg_dir), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().out.splitlines() == [
            "sweep: 0 of 1 configs finished",
            f"failed  {cfg_dir / 'a.cfg'}: ",
        ]

    def test_sweep_refuses_two_configs_writing_one_run_dir(self, tmp_path, capsys):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "a.cfg").write_text(SMALL_RUN)
        (cfg_dir / "a.txt").write_text(SMALL_RUN)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg_dir), "--out", str(out)]) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(cfg_dir / "a.cfg") in captured.err and str(cfg_dir / "a.txt") in captured.err

    def test_out_holding_other_files_exits_1_and_runs_nothing(self, tmp_path, capsys, monkeypatch):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "a.cfg").write_text(SMALL_RUN)
        out = tmp_path / "out"
        (out / "a").mkdir(parents=True)
        (out / "a" / "notes.txt").write_text("keep me")

        def must_not_run(config):
            raise AssertionError("a run started")

        monkeypatch.setattr("anyprune.cli.run", must_not_run)
        assert main(["run", str(cfg_dir / "a.cfg"), "--out", str(out)]) == 1
        assert main(["sweep", str(cfg_dir), "--out", str(out)]) == 1
        assert capsys.readouterr().err.count("is not a run directory") == 2
        assert sorted(os.listdir(out)) == ["a"]
        assert os.listdir(out / "a") == ["notes.txt"]
        assert (out / "a" / "notes.txt").read_text() == "keep me"

    def test_sweep_of_a_missing_directory_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["sweep", str(tmp_path / "missing"), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot read config directory: ")
        assert not out.exists()

    def test_sweep_parallel(self, tmp_path):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "s1.cfg").write_text(SMALL_RUN)
        (cfg_dir / "s2.cfg").write_text(SMALL_RUN.replace("seed = 0", "").rstrip() + "\nseed = 3\n")
        out = tmp_path / "par_out"
        assert main(["sweep", str(cfg_dir), "--out", str(out), "--parallel", "2"]) == 0
        assert (out / "s1" / "summary.json").exists()
        assert (out / "s2" / "summary.json").exists()

    def test_sweep_parallel_below_one_exits_1_and_runs_nothing(self, tmp_path, capsys, monkeypatch):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "a.cfg").write_text(SMALL_RUN)

        def must_not_run(config, outdir):
            raise AssertionError("a run started")

        monkeypatch.setattr("anyprune.cli._execute", must_not_run)
        out = tmp_path / "out"
        for parallel in ("0", "-2"):
            assert main(["sweep", str(cfg_dir), "--out", str(out), "--parallel", parallel]) == 1
            assert "--parallel must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the patched _execute reaches the workers only when they are forked",
    )
    @pytest.mark.parametrize("parallel, configs", [(3, 2), (2, 3)])
    def test_sweep_starts_no_more_workers_than_configs(self, tmp_path, monkeypatch, parallel, configs):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        for k in range(configs):
            (cfg_dir / f"s{k}.cfg").write_text(SMALL_RUN)
        started, alive_at_start = [], []

        class CountedProcess(multiprocessing.Process):  # counts the job processes still alive
            def start(self):
                alive_at_start.append(sum(p.is_alive() for p in started))
                started.append(self)
                super().start()

        def overlap(config, outdir):  # runs in a job's process, so it reports through --out
            time.sleep(0.2)
            os.makedirs(outdir)

        monkeypatch.setattr("multiprocessing.Process", CountedProcess)
        monkeypatch.setattr("anyprune.cli._execute", overlap)
        out = tmp_path / "out"
        assert main(["sweep", str(cfg_dir), "--out", str(out), "--parallel", str(parallel)]) == 0
        assert len(started) == configs
        # no job process starts while min(parallel, configs) still run, and that many do overlap
        assert max(alive_at_start) == min(parallel, configs) - 1
        assert sorted(os.listdir(out)) == [f"s{k}" for k in range(configs)]


# a run that reaches every call below in well under 0.1 s
FAULT_RUN = """
variant = app_default
pruner = magnitude
tau = 2.0
megabatches = 1
epochs = 1
dataset = synthetic_blobs
blob_classes = 2
blob_per_class = 10
blob_dim = 2
mlp_hidden = 4
"""

# every name harness.run calls, with the phase a fault there is reported in
# (None: outside any megabatch), then every reporting writer
FAULT_SITES = [
    ("anyprune.harness.dataset_for_config", None),
    ("anyprune.harness.build_stream", None),
    ("anyprune.harness.model_spec_for_config", None),
    ("anyprune.harness.build_model", None),
    ("anyprune.pruning.SparsityMask.full", None),
    ("anyprune.harness.make_delta_schedule", None),
    ("anyprune.harness.config_hash", None),
    ("anyprune.harness.run_id", None),
    ("anyprune.harness.MetricsLog", None),
    ("anyprune.harness.replay_view", "train"),
    ("anyprune.harness.OptimState", "train"),
    ("anyprune.harness.train_megabatch", "train"),
    ("anyprune.harness._prune_step", "prune"),
    ("anyprune.harness.apply_mask", "prune"),
    ("anyprune.harness._warn_collapse", "prune"),
    ("anyprune.models.Model.snapshot", "train"),
    ("anyprune.models.Model.restore", "train"),
    ("anyprune.models.Model.predict", "eval"),
    ("anyprune.harness.error_count", "eval"),
    ("anyprune.harness.generalization_gap", "eval"),
    ("anyprune.harness.layer_pruned_fraction", "eval"),
    ("anyprune.harness.MegabatchRecord", "eval"),
    ("anyprune.harness.RunEvent", "eval"),
] + [
    (f"anyprune.reporting.{name}", None)
    for name in (
        "write_curves_csv", "write_megabatches_csv", "write_predictions_csv",
        "write_events_csv", "write_summary_json", "emit_svg_from_dir",
    )
]


@pytest.mark.parametrize("fault", [AnypruneError, MemoryError, RuntimeError])
@pytest.mark.parametrize("site, phase", FAULT_SITES, ids=[s.rsplit(".", 1)[1] for s, _ in FAULT_SITES])
def test_fault_anywhere_in_a_run_exits_2_with_one_line_and_no_run_dir(
    tmp_path, capsys, monkeypatch, site, phase, fault
):
    cfg = tmp_path / "fault.cfg"
    cfg.write_text(FAULT_RUN)

    def fail(*args, **kwargs):
        raise fault("injected")

    monkeypatch.setattr(site, fail)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert os.listdir(tmp_path) == ["fault.cfg"]  # no run directory, no temporary one
    captured = capsys.readouterr()
    assert captured.out == ""
    if fault is AnypruneError:
        where = f"megabatch 1, {phase}: " if phase else ""
        assert captured.err.splitlines() == [f"error: {where}injected"]
    elif fault is MemoryError:
        assert captured.err.splitlines() == ["error: out of memory: injected"]
    else:  # an unexpected exception prints its traceback before the line
        assert captured.err.startswith("Traceback (most recent call last):\n")
        assert captured.err.endswith("\nRuntimeError: injected\nerror: RuntimeError: injected\n")


@pytest.mark.parametrize("fault", [AnypruneError, MemoryError, RuntimeError])
@pytest.mark.parametrize("site, phase", FAULT_SITES, ids=[s.rsplit(".", 1)[1] for s, _ in FAULT_SITES])
def test_fault_anywhere_in_a_sweep_reports_the_config_failed_and_leaves_no_dir(
    tmp_path, capsys, monkeypatch, site, phase, fault
):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    cfg = cfg_dir / "fault.cfg"
    cfg.write_text(FAULT_RUN)

    def fail(*args, **kwargs):
        raise fault("injected")

    monkeypatch.setattr(site, fail)
    out = tmp_path / "out"
    assert main(["sweep", str(cfg_dir), "--out", str(out), "--parallel", "1"]) == 2
    assert list(out.rglob("*")) == []  # no run directory, no temporary one
    if fault is AnypruneError:
        line = f"megabatch 1, {phase}: injected" if phase else "injected"
    elif fault is MemoryError:
        line = "out of memory: injected"
    else:
        line = "RuntimeError: injected"
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "sweep: 0 of 1 configs finished",
        f"failed  {cfg}: {line}",
    ]


def test_importing_the_cli_loads_no_network_or_mail_module():
    # one such stdlib import once raised every run's peak RSS by about 3.4 MiB
    # multiprocessing is for pooled sweeps only: at the top of cli it would add 19 modules
    pkg_root = os.path.dirname(os.path.dirname(anyprune.__file__))
    pythonpath = os.pathsep.join(p for p in (pkg_root, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, anyprune.cli\n"
        "print([m for m in ('urllib.request', 'http.client', 'email', 'multiprocessing', 'socket')\n"
        "       if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
