"""Property tests: global pruning, keep counts, delta schedules, config echo, exit codes."""

import contextlib
import csv
import io
import math
import os
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyprune.cli import main
from anyprune.config import (
    DATASETS,
    LR_MODES,
    MODELS,
    PRUNERS,
    VARIANTS,
    RunConfig,
    format_value,
    parse_config,
    resolved_text,
)
from anyprune.datasets import write_idx
from anyprune.errors import NumericError
from anyprune.pruning import SparsityMask, keep_count, make_delta_schedule, prune_global
from helpers import support_subset

# the same examples on every run, and no example database left on disk
PROPERTY = settings(deadline=None, derandomize=True, database=None, max_examples=100)


@st.composite
def masks_and_scores(draw, kept_nans=False):
    """A mask over 1-3 tensors, scores and a keep count.

    Kept positions get tie-heavy scores, infinities included, and with
    ``kept_nans`` at least one NaN; pruned ones get any float at all, often
    one that would outrank every kept score.
    """
    kept_values = st.one_of(st.integers(0, 3).map(float), st.sampled_from([-np.inf, np.inf]))
    if kept_nans:
        kept_values = st.one_of(kept_values, st.just(np.nan))
    shapes = draw(st.lists(
        st.lists(st.integers(1, 4), min_size=1, max_size=2).map(tuple), min_size=1, max_size=3,
    ))
    masks, scores = {}, {}
    for i, shape in enumerate(shapes):
        size = int(np.prod(shape))
        m = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=size, max_size=size)))
        kept = draw(st.lists(kept_values, min_size=size, max_size=size))
        pruned = draw(st.lists(
            st.one_of(st.integers(0, 4).map(float), st.floats()), min_size=size, max_size=size,
        ))
        s = np.where(m == 1.0, np.array(kept), np.array(pruned))
        masks[f"w{i}"] = m.reshape(shape)
        scores[f"w{i}"] = s.reshape(shape)
    mask = SparsityMask(masks)
    if mask.kept_count == 0:
        masks["w0"].flat[0] = 1.0
        scores["w0"].flat[0] = 0.0
        mask = SparsityMask(masks)
    if kept_nans and not any(np.isnan(scores[n][a == 1.0]).any() for n, a in masks.items()):
        name = next(n for n, a in masks.items() if a.any())
        scores[name].flat[np.flatnonzero(masks[name])[0]] = np.nan
    return mask, scores, draw(st.integers(1, mask.kept_count))


class TestPruneGlobal:
    @PROPERTY
    @given(masks_and_scores())
    def test_keeps_exactly_keep_within_old_support(self, case):
        mask, scores, keep = case
        new = prune_global(mask, scores, keep)
        assert new.kept_count == keep
        assert support_subset(new, mask)

    @PROPERTY
    @given(masks_and_scores())
    def test_ties_keep_the_smaller_global_flat_index(self, case):
        mask, scores, keep = case
        flat = np.concatenate([scores[name].ravel() for name in mask.arrays])
        kept = np.flatnonzero(np.concatenate([a.ravel() for a in mask.arrays.values()]))
        ranked = sorted(kept, key=lambda i: (-flat[i], i))
        want = np.zeros(flat.size)
        want[ranked[:keep]] = 1.0
        new = prune_global(mask, scores, keep)
        got = np.concatenate([a.ravel() for a in new.arrays.values()])
        np.testing.assert_array_equal(got, want)

    @PROPERTY
    @given(masks_and_scores(kept_nans=True))
    def test_nan_at_a_kept_position_rejected(self, case):
        mask, scores, keep = case
        with pytest.raises(NumericError):
            prune_global(mask, scores, keep)


# 0.8**_HALF_DELTA == 0.5, so an odd total puts the product exactly on a half
_HALF_DELTA = 3.1062837195053903


class TestKeepCount:
    @PROPERTY
    @given(st.one_of(st.floats(0.0, 40.0), st.just(_HALF_DELTA)), st.integers(1, 10**7))
    def test_round_half_up_and_at_least_one(self, delta, total):
        k = keep_count(delta, total)
        exact = 0.8 ** delta * total
        assert k >= 1
        if exact >= 0.5:
            assert k - 0.5 <= exact < k + 0.5

    @PROPERTY
    @given(st.floats(0.0, 40.0), st.floats(0.0, 40.0), st.integers(1, 10**7))
    def test_non_increasing_in_delta(self, a, b, total):
        lo, hi = min(a, b), max(a, b)
        assert keep_count(lo, total) >= keep_count(hi, total)


class TestDeltaSchedule:
    @PROPERTY
    @given(st.floats(1.0, 50.0), st.integers(1, 64))
    def test_length_endpoints_and_uniform_gaps(self, tau, steps):
        sched = make_delta_schedule(tau, steps)
        assert len(sched) == steps
        assert sched[-1] == tau
        if steps > 1:
            assert sched[0] == 1.0
            gaps = np.diff(sched)
            np.testing.assert_allclose(gaps, (tau - 1.0) / (steps - 1), rtol=0, atol=1e-12 * tau)


_POSITIVE = st.floats(1e-6, 10.0)
_PATH = st.text("abcxyz019_./-", min_size=1, max_size=12)
_WIDTHS = st.lists(st.integers(1, 512), min_size=1, max_size=3)


def _ints(values):
    return ",".join(str(v) for v in values)


@st.composite
def config_texts(draw):
    """``key = value`` text of a valid config, with a random subset of keys set."""
    pairs = {"variant": draw(st.sampled_from(VARIANTS))}
    if pairs["variant"] != "baseline":
        if pairs["variant"] == "app_noreplay_snip":
            pairs["pruner"] = "snip"
        else:
            pairs["pruner"] = draw(st.sampled_from(PRUNERS))
        pairs["tau"] = draw(st.floats(1.0, 20.0))
        pairs["pi_fraction"] = draw(st.floats(1e-3, 1.0))
    pairs["megabatches"] = draw(st.integers(1, 64))
    pairs["dataset"] = dataset = draw(st.sampled_from(DATASETS))
    optional = {
        "replay": st.sampled_from(["full", "none"]),
        "epochs": st.integers(1, 100),
        "warmup_epochs": st.integers(1, 100),
        "lr_mode": st.sampled_from(["multistep_m1_only", "cyclic_every_mt"]),
        "lr0": _POSITIVE,
        "lr_gamma": _POSITIVE,
        "post_m1_lr": _POSITIVE,
        "momentum": st.floats(0.0, 0.999),
        "weight_decay": st.floats(0.0, 1.0),
        "minibatch": st.integers(1, 1024),
        "val_fraction": st.floats(1e-3, 0.999),
        "per_class_cap": st.integers(1, 1000),
        "seed": st.integers(0, 2**31),
        "seed_pruning": st.integers(0, 2**31),
    }
    for key in draw(st.lists(st.sampled_from(sorted(optional)), unique=True)):
        pairs[key] = draw(optional[key])
    # only IDX images have the (c, h, w) shape a convnet needs
    pairs["model"] = draw(st.sampled_from(MODELS if dataset == "idx" else ("mlp",)))
    if pairs["model"] == "mlp":
        pairs["mlp_hidden"] = _ints(draw(_WIDTHS))
    else:
        pairs["conv_channels"] = _ints(draw(_WIDTHS))
        pairs["conv_padding"] = draw(st.integers(0, 3))
        pairs["head_hidden"] = _ints(draw(st.lists(st.integers(1, 64), max_size=2)))
    if dataset == "idx":
        for key in ("idx_train_images", "idx_train_labels", "idx_test_images", "idx_test_labels"):
            pairs[key] = draw(_PATH)
    elif dataset == "csv":
        pairs["csv_path"] = draw(_PATH)
        pairs["csv_label_column"] = draw(_PATH)
        pairs["test_fraction"] = draw(st.floats(1e-3, 0.999))
    else:
        pairs["blob_noise"] = draw(st.floats(0.0, 5.0))
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


class TestConfigEcho:
    @PROPERTY
    @given(config_texts())
    def test_resolved_text_round_trips(self, text):
        cfg = parse_config(text)
        assert parse_config(resolved_text(cfg)) == cfg


# Candidate values of each config key, small enough that a run takes
# milliseconds; the key's declared ``valid`` predicate sorts them into accepted
# and rejected ones. None leaves the key out, so its default applies.
_CANDIDATES = {
    "tau": (0.5, 1.0, 2.5, 60.0),
    "megabatches": (0, 1, 2, 3),
    "replay": (None, "full", "none", "partial"),
    "epochs": (0, 1, 2, 3),
    "warmup_epochs": (None, 0, 1, 2, 4),
    "lr_mode": (None, *LR_MODES, "constant"),
    "lr0": (None, -0.1, 1e-3, 0.5, 1e4),
    "lr_gamma": (None, 0.0, 0.5, 2.0),
    "post_m1_lr": (None, 0.0, 1e-3, 1e4),
    "momentum": (None, 0.0, 0.5, 1.0),
    "weight_decay": (None, -1e-3, 0.0, 0.01),
    "minibatch": (0, 1, 4, 32),
    "pi_fraction": (None, 0.0, 0.05, 0.5, 1.0),
    "val_fraction": (None, 0.0, 0.1, 0.5, 0.9),
    "mlp_hidden": ((), (4,), (8, 4), (0,)),
    "conv_channels": ((), (2,), (2, 3)),
    "conv_kernel": (None, 0, 1, 3, 5),
    "conv_stride": (None, 0, 1, 2),
    "conv_padding": (None, -1, 0, 1),
    "head_hidden": (None, (), (4,), (0,)),
    "per_class_cap": (None, 0, 1, 5),
    "test_fraction": (None, 0.0, 0.25, 0.5),
    "blob_classes": (1, 2, 3),
    "blob_per_class": (0, 1, 5, 20),
    "blob_dim": (0, 1, 4),
    "blob_noise": (-0.1, 0.0, 0.8),
    "test_per_class": (None, 0, 1, 3),
    "seed": (None, -1, 0, 3),
    "seed_partition": (None, -1, 0, 3),
    "seed_init": (None, -1, 0, 3),
    "seed_pruning": (None, -1, 0, 3),
    "seed_shuffle": (None, -1, 0, 3),
}
_DECLARED = {f.name: f.metadata for f in fields(RunConfig)}


def _accepted(key, value):
    valid = _DECLARED[key]["valid"]
    return value is None or valid is None or valid[0](value)


@st.composite
def run_configs(draw, data_paths):
    """``key = value`` text over every applicable key; one config in four sets one key badly."""
    r = {"variant": draw(st.sampled_from(VARIANTS)), "dataset": draw(st.sampled_from(DATASETS))}
    r["model"] = draw(st.sampled_from(MODELS)) if r["dataset"] == "idx" else "mlp"
    if r["variant"] != "baseline":
        r["pruner"] = "snip" if r["variant"] == "app_noreplay_snip" else draw(st.sampled_from(PRUNERS))
    applicable = [
        name for name, meta in _DECLARED.items()
        if name not in r and (meta["applies"] is None or meta["applies"](r))
    ]
    r.update((name, data_paths[name]) for name in applicable if name in data_paths)
    drawn = [name for name in applicable if name in _CANDIDATES]
    bad = draw(st.sampled_from(drawn)) if draw(st.integers(0, 3)) == 0 else None
    for name in drawn:
        values = [v for v in _CANDIDATES[name] if _accepted(name, v) != (name == bad)]
        r[name] = draw(st.sampled_from(values))
    return "".join(f"{k} = {format_value(v)}\n" for k, v in r.items() if v is not None)


def _cli_run(cfg, out):
    """``anyprune run cfg --out out``: the exit code and what it wrote to stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(["run", cfg, "--out", out])
    return code, stderr.getvalue()


def _artifacts(out):
    """Every artifact's bytes but meta.json's, which holds the wall-clock time."""
    artifacts = {}
    for name in sorted(set(os.listdir(out)) - {"meta.json"}):
        with open(os.path.join(out, name), "rb") as f:
            artifacts[name] = f.read()
    return artifacts


class TestExitContract:
    @pytest.fixture(scope="class")
    def data_paths(self, tmp_path_factory):
        """A 30-row, 3-class CSV and a 1x6x6 IDX pair (24 train, 9 test images)."""
        d = tmp_path_factory.mktemp("exit_data")
        g = np.random.default_rng(0)
        with open(d / "data.csv", "w", encoding="utf-8") as f:
            f.write("f0,f1,f2,label\n")
            for i, row in enumerate(g.standard_normal((30, 3))):
                f.write(",".join(repr(float(v)) for v in row) + f",{i % 3}\n")
        paths = {"csv_path": str(d / "data.csv"), "csv_label_column": "label"}
        for split, n in (("train", 24), ("test", 9)):
            images, labels = str(d / f"{split}-images"), str(d / f"{split}-labels")
            write_idx(g.random((n, 36)), np.arange(n) % 3, images, labels, (1, 6, 6))
            paths[f"idx_{split}_images"], paths[f"idx_{split}_labels"] = images, labels
        return paths

    def test_every_key_is_drawn(self, data_paths):
        steering = {"variant", "pruner", "model", "dataset"}
        assert set(_DECLARED) == set(_CANDIDATES) | steering | set(data_paths)

    @settings(PROPERTY, max_examples=100)
    @given(data=st.data())
    def test_exit_code_artifacts_and_replay(self, data_paths, data):
        """Exit 0, 1 or 2 and no traceback; finite losses after exit 0, no files
        after a failure; a finished run, run again, writes the same artifacts."""
        text = data.draw(run_configs(data_paths))
        with tempfile.TemporaryDirectory() as d:
            cfg, out = os.path.join(d, "run.cfg"), os.path.join(d, "out")
            with open(cfg, "w", encoding="utf-8") as f:
                f.write(text)
            code, err = _cli_run(cfg, out)
            assert code in (0, 1, 2) and "Traceback" not in err, err
            if code != 0:
                assert os.listdir(d) == ["run.cfg"], err
                return
            with open(os.path.join(out, "curves.csv"), encoding="utf-8") as f:
                rows = list(csv.DictReader(f))
            assert rows
            assert all(math.isfinite(float(row[c])) for row in rows for c in ("train_loss", "val_loss"))
            first = _artifacts(out)
            assert _cli_run(cfg, out) == (0, err)
            assert _artifacts(out) == first
