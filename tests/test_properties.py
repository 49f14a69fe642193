"""Property tests: global pruning, keep counts, delta schedules, config echo."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anyprune.config import DATASETS, MODELS, PRUNERS, VARIANTS, parse_config, resolved_text
from anyprune.errors import NumericError
from anyprune.pruning import SparsityMask, keep_count, make_delta_schedule, prune_global

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
        assert new.support_subset_of(mask)

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
    pairs["model"] = draw(st.sampled_from(MODELS))
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
    elif dataset == "synthetic_blobs":
        pairs["blob_noise"] = draw(st.floats(0.0, 5.0))
    else:
        pairs["spiral_per_class"] = draw(st.integers(1, 500))
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


class TestConfigEcho:
    @PROPERTY
    @given(config_texts())
    def test_resolved_text_round_trips(self, text):
        cfg = parse_config(text)
        assert parse_config(resolved_text(cfg)) == cfg
