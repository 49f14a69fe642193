"""Stream partitioning, replay views, scoring subsets, and LR schedules."""

import numpy as np
import pytest

from anyprune.config import parse_config
from anyprune.datasets import Dataset, gen_blobs
from anyprune.errors import DataError, ParameterError, PartitionError
from anyprune.harness import lr_at
from anyprune.stream import build_stream, draw_pi, replay_view


def _toy_dataset(n, classes=5, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    y = np.arange(n, dtype=np.int64) % classes
    xt = rng.standard_normal((10, dim))
    yt = np.arange(10, dtype=np.int64) % classes
    return Dataset(x, y, xt, yt, input_shape=(dim,))


class TestBuildStream:
    def test_equal_megabatch_sizes_like_cifar(self):
        stream = build_stream(_toy_dataset(50000), 8, seed=1)
        assert all(m.train_idx.size + m.val_idx.size == 6250 for m in stream)
        assert all(m.train_idx.size == 5625 and m.val_idx.size == 625 for m in stream)

    def test_per_class_cap_totals(self):
        ds = _toy_dataset(14 * 300, classes=14)
        stream = build_stream(ds, 30, per_class_cap=270, seed=0)
        total = sum(m.train_idx.size + m.val_idx.size for m in stream)
        assert 14 * 270 == 3780
        assert total == 3780  # 30 megabatches of 126
        assert all(m.train_idx.size + m.val_idx.size == 126 for m in stream)

    def test_remainder_dropped(self):
        stream = build_stream(_toy_dataset(1003), 10, seed=3)
        assert len(stream) == 10
        assert all(m.train_idx.size + m.val_idx.size == 100 for m in stream)
        used = np.concatenate([np.concatenate([m.train_idx, m.val_idx]) for m in stream])
        assert used.size == 1000

    def test_megabatches_pairwise_disjoint(self):
        stream = build_stream(_toy_dataset(200), 4, seed=2)
        used = np.concatenate([np.concatenate([m.train_idx, m.val_idx]) for m in stream])
        assert np.unique(used).size == used.size

    def test_cap_exceeding_population_rejected(self):
        with pytest.raises(DataError):
            build_stream(_toy_dataset(50, classes=5), 2, per_class_cap=11, seed=0)

    def test_too_many_megabatches_rejected(self):
        with pytest.raises(PartitionError):
            build_stream(_toy_dataset(5), 10, seed=0)

    def test_determinism(self):
        a = build_stream(_toy_dataset(300), 3, seed=9)
        b = build_stream(_toy_dataset(300), 3, seed=9)
        for ma, mb in zip(a, b):
            np.testing.assert_array_equal(ma.train_idx, mb.train_idx)
            np.testing.assert_array_equal(ma.val_idx, mb.val_idx)

    def test_test_pool_is_separate(self):
        ds = gen_blobs(3, 40, 4, 0.3, seed=5, test_per_class=8)
        stream = build_stream(ds, 2, seed=5)
        # stream indices address the train pool only; test set lives apart
        used = np.concatenate([np.concatenate([m.train_idx, m.val_idx]) for m in stream])
        assert used.max() < ds.x.shape[0]
        assert ds.x_test.shape[0] > 0


class TestReplayView:
    def test_full_replay_union(self):
        stream = build_stream(_toy_dataset(300), 3, seed=0)
        view = replay_view(stream, 3, "full")
        assert view.train_idx.size == 270
        assert view.val_idx.size == 30

    def test_no_replay_current_only(self):
        stream = build_stream(_toy_dataset(300), 3, seed=0)
        view = replay_view(stream, 3, "none")
        assert view.train_idx.size == 90

    def test_first_megabatch_equivalence(self):
        stream = build_stream(_toy_dataset(300), 3, seed=0)
        full = replay_view(stream, 1, "full")
        none = replay_view(stream, 1, "none")
        np.testing.assert_array_equal(full.train_idx, none.train_idx)
        np.testing.assert_array_equal(full.val_idx, none.val_idx)

    def test_replay_growth_linear(self):
        stream = build_stream(_toy_dataset(800), 8, seed=4)
        base = replay_view(stream, 1, "full").train_idx.size
        for t in range(1, 9):
            assert replay_view(stream, t, "full").train_idx.size == t * base

    def test_views_are_the_stream_in_order(self):
        stream = build_stream(_toy_dataset(400), 4, seed=6)
        for t in range(1, 5):
            full = replay_view(stream, t, "full")
            np.testing.assert_array_equal(
                full.train_idx, np.concatenate([m.train_idx for m in stream[:t]])
            )
            np.testing.assert_array_equal(
                full.val_idx, np.concatenate([m.val_idx for m in stream[:t]])
            )
            none = replay_view(stream, t, "none")
            assert none.train_idx is stream[t - 1].train_idx
            assert none.val_idx is stream[t - 1].val_idx
            # the stream's own arrays cannot be written through a view
            assert not (none.train_idx.flags.writeable or none.val_idx.flags.writeable)

    def test_out_of_range(self):
        stream = build_stream(_toy_dataset(100), 2, seed=0)
        with pytest.raises(IndexError):
            replay_view(stream, 0, "full")
        with pytest.raises(IndexError):
            replay_view(stream, 3, "full")


class TestDrawPi:
    def test_size_at_first_megabatch(self):
        stream = build_stream(_toy_dataset(50000), 8, seed=1)
        view = replay_view(stream, 1, "full")
        pi = draw_pi(view, 0.2, seed=(0,))
        assert view.train_idx.size == 5625
        assert pi.size == 1125

    def test_full_fraction_is_whole_train_split(self):
        stream = build_stream(_toy_dataset(100), 2, seed=0)
        view = replay_view(stream, 1, "full")
        pi = draw_pi(view, 1.0, seed=(3,))
        assert set(pi.tolist()) == set(view.train_idx.tolist())

    def test_determinism_and_membership(self):
        stream = build_stream(_toy_dataset(100), 2, seed=0)
        view = replay_view(stream, 2, "full")
        a = draw_pi(view, 0.2, seed=(5,))
        b = draw_pi(view, 0.2, seed=(5,))
        np.testing.assert_array_equal(a, b)
        assert set(a.tolist()) <= set(view.train_idx.tolist())
        assert np.unique(a).size == a.size

    def test_bad_fraction(self):
        stream = build_stream(_toy_dataset(100), 2, seed=0)
        view = replay_view(stream, 1, "full")
        with pytest.raises(ParameterError):
            draw_pi(view, 0.0, seed=(0,))


def _config(lr_mode, epochs):
    return parse_config(
        f"""
        variant = app_default
        pruner = snip
        tau = 4.5
        megabatches = 4
        dataset = synthetic_blobs
        epochs = {epochs}
        lr_mode = {lr_mode}
        """
    )


class TestLrSchedule:
    def test_multistep_m1_only_milestones(self):
        cfg = _config("multistep_m1_only", 182)
        assert lr_at(cfg, 1, 1) == pytest.approx(0.1)
        assert lr_at(cfg, 1, 90) == pytest.approx(0.1)
        assert lr_at(cfg, 1, 91) == pytest.approx(0.01)
        assert lr_at(cfg, 1, 135) == pytest.approx(0.01)
        assert lr_at(cfg, 1, 136) == pytest.approx(0.001)
        assert lr_at(cfg, 1, 137) == pytest.approx(0.001)
        for epoch in (1, 91, 137):
            assert lr_at(cfg, 2, epoch) == pytest.approx(0.001)

    def test_cyclic_resets_every_megabatch(self):
        cfg = _config("cyclic_every_mt", 182)
        for t in (1, 2, 5):
            assert lr_at(cfg, t, 1) == pytest.approx(0.1)
            assert lr_at(cfg, t, 91) == pytest.approx(0.01)
            assert lr_at(cfg, t, 136) == pytest.approx(0.001)

    def test_generalized_milestones(self):
        cfg = _config("cyclic_every_mt", 20)
        assert lr_at(cfg, 3, 9) == pytest.approx(0.1)
        assert lr_at(cfg, 3, 10) == pytest.approx(0.01)
        assert lr_at(cfg, 3, 15) == pytest.approx(0.001)

    def test_epoch_out_of_range(self):
        cfg = _config("cyclic_every_mt", 20)
        with pytest.raises(IndexError):
            lr_at(cfg, 1, 0)
        with pytest.raises(IndexError):
            lr_at(cfg, 1, 21)
