"""Pruning oracles: schedules, saliency scores, and global top-k selection."""

import itertools

import numpy as np
import pytest

from anyprune.errors import DataError, NumericError, ParameterError, RefinementError
from anyprune.models import ParamRegistry, build_model, mlp_spec
from anyprune.pruning import (
    SparsityMask,
    apply_mask,
    keep_count,
    layer_pruned_fraction,
    make_delta_schedule,
    prune_global,
    score_grasp,
    score_magnitude,
    score_random,
    score_snip,
    selection_scores,
)
from anyprune.tensor import Tape, Tensor, mul, scale, sum_all


class TestDeltaSchedule:
    def test_uniform_spacing(self):
        sched = make_delta_schedule(4.5, 8)
        np.testing.assert_allclose(
            sched, [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5], atol=1e-12
        )
        assert sched[0] == 1.0
        assert sched[-1] == 4.5

    def test_single_step_jumps_to_tau(self):
        assert make_delta_schedule(4.5, 1) == (4.5,)

    def test_final_keep_fraction_matches_remaining_weights(self):
        # 0.8**4.5 = 0.366357..., i.e. 36.63% of dense weights remain (2 dp)
        assert 100.0 * 0.8 ** 4.5 == pytest.approx(36.63, abs=0.01)

    def test_bounds(self):
        with pytest.raises(ParameterError):
            make_delta_schedule(0.9, 4)
        with pytest.raises(ParameterError):
            make_delta_schedule(2.0, 0)

    def test_spacing_uniform_to_eps(self):
        for tau, steps in ((4.5, 8), (13.0, 25), (2.0, 3)):
            v = np.asarray(make_delta_schedule(tau, steps))
            gaps = np.diff(v)
            assert np.all(np.abs(gaps - gaps[0]) < 1e-12)


class TestKeepCount:
    def test_examples(self):
        assert keep_count(1.0, 1000) == 800
        assert keep_count(4.5, 10000) == 3664
        assert keep_count(20.0, 3) == 1

    def test_trajectory_for_ten_thousand(self):
        sched = make_delta_schedule(4.5, 8)
        got = [keep_count(d, 10000) for d in sched]
        assert got == [8000, 7155, 6400, 5724, 5120, 4579, 4096, 3664]

    def test_bad_total(self):
        with pytest.raises(ParameterError):
            keep_count(1.0, 0)


class _LinearSquaredModel:
    """pred = w . x with loss 0.5 * mean (pred - y)^2; analytic gradients."""

    def __init__(self, w):
        self.registry = ParamRegistry()
        self.registry.add("w", Tensor(w), True)

    def loss_and_grads(self, x, y):
        w = self.registry["w"].tensor.data
        resid = x @ w - y
        loss = 0.5 * float(np.mean(resid ** 2))
        return loss, {"w": (x * resid[:, None]).mean(axis=0)}, x @ w


class TestSnip:
    def test_hand_gradient_oracle(self):
        model = _LinearSquaredModel([2.0, -3.0])
        x = np.array([[1.0, 2.0]])
        y = np.array([0.0])
        # resid = -4, so g = -4 * x = [-4, -8] and |g w| = [8, 24]
        scores = score_snip(model, x, y)
        np.testing.assert_allclose(scores["w"], [8.0, 24.0], rtol=1e-12)

    def test_zero_weights_zero_scores(self):
        model = _LinearSquaredModel([0.0, 0.0])
        scores = score_snip(model, np.array([[1.0, 2.0]]), np.array([1.0]))
        np.testing.assert_array_equal(scores["w"], [0.0, 0.0])

    def test_pruned_position_with_the_top_score_stays_pruned(self):
        # the pruned weight is still nonzero here, so it scores highest (24 > 8)
        model = _LinearSquaredModel([2.0, -3.0])
        mask = SparsityMask({"w": np.array([1.0, 0.0])})
        scores = selection_scores("snip", model, mask, np.array([[1.0, 2.0]]), np.array([0.0]))
        np.testing.assert_allclose(scores["w"], [8.0, 24.0], rtol=1e-12)
        new = prune_global(mask, scores, keep=1)
        np.testing.assert_array_equal(new.arrays["w"], [1.0, 0.0])

    def test_empty_pi_rejected(self):
        model = _LinearSquaredModel([1.0])
        mask = SparsityMask({"w": np.ones(1)})
        for pruner in ("snip", "grasp"):
            with pytest.raises(DataError, match="scoring set is empty"):
                selection_scores(pruner, model, mask, np.zeros((0, 1)), np.zeros(0))


class _QuadraticModel:
    """L(w) = 0.5 * w' diag(d) w, exposed through the scoring protocol."""

    def __init__(self, w, diag):
        self.registry = ParamRegistry()
        self.registry.add("w", Tensor(w), True)
        self._diag = Tensor(diag)

    def loss_on_tape(self, x, y, tape=None):
        w = self.registry["w"].tensor
        return scale(sum_all(mul(mul(w, w, tape), self._diag, tape), tape), 0.5, tape)

    def loss_and_grads(self, x, y):
        tape = Tape()
        loss = self.loss_on_tape(x, y, tape)
        tape.backward(loss)
        return float(loss.data), {"w": np.array(self.registry["w"].tensor.grad)}, None


class TestGrasp:
    def test_analytic_quadratic(self):
        model = _QuadraticModel([1.0, 1.0], [2.0, 4.0])
        mask = SparsityMask({"w": np.ones(2)})
        # g = Hw = [2, 4]; Hg = [4, 16]; score = -w * Hg = [-4, -16]
        scores = score_grasp(model, mask, np.zeros((1, 1)), np.zeros(1))
        np.testing.assert_allclose(scores["w"], [-4.0, -16.0], rtol=1e-6)

    def test_zero_weights_zero_scores(self):
        model = _QuadraticModel([0.0, 0.0], [2.0, 4.0])
        mask = SparsityMask({"w": np.ones(2)})
        scores = score_grasp(model, mask, np.zeros((1, 1)), np.zeros(1))
        np.testing.assert_allclose(scores["w"], [0.0, 0.0], atol=1e-12)

    def test_finite_on_random_mlp(self):
        rng = np.random.default_rng(4)
        model = build_model(mlp_spec(5, (7,), 3), seed=1)
        mask = SparsityMask.full(model)
        x = rng.standard_normal((12, 5))
        y = rng.integers(0, 3, 12)
        scores = score_grasp(model, mask, x, y)
        for s in scores.values():
            assert np.all(np.isfinite(s))

    def test_scoring_does_not_move_params(self):
        rng = np.random.default_rng(6)
        model = build_model(mlp_spec(5, (7,), 3), seed=2)
        mask = SparsityMask.full(model)
        before = model.snapshot()
        score_grasp(model, mask, rng.standard_normal((9, 5)), rng.integers(0, 3, 9))
        for name, arr in before.items():
            assert np.array_equal(model.registry[name].tensor.data, arr)

    def test_selection_orientation_negates(self):
        model = _QuadraticModel([1.0, 1.0], [2.0, 4.0])
        mask = SparsityMask({"w": np.array([1.0, 0.0])})
        oriented = selection_scores("grasp", model, mask, np.zeros((1, 1)), np.zeros(1))
        # the direction is g masked to [2, 0], so Hv = [4, 0] and -(-w * Hv) = [4, 0];
        # the unmasked direction would give 16 at the pruned position
        assert oriented["w"][0] == pytest.approx(4.0, rel=1e-6)
        assert oriented["w"][1] == pytest.approx(0.0, abs=1e-6)


class TestMagnitudeAndRandom:
    def test_magnitude_absolute_value(self):
        model = _LinearSquaredModel([-5.0, 1.0, 3.0])
        np.testing.assert_array_equal(score_magnitude(model)["w"], [5.0, 1.0, 3.0])

    def test_random_deterministic(self):
        mask = SparsityMask({"w": np.ones(6)})
        a = score_random(mask, seed=9)
        b = score_random(mask, seed=9)
        np.testing.assert_array_equal(a["w"], b["w"])
        assert not np.array_equal(a["w"], score_random(mask, seed=10)["w"])

    def test_equal_magnitudes_use_flat_index_tie_break(self):
        model = _LinearSquaredModel([1.0, -1.0, 1.0, -1.0])
        mask = SparsityMask({"w": np.ones(4)})
        new = prune_global(mask, score_magnitude(model), keep=2)
        np.testing.assert_array_equal(new.arrays["w"], [1.0, 1.0, 0.0, 0.0])


def _sort_oracle(scores, keep):
    """Independent ranking: by descending score, then ascending flat index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return set(order[:keep])


class TestPruneGlobal:
    def test_argmax_selection(self):
        mask = SparsityMask({"w": np.ones(4)})
        new = prune_global(mask, {"w": np.array([5.0, 1.0, 3.0, 2.0])}, keep=2)
        np.testing.assert_array_equal(new.arrays["w"], [1.0, 0.0, 1.0, 0.0])
        assert new.kept_count == 2

    def test_pruned_positions_never_reenter(self):
        mask = SparsityMask({"w": np.array([0.0, 1.0, 1.0, 1.0])})
        scores = {"w": np.array([-np.inf, 0.5, 0.1, 0.9])}
        for keep in (3, 2, 1):
            new = prune_global(mask, scores, keep)
            assert new.arrays["w"][0] == 0.0

    def test_top_scored_pruned_position_stays_pruned(self):
        mask = SparsityMask({"w": np.array([1.0, 0.0, 1.0])})
        new = prune_global(mask, {"w": np.array([0.1, 9.0, 0.5])}, keep=2)
        np.testing.assert_array_equal(new.arrays["w"], [1.0, 0.0, 1.0])

    def test_scores_at_pruned_positions_are_ignored(self):
        mask = SparsityMask({"a": np.array([0.0, 1.0]), "b": np.array([1.0, 0.0, 1.0])})
        scores = {"a": np.array([np.nan, 1.0]), "b": np.array([2.0, np.inf, -np.inf])}
        new = prune_global(mask, scores, keep=3)
        np.testing.assert_array_equal(new.arrays["a"], [0.0, 1.0])
        np.testing.assert_array_equal(new.arrays["b"], [1.0, 0.0, 1.0])

    def test_nan_at_a_kept_position_rejected(self):
        mask = SparsityMask({"w": np.array([1.0, 0.0, 1.0])})
        with pytest.raises(NumericError):
            prune_global(mask, {"w": np.array([1.0, 2.0, np.nan])}, keep=1)

    def test_nan_on_a_full_mask_rejected(self):
        mask = SparsityMask({"w": np.ones(3)})
        with pytest.raises(NumericError):
            prune_global(mask, {"w": np.array([1.0, np.nan, 2.0])}, keep=2)

    def test_kept_nans_outnumbering_pruned_positions_rejected(self):
        mask = SparsityMask({"w": np.array([1.0, 1.0, 1.0, 0.0])})
        with pytest.raises(NumericError):
            prune_global(mask, {"w": np.array([np.nan, np.nan, 1.0, 5.0])}, keep=2)

    def test_tie_break_exhaustive_small_vectors(self):
        # every 0/1/2-valued score vector of length <= 8, every keep count
        for n in (1, 2, 3, 8):
            for values in itertools.product((0.0, 1.0, 2.0), repeat=min(n, 4)):
                scores = np.resize(np.array(values), n)
                mask = SparsityMask({"w": np.ones(n)})
                for keep in range(1, n + 1):
                    got = prune_global(mask, {"w": scores}, keep)
                    kept = set(np.flatnonzero(got.arrays["w"] == 1.0))
                    assert kept == _sort_oracle(list(scores), keep)

    def test_flat_ties_keep_lowest_indices(self):
        mask = SparsityMask({"w": np.ones(4)})
        new = prune_global(mask, {"w": np.array([2.0, 2.0, 2.0, 2.0])}, keep=2)
        np.testing.assert_array_equal(new.arrays["w"], [1.0, 1.0, 0.0, 0.0])

    def test_global_ranking_spans_tensors(self):
        mask = SparsityMask({"a": np.ones(2), "b": np.ones(2)})
        scores = {"a": np.array([0.1, 5.0]), "b": np.array([3.0, 0.2])}
        new = prune_global(mask, scores, keep=2)
        np.testing.assert_array_equal(new.arrays["a"], [0.0, 1.0])
        np.testing.assert_array_equal(new.arrays["b"], [1.0, 0.0])

    def test_refinement_guard(self):
        mask = SparsityMask({"w": np.array([1.0, 0.0])})
        with pytest.raises(RefinementError):
            prune_global(mask, {"w": np.array([1.0, -np.inf])}, keep=2)
        with pytest.raises(ParameterError):
            prune_global(mask, {"w": np.array([1.0, -np.inf])}, keep=0)

    def test_min_kept_score_at_least_max_pruned(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            n = int(rng.integers(2, 50))
            scores = rng.standard_normal(n)
            keep = int(rng.integers(1, n + 1))
            mask = SparsityMask({"w": np.ones(n)})
            new = prune_global(mask, {"w": scores}, keep)
            kept = new.arrays["w"] == 1.0
            if kept.all():
                continue
            assert scores[kept].min() >= scores[~kept].max()


class TestApplyMaskAndLayerStats:
    def test_apply_identity_and_idempotence(self):
        model = build_model(mlp_spec(4, (5,), 3), seed=0)
        before = model.snapshot()
        mask = SparsityMask.full(model)
        apply_mask(model, mask)
        for name, arr in before.items():
            np.testing.assert_array_equal(model.registry[name].tensor.data, arr)
        rng = np.random.default_rng(0)
        mask = SparsityMask({
            e.name: (rng.random(e.tensor.shape) < 0.5).astype(float)
            for e in model.registry.prunable()
        })
        apply_mask(model, mask)
        once = model.snapshot()
        apply_mask(model, mask)
        for name, arr in once.items():
            np.testing.assert_array_equal(model.registry[name].tensor.data, arr)

    def test_single_survivor(self):
        model = build_model(mlp_spec(3, (), 2), seed=0)
        arr = np.zeros((3, 2))
        arr[1, 0] = 1.0
        apply_mask(model, SparsityMask({"fc0_w": arr}))
        w = model.registry["fc0_w"].tensor.data
        assert np.count_nonzero(w) == 1

    def test_layer_fractions_partition(self):
        model = build_model(mlp_spec(4, (5,), 2), seed=0)
        full = SparsityMask.full(model)
        assert all(frac == 0.0 for _, frac in layer_pruned_fraction(full, model.registry))
        rng = np.random.default_rng(1)
        mask = SparsityMask({
            e.name: (rng.random(e.tensor.shape) < 0.6).astype(float)
            for e in model.registry.prunable()
        })
        rows = layer_pruned_fraction(mask, model.registry)
        total = sum(e.tensor.size for e in model.registry.prunable())
        pruned_by_layer = 0
        for name, frac in rows[:-1]:
            size = model.registry[name].tensor.size
            count = round(frac * size)
            assert count == size - int(mask.arrays[name].sum())
            pruned_by_layer += count
        assert rows[-1][0] == "global"
        assert round(rows[-1][1] * total) == total - mask.kept_count
        assert pruned_by_layer == total - mask.kept_count

    def test_ten_weights_four_kept(self):
        model = build_model(mlp_spec(5, (), 2), seed=0)
        arr = np.zeros(10)
        arr[:4] = 1.0
        mask = SparsityMask({"fc0_w": arr.reshape(5, 2)})
        rows = dict(layer_pruned_fraction(mask, model.registry))
        assert rows["fc0_w"] == pytest.approx(0.6)
