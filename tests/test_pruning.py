"""Pruning oracles: schedules, saliency scores, and global top-k selection."""

import itertools
import tracemalloc

import numpy as np
import pytest

from anyprune.errors import DataError, NumericError, ParameterError, RefinementError
from anyprune.harness import evaluate
from anyprune.kernels import BLOCK_IMAGES
from anyprune.models import ModelSpec, build_model
from anyprune.pruning import (
    SCORE_CHUNK,
    SparsityMask,
    _mean_grads,
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
from anyprune.tensor import Tensor


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


class _MLPSlices:
    """The row slices of an MLP, for the test models below."""

    def row_slices(self, n, rows):
        return [slice(start, start + rows) for start in range(0, n, rows)]


class _LinearSquaredModel(_MLPSlices):
    """pred = w . x with loss 0.5 * mean (pred - y)^2; analytic gradients."""

    def __init__(self, w):
        self.params = {"w": Tensor(w)}
        self.prunable = ("w",)

    def loss_and_grads(self, x, y):
        w = self.params["w"].data
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

    def test_scores_in_place_without_moving_weights(self):
        model, x, y = _scoring_case(ModelSpec((6,), 3, hidden=(9,)), 2 * SCORE_CHUNK + 5, seed=4)
        before = model.snapshot()
        mean = _mean_grads(model, x, y)
        got = score_snip(model, x, y)
        assert list(got) == list(model.prunable)
        for name, p in model.params.items():
            assert p.data.tobytes() == before[name].tobytes(), name
        for name, s in got.items():
            assert s.tobytes() == np.abs(mean[name] * before[name]).tobytes(), name

    def test_empty_pi_rejected(self):
        model = _LinearSquaredModel([1.0])
        mask = SparsityMask({"w": np.ones(1)})
        for pruner in ("snip", "grasp"):
            with pytest.raises(DataError, match="scoring set is empty"):
                selection_scores(pruner, model, mask, np.zeros((0, 1)), np.zeros(0))


class _QuadraticModel(_MLPSlices):
    """L(w) = 0.5 * w' diag(d) w with the analytic gradient diag(d) w."""

    def __init__(self, w, diag):
        self.params = {"w": Tensor(w)}
        self.prunable = ("w",)
        self._diag = np.asarray(diag, dtype=np.float64)

    def loss_and_grads(self, x, y):
        w = self.params["w"].data
        return 0.5 * float(np.sum(self._diag * w * w)), {"w": self._diag * w}, None


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
        model = build_model(ModelSpec((5,), 3, hidden=(7,)), seed=1)
        mask = SparsityMask.full(model)
        x = rng.standard_normal((12, 5))
        y = rng.integers(0, 3, 12)
        scores = score_grasp(model, mask, x, y)
        for s in scores.values():
            assert np.all(np.isfinite(s))

    def test_scoring_does_not_move_params(self):
        rng = np.random.default_rng(6)
        model = build_model(ModelSpec((5,), 3, hidden=(7,)), seed=2)
        mask = SparsityMask.full(model)
        before = model.snapshot()
        score_grasp(model, mask, rng.standard_normal((9, 5)), rng.integers(0, 3, 9))
        for name, arr in before.items():
            assert np.array_equal(model.params[name].data, arr)

    def test_selection_orientation_negates(self):
        model = _QuadraticModel([1.0, 1.0], [2.0, 4.0])
        mask = SparsityMask({"w": np.array([1.0, 0.0])})
        oriented = selection_scores("grasp", model, mask, np.zeros((1, 1)), np.zeros(1))
        # the direction is g masked to [2, 0], so Hv = [4, 0] and -(-w * Hv) = [4, 0];
        # the unmasked direction would give 16 at the pruned position
        assert oriented["w"][0] == pytest.approx(4.0, rel=1e-6)
        assert oriented["w"][1] == pytest.approx(0.0, abs=1e-6)


def _scoring_case(spec, n, seed):
    rng = np.random.default_rng(seed)
    model = build_model(spec, seed=seed)
    x = rng.standard_normal((n, *spec.input_shape))
    y = rng.integers(0, spec.class_count, n)
    return model, x, y


class TestChunkedScoring:
    @pytest.mark.parametrize("n", [1, 37, SCORE_CHUNK])
    def test_one_chunk_keeps_the_bits_of_one_call(self, n):
        model, x, y = _scoring_case(ModelSpec((6,), 3, hidden=(9,)), n, seed=2)
        want = model.loss_and_grads(x, y)[1]
        got = _mean_grads(model, x, y)
        assert list(got) == list(want)
        for name, g in want.items():
            np.testing.assert_array_equal(got[name], g, err_msg=name)

    @pytest.mark.parametrize("spec", [
        ModelSpec((6,), 3, hidden=(9, 5)),
        ModelSpec((1, 8, 8), 3, hidden=(6,), conv_stack=((4, 3, 1, 1),)),
    ], ids=["mlp", "convnet_padding_1"])
    def test_ragged_chunks_match_the_whole_batch(self, spec):
        model, x, y = _scoring_case(spec, 2 * SCORE_CHUNK + 1, seed=5)
        slices = model.row_slices(x.shape[0], SCORE_CHUNK)
        # more than two slices, and a ragged tail
        assert len(slices) > 2 and y[slices[-1]].size < y[slices[0]].size
        want = model.loss_and_grads(x, y)[1]
        got = _mean_grads(model, x, y)
        assert list(got) == list(want)
        for name, g in want.items():
            np.testing.assert_allclose(got[name], g, rtol=1e-12, atol=0.0, err_msg=name)

    def test_chunked_snip_prunes_to_the_whole_batch_mask(self):
        model, x, y = _scoring_case(ModelSpec((12,), 4, hidden=(32, 16)), 3 * SCORE_CHUNK + 17, seed=8)
        mask = SparsityMask.full(model)
        grads = model.loss_and_grads(x, y)[1]
        whole = {name: np.abs(grads[name] * model.params[name].data) for name in model.prunable}
        chunked = selection_scores("snip", model, mask, x, y)
        for keep in (mask.kept_count // 2, keep_count(4.5, mask.kept_count)):
            want = prune_global(mask, whole, keep)
            got = prune_global(mask, chunked, keep)
            for name, m in want.arrays.items():
                np.testing.assert_array_equal(got.arrays[name], m, err_msg=f"{name}, keep={keep}")

    @pytest.mark.parametrize("pruner", ["snip", "grasp"])
    def test_scoring_peak_does_not_grow_with_the_scoring_set(self, pruner):
        # the prune_wide MLP; the rows are allocated before tracing starts.
        # Each slice's gradients die once summed, so from the second slice on
        # the sum and one slice's set are all that is held
        model, x, y = _scoring_case(ModelSpec((196,), 10, hidden=(1024, 512)), 8192, seed=3)
        mask = SparsityMask.full(model)
        selection_scores(pruner, model, mask, x[:SCORE_CHUNK], y[:SCORE_CHUNK])  # warm-up
        peaks = {}
        for n in (2 * SCORE_CHUNK, 3 * SCORE_CHUNK, 2048, 8192):
            tracemalloc.start()
            try:
                selection_scores(pruner, model, mask, x[:n], y[:n])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        for peak in peaks.values():
            assert abs(peak - peaks[2 * SCORE_CHUNK]) <= 2 ** 18, peaks

    @pytest.mark.parametrize("call", ["snip", "grasp", "predict", "evaluate"])
    def test_convnet_peak_stays_at_one_kernel_block(self, call):
        # the digits convnet; the rows are allocated before tracing starts
        spec = ModelSpec((1, 14, 14), 10, conv_stack=((8, 3, 1, 1), (16, 3, 1, 1)))
        model, x, y = _scoring_case(spec, 1024, seed=3)
        mask = SparsityMask.full(model)
        forward = {
            "snip": lambda n: selection_scores("snip", model, mask, x[:n], y[:n]),
            "grasp": lambda n: selection_scores("grasp", model, mask, x[:n], y[:n]),
            "predict": lambda n: model.predict(x[:n]),
            "evaluate": lambda n: evaluate(model, x[:n], y[:n]),
        }[call]
        forward(BLOCK_IMAGES)  # warm-up
        peaks = {}
        for n in (64, 1024):
            tracemalloc.start()
            try:
                forward(n)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[1024] - peaks[64] <= 2 ** 18, peaks


class TestMagnitudeAndRandom:
    def test_magnitude_absolute_value(self):
        model = _LinearSquaredModel([-5.0, 1.0, 3.0])
        np.testing.assert_array_equal(score_magnitude(model)["w"], [5.0, 1.0, 3.0])

    def test_random_deterministic(self):
        mask = SparsityMask({"w": np.ones(6)})
        a = score_random(mask, seed=(9,))
        b = score_random(mask, seed=(9,))
        np.testing.assert_array_equal(a["w"], b["w"])
        assert not np.array_equal(a["w"], score_random(mask, seed=(10,))["w"])

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
        with pytest.raises(NumericError, match="'w'"):
            prune_global(mask, {"w": np.array([1.0, 2.0, np.nan])}, keep=1)

    def test_nan_on_a_full_mask_rejected(self):
        mask = SparsityMask({"w": np.ones(3)})
        with pytest.raises(NumericError, match="'w'"):
            prune_global(mask, {"w": np.array([1.0, np.nan, 2.0])}, keep=2)

    def test_kept_nans_outnumbering_pruned_positions_rejected(self):
        mask = SparsityMask({"w": np.array([1.0, 1.0, 1.0, 0.0])})
        with pytest.raises(NumericError, match="'w'"):
            prune_global(mask, {"w": np.array([np.nan, np.nan, 1.0, 5.0])}, keep=2)

    def test_scores_and_input_mask_left_unchanged(self):
        rng = np.random.default_rng(5)
        kept_a = rng.random((6, 4)) < 0.7
        mask = SparsityMask({"a": kept_a, "b": rng.random(9) < 0.7})
        scores = {"a": rng.standard_normal((6, 4)), "b": rng.standard_normal(9)}
        scores["a"][~kept_a] = np.nan
        scores["b"][:2] = (-0.0, -np.inf)
        want_scores = {n: s.tobytes() for n, s in scores.items()}
        want_mask = {n: a.tobytes() for n, a in mask.arrays.items()}
        kept = dict(mask.kept)
        prune_global(mask, scores, keep=mask.kept_count // 2)
        assert {n: s.tobytes() for n, s in scores.items()} == want_scores
        assert {n: a.tobytes() for n, a in mask.arrays.items()} == want_mask
        assert mask.kept == kept

    def test_selection_holds_one_float64_copy(self):
        # the prune_wide MLP's hidden weights, allocated before tracing starts;
        # tracemalloc counts numpy's buffers in their own domain
        rng = np.random.default_rng(7)
        shapes = {"fc0_w": (196, 1024), "fc1_w": (1024, 512)}
        mask = SparsityMask({n: rng.random(s) < 0.8 for n, s in shapes.items()})
        scores = {n: rng.standard_normal(s) for n, s in shapes.items()}
        assert mask.size == 724_992
        prune_global(mask, scores, keep=1)  # warm-up
        tracemalloc.start()
        try:
            new = prune_global(mask, scores, keep=mask.size // 2)
            peak = tracemalloc.get_traced_memory()[1]
            alive = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            )
        finally:
            tracemalloc.stop()
        assert new.kept_count == mask.size // 2
        assert peak <= 1.5 * 8 * mask.size, peak
        retained = sum(stat.size for stat in alive.statistics("filename"))
        assert retained <= mask.size, retained

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

    def test_keep_all_kept_returns_the_old_support(self):
        mask = SparsityMask({
            "a": np.array([[1.0, 0.0], [1.0, 1.0]]),
            "b": np.array([0.0, 1.0, 1.0]),
        })
        scores = {"a": np.array([[0.3, 9.0], [-np.inf, 0.3]]), "b": np.array([9.0, -1.0, np.inf])}
        new = prune_global(mask, scores, keep=mask.kept_count)
        for name, a in mask.arrays.items():
            np.testing.assert_array_equal(new.arrays[name], a)

    def test_keep_one_of_all_tied_keeps_the_first_kept_flat_index(self):
        mask = SparsityMask({"a": np.array([0.0, 0.0, 1.0, 1.0]), "b": np.ones(3)})
        scores = {"a": np.array([9.0, 9.0, 2.0, 2.0]), "b": np.full(3, 2.0)}
        new = prune_global(mask, scores, keep=1)
        np.testing.assert_array_equal(new.arrays["a"], [0.0, 0.0, 1.0, 0.0])
        np.testing.assert_array_equal(new.arrays["b"], [0.0, 0.0, 0.0])

    def test_tie_run_across_a_tensor_boundary_keeps_the_earlier_tensor(self):
        # mask order, not name order: "z" comes first
        mask = SparsityMask({"z": np.ones(3), "a": np.ones(3)})
        scores = {"z": np.array([5.0, 2.0, 2.0]), "a": np.array([2.0, 2.0, 1.0])}
        new = prune_global(mask, scores, keep=4)
        np.testing.assert_array_equal(new.arrays["z"], [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(new.arrays["a"], [1.0, 0.0, 0.0])

    def test_large_tie_heavy_mask_matches_a_stable_sort(self):
        # more positions than the hypothesis properties draw, so numpy's
        # partition takes its introselect path; two-decimal scores put the
        # threshold inside a run of hundreds of ties, +0.0 and -0.0 included
        rng = np.random.default_rng(31)
        shapes = {"fc0_w": (320, 256), "fc1_w": (256, 128), "fc2_w": (128, 160)}
        masks = {n: (rng.random(s) < 0.8).astype(float) for n, s in shapes.items()}
        scores = {n: np.round(0.5 * rng.standard_normal(s), 2) for n, s in shapes.items()}
        masks["fc0_w"].flat[:2] = 1.0
        scores["fc0_w"].flat[:2] = (np.inf, -np.inf)
        for n, m in masks.items():  # pruned positions would outrank every kept one
            scores[n][m == 0.0] = 9.0
        mask = SparsityMask(masks)
        assert sum(m.size for m in masks.values()) >= 2 ** 17
        flat = np.concatenate([scores[n].ravel() for n in shapes])
        pruned = np.concatenate([masks[n].ravel() for n in shapes]) == 0.0
        kept_zeros = flat[~pruned][flat[~pruned] == 0.0]
        assert np.signbit(kept_zeros).any() and not np.signbit(kept_zeros).all()
        # a stable sort: kept before pruned, then descending score, then flat index
        order = np.lexsort((-flat, pruned))
        at_zero = int(np.count_nonzero(flat[~pruned] > 0.0)) + kept_zeros.size // 2
        for keep in (1, at_zero, mask.kept_count // 2, mask.kept_count - 1, mask.kept_count):
            want = np.zeros(flat.size)
            want[order[:keep]] = 1.0
            new = prune_global(mask, scores, keep)
            got = np.concatenate([new.arrays[n].ravel() for n in shapes])
            np.testing.assert_array_equal(got, want, err_msg=f"keep={keep}")


class TestSparsityMask:
    def test_counts_of_full_partial_and_empty_masks(self):
        model = build_model(ModelSpec((4,), 3, hidden=(5,)), seed=0)
        full = SparsityMask.full(model)
        assert full.kept == {"fc0_w": 20, "fc1_w": 15}
        assert full.kept_count == full.size == 35
        partial = SparsityMask({"a": np.array([[1.0, 0.0], [0.0, 1.0]]), "b": np.ones(3)})
        assert partial.kept == {"a": 2, "b": 3}
        assert (partial.kept_count, partial.size) == (5, 7)
        empty = SparsityMask({})
        assert (empty.kept, empty.kept_count, empty.size) == ({}, 0, 0)

    def test_arrays_are_bool_one_byte_per_position(self):
        model = build_model(ModelSpec((4,), 3, hidden=(5,)), seed=0)
        full = SparsityMask.full(model)
        pruned = prune_global(full, score_magnitude(model), keep=10)
        for mask in (full, pruned):
            for a in mask.arrays.values():
                assert a.dtype == bool and a.nbytes == a.size

    def test_float_zero_one_input_accepted_other_values_rejected(self):
        mask = SparsityMask({"w": np.array([[1.0, 0.0], [0.0, 1.0]])})
        np.testing.assert_array_equal(mask.arrays["w"], [[True, False], [False, True]])
        assert mask.kept == {"w": 2}
        for bad in (0.5, np.nan):
            with pytest.raises(ParameterError, match="'w' has entries outside"):
                SparsityMask({"w": np.array([1.0, bad])})

    def test_bool_input_is_kept_without_a_temporary(self):
        a = np.random.default_rng(8).random(1_000_000) < 0.5
        tracemalloc.start()
        try:
            mask = SparsityMask({"w": a})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mask.arrays["w"] is a and mask.kept == {"w": int(a.sum())}
        assert peak < a.size // 4, peak


class TestApplyMaskAndLayerStats:
    def test_apply_identity_and_idempotence(self):
        model = build_model(ModelSpec((4,), 3, hidden=(5,)), seed=0)
        before = model.snapshot()
        mask = SparsityMask.full(model)
        apply_mask(model, mask)
        for name, arr in before.items():
            np.testing.assert_array_equal(model.params[name].data, arr)
        rng = np.random.default_rng(0)
        mask = SparsityMask({
            name: (rng.random(model.params[name].shape) < 0.5).astype(float)
            for name in model.prunable
        })
        apply_mask(model, mask)
        once = model.snapshot()
        apply_mask(model, mask)
        for name, arr in once.items():
            np.testing.assert_array_equal(model.params[name].data, arr)

    def test_single_survivor(self):
        model = build_model(ModelSpec((3,), 2), seed=0)
        arr = np.zeros((3, 2))
        arr[1, 0] = 1.0
        apply_mask(model, SparsityMask({"fc0_w": arr}))
        w = model.params["fc0_w"].data
        assert np.count_nonzero(w) == 1

    def test_layer_fractions_partition(self):
        model = build_model(ModelSpec((4,), 2, hidden=(5,)), seed=0)
        full = SparsityMask.full(model)
        assert all(frac == 0.0 for _, frac in layer_pruned_fraction(full))
        rng = np.random.default_rng(1)
        mask = SparsityMask({
            name: (rng.random(model.params[name].shape) < 0.6).astype(float)
            for name in model.prunable
        })
        rows = layer_pruned_fraction(mask)
        total = sum(model.params[name].size for name in model.prunable)
        pruned_by_layer = 0
        for name, frac in rows:
            size = model.params[name].size
            count = round(frac * size)
            assert count == size - int(mask.arrays[name].sum())
            pruned_by_layer += count
        assert pruned_by_layer == total - mask.kept_count

    def test_ten_weights_four_kept(self):
        model = build_model(ModelSpec((5,), 2), seed=0)
        arr = np.zeros(10)
        arr[:4] = 1.0
        mask = SparsityMask({"fc0_w": arr.reshape(5, 2)})
        rows = dict(layer_pruned_fraction(mask))
        assert rows["fc0_w"] == pytest.approx(0.6)

    def test_empty_mask_has_no_rows(self):
        assert layer_pruned_fraction(SparsityMask({})) == []
