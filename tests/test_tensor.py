"""Tensor-core oracles: hand arithmetic, finite differences, and analytic HVPs."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from anyprune.errors import LabelError, NumericError, ShapeError, TapeError
from anyprune.models import ModelSpec, build_model
from anyprune.optim import OptimState, sgd_momentum_step
from anyprune.pruning import SparsityMask
from anyprune.tensor import (
    Tape,
    Tensor,
    bias_add,
    conv2d,
    hvp_fd,
    matmul,
    relu,
    softmax_cross_entropy,
    tensor_randn,
)
from helpers import sum_all


class TestRandn:
    def test_determinism(self):
        a = tensor_randn((2, 2), seed=(42,), scale=1.0)
        b = tensor_randn((2, 2), seed=(42,), scale=1.0)
        np.testing.assert_array_equal(a.data, b.data)

    def test_zero_scale(self):
        t = tensor_randn((3,), seed=(7,), scale=0.0)
        np.testing.assert_array_equal(t.data, np.zeros(3))

    def test_moments(self):
        t = tensor_randn((10000,), seed=(1,), scale=1.0)
        assert abs(t.data.mean()) < 0.05
        assert abs(t.data.std() - 1.0) < 0.05

    def test_invalid_shape(self):
        with pytest.raises(ShapeError):
            tensor_randn((), seed=(0,), scale=1.0)
        with pytest.raises(ShapeError):
            tensor_randn((2, 0), seed=(0,), scale=1.0)

    def test_seed_separates(self):
        a = tensor_randn((8,), seed=(0,), scale=1.0)
        b = tensor_randn((8,), seed=(1,), scale=1.0)
        assert not np.array_equal(a.data, b.data)


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((4, 10))), np.zeros(4, dtype=np.int64))
        assert loss.data == pytest.approx(math.log(10.0), abs=1e-12)

    def test_overflow_stability(self):
        loss = softmax_cross_entropy(Tensor([[1000.0, 0.0]]), np.array([0]))
        assert 0.0 <= float(loss.data) < 1e-10

    def test_hand_value(self):
        # -ln(e^3 / (e^1 + e^2 + e^3)) = ln(1 + e^-1 + e^-2)
        expected = math.log(1.0 + math.exp(-1.0) + math.exp(-2.0))
        loss = softmax_cross_entropy(Tensor([[1.0, 2.0, 3.0]]), np.array([2]))
        assert loss.data == pytest.approx(expected, rel=1e-12)
        assert loss.data == pytest.approx(0.40761, abs=5e-6)

    def test_label_out_of_range(self):
        with pytest.raises(LabelError):
            softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([2]))
        with pytest.raises(LabelError):
            softmax_cross_entropy(Tensor([[0.0, 0.0]]), np.array([-1]))

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            logits = Tensor(rng.standard_normal((6, 4)))
            y = rng.integers(0, 4, 6)
            assert float(softmax_cross_entropy(logits, y).data) >= 0.0

    def test_gradient_rows_sum_to_zero(self):
        rng = np.random.default_rng(3)
        logits = Tensor(rng.standard_normal((5, 7)))
        y = rng.integers(0, 7, 5)
        tape = Tape()
        # rebuild on-tape so the logits tensor records the op
        taped = softmax_cross_entropy(logits, y, tape)
        grads = tape.backward(taped)
        np.testing.assert_allclose(grads[logits].sum(axis=1), np.zeros(5), atol=1e-12)


class TestBackward:
    def test_tensor_used_twice_accumulates(self):
        # d/dW sum(W @ W) at (a, b) is row sum b plus column sum a of W
        w = Tensor([[1.0, 2.0], [3.0, 4.0]])
        tape = Tape()
        loss = sum_all(matmul(w, w, tape), tape)
        np.testing.assert_array_equal(tape.backward(loss)[w], [[7.0, 11.0], [9.0, 13.0]])

    def test_loss_not_on_tape(self):
        tape = Tape()
        w = Tensor([1.0])
        sum_all(w, tape)
        stray = sum_all(Tensor([2.0]))
        with pytest.raises(TapeError):
            tape.backward(stray)

    def test_non_scalar_loss(self):
        tape = Tape()
        out = relu(Tensor([1.0, 2.0]), tape)
        with pytest.raises(TapeError):
            tape.backward(out)

    def test_backward_empties_the_tape_and_keeps_only_leaf_grads(self):
        x = Tensor([[1.0, -2.0], [3.0, 4.0]])
        w = Tensor([[1.0, -1.0], [2.0, 1.0]])
        tape = Tape()
        h = matmul(x, w, tape)  # [[-3, -3], [11, 1]]
        r = relu(h, tape)
        loss = sum_all(r, tape)
        grads = tape.backward(loss)
        assert len(tape) == 0
        assert sorted(map(id, grads)) == sorted(map(id, (x, w)))
        active = (h.data > 0.0).astype(np.float64)
        np.testing.assert_array_equal(grads[w], x.data.T @ active)
        np.testing.assert_array_equal(grads[x], active @ w.data.T)

    def test_second_backward_raises(self):
        w = Tensor([1.0, 2.0])
        tape = Tape()
        loss = sum_all(relu(w, tape), tape)
        grads = tape.backward(loss)
        grad = grads[w].copy()
        with pytest.raises(TapeError, match="already consumed"):
            tape.backward(loss)
        np.testing.assert_array_equal(grads[w], grad)

    @pytest.mark.parametrize(
        "spec",
        [ModelSpec((5,), 3, hidden=(4,)), ModelSpec((1, 6, 6), 3, conv_stack=((2, 3, 1, 1),))],
        ids=["mlp", "convnet"],
    )
    def test_dropped_grads_die_and_no_tensor_holds_a_grad(self, spec):
        rng = np.random.default_rng(14)
        model = build_model(spec, seed=3)
        x = rng.standard_normal((6, *spec.input_shape))
        grads = model.loss_and_grads(x, rng.integers(0, 3, 6))[1]
        refs = {name: weakref.ref(g) for name, g in grads.items()}
        del grads
        assert [name for name, r in refs.items() if r() is not None] == []
        assert not any(hasattr(e.tensor, "grad") for e in model.registry)

    def test_gradients_match_finite_differences(self):
        # spot-check a couple of seeds here; the acceptance suite runs twenty
        for seed in (0, 1):
            assert _mlp_gradcheck_max_rel_err(seed) < 1e-5


def _mlp_gradcheck_max_rel_err(seed, hidden=(8,), d=5, c=3, batch=4, h=1e-6):
    rng = np.random.default_rng(1000 + seed)
    model = build_model(ModelSpec((d,), c, hidden=hidden), seed=seed)
    x = rng.standard_normal((batch, d))
    y = rng.integers(0, c, batch)
    _, grads, _ = model.loss_and_grads(x, y)
    worst = 0.0
    for entry in model.registry:
        flat = entry.tensor.data.ravel()
        ga = grads[entry.name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _, _ = model.loss_and_grads(x, y)
            flat[i] = orig - h
            lm, _, _ = model.loss_and_grads(x, y)
            flat[i] = orig
            gn = (lp - lm) / (2.0 * h)
            worst = max(worst, abs(ga[i] - gn) / max(1.0, abs(ga[i]), abs(gn)))
    return worst


class TestInputGradientSkip:
    """A requires_grad=False input gets no gradient; weight gradients keep their bits."""

    @pytest.mark.parametrize(
        "op,x_shape,w_shape",
        [
            (lambda x, w, tape: matmul(x, w, tape), (5, 4), (4, 3)),
            (lambda x, w, tape: conv2d(x, w, 1, 1, tape), (2, 6, 5, 3), (4, 3, 3, 3)),
        ],
        ids=["matmul", "conv2d"],
    )
    def test_weight_grad_unchanged_and_input_grad_none(self, op, x_shape, w_shape):
        rng = np.random.default_rng(31)
        x_data = rng.standard_normal(x_shape)
        w_data = rng.standard_normal(w_shape)
        grads = {}
        for requires_grad in (False, True):
            x = Tensor(x_data, requires_grad=requires_grad)
            w = Tensor(w_data)
            tape = Tape()
            leaf_grads = tape.backward(sum_all(op(x, w, tape), tape))
            assert (x in leaf_grads) == requires_grad
            grads[requires_grad] = leaf_grads[w]
        assert np.array_equal(grads[False], grads[True])


class TestRelu:
    def test_clamps_and_grads(self):
        x = Tensor([-2.0, 0.0, 3.0])
        tape = Tape()
        out = relu(x, tape)
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])
        loss = sum_all(out, tape)
        np.testing.assert_array_equal(tape.backward(loss)[x], [0.0, 0.0, 1.0])

    def test_mask_keeps_the_bits_of_g_times_positive_input(self):
        # pre-activations hold -0.0 and NaN; g is negative where relu is off,
        # so g * 0.0 is -0.0 there, and g also holds NaN and infinities
        x0 = np.array([[-2.0, -0.0, 0.0, np.nan, 3.0, 1e-300],
                       [5.0, -np.inf, np.inf, -1.0, np.nan, -0.0]])
        g = np.array([[-1.5, -2.0, -3.0, -4.0, -5.0, np.nan],
                      [np.inf, -np.inf, np.nan, np.inf, 7.0, 0.5]])
        with np.errstate(invalid="ignore"):  # inf * 0.0
            expected = g * (x0 > 0.0)
            x = Tensor(x0.copy())
            tape = Tape()
            out = relu(x, tape)
            loss = Tensor(np.asarray(0.0))
            tape.record("inject", (out,), loss, lambda _: (g.copy(),))
            grads = tape.backward(loss)
        assert np.array_equal(grads[x].view(np.uint64), expected.view(np.uint64))


class TestInPlaceActivations:
    """bias_add and relu write into their input's buffer; their values do not change."""

    @pytest.mark.parametrize("shape", [(5, 7), (3, 4, 5, 6)])
    def test_bias_add_shares_the_input_buffer(self, shape):
        rng = np.random.default_rng(61)
        x0 = rng.standard_normal(shape)
        b = Tensor(rng.standard_normal(shape[-1]))
        x = Tensor(x0.copy())
        out = bias_add(x, b, Tape())
        assert np.shares_memory(out.data, x.data)
        assert np.array_equal(out.data, x0 + b.data)

    def test_relu_shares_the_input_buffer(self):
        x0 = np.random.default_rng(62).standard_normal((4, 3, 3, 2))
        x = Tensor(x0.copy())
        out = relu(x, Tape())
        assert np.shares_memory(out.data, x.data)
        assert np.array_equal(out.data, np.maximum(x0, 0.0))


def _quadratic_grad(w, diag):
    """Gradient of 0.5 * w' diag(d) w at the current data of ``w``: diag(d) w."""
    d = np.asarray(diag, dtype=np.float64)
    return lambda: {"w": d * w.data}


class TestHvp:
    def test_quadratic_basis_vectors(self):
        w = Tensor([1.0, 1.0])
        grad_fn = _quadratic_grad(w, [2.0, 4.0])
        hv = hvp_fd(grad_fn, {"w": w}, {"w": np.array([1.0, 0.0])})
        np.testing.assert_allclose(hv["w"], [2.0, 0.0], rtol=1e-6, atol=1e-9)
        hv = hvp_fd(grad_fn, {"w": w}, {"w": np.array([0.0, 1.0])})
        np.testing.assert_allclose(hv["w"], [0.0, 4.0], rtol=1e-6, atol=1e-9)

    def test_params_and_v_naming_different_tensors_raise(self):
        w = Tensor([1.0, 1.0])
        with pytest.raises(ShapeError, match="name different tensors"):
            hvp_fd(_quadratic_grad(w, [2.0, 4.0]), {"w": w}, {"u": np.array([1.0, 0.0])})

    def test_restores_params_bitexactly(self):
        w = Tensor([0.1, -0.7])
        before = w.data.copy()
        hvp_fd(_quadratic_grad(w, [2.0, 4.0]), {"w": w}, {"w": np.array([0.3, 0.9])})
        assert w.data.tobytes() == before.tobytes()

    def test_restores_params_when_grad_fn_raises(self):
        w = Tensor([0.1, -0.0])
        before = w.data.copy()
        seen = []

        def grad_fn():
            seen.append(w.data.copy())
            if len(seen) == 2:
                raise NumericError("second gradient failed")
            return {"w": 2.0 * w.data}

        with pytest.raises(NumericError, match="second gradient failed"):
            hvp_fd(grad_fn, {"w": w}, {"w": np.array([0.3, 0.9])})
        assert len(seen) == 2 and not np.array_equal(seen[1], before)
        assert w.data.tobytes() == before.tobytes()

    def test_eps_consistency_on_mlp(self):
        rng = np.random.default_rng(9)
        model = build_model(ModelSpec((6,), 3, hidden=(8,)), seed=4)
        x = rng.standard_normal((10, 6))
        y = rng.integers(0, 3, 10)
        params = model.params()
        v = {name: rng.standard_normal(p.shape) for name, p in params.items()}

        def grad_fn():
            return model.loss_and_grads(x, y)[1]

        hv_a = np.concatenate([h.ravel() for h in hvp_fd(grad_fn, params, v, eps=1e-4).values()])
        hv_b = np.concatenate([h.ravel() for h in hvp_fd(grad_fn, params, v, eps=1e-5).values()])
        rel = np.linalg.norm(hv_a - hv_b) / max(np.linalg.norm(hv_a), np.linalg.norm(hv_b))
        assert rel < 1e-3

    def test_nonfinite_gradients_raise(self):
        w = Tensor([1e308])  # the gradient 2w of w**2 overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                hvp_fd(_quadratic_grad(w, [2.0]), {"w": w}, {"w": np.array([1.0])}, eps=1.0)


class TestSgdMomentumStep:
    def test_vanilla_step(self):
        p = {"w": Tensor([1.0])}
        state = OptimState(lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_momentum_step(p, {"w": np.array([2.0])}, state, SparsityMask({}))
        np.testing.assert_allclose(p["w"].data, [0.8], rtol=1e-15)

    def test_masked_position_stays_zero(self):
        p = {"w": Tensor([0.0, 1.0])}
        mask = SparsityMask({"w": np.array([0.0, 1.0])})
        state = OptimState(lr=0.5, momentum=0.9, weight_decay=0.0)
        for _ in range(3):
            sgd_momentum_step(p, {"w": np.array([5.0, 0.1])}, state, mask)
            assert p["w"].data[0] == 0.0
            assert state.velocity["w"][0] == 0.0

    def test_two_step_hand_trace(self):
        # independent recurrence: v <- 0.9 v + (g + 1e-4 w); w <- w - 0.1 v
        w_ref, v_ref = 1.0, 0.0
        for _ in range(2):
            v_ref = 0.9 * v_ref + (1.0 + 1e-4 * w_ref)
            w_ref = w_ref - 0.1 * v_ref
        p = {"w": Tensor([1.0])}
        state = OptimState(lr=0.1, momentum=0.9, weight_decay=1e-4)
        for _ in range(2):
            sgd_momentum_step(p, {"w": np.array([1.0])}, state, SparsityMask({}))
        np.testing.assert_allclose(p["w"].data, [w_ref], rtol=1e-15)
        np.testing.assert_allclose(state.velocity["w"], [v_ref], rtol=1e-15)

    def test_shape_mismatch(self):
        p = {"w": Tensor([1.0, 2.0])}
        state = OptimState(lr=0.1)
        with pytest.raises(ShapeError):
            sgd_momentum_step(p, {"w": np.zeros(3)}, state, SparsityMask({}))
        # a mask that keeps every weight multiplies nothing, yet its shape is checked
        with pytest.raises(ShapeError, match="mask shape"):
            sgd_momentum_step(p, {"w": np.zeros(2)}, state, SparsityMask({"w": np.ones(3)}))

    def test_masked_closure_after_many_steps(self):
        rng = np.random.default_rng(21)
        p = {"a": Tensor(rng.standard_normal(10)), "b": Tensor(rng.standard_normal((3, 3)))}
        mask = SparsityMask({
            "a": (rng.random(10) < 0.5).astype(float),
            "b": (rng.random((3, 3)) < 0.5).astype(float),
        })
        state = OptimState(lr=0.05, momentum=0.9, weight_decay=1e-4)
        for _ in range(25):
            grads = {k: rng.standard_normal(v.shape) for k, v in p.items()}
            sgd_momentum_step(p, grads, state, mask)
        for name, m in mask.arrays.items():
            assert np.all(p[name].data[m == 0.0] == 0.0)
            assert np.all(state.velocity[name][m == 0.0] == 0.0)

    @staticmethod
    def _awkward_values(rng, shape):
        # normals sprinkled with -0.0 and subnormals
        a = rng.standard_normal(shape)
        a.flat[::5] = -0.0
        a.flat[1::7] = 5e-324 * rng.integers(-3, 4, a.flat[1::7].size)
        return a

    def test_full_mask_step_is_bitwise_the_maskless_step(self):
        rng = np.random.default_rng(3)
        shapes = {"a": (6, 4), "b": (4,), "c": (4, 3)}
        init = {k: self._awkward_values(rng, s) for k, s in shapes.items()}
        full = SparsityMask({"a": np.ones((6, 4)), "c": np.ones((4, 3))})
        runs = []
        for mask in (full, SparsityMask({})):
            p = {k: Tensor(v.copy()) for k, v in init.items()}
            state = OptimState(lr=0.05, momentum=0.9, weight_decay=1e-4)
            steps = np.random.default_rng(4)
            for _ in range(5):
                grads = {k: self._awkward_values(steps, s) for k, s in shapes.items()}
                sgd_momentum_step(p, grads, state, mask)
            runs.append((p, state))
        (p_full, s_full), (p_none, s_none) = runs
        for k in shapes:
            assert p_full[k].data.tobytes() == p_none[k].data.tobytes()
            assert s_full.velocity[k].tobytes() == s_none.velocity[k].tobytes()

    def test_fresh_state_holds_no_buffer(self):
        p = {"w": Tensor([1.0, 2.0]), "b": Tensor([0.5])}
        state = OptimState(lr=0.1)
        assert state.velocity == {}
        sgd_momentum_step(p, {"w": np.array([1.0, -1.0]), "b": np.array([2.0])}, state, SparsityMask({}))
        assert list(state.velocity) == ["w", "b"]
        np.testing.assert_array_equal(state.velocity["w"], [1.0, -1.0])

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_step_keeps_the_bits_of_the_out_of_place_step(self, weight_decay):
        # the out-of-place step: zeroed momentum up front, a fresh lr*v and a
        # float64 copy of the mask for the partly pruned tensor
        rng = np.random.default_rng(8)
        shapes = {"part": (7, 5), "full": (5, 3), "bias": (3,)}
        init = {k: self._awkward_values(rng, s) for k, s in shapes.items()}
        keep = rng.random(shapes["part"]) < 0.6
        mask = SparsityMask({"part": keep, "full": np.ones(shapes["full"], dtype=bool)})
        p = {k: Tensor(v.copy()) for k, v in init.items()}
        state = OptimState(lr=0.05, momentum=0.9, weight_decay=weight_decay)
        ref_p = {k: v.copy() for k, v in init.items()}
        ref_v = {k: np.zeros(s) for k, s in shapes.items()}
        for _ in range(6):
            grads = {k: self._awkward_values(rng, s) for k, s in shapes.items()}
            for k, g in grads.items():
                step = g + weight_decay * ref_p[k] if weight_decay else g
                ref_v[k] *= 0.9
                ref_v[k] += step
                ref_p[k] -= 0.05 * ref_v[k]
            m = keep.astype(np.float64)
            ref_p["part"] *= m
            ref_v["part"] *= m
            sgd_momentum_step(p, {k: g.copy() for k, g in grads.items()}, state, mask)
            for k in shapes:
                assert p[k].data.tobytes() == ref_p[k].tobytes(), k
                assert state.velocity[k].tobytes() == ref_v[k].tobytes(), k

    def test_partly_pruned_step_allocates_no_model_sized_buffer(self):
        # the prune_wide MLP; the gradients are allocated before tracing starts
        model = build_model(ModelSpec((196,), 10, hidden=(1024, 512)), seed=0)
        params = model.params()
        rng = np.random.default_rng(9)
        mask = SparsityMask({e.name: rng.random(e.tensor.shape) < 0.5 for e in model.registry.prunable()})
        state = OptimState(lr=0.05, momentum=0.9)

        def fresh_grads():
            return {name: rng.standard_normal(p.shape) for name, p in params.items()}

        sgd_momentum_step(params, fresh_grads(), state, mask)  # warm-up: the momentum buffers
        grads = fresh_grads()
        tracemalloc.start()
        try:
            sgd_momentum_step(params, grads, state, mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16, peak

    def test_only_the_partial_tensor_is_zeroed(self):
        rng = np.random.default_rng(5)
        p = {"full": Tensor(rng.standard_normal((3, 3))), "part": Tensor(rng.standard_normal(6))}
        keep = np.array([1.0, 0.0, 1.0, 0.0, 0.0, 1.0])
        mask = SparsityMask({"full": np.ones((3, 3)), "part": keep})
        state = OptimState(lr=0.1, momentum=0.9, weight_decay=0.0)
        for _ in range(3):
            grads = {k: np.abs(rng.standard_normal(v.shape)) + 1.0 for k, v in p.items()}
            sgd_momentum_step(p, grads, state, mask)
        assert np.all(p["part"].data[keep == 0.0] == 0.0)
        assert np.all(state.velocity["part"][keep == 0.0] == 0.0)
        assert np.all(p["part"].data[keep == 1.0] != 0.0)
        assert np.all(p["full"].data != 0.0)
        assert np.all(state.velocity["full"] != 0.0)
