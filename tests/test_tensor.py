"""Tensor-core oracles: hand arithmetic, finite differences, and analytic HVPs."""

import math

import numpy as np
import pytest

from anyprune.errors import LabelError, NumericError, ShapeError, TapeError
from anyprune.models import build_model, mlp_spec
from anyprune.optim import OptimState, sgd_momentum_step
from anyprune.pruning import SparsityMask
from anyprune.tensor import (
    Tape,
    Tensor,
    conv2d,
    hvp_fd,
    matmul,
    mul,
    relu,
    scale,
    softmax_cross_entropy,
    sum_all,
    tensor_randn,
)


class TestRandn:
    def test_determinism(self):
        a = tensor_randn((2, 2), seed=42, scale=1.0)
        b = tensor_randn((2, 2), seed=42, scale=1.0)
        np.testing.assert_array_equal(a.data, b.data)

    def test_zero_scale(self):
        t = tensor_randn((3,), seed=7, scale=0.0)
        np.testing.assert_array_equal(t.data, np.zeros(3))

    def test_moments(self):
        t = tensor_randn((10000,), seed=1, scale=1.0)
        assert abs(t.data.mean()) < 0.05
        assert abs(t.data.std() - 1.0) < 0.05

    def test_invalid_shape(self):
        with pytest.raises(ShapeError):
            tensor_randn((), seed=0, scale=1.0)
        with pytest.raises(ShapeError):
            tensor_randn((2, 0), seed=0, scale=1.0)

    def test_seed_separates(self):
        a = tensor_randn((8,), seed=0, scale=1.0)
        b = tensor_randn((8,), seed=1, scale=1.0)
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
        tape.backward(taped)
        np.testing.assert_allclose(logits.grad.sum(axis=1), np.zeros(5), atol=1e-12)


class TestBackward:
    def test_sum_of_squares(self):
        w = Tensor([1.0, 2.0, 3.0])
        tape = Tape()
        loss = sum_all(mul(w, w, tape), tape)
        tape.backward(loss)
        np.testing.assert_allclose(w.grad, [2.0, 4.0, 6.0], rtol=1e-15)

    def test_loss_not_on_tape(self):
        tape = Tape()
        w = Tensor([1.0])
        sum_all(w, tape)
        stray = sum_all(Tensor([2.0]))
        with pytest.raises(TapeError):
            tape.backward(stray)

    def test_non_scalar_loss(self):
        tape = Tape()
        out = mul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]), tape)
        with pytest.raises(TapeError):
            tape.backward(out)

    def test_gradients_match_finite_differences(self):
        # spot-check a couple of seeds here; the acceptance suite runs twenty
        for seed in (0, 1):
            assert _mlp_gradcheck_max_rel_err(seed) < 1e-5


def _mlp_gradcheck_max_rel_err(seed, hidden=(8,), d=5, c=3, batch=4, h=1e-6):
    rng = np.random.default_rng(1000 + seed)
    model = build_model(mlp_spec(d, hidden, c), seed=seed)
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
            (lambda x, w, tape: conv2d(x, w, 1, 1, tape), (2, 3, 6, 5), (4, 3, 3, 3)),
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
            tape.backward(sum_all(op(x, w, tape), tape))
            assert (x.grad is not None) == requires_grad
            grads[requires_grad] = w.grad
        assert np.array_equal(grads[False], grads[True])


class TestRelu:
    def test_clamps_and_grads(self):
        x = Tensor([-2.0, 0.0, 3.0])
        tape = Tape()
        out = relu(x, tape)
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])
        loss = sum_all(out, tape)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


def _quadratic_loss(w, diag):
    d = Tensor(diag)

    def loss_fn(tape):
        return scale(sum_all(mul(mul(w, w, tape), d, tape), tape), 0.5, tape)

    return loss_fn


class TestHvp:
    def test_quadratic_basis_vectors(self):
        w = Tensor([1.0, 1.0])
        loss_fn = _quadratic_loss(w, [2.0, 4.0])
        hv = hvp_fd(loss_fn, [w], [np.array([1.0, 0.0])])
        np.testing.assert_allclose(hv[0], [2.0, 0.0], rtol=1e-6, atol=1e-9)
        hv = hvp_fd(loss_fn, [w], [np.array([0.0, 1.0])])
        np.testing.assert_allclose(hv[0], [0.0, 4.0], rtol=1e-6, atol=1e-9)

    def test_restores_params_bitexactly(self):
        w = Tensor([0.1, -0.7])
        before = w.data.copy()
        hvp_fd(_quadratic_loss(w, [2.0, 4.0]), [w], [np.array([0.3, 0.9])])
        assert np.array_equal(w.data, before)

    def test_eps_consistency_on_mlp(self):
        rng = np.random.default_rng(9)
        model = build_model(mlp_spec(6, (8,), 3), seed=4)
        x = rng.standard_normal((10, 6))
        y = rng.integers(0, 3, 10)
        params = [e.tensor for e in model.registry]
        v = [rng.standard_normal(p.shape) for p in params]

        def loss_fn(tape):
            return model.loss_on_tape(x, y, tape)

        hv_a = np.concatenate([h.ravel() for h in hvp_fd(loss_fn, params, v, eps=1e-4)])
        hv_b = np.concatenate([h.ravel() for h in hvp_fd(loss_fn, params, v, eps=1e-5)])
        rel = np.linalg.norm(hv_a - hv_b) / max(np.linalg.norm(hv_a), np.linalg.norm(hv_b))
        assert rel < 1e-3

    def test_nonfinite_gradients_raise(self):
        w = Tensor([1e308])

        def loss_fn(tape):
            return sum_all(mul(w, w, tape), tape)

        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError):
                hvp_fd(loss_fn, [w], [np.array([1.0])], eps=1.0)


class TestSgdMomentumStep:
    def test_vanilla_step(self):
        p = {"w": Tensor([1.0])}
        state = OptimState(p, lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_momentum_step(p, {"w": np.array([2.0])}, state)
        np.testing.assert_allclose(p["w"].data, [0.8], rtol=1e-15)

    def test_masked_position_stays_zero(self):
        p = {"w": Tensor([0.0, 1.0])}
        mask = SparsityMask({"w": np.array([0.0, 1.0])})
        state = OptimState(p, lr=0.5, momentum=0.9, weight_decay=0.0)
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
        state = OptimState(p, lr=0.1, momentum=0.9, weight_decay=1e-4)
        for _ in range(2):
            sgd_momentum_step(p, {"w": np.array([1.0])}, state)
        np.testing.assert_allclose(p["w"].data, [w_ref], rtol=1e-15)
        np.testing.assert_allclose(state.velocity["w"], [v_ref], rtol=1e-15)

    def test_shape_mismatch(self):
        p = {"w": Tensor([1.0, 2.0])}
        state = OptimState(p, lr=0.1)
        with pytest.raises(ShapeError):
            sgd_momentum_step(p, {"w": np.zeros(3)}, state)

    def test_masked_closure_after_many_steps(self):
        rng = np.random.default_rng(21)
        p = {"a": Tensor(rng.standard_normal(10)), "b": Tensor(rng.standard_normal((3, 3)))}
        mask = SparsityMask({
            "a": (rng.random(10) < 0.5).astype(float),
            "b": (rng.random((3, 3)) < 0.5).astype(float),
        })
        state = OptimState(p, lr=0.05, momentum=0.9, weight_decay=1e-4)
        for _ in range(25):
            grads = {k: rng.standard_normal(v.shape) for k, v in p.items()}
            sgd_momentum_step(p, grads, state, mask)
        for name, m in mask.arrays.items():
            assert np.all(p[name].data[m == 0.0] == 0.0)
            assert np.all(state.velocity[name][m == 0.0] == 0.0)
