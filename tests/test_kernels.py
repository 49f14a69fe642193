"""Conv/pool kernels against direct-loop and reference formulas."""

import numpy as np
import pytest

from anyprune import kernels
from anyprune.errors import ShapeError
from anyprune.tensor import Tape, Tensor, conv2d, mean_pool2, sum_all


def _conv2d_loops(x, w, gout, stride, padding):
    """Direct-loop conv2d: output, then (gx, gw) of ``gout`` when one is given."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    kh, kw = w.shape[2], w.shape[3]
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    out = np.zeros((x.shape[0], w.shape[0], ho, wo))
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for i in range(ho):
        for j in range(wo):
            rows = slice(i * stride, i * stride + kh)
            cols = slice(j * stride, j * stride + kw)
            window = xp[:, :, rows, cols]  # [B, Cin, kh, kw]
            out[:, :, i, j] = np.tensordot(window, w, axes=([1, 2, 3], [1, 2, 3]))
            if gout is not None:
                gxp[:, :, rows, cols] += np.tensordot(gout[:, :, i, j], w, axes=(1, 0))
                gw += np.tensordot(gout[:, :, i, j], window, axes=(0, 0))
    gx = gxp[:, :, padding : padding + x.shape[2], padding : padding + x.shape[3]]
    return out, gx, gw


@pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
def test_conv_matches_direct_loops(stride, padding):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 9, 11))
    w = rng.standard_normal((4, 3, 3, 3))
    out = kernels.conv2d_fwd(x, w, stride, padding)
    g = rng.standard_normal(out.shape)
    ref_out, ref_gx, ref_gw = _conv2d_loops(x, w, g, stride, padding)
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
    gx, gw = kernels.conv2d_bwd(x, w, g, stride, padding)
    np.testing.assert_allclose(gx, ref_gx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gw, ref_gw, rtol=1e-12, atol=1e-12)
    assert np.array_equal(kernels.conv2d_bwd_w(x, w, g, stride, padding), gw)


def _meanpool2_fwd_reference(x):
    ho, wo = x.shape[2] // 2, x.shape[3] // 2
    blocks = x[:, :, : 2 * ho, : 2 * wo].reshape(x.shape[0], x.shape[1], ho, 2, wo, 2)
    return blocks.mean(axis=(3, 5))


def _meanpool2_bwd_reference(x, gout):
    ho, wo = gout.shape[2], gout.shape[3]
    gx = np.zeros_like(x)
    gx[:, :, : 2 * ho, : 2 * wo] = np.repeat(np.repeat(gout, 2, axis=2), 2, axis=3) * 0.25
    return gx


@pytest.mark.parametrize(
    "shape",
    [(32, 8, 14, 14), (32, 16, 7, 7), (2, 3, 9, 11), (3, 2, 6, 5), (1, 1, 2, 2), (4, 3, 7, 3)],
)
def test_mean_pool_bits_match_reference_formulas(shape):
    rng = np.random.default_rng(29)
    x = rng.standard_normal(shape)
    out = kernels.meanpool2_fwd(x)
    assert np.array_equal(out, _meanpool2_fwd_reference(x))
    g = rng.standard_normal(out.shape)
    assert np.array_equal(kernels.meanpool2_bwd(x, g), _meanpool2_bwd_reference(x, g))


def test_conv_identity_kernel():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    w = np.ones((1, 1, 1, 1))
    out = kernels.conv2d_fwd(x, w, 1, 0)
    np.testing.assert_array_equal(out, x)


def test_conv_hand_value():
    # [[1,2],[3,4]] correlated with [[1,0],[0,1]] -> 1*1 + 4*1 = 5
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    w = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
    out = kernels.conv2d_fwd(x, w, 1, 0)
    np.testing.assert_array_equal(out, [[[[5.0]]]])


def test_conv_same_padding_shape():
    x = np.zeros((1, 1, 4, 4))
    w = np.zeros((1, 1, 3, 3))
    assert kernels.conv2d_fwd(x, w, 1, 1).shape == (1, 1, 4, 4)


def test_conv_kernel_too_large():
    x = Tensor(np.zeros((1, 1, 2, 2)))
    w = Tensor(np.zeros((1, 1, 5, 5)))
    with pytest.raises(ShapeError):
        conv2d(x, w, stride=1, padding=1)


def test_conv_gradcheck():
    rng = np.random.default_rng(23)
    x = Tensor(rng.standard_normal((1, 2, 5, 5)))
    w = Tensor(rng.standard_normal((2, 2, 3, 3)))
    tape = Tape()
    loss = sum_all(conv2d(x, w, 1, 1, tape), tape)
    tape.backward(loss)
    h = 1e-6
    for t in (x, w):
        flat = t.data.ravel()
        ga = t.grad.ravel()
        for i in range(0, flat.size, 7):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(kernels.conv2d_fwd(x.data, w.data, 1, 1).sum())
            flat[i] = orig - h
            lm = float(kernels.conv2d_fwd(x.data, w.data, 1, 1).sum())
            flat[i] = orig
            assert ga[i] == pytest.approx((lp - lm) / (2 * h), abs=1e-6)


def test_mean_pool_value_and_odd_crop():
    x = Tensor(np.arange(18.0).reshape(1, 1, 3, 6))
    out = mean_pool2(x)
    # rows 0-1 of each 2x2 block; third row dropped
    expected = np.array([[[[3.5, 5.5, 7.5]]]])
    np.testing.assert_array_equal(out.data, expected)


def test_mean_pool_gradient_spreads_quarter():
    x = Tensor(np.zeros((1, 1, 4, 4)))
    tape = Tape()
    loss = sum_all(mean_pool2(x, tape), tape)
    tape.backward(loss)
    np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))
