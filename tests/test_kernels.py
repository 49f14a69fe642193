"""Conv/pool kernels against direct-loop and reference formulas.

The kernels and ops take channel-last [B, H, W, C] activations; the references
here stay channel-first [B, C, H, W], so each test transposes its inputs into
the kernels and their outputs back.
"""

import weakref

import numpy as np
import pytest

from anyprune import kernels
from anyprune.errors import ShapeError
from anyprune.tensor import Tape, Tensor, bias_add, conv2d, matmul, mean_pool2, reshape
from helpers import sum_all


def _nhwc(a):
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def _nchw(a):
    return a.transpose(0, 3, 1, 2)


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


def _fwd(x, w, stride, padding):
    """conv2d output of channel-last ``x``, channel-last."""
    cols = kernels.im2col(x, w.shape[2], w.shape[3], stride, padding)
    return kernels.conv2d_fwd(x, w, stride, padding, cols)


STRIDE_PADDING = [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)]


@pytest.mark.parametrize("stride,padding", STRIDE_PADDING)
def test_conv_matches_direct_loops(stride, padding):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((2, 3, 9, 11))
    w = rng.standard_normal((4, 3, 3, 3))
    cols = kernels.im2col(_nhwc(x), 3, 3, stride, padding)
    out = _nchw(kernels.conv2d_fwd(_nhwc(x), w, stride, padding, cols))
    g = rng.standard_normal(out.shape)
    ref_out, ref_gx, ref_gw = _conv2d_loops(x, w, g, stride, padding)
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=1e-12)
    gw_only = kernels.conv2d_bwd_w(w, _nhwc(g), cols)
    gx, gw = kernels.conv2d_bwd(_nhwc(x), w, _nhwc(g), stride, padding, cols)
    np.testing.assert_allclose(_nchw(gx), ref_gx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(gw, ref_gw, rtol=1e-12, atol=1e-12)
    assert np.array_equal(gw_only, gw)


def _patches(x, kh, kw, stride, padding):
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    s0, s1, s2, s3 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, shape=(x.shape[0], x.shape[1], ho, wo, kh, kw),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
    )
    return xp, view


def _conv2d_fwd_reference(x, w, stride, padding):
    _, view = _patches(x, w.shape[2], w.shape[3], stride, padding)
    out = np.tensordot(view, w, axes=([1, 4, 5], [1, 2, 3]))  # [B,Ho,Wo,Cout]
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def _conv2d_gx_reference(x, w, gout, stride, padding):
    """gx by tensordot and an NCHW scatter."""
    kh, kw = w.shape[2], w.shape[3]
    xp, _ = _patches(x, kh, kw, stride, padding)
    _, _, ho, wo = gout.shape
    gcols = np.tensordot(gout, w, axes=(1, 0))  # [B,Ho,Wo,Cin,kh,kw]
    gxp = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            gxp[:, :, u : u + ho * stride : stride, v : v + wo * stride : stride] += (
                gcols[:, :, :, :, u, v].transpose(0, 3, 1, 2)
            )
    return gxp[:, :, padding : padding + x.shape[2], padding : padding + x.shape[3]]


@pytest.mark.parametrize(
    "x_shape,w_shape,stride,padding",
    [((2, 3, 9, 11), (4, 3, 3, 3), s, p) for s, p in STRIDE_PADDING]
    + [
        ((3, 2, 5, 6), (4, 2, 1, 1), 1, 0),
        ((3, 2, 5, 6), (4, 2, 1, 1), 2, 1),
        ((3, 2, 5, 6), (4, 2, 2, 2), 1, 0),
        ((3, 2, 6, 7), (4, 2, 2, 2), 2, 1),
        ((486, 8, 7, 7), (16, 8, 3, 3), 1, 1),  # a scoring-sized batch
        ((32, 1, 14, 14), (8, 1, 3, 3), 1, 1),  # a training minibatch of the first layer
    ],
)
def test_conv_bits_match_tensordot_formulas(x_shape, w_shape, stride, padding):
    rng = np.random.default_rng(41)
    x = rng.standard_normal(x_shape)
    w = rng.standard_normal(w_shape)
    cols = kernels.im2col(_nhwc(x), w_shape[2], w_shape[3], stride, padding)
    assert cols.flags["C_CONTIGUOUS"]
    out = _nchw(kernels.conv2d_fwd(_nhwc(x), w, stride, padding, cols))
    assert np.array_equal(out, _conv2d_fwd_reference(x, w, stride, padding))
    g = rng.standard_normal(out.shape)
    gw_only = kernels.conv2d_bwd_w(w, _nhwc(g), cols)
    gx, gw = kernels.conv2d_bwd(_nhwc(x), w, _nhwc(g), stride, padding, cols)
    assert np.array_equal(_nchw(gx), _conv2d_gx_reference(x, w, g, stride, padding))
    assert np.array_equal(gw_only, gw)
    # gw multiplies the transposed output gradient; BLAS sums it in its own order
    _, _, ref_gw = _conv2d_loops(x, w, g, stride, padding)
    np.testing.assert_allclose(gw, ref_gw, rtol=1e-12, atol=1e-12)


def _track_im2col(monkeypatch):
    """Weak references to every matrix ``kernels.im2col`` returns from now on."""
    refs = []
    real = kernels.im2col

    def tracked(*args):
        cols = real(*args)
        refs.append(weakref.ref(cols))
        return cols

    monkeypatch.setattr(kernels, "im2col", tracked)
    return refs


def test_im2col_matrix_dies_with_an_untaped_conv(monkeypatch):
    refs = _track_im2col(monkeypatch)
    rng = np.random.default_rng(43)
    x = Tensor(_nhwc(rng.standard_normal((2, 3, 6, 5))))
    out = conv2d(x, Tensor(rng.standard_normal((4, 3, 3, 3))), 1, 1)
    assert out.shape == (2, 6, 5, 4)
    assert len(refs) == 1 and refs[0]() is None


@pytest.mark.parametrize("requires_grad", [True, False])
def test_im2col_matrix_lives_on_the_tape_until_backward(monkeypatch, requires_grad):
    refs = _track_im2col(monkeypatch)
    rng = np.random.default_rng(47)
    x = Tensor(_nhwc(rng.standard_normal((2, 3, 6, 5))), requires_grad=requires_grad)
    w = Tensor(rng.standard_normal((4, 3, 3, 3)))
    tape = Tape()
    loss = sum_all(conv2d(x, w, 1, 1, tape), tape)
    assert len(refs) == 1 and refs[0]() is not None
    grads = tape.backward(loss)
    assert refs[0]() is None
    assert w in grads and (x in grads) == requires_grad


def _meanpool2_fwd_reference(x):
    """Each 2x2 window's rows summed, then the two row sums, over 4."""
    ho, wo = x.shape[2] // 2, x.shape[3] // 2
    blocks = x[:, :, : 2 * ho, : 2 * wo].reshape(x.shape[0], x.shape[1], ho, 2, wo, 2)
    rows = blocks[..., 0] + blocks[..., 1]  # [B, C, Ho, 2, Wo]
    return (rows[:, :, :, 0] + rows[:, :, :, 1]) / 4


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
    out = _nchw(kernels.meanpool2_fwd(_nhwc(x)))
    assert np.array_equal(out, _meanpool2_fwd_reference(x))
    ho, wo = out.shape[2], out.shape[3]
    blocks = x[:, :, : 2 * ho, : 2 * wo].reshape(*x.shape[:2], ho, 2, wo, 2)
    np.testing.assert_allclose(out, blocks.mean(axis=(3, 5)), rtol=1e-15, atol=1e-15)
    g = rng.standard_normal(out.shape)
    gx = _nchw(kernels.meanpool2_bwd(_nhwc(x), _nhwc(g)))
    assert np.array_equal(gx, _meanpool2_bwd_reference(x, g))


def test_conv_identity_kernel():
    x = np.arange(16.0).reshape(1, 1, 4, 4)
    w = np.ones((1, 1, 1, 1))
    out = _nchw(_fwd(_nhwc(x), w, 1, 0))
    np.testing.assert_array_equal(out, x)


def test_conv_hand_value():
    # [[1,2],[3,4]] correlated with [[1,0],[0,1]] -> 1*1 + 4*1 = 5
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    w = np.array([[[[1.0, 0.0], [0.0, 1.0]]]])
    out = _nchw(_fwd(_nhwc(x), w, 1, 0))
    np.testing.assert_array_equal(out, [[[[5.0]]]])


def test_conv_same_padding_shape():
    x = np.zeros((1, 1, 4, 4))
    w = np.zeros((1, 1, 3, 3))
    assert _nchw(_fwd(_nhwc(x), w, 1, 1)).shape == (1, 1, 4, 4)


def test_conv_kernel_too_large():
    x = Tensor(_nhwc(np.zeros((1, 1, 2, 2))))
    w = Tensor(np.zeros((1, 1, 5, 5)))
    with pytest.raises(ShapeError):
        conv2d(x, w, stride=1, padding=1)


def test_conv_gradcheck():
    rng = np.random.default_rng(23)
    x = Tensor(_nhwc(rng.standard_normal((1, 2, 5, 5))))
    w = Tensor(rng.standard_normal((2, 2, 3, 3)))
    tape = Tape()
    loss = sum_all(conv2d(x, w, 1, 1, tape), tape)
    grads = tape.backward(loss)
    h = 1e-6
    for t in (x, w):
        flat = t.data.ravel()
        ga = grads[t].ravel()
        for i in range(0, flat.size, 7):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(_fwd(x.data, w.data, 1, 1).sum())
            flat[i] = orig - h
            lm = float(_fwd(x.data, w.data, 1, 1).sum())
            flat[i] = orig
            assert ga[i] == pytest.approx((lp - lm) / (2 * h), abs=1e-6)


def test_mean_pool_value_and_odd_crop():
    x = Tensor(_nhwc(np.arange(18.0).reshape(1, 1, 3, 6)))
    out = mean_pool2(x)
    # rows 0-1 of each 2x2 block; third row dropped
    expected = np.array([[[[3.5, 5.5, 7.5]]]])
    np.testing.assert_array_equal(_nchw(out.data), expected)


def test_mean_pool_gradient_spreads_quarter():
    x = Tensor(_nhwc(np.zeros((1, 1, 4, 4))))
    tape = Tape()
    loss = sum_all(mean_pool2(x, tape), tape)
    np.testing.assert_allclose(_nchw(tape.backward(loss)[x]), np.full((1, 1, 4, 4), 0.25))


def test_channel_bias_gradient_sums_every_position_of_a_channel():
    rng = np.random.default_rng(53)
    g_nchw = rng.standard_normal((32, 8, 14, 14))
    x = Tensor(rng.standard_normal((32, 14, 14, 8)))
    b = Tensor(rng.standard_normal(8))
    tape = Tape()
    out = bias_add(x, b, tape)
    # loss = <out, G>, so the output gradient is G exactly
    flat = reshape(out, (1, out.size), tape)
    loss = reshape(matmul(flat, Tensor(_nhwc(g_nchw).reshape(-1, 1)), tape), (), tape)
    grads = tape.backward(loss)
    assert np.array_equal(grads[x], _nhwc(g_nchw))
    np.testing.assert_allclose(grads[b], g_nchw.sum(axis=(0, 2, 3)), rtol=1e-12, atol=1e-12)


# (Ho·Wo, Cin, Cout) of 3x3, padding-1 convs: the first layer on 14x14 digits
# (K = Cin·9 = 9), the 8-16 convnet's second layer (K = 72), and a 32-32 one
# (K = 288). Blocks keep the bits only where a 32-image product takes the
# whole batch's OpenBLAS path; the kernels docstring names shapes where not.
BLOCKED_CONVS = [((14, 14), 1, 8), ((7, 7), 8, 16), ((7, 7), 32, 32)]


def _blocked_conv_operands(b, hw, cin, cout, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, *hw, cin))
    w = rng.standard_normal((cout, cin, 3, 3))
    g = rng.standard_normal((b, *hw, cout))
    return x, w, g, kernels.im2col(x, 3, 3, 1, 1)


@pytest.mark.parametrize("hw,cin,cout", BLOCKED_CONVS)
@pytest.mark.parametrize("b", [1, 31, 32, 33, 65, 256])
def test_blocked_products_keep_the_bits_of_one_product(b, hw, cin, cout):
    x, w, g, cols = _blocked_conv_operands(b, hw, cin, cout, seed=59)
    out = kernels.conv2d_fwd(x, w, 1, 1, cols)
    whole = cols @ w.transpose(1, 2, 3, 0).reshape(-1, cout)
    assert np.array_equal(out, whole.reshape(out.shape))
    gx, _ = kernels.conv2d_bwd(x, w, g, 1, 1, cols)
    gcols = (g.reshape(-1, cout) @ w.reshape(cout, -1)).reshape(b, *hw, cin, 3, 3)
    gxp = np.zeros((b, hw[0] + 2, hw[1] + 2, cin))
    for u in range(3):
        for v in range(3):
            gxp[:, u : u + hw[0], v : v + hw[1], :] += gcols[:, :, :, :, u, v]
    assert np.array_equal(gx, gxp[:, 1:-1, 1:-1, :])


@pytest.mark.parametrize("hw,cin,cout", BLOCKED_CONVS)
def test_no_conv_product_takes_more_than_32_images(monkeypatch, hw, cin, cout):
    b = 121
    x, w, g, cols = _blocked_conv_operands(b, hw, cin, cout, seed=61)
    calls = []
    real = np.matmul

    def recorded(a, *args, **kwargs):
        calls.append(a.shape[0])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(kernels.np, "matmul", recorded)
    kernels.conv2d_fwd(x, w, 1, 1, cols)
    kernels.conv2d_bwd(x, w, g, 1, 1, cols)
    monkeypatch.undo()
    block = 32 * hw[0] * hw[1]
    # the forward and the input gradient each cover the batch in 32-image products
    assert calls == [block] * 8


def test_kernel_gradient_is_one_product_over_the_whole_batch():
    x, w, g, cols = _blocked_conv_operands(256, (7, 7), 8, 16, seed=67)
    gw = kernels.conv2d_bwd_w(w, g, cols)
    assert np.array_equal(gw, (g.reshape(-1, 16).T @ cols).reshape(w.shape))
    _, gw_bwd = kernels.conv2d_bwd(x, w, g, 1, 1, cols)
    assert np.array_equal(gw_bwd, gw)
