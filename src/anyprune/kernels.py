"""Convolution and pooling inner loops, in numpy.

A convolution builds one im2col patch matrix per call (:func:`im2col`) and
serves both its forward and its kernel gradient gw with it; the input
gradient is scattered back from a tensordot with the kernel. 2x2 mean pooling
works on four strided slices of the input. Every kernel is deterministic.

Dense (matmul) layers do not live here: BLAS already is the fast path for them.
"""

import numpy as np


def _im2col(xp, kh, kw, stride, ho, wo):
    # read-only strided view [B, C, Ho, Wo, kh, kw] over the padded input
    b, c, _, _ = xp.shape
    s0, s1, s2, s3 = xp.strides
    shape = (b, c, ho, wo, kh, kw)
    strides = (s0, s1, s2 * stride, s3 * stride, s2, s3)
    return np.lib.stride_tricks.as_strided(xp, shape=shape, strides=strides)


def conv2d_output_hw(h, w, kh, kw, stride, padding):
    return (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


def _pad(x, padding):
    if padding == 0:
        return x
    b, c, h, w = x.shape
    xp = np.zeros((b, c, h + 2 * padding, w + 2 * padding))
    xp[:, :, padding : padding + h, padding : padding + w] = x
    return xp


def im2col(x, kh, kw, stride, padding):
    """The [B·Ho·Wo, Cin·kh·kw] patch matrix of a conv2d input, C-contiguous.

    Rows run over (b, i, j) output positions and columns over (c, u, v) kernel
    taps: the copy ``np.tensordot`` would make of the strided view.
    """
    b, c = x.shape[0], x.shape[1]
    ho, wo = conv2d_output_hw(x.shape[2], x.shape[3], kh, kw, stride, padding)
    view = _im2col(_pad(x, padding), kh, kw, stride, ho, wo)
    return view.transpose(0, 2, 3, 1, 4, 5).reshape(b * ho * wo, c * kh * kw)


def conv2d_fwd(x, w, stride, padding, cols):
    """conv2d output [B,Cout,Ho,Wo] of ``x``, given ``cols = im2col(x, ...)``."""
    cout = w.shape[0]
    ho, wo = conv2d_output_hw(x.shape[2], x.shape[3], w.shape[2], w.shape[3], stride, padding)
    out = cols @ w.transpose(1, 2, 3, 0).reshape(-1, cout)  # [B·Ho·Wo, Cout]
    return np.ascontiguousarray(out.reshape(x.shape[0], ho, wo, cout).transpose(0, 3, 1, 2))


def conv2d_bwd_w(x, w, gout, stride, padding, cols):
    """Kernel gradient gw of a conv2d output gradient ``gout``."""
    cout = w.shape[0]
    return (gout.transpose(1, 0, 2, 3).reshape(cout, -1) @ cols).reshape(w.shape)


def conv2d_bwd(x, w, gout, stride, padding, cols):
    """Gradients (gx, gw) of a conv2d output gradient ``gout``.

    ``cols`` is dropped once gw is formed, so that the patch matrix and the
    input gradient's buffers are not alive at the same time when the caller
    has let go of it too.
    """
    gw = conv2d_bwd_w(x, w, gout, stride, padding, cols)
    del cols
    b, cin, h, wd = x.shape
    _, _, ho, wo = gout.shape
    kh, kw = w.shape[2], w.shape[3]
    # per-output-position input gradient, scattered back over (u, v) offsets
    # into a channel-last padded buffer
    gcols = np.tensordot(gout, w, axes=(1, 0))  # [B,Ho,Wo,Cin,kh,kw]
    gxp = np.zeros((b, h + 2 * padding, wd + 2 * padding, cin))
    for u in range(kh):
        for v in range(kw):
            gxp[:, u : u + ho * stride : stride, v : v + wo * stride : stride, :] += (
                gcols[:, :, :, :, u, v]
            )
    gx = gxp[:, padding : padding + h, padding : padding + wd, :].transpose(0, 3, 1, 2)
    return np.ascontiguousarray(gx), gw


def meanpool2_fwd(x):
    h2, w2 = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
    a, b = x[:, :, 0:h2:2, 0:w2:2], x[:, :, 0:h2:2, 1:w2:2]
    c, d = x[:, :, 1:h2:2, 0:w2:2], x[:, :, 1:h2:2, 1:w2:2]
    # These summation orders give the bits of numpy's
    # x.reshape(b, c, ho, 2, wo, 2).mean(axis=(3, 5)), which sums a window in
    # sequence when the output is one column wide and by rows otherwise.
    # (Four -0.0 average to -0.0 here, to +0.0 there; relu outputs hold no -0.0.)
    if w2 == 2:
        return (((a + b) + c) + d) / 4
    return ((a + b) + (c + d)) / 4


def meanpool2_bwd(x, gout):
    h2, w2 = 2 * gout.shape[2], 2 * gout.shape[3]
    g = gout * 0.25
    gx = np.zeros_like(x)
    gx[:, :, 0:h2:2, 0:w2:2] = g
    gx[:, :, 0:h2:2, 1:w2:2] = g
    gx[:, :, 1:h2:2, 0:w2:2] = g
    gx[:, :, 1:h2:2, 1:w2:2] = g
    return gx
