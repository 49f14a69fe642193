"""Convolution and pooling inner loops, in numpy.

Convolutions run as a tensordot over a strided im2col view of the padded
input; 2x2 mean pooling works on four strided slices of the input. Every
kernel is deterministic.

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


def conv2d_fwd(x, w, stride, padding):
    xp = _pad(x, padding)
    ho, wo = conv2d_output_hw(x.shape[2], x.shape[3], w.shape[2], w.shape[3], stride, padding)
    cols = _im2col(xp, w.shape[2], w.shape[3], stride, ho, wo)
    out = np.tensordot(cols, w, axes=([1, 4, 5], [1, 2, 3]))  # [B,Ho,Wo,Cout]
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


def _grad_w(xp, w, gout, stride):
    _, _, ho, wo = gout.shape
    cols = _im2col(xp, w.shape[2], w.shape[3], stride, ho, wo)
    return np.ascontiguousarray(np.tensordot(gout, cols, axes=([0, 2, 3], [0, 2, 3])))


def conv2d_bwd_w(x, w, gout, stride, padding):
    """Kernel gradient gw of a conv2d output gradient ``gout``."""
    return _grad_w(_pad(x, padding), w, gout, stride)


def conv2d_bwd(x, w, gout, stride, padding):
    """Gradients (gx, gw) of a conv2d output gradient ``gout``."""
    xp = _pad(x, padding)
    gw = _grad_w(xp, w, gout, stride)
    _, _, ho, wo = gout.shape
    kh, kw = w.shape[2], w.shape[3]
    # per-output-position input gradient, scattered back over (u, v) offsets
    gcols = np.tensordot(gout, w, axes=(1, 0))  # [B,Ho,Wo,Cin,kh,kw]
    gxp = np.zeros_like(xp)
    for u in range(kh):
        for v in range(kw):
            gxp[:, :, u : u + ho * stride : stride, v : v + wo * stride : stride] += (
                gcols[:, :, :, :, u, v].transpose(0, 3, 1, 2)
            )
    if padding:
        gx = np.ascontiguousarray(
            gxp[:, :, padding : padding + x.shape[2], padding : padding + x.shape[3]]
        )
    else:
        gx = gxp
    return gx, gw


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
