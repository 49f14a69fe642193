"""Convolution and pooling inner loops, in numpy, on channel-last arrays.

Activations are ``[B, H, W, C]`` (NHWC); kernels stay ``[Cout, Cin, kh, kw]``.
The model's input changes layout once, in ``Model.forward``, and the last
pooled map is flattened as it stands, in (h, w, c) order. A convolution builds
one im2col patch matrix per call (:func:`im2col`) and serves both its forward
and its kernel gradient gw with it. In this layout the forward output is the
GEMM result reshaped, the output gradient is the GEMM operand of the input
gradient as it stands, and the input gradient is the unpadded slice of a
channel-last scatter buffer: no step transposes an activation, and gw
multiplies the transposed view of the output gradient without copying it. 2x2
mean pooling works on four strided slices of the input. Every kernel is
deterministic.

The forward and input-gradient products run over blocks of 32 images
(:func:`_matmul_image_blocks`): at 2 OpenBLAS threads, one product over a
whole scoring or evaluation batch left a buffer of about its operands' size
resident. The blocks keep the bits of one product wherever a 32-image product
takes the same OpenBLAS path as the whole batch. Measured exact: every conv of
the benchmark and CI configs, and on 7x7 maps every Cin·kh·kw from 72 to 1152
with 8 to 64 output channels. Measured inexact, where the 32-image product
takes OpenBLAS's small-matrix path: the input gradient of a conv with 1 or 3
input channels on 7x7 maps, and the forward on maps of 3x3 or smaller with
few output channels. gw stays one product: its sum runs over every row.

Outside training, a model forwards a convnet's rows at most one block at a
time (``Model.row_slices``), so that scoring and evaluation never hold a
larger batch's patch matrices.

Dense (matmul) layers do not live here: BLAS already is the fast path for them.
"""

import contextlib
import ctypes
import functools

import numpy as np


@functools.cache
def _openblas():
    """(set, get) of the thread count of the OpenBLAS numpy links, or None."""
    try:  # a handle on numpy's core extension also resolves the libraries it links
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):  # numpy 1.x keeps it in np.core: left alone
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        if hasattr(lib, name.format("set")):
            set_count, get_count = (getattr(lib, name.format(op)) for op in ("set", "get"))
            set_count.argtypes, set_count.restype = [ctypes.c_int], None
            get_count.argtypes, get_count.restype = [], ctypes.c_int
            return set_count, get_count
    return None


@contextlib.contextmanager
def blas_threads(n):
    """Run the body at ``n`` OpenBLAS threads, then restore the count; None leaves it."""
    blas = None if n is None else _openblas()
    if blas is None:
        yield
        return
    set_count, get_count = blas
    before = get_count()
    set_count(n)
    try:
        yield
    finally:
        set_count(before)


def conv2d_output_hw(h, w, kh, kw, stride, padding):
    return (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


def _pad(x, padding):
    if padding == 0:
        return x
    b, h, w, c = x.shape
    xp = np.zeros((b, h + 2 * padding, w + 2 * padding, c))
    xp[:, padding : padding + h, padding : padding + w, :] = x
    return xp


# images per block of im2col copies and of conv products: a block of the patch
# matrix stays in cache while its kh·kw taps are written. It is also the most
# images a convnet forwards at once outside training
BLOCK_IMAGES = 32


def im2col(x, kh, kw, stride, padding):
    """The [B·Ho·Wo, Cin·kh·kw] patch matrix of a conv2d input, C-contiguous.

    Rows run over (b, i, j) output positions and columns over (c, u, v) kernel
    taps, the order of the kernel's trailing axes.
    """
    b, h, w, c = x.shape
    ho, wo = conv2d_output_hw(h, w, kh, kw, stride, padding)
    xp = _pad(x, padding)
    cols = np.empty((b, ho, wo, c, kh, kw))
    # one strided copy per tap and block; the copy of a whole strided
    # [B, Ho, Wo, C, kh, kw] view runs its inner loop over kw taps only
    for start in range(0, b, BLOCK_IMAGES):
        block = slice(start, start + BLOCK_IMAGES)
        for u in range(kh):
            for v in range(kw):
                cols[block, :, :, :, u, v] = (
                    xp[block, u : u + ho * stride : stride, v : v + wo * stride : stride, :]
                )
    return cols.reshape(b * ho * wo, c * kh * kw)


def _matmul_image_blocks(a, b, ho, wo):
    """``a @ b`` for ``a`` with Ho·Wo rows per image, into one output.

    A batch of up to ``BLOCK_IMAGES`` images is one product. In a larger one
    every product has exactly ``BLOCK_IMAGES`` images: the last ends at the
    batch's end and recomputes rows of its predecessor, since a short tail
    product can take OpenBLAS's small-matrix path and change the last bit.
    """
    out = np.empty((a.shape[0], b.shape[1]))
    rows = BLOCK_IMAGES * ho * wo
    for start in range(0, a.shape[0], rows):
        start = max(0, min(start, a.shape[0] - rows))
        np.matmul(a[start : start + rows], b, out=out[start : start + rows])
    return out


def conv2d_fwd(x, w, stride, padding, cols):
    """conv2d output [B,Ho,Wo,Cout] of ``x``, given ``cols = im2col(x, ...)``."""
    cout = w.shape[0]
    ho, wo = conv2d_output_hw(x.shape[1], x.shape[2], w.shape[2], w.shape[3], stride, padding)
    out = _matmul_image_blocks(cols, w.transpose(1, 2, 3, 0).reshape(-1, cout), ho, wo)
    return out.reshape(x.shape[0], ho, wo, cout)


def conv2d_bwd_w(w, gout, cols):
    """Kernel gradient gw of a conv2d output gradient ``gout``."""
    cout = w.shape[0]
    return (gout.reshape(-1, cout).T @ cols).reshape(w.shape)


def conv2d_bwd(x, w, gout, stride, padding, cols):
    """Gradients (gx, gw) of a conv2d output gradient ``gout``.

    ``cols`` is dropped once gw is formed, so that the patch matrix and the
    input gradient's buffers are not alive at the same time when the caller
    has let go of it too.
    """
    gw = conv2d_bwd_w(w, gout, cols)
    del cols
    b, h, wd, cin = x.shape
    _, ho, wo, cout = gout.shape
    kh, kw = w.shape[2], w.shape[3]
    # per-output-position input gradient, scattered back over (u, v) offsets
    gcols = _matmul_image_blocks(gout.reshape(-1, cout), w.reshape(cout, -1), ho, wo)
    gcols = gcols.reshape(b, ho, wo, cin, kh, kw)
    gxp = np.zeros((b, h + 2 * padding, wd + 2 * padding, cin))
    for u in range(kh):
        for v in range(kw):
            gxp[:, u : u + ho * stride : stride, v : v + wo * stride : stride, :] += (
                gcols[:, :, :, :, u, v]
            )
    return gxp[:, padding : padding + h, padding : padding + wd, :], gw


def meanpool2_fwd(x):
    h2, w2 = x.shape[1] // 2 * 2, x.shape[2] // 2 * 2
    a, b = x[:, 0:h2:2, 0:w2:2], x[:, 0:h2:2, 1:w2:2]
    c, d = x[:, 1:h2:2, 0:w2:2], x[:, 1:h2:2, 1:w2:2]
    return ((a + b) + (c + d)) / 4


def meanpool2_bwd(x, gout):
    h2, w2 = 2 * gout.shape[1], 2 * gout.shape[2]
    g = gout * 0.25
    gx = np.zeros_like(x)
    gx[:, 0:h2:2, 0:w2:2] = g
    gx[:, 0:h2:2, 1:w2:2] = g
    gx[:, 1:h2:2, 0:w2:2] = g
    gx[:, 1:h2:2, 1:w2:2] = g
    return gx
