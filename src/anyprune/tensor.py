"""Dense float64 tensors with tape-based reverse-mode differentiation.

Forward operations are free functions; pass a :class:`Tape` to record them.
``tape.backward(loss)`` then rolls vector-Jacobian products in reverse order of
recording, accumulating into each tensor's ``grad`` buffer. Everything runs in
64-bit floats with explicit shape checks and no implicit broadcasting except
bias addition.
"""

import numpy as np

from . import kernels
from .errors import LabelError, NumericError, ShapeError, TapeError
from .rng import rng_from


class Tensor:
    """A contiguous row-major float64 array plus an optional gradient buffer.

    With ``requires_grad=False`` (model input data), matmul and conv2d skip the
    vector-Jacobian product into this tensor, and its ``grad`` stays None.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=True):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # ascontiguousarray would promote 0-d to 1-d
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={tuple(self.data.shape)})"


def tensor_randn(shape, seed, scale):
    """Deterministic pseudo-normal tensor: mean 0, std ``scale``, keyed by seed.

    ``seed`` may be a single integer or a sequence of integers (a derived key).
    """
    dims = tuple(int(s) for s in shape)
    if len(dims) == 0 or any(s < 1 for s in dims):
        raise ShapeError(f"invalid shape {dims}")
    keys = seed if isinstance(seed, (tuple, list)) else (seed,)
    g = rng_from(*keys)
    return Tensor(g.standard_normal(dims) * float(scale))


class _Node:
    __slots__ = ("name", "inputs", "output", "bwd")

    def __init__(self, name, inputs, output, bwd):
        self.name = name
        self.inputs = inputs
        self.output = output
        self.bwd = bwd


class Tape:
    """Ordered record of primitive operations from one forward pass."""

    def __init__(self):
        self._nodes = []

    def __len__(self):
        return len(self._nodes)

    def record(self, name, inputs, output, bwd):
        self._nodes.append(_Node(name, inputs, output, bwd))

    def backward(self, loss):
        """Accumulate gradients of a recorded scalar ``loss`` into ``.grad``."""
        if loss.data.shape != ():
            raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
        if not any(node.output is loss for node in self._nodes):
            raise TapeError("loss is not an output recorded on this tape")
        for node in self._nodes:
            node.output.grad = None
            for t in node.inputs:
                t.grad = None
        loss.grad = np.asarray(1.0)
        for node in reversed(self._nodes):
            g = node.output.grad
            if g is None:
                continue
            for t, gi in zip(node.inputs, node.bwd(g)):
                if gi is None:
                    continue
                t.grad = gi if t.grad is None else t.grad + gi


# ---------------------------------------------------------------------------
# primitive forward operations


def matmul(a, b, tape=None):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} x {b.shape}")
    out = Tensor(a.data @ b.data)
    if tape is not None:
        def bwd(g):
            return (g @ b.data.T if a.requires_grad else None), a.data.T @ g

        tape.record("matmul", (a, b), out, bwd)
    return out


def bias_add(x, b, tape=None):
    """Add a per-column (2-d) or per-channel (4-d) bias vector.

    The single sanctioned broadcast in the package.
    """
    if x.data.ndim == 2:
        if b.shape != (x.shape[1],):
            raise ShapeError(f"bias {b.shape} does not match columns of {x.shape}")
        out = Tensor(x.data + b.data)
        reduce_axes = (0,)
    elif x.data.ndim == 4:
        if b.shape != (x.shape[1],):
            raise ShapeError(f"bias {b.shape} does not match channels of {x.shape}")
        out = Tensor(x.data + b.data[None, :, None, None])
        reduce_axes = (0, 2, 3)
    else:
        raise ShapeError(f"bias_add supports 2-d or 4-d inputs, got {x.shape}")
    if tape is not None:
        def bwd(g):
            return g, g.sum(axis=reduce_axes)

        tape.record("bias_add", (x, b), out, bwd)
    return out


def relu(x, tape=None):
    out = Tensor(np.maximum(x.data, 0.0))
    if tape is not None:
        def bwd(g):
            return (g * (x.data > 0.0),)

        tape.record("relu", (x,), out, bwd)
    return out


def conv2d(x, w, stride=1, padding=0, tape=None):
    """Cross-correlation of [B,Cin,H,W] input with [Cout,Cin,kh,kw] kernel."""
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d needs 4-d input and kernel, got {x.shape}, {w.shape}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"channel mismatch: input {x.shape}, kernel {w.shape}")
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")
    kh, kw = w.shape[2], w.shape[3]
    if kh > x.shape[2] + 2 * padding or kw > x.shape[3] + 2 * padding:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input "
            f"{x.shape[2] + 2 * padding}x{x.shape[3] + 2 * padding}"
        )
    out = Tensor(kernels.conv2d_fwd(x.data, w.data, stride, padding))
    if tape is not None:
        def bwd(g):
            if not x.requires_grad:
                return None, kernels.conv2d_bwd_w(x.data, w.data, g, stride, padding)
            return kernels.conv2d_bwd(x.data, w.data, g, stride, padding)

        tape.record("conv2d", (x, w), out, bwd)
    return out


def mean_pool2(x, tape=None):
    """2x2 stride-2 mean pooling; odd trailing rows/columns are dropped."""
    if x.data.ndim != 4:
        raise ShapeError(f"mean_pool2 needs a 4-d input, got {x.shape}")
    if x.shape[2] < 2 or x.shape[3] < 2:
        raise ShapeError(f"mean_pool2 needs spatial dims >= 2, got {x.shape}")
    out = Tensor(kernels.meanpool2_fwd(x.data))
    if tape is not None:
        def bwd(g):
            return (kernels.meanpool2_bwd(x.data, g),)

        tape.record("mean_pool2", (x,), out, bwd)
    return out


def reshape(x, shape, tape=None):
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")
    out = Tensor(x.data.reshape(shape))
    if tape is not None:
        def bwd(g):
            return (g.reshape(x.shape),)

        tape.record("reshape", (x,), out, bwd)
    return out


def mul(a, b, tape=None):
    """Elementwise product of same-shape tensors (no broadcasting)."""
    if a.shape != b.shape:
        raise ShapeError(f"mul shapes disagree: {a.shape} vs {b.shape}")
    out = Tensor(a.data * b.data)
    if tape is not None:
        def bwd(g):
            return g * b.data, g * a.data

        tape.record("mul", (a, b), out, bwd)
    return out


def scale(x, c, tape=None):
    c = float(c)
    out = Tensor(x.data * c)
    if tape is not None:
        def bwd(g):
            return (g * c,)

        tape.record("scale", (x,), out, bwd)
    return out


def sum_all(x, tape=None):
    out = Tensor(x.data.sum())
    if tape is not None:
        def bwd(g):
            return (np.broadcast_to(g, x.shape).copy() if x.shape else np.asarray(g),)

        tape.record("sum_all", (x,), out, bwd)
    return out


def _log_softmax(z):
    m = z.max(axis=1, keepdims=True)
    shifted = z - m
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_cross_entropy(logits, labels, tape=None):
    """Mean negative log-likelihood of integer ``labels`` under softmax logits.

    Numerically stabilized by max subtraction; returns a scalar tensor.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"logits must be [batch, classes], got {logits.shape}")
    y = np.asarray(labels)
    if y.ndim != 1 or y.shape[0] != logits.shape[0]:
        raise ShapeError(f"labels shape {y.shape} does not match batch {logits.shape[0]}")
    if not np.issubdtype(y.dtype, np.integer):
        raise LabelError(f"labels must be integers, got dtype {y.dtype}")
    c = logits.shape[1]
    if y.size and (y.min() < 0 or y.max() >= c):
        raise LabelError(f"labels must lie in [0, {c})")

    logp = _log_softmax(logits.data)
    out = Tensor(np.asarray(-logp[np.arange(y.shape[0]), y].mean()))
    if tape is not None:
        def bwd(g):
            p = np.exp(logp)
            p[np.arange(y.shape[0]), y] -= 1.0
            return (p * (float(g) / y.shape[0]),)

        tape.record("softmax_ce", (logits,), out, bwd)
    return out


# ---------------------------------------------------------------------------
# Hessian-vector product via central differences of gradients


def hvp_fd(loss_fn, params, v, eps=None):
    """Approximate H @ v by central finite differences of the loss gradient.

    ``loss_fn(tape)`` must rebuild the scalar loss on the given tape from the
    *current* data of ``params``; ``v`` is a same-shaped list of arrays. The
    parameter perturbations are undone bit-exactly before returning.
    """
    if len(params) != len(v):
        raise ShapeError("params and v must align")
    for p, d in zip(params, v):
        if p.shape != np.shape(d):
            raise ShapeError(f"direction shape {np.shape(d)} != param shape {p.shape}")
    if eps is None:
        peak = max((float(np.abs(p.data).max()) for p in params if p.size), default=0.0)
        eps = 1e-4 * (1.0 + peak)
    eps = float(eps)
    if eps <= 0.0:
        raise ShapeError(f"eps must be positive, got {eps}")

    saved = [p.data.copy() for p in params]

    def grads_at(sign):
        for p, base, d in zip(params, saved, v):
            p.data = base + sign * eps * np.asarray(d)
        tape = Tape()
        loss = loss_fn(tape)
        tape.backward(loss)
        return [np.zeros(p.shape) if p.grad is None else np.array(p.grad) for p in params]

    try:
        g_plus = grads_at(+1.0)
        g_minus = grads_at(-1.0)
    finally:
        for p, base in zip(params, saved):
            p.data = base
    with np.errstate(invalid="ignore", over="ignore"):  # finiteness checked below
        hv = [(gp - gm) / (2.0 * eps) for gp, gm in zip(g_plus, g_minus)]
    for h in hv:
        if not np.all(np.isfinite(h)):
            raise NumericError("non-finite gradients in hvp_fd")
    return hv
