"""Dense float64 tensors with tape-based reverse-mode differentiation.

Forward operations are free functions; pass a :class:`Tape` to record them.
``tape.backward(loss)`` then rolls vector-Jacobian products in reverse order of
recording and returns the leaf tensors' gradients in a dict keyed by tensor.
A tape runs backward once and frees each record as its VJP finishes; a conv2d
keeps its one im2col matrix on the tape only until its VJP has formed gw.
Everything runs in 64-bit floats with explicit shape checks and no implicit
broadcasting except bias addition.

``bias_add`` and ``relu`` overwrite their input's data and return a tensor on
the same buffer, so a dense or conv layer holds one activation array: pass them
only a fresh op output that nothing else reads. The tape hands each VJP a
gradient that nothing else holds, so a VJP may overwrite it (relu masks it in
place).

Image activations are channel-last, ``[B, H, W, C]``: ``conv2d``,
``mean_pool2`` and the 4-d ``bias_add`` take and return that layout.
"""

import numpy as np

from . import kernels
from .errors import LabelError, NumericError, ShapeError, TapeError
from .rng import rng_from


class Tensor:
    """A contiguous row-major float64 array; it holds no gradient.

    With ``requires_grad=False`` (model input data), matmul and conv2d skip the
    vector-Jacobian product into this tensor, and it gets no gradient.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad=True):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)  # ascontiguousarray would promote 0-d to 1-d
        self.data = arr
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
    """Deterministic pseudo-normal tensor: mean 0, std ``scale``.

    ``seed`` is a tuple of integers, the derived key of the draw.
    """
    dims = tuple(int(s) for s in shape)
    if len(dims) == 0 or any(s < 1 for s in dims):
        raise ShapeError(f"invalid shape {dims}")
    g = rng_from(*seed)
    return Tensor(g.standard_normal(dims) * float(scale))


class Tape:
    """Ordered record of primitive operations from one forward pass.

    Each record is an ``(inputs, output, vjp)`` tuple. A tape runs backward
    once: each record is dropped as soon as its VJP has run, so the memory its
    closure holds is freed on the way.
    """

    def __init__(self):
        self._records = []
        self._consumed = False

    def __len__(self):
        return len(self._records)

    def record(self, name, inputs, output, bwd):
        """Append one op; ``name`` labels it for tracers and is not stored."""
        self._records.append((inputs, output, bwd))

    def backward(self, loss):
        """Gradients of a recorded scalar ``loss``, in a dict keyed by leaf tensor.

        Leaves are tensors no record produced, such as parameters and inputs;
        the keys compare by identity, and a leaf that got no gradient is left
        out. The tape is left empty.
        """
        if self._consumed:
            raise TapeError("tape was already consumed by an earlier backward")
        if loss.data.shape != ():
            raise TapeError(f"loss must be scalar, got shape {loss.data.shape}")
        if not any(output is loss for _, output, _ in self._records):
            raise TapeError("loss is not an output recorded on this tape")
        self._consumed = True
        grads = {loss: np.asarray(1.0)}
        while self._records:
            inputs, output, bwd = self._records.pop()
            g = grads.pop(output, None)
            if g is None:
                continue
            for t, gi in zip(inputs, bwd(g)):
                if gi is not None:
                    grads[t] = grads[t] + gi if t in grads else gi
        return grads


# ---------------------------------------------------------------------------
# primitive forward operations


def _output(tape, name, inputs, data, bwd):
    """Wrap an op's result in a Tensor and, on a tape, record the op's VJP ``bwd``."""
    out = Tensor(data)
    if tape is not None:
        tape.record(name, inputs, out, bwd)
    return out


def matmul(a, b, tape=None):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} x {b.shape}")

    def bwd(g):
        return (g @ b.data.T if a.requires_grad else None), a.data.T @ g

    return _output(tape, "matmul", (a, b), a.data @ b.data, bwd)


def bias_add(x, b, tape=None):
    """Add a per-column (2-d) or per-channel (4-d [B,H,W,C]) bias vector.

    The single sanctioned broadcast in the package. Overwrites ``x.data`` with
    the sum and returns a tensor on the same buffer: pass only a fresh op
    output.
    """
    if x.data.ndim not in (2, 4):
        raise ShapeError(f"bias_add supports 2-d or 4-d inputs, got {x.shape}")
    if b.shape != x.shape[-1:]:
        raise ShapeError(f"bias {b.shape} does not match the last axis of {x.shape}")
    if x.data.ndim == 2:
        x.data += b.data
    else:
        # one [H, W, C] bias map for every image: numpy then adds in long
        # runs, where broadcasting b itself would add C-wide ones
        bias_map = np.empty(x.shape[1:])
        bias_map[...] = b.data
        x.data += bias_map

    def bwd(g):
        # batch axis first: a plain g.reshape(-1, C).sum(axis=0) is slower
        return g, g.sum(axis=0).reshape(-1, g.shape[-1]).sum(axis=0)

    return _output(tape, "bias_add", (x, b), x.data, bwd)


def relu(x, tape=None):
    """max(x, 0), written over ``x.data``: pass only a fresh op output.

    The VJP masks the gradient it is handed in place. ``x.data`` then holds the
    output, and ``max(x, 0) > 0`` is the mask ``x > 0`` (NaN and -0.0
    included), so the bits are those of ``g * (x > 0)``.
    """

    def bwd(g):
        return (np.multiply(g, x.data > 0.0, out=g),)

    return _output(tape, "relu", (x,), np.maximum(x.data, 0.0, out=x.data), bwd)


def conv2d(x, w, stride=1, padding=0, tape=None):
    """Cross-correlation of [B,H,W,Cin] input with [Cout,Cin,kh,kw] kernel.

    The output is [B,Ho,Wo,Cout].
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d needs 4-d input and kernel, got {x.shape}, {w.shape}")
    if x.shape[3] != w.shape[1]:
        raise ShapeError(f"channel mismatch: input {x.shape}, kernel {w.shape}")
    if stride < 1:
        raise ShapeError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise ShapeError(f"padding must be >= 0, got {padding}")
    kh, kw = w.shape[2], w.shape[3]
    if kh > x.shape[1] + 2 * padding or kw > x.shape[2] + 2 * padding:
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input "
            f"{x.shape[1] + 2 * padding}x{x.shape[2] + 2 * padding}"
        )
    # One patch matrix per call; on a tape it lives until the VJP hands it on.
    cols = [kernels.im2col(x.data, kh, kw, stride, padding)]
    out = kernels.conv2d_fwd(x.data, w.data, stride, padding, cols[0])

    def bwd(g):
        if not x.requires_grad:
            return None, kernels.conv2d_bwd_w(w.data, g, cols.pop())
        return kernels.conv2d_bwd(x.data, w.data, g, stride, padding, cols.pop())

    return _output(tape, "conv2d", (x, w), out, bwd)


def mean_pool2(x, tape=None):
    """2x2 stride-2 mean pooling of [B,H,W,C]; odd trailing rows/columns are dropped."""
    if x.data.ndim != 4:
        raise ShapeError(f"mean_pool2 needs a 4-d input, got {x.shape}")
    if x.shape[1] < 2 or x.shape[2] < 2:
        raise ShapeError(f"mean_pool2 needs spatial dims >= 2, got {x.shape}")

    def bwd(g):
        return (kernels.meanpool2_bwd(x.data, g),)

    return _output(tape, "mean_pool2", (x,), kernels.meanpool2_fwd(x.data), bwd)


def reshape(x, shape, tape=None):
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} to {shape}")

    def bwd(g):
        return (g.reshape(x.shape),)

    return _output(tape, "reshape", (x,), x.data.reshape(shape), bwd)


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

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(y.shape[0]), y] -= 1.0
        return (p * (float(g) / y.shape[0]),)

    return _output(tape, "softmax_ce", (logits,), -logp[np.arange(y.shape[0]), y].mean(), bwd)


# ---------------------------------------------------------------------------
# Hessian-vector product via central differences of gradients


def hvp_fd(grad_fn, params, v, eps=None):
    """Approximate H @ v by central finite differences of the loss gradient.

    ``params`` maps names to tensors; ``v``, ``grad_fn()`` and the result map
    the same names to same-shaped arrays: the directions, the loss gradients at
    the *current* data of ``params``, and H @ v. The parameter perturbations
    are undone bit-exactly before returning, also when ``grad_fn`` raises.
    """
    if params.keys() != v.keys():
        raise ShapeError(f"params {list(params)} and v {list(v)} name different tensors")
    for name, d in v.items():
        if params[name].shape != np.shape(d):
            raise ShapeError(f"{name!r}: direction {np.shape(d)} != param {params[name].shape}")
    if eps is None:
        peak = max((float(np.abs(p.data).max()) for p in params.values() if p.size), default=0.0)
        eps = 1e-4 * (1.0 + peak)
    eps = float(eps)
    if eps <= 0.0:
        raise ShapeError(f"eps must be positive, got {eps}")

    saved = {name: p.data for name, p in params.items()}  # p.data is rebound, never written

    def grads_at(sign):
        for name, p in params.items():
            p.data = saved[name] + sign * eps * np.asarray(v[name])
        return grad_fn()

    try:
        g_plus = grads_at(+1.0)
        g_minus = grads_at(-1.0)
    finally:
        for name, p in params.items():
            p.data = saved[name]
    with np.errstate(invalid="ignore", over="ignore"):  # finiteness checked below
        hv = {name: (g_plus[name] - g_minus[name]) / (2.0 * eps) for name in params}
    for name, h in hv.items():
        if not np.all(np.isfinite(h)):
            raise NumericError(f"non-finite gradients in hvp_fd for {name!r}")
    return hv
