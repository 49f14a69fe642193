"""Desk-scale classifiers: ``ModelSpec(input_shape, class_count, hidden, conv_stack)``.

An MLP is the spec with no conv layers; a small convnet puts a conv/relu/pool
stack before the same dense layers. A built model holds its parameters in one
ordered name -> Tensor dict, in parameter order (``conv{i}_w``, ``conv{i}_b``,
then ``fc{i}_w``, ``fc{i}_b``), and names the prunable ones: weight matrices
and convolution kernels are prunable, biases are not.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tensor as T
from .errors import DataError, ModelSpecError, ShapeError
from .kernels import BLOCK_IMAGES, conv2d_output_hw

# rows per forward call when predicting or evaluating a whole set (see Model.row_slices)
CHUNK = 2048


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a classifier.

    ``conv_stack`` holds (out_channels, kernel, stride, padding) per conv
    layer, each followed by relu and 2x2 mean pooling, and needs a
    (channels, h, w) ``input_shape``. Dense layers of ``hidden`` widths and
    the final class layer follow on the flattened features.
    """

    input_shape: tuple
    class_count: int
    hidden: tuple = ()
    conv_stack: tuple = ()

    def __post_init__(self):
        if self.class_count < 2:
            raise ModelSpecError(f"class_count must be >= 2, got {self.class_count}")
        if any(s < 1 for s in (*self.input_shape, *self.hidden)):
            raise ModelSpecError(f"sizes must be positive: {self.input_shape}, {self.hidden}")
        if self.conv_stack and len(self.input_shape) != 3:
            raise ModelSpecError(
                f"conv layers need a (channels, h, w) input shape, got {self.input_shape}"
            )
        self.flat_dim()  # raises if any stage collapses below 2x2

    def _walk_conv_stack(self):
        """(features left after the conv/pool stack, the stack's multiply-adds per sample)."""
        shape, macs = self.input_shape, 0
        for i, (cout, k, stride, pad) in enumerate(self.conv_stack):
            ph, pw = shape[1] + 2 * pad, shape[2] + 2 * pad
            if k > min(ph, pw):
                raise ModelSpecError(f"conv{i}: kernel {k}x{k} exceeds its padded {ph}x{pw} map")
            h, w = conv2d_output_hw(shape[1], shape[2], k, k, stride, pad)
            if h < 2 or w < 2:
                raise ModelSpecError(f"feature map collapsed to {h}x{w} before pooling")
            macs += h * w * cout * shape[0] * k * k
            shape = (cout, h // 2, w // 2)
        return int(np.prod(shape)), macs

    def flat_dim(self):
        """Flattened feature count after the conv/pool stack."""
        return self._walk_conv_stack()[0]

    def dense_sizes(self):
        """Dense layer widths from the dense input through the class count."""
        return (self.flat_dim(), *self.hidden, self.class_count)

    def macs(self):
        """Multiply-adds of one sample's forward: Ho·Wo·Cout·Cin·k² a conv, a·b a dense layer."""
        sizes = self.dense_sizes()
        return self._walk_conv_stack()[1] + sum(a * b for a, b in zip(sizes, sizes[1:]))


class RegistryEntry(NamedTuple):
    name: str
    tensor: T.Tensor
    prunable: bool


class Model:
    """A built classifier: spec, ordered ``params`` dict, ``prunable`` names, taped forward."""

    def __init__(self, spec, params, prunable):
        self.spec = spec
        self.params = params
        self.prunable = prunable

    @property
    def registry(self):
        """Read-only ``RegistryEntry`` view of the parameters, in parameter order.

        Only the benchmark's out-of-package tracer (``perfbench/layertrace.py``)
        reads it; nothing in the package does. ROADMAP item 2 deletes it along
        with that tracer.
        """
        return tuple(RegistryEntry(n, p, n in self.prunable) for n, p in self.params.items())

    def forward(self, x, tape=None):
        """Logits [batch, C] for a [batch, d] (or image-shaped) input array.

        Image-shaped input is in (c, h, w) order, as ``spec.input_shape``.
        Integer input is refused: unscaled pixels would train silently.
        """
        x = np.asarray(x)  # the input tensor converts it to float64
        if np.issubdtype(x.dtype, np.integer):
            raise DataError(f"model input is {x.dtype}; scale it to float first (Dataset.rows)")
        d = int(np.prod(self.spec.input_shape))
        if int(np.prod(x.shape[1:])) != d:
            raise ShapeError(
                f"input features {x.shape[1:]} do not match model input {self.spec.input_shape}"
            )
        if not self.spec.conv_stack:
            h = T.Tensor(x.reshape(x.shape[0], d), requires_grad=False)
        else:
            # the conv stack runs channel-last; one channel needs no copy here
            x = x.reshape(x.shape[0], *self.spec.input_shape).transpose(0, 2, 3, 1)
            h = T.Tensor(x, requires_grad=False)
            for i, (_, _, stride, pad) in enumerate(self.spec.conv_stack):
                h = T.conv2d(h, self.params[f"conv{i}_w"], stride, pad, tape)
                h = T.bias_add(h, self.params[f"conv{i}_b"], tape)
                h = T.relu(h, tape)
                h = T.mean_pool2(h, tape)
            # fc0 takes the features in (h, w, c) order
            h = T.reshape(h, (h.shape[0], self.spec.flat_dim()), tape)
        n_dense = len(self.spec.dense_sizes()) - 1
        for i in range(n_dense):
            h = T.matmul(h, self.params[f"fc{i}_w"], tape)
            h = T.bias_add(h, self.params[f"fc{i}_b"], tape)
            if i < n_dense - 1:
                h = T.relu(h, tape)
        return h

    def loss_and_grads(self, x, y):
        """Mean cross-entropy over the batch, gradients per parameter, logits.

        Returns (loss, grads, logits): a float, a name -> array mapping over
        every parameter in parameter order, and the [batch, C] logits array.
        """
        tape = T.Tape()
        logits = self.forward(x, tape)
        loss = T.softmax_cross_entropy(logits, y, tape)
        leaf_grads = tape.backward(loss)
        grads = {name: leaf_grads[p] for name, p in self.params.items()}
        return float(loss.data), grads, logits.data

    def row_slices(self, n, rows):
        """Slices over ``n`` rows, ``rows`` at a time; a convnet takes at most one kernel block."""
        step = min(rows, BLOCK_IMAGES) if self.spec.conv_stack else rows
        return [slice(start, start + step) for start in range(0, n, step)]

    def sliced_forward(self, x, y=None):
        """Argmax classes of ``x``, plus the summed cross-entropy against ``y`` (0.0 without)."""
        preds, loss_sum = np.empty(x.shape[0], dtype=np.int64), 0.0
        for rows in self.row_slices(x.shape[0], CHUNK):
            logits = self.forward(x[rows])
            preds[rows] = np.argmax(logits.data, axis=1)
            if y is not None:
                loss_sum += float(T.softmax_cross_entropy(logits, y[rows]).data) * logits.shape[0]
        return preds, loss_sum

    def predict(self, x):
        """Argmax class indices; ties resolve to the smallest class index."""
        return self.sliced_forward(x)[0]

    def snapshot(self):
        return {name: p.data.copy() for name, p in self.params.items()}

    def restore(self, snap):
        """Load a snapshot by taking its arrays, not copies: the snapshot is used up."""
        for name, p in self.params.items():
            p.data = snap[name]


def build_model(spec, seed):
    """Deterministic model construction: Kaiming-scaled weights, zero biases."""
    params, prunable = {}, []
    # one draw per layer, convs first; the layer index doubles as the draw key
    cin = spec.input_shape[0]
    for layer, (cout, k, _, _) in enumerate(spec.conv_stack):
        scale = math.sqrt(2.0 / (cin * k * k))
        params[f"conv{layer}_w"] = T.tensor_randn((cout, cin, k, k), (seed, layer), scale)
        params[f"conv{layer}_b"] = T.Tensor(np.zeros(cout))
        prunable.append(f"conv{layer}_w")
        cin = cout
    sizes = spec.dense_sizes()
    for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
        layer = len(spec.conv_stack) + i
        scale = math.sqrt(2.0 / fan_in)
        params[f"fc{i}_w"] = T.tensor_randn((fan_in, fan_out), (seed, layer), scale)
        params[f"fc{i}_b"] = T.Tensor(np.zeros(fan_out))
        prunable.append(f"fc{i}_w")
    return Model(spec, params, tuple(prunable))
