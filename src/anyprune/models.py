"""Desk-scale classifiers: ``ModelSpec(input_shape, class_count, hidden, conv_stack)``.

An MLP is the spec with no conv layers; a small convnet puts a conv/relu/pool
stack before the same dense layers. Every model exposes an ordered parameter
registry whose entries carry a prunable flag: weight matrices and convolution
kernels are prunable, biases are not.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ModelSpecError, ShapeError
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

    def flat_dim(self):
        """Flattened feature count after the conv/pool stack."""
        shape = self.input_shape
        for i, (cout, k, stride, pad) in enumerate(self.conv_stack):
            ph, pw = shape[1] + 2 * pad, shape[2] + 2 * pad
            if k > min(ph, pw):
                raise ModelSpecError(f"conv{i}: kernel {k}x{k} exceeds its padded {ph}x{pw} map")
            h, w = conv2d_output_hw(shape[1], shape[2], k, k, stride, pad)
            if h < 2 or w < 2:
                raise ModelSpecError(f"feature map collapsed to {h}x{w} before pooling")
            shape = (cout, h // 2, w // 2)
        return int(np.prod(shape))

    def dense_sizes(self):
        """Dense layer widths from the dense input through the class count."""
        return (self.flat_dim(), *self.hidden, self.class_count)


@dataclass
class RegistryEntry:
    name: str
    tensor: T.Tensor
    prunable: bool


@dataclass
class ParamRegistry:
    entries: list = field(default_factory=list)

    def add(self, name, tensor, prunable):
        if any(e.name == name for e in self.entries):
            raise ModelSpecError(f"duplicate parameter name {name!r}")
        self.entries.append(RegistryEntry(name, tensor, prunable))

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def prunable(self):
        return [e for e in self.entries if e.prunable]


class Model:
    """A built classifier: spec, registry, and a taped forward pass."""

    def __init__(self, spec, registry):
        self.spec = spec
        self.registry = registry

    def params(self):
        """Ordered name -> Tensor mapping over every registry entry."""
        return {e.name: e.tensor for e in self.registry}

    def forward(self, x, tape=None):
        """Logits [batch, C] for a [batch, d] (or image-shaped) input array.

        Image-shaped input is in (c, h, w) order, as ``spec.input_shape``.
        """
        x = np.asarray(x, dtype=np.float64)
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
                h = T.conv2d(h, self.registry[f"conv{i}_w"].tensor, stride, pad, tape)
                h = T.bias_add(h, self.registry[f"conv{i}_b"].tensor, tape)
                h = T.relu(h, tape)
                h = T.mean_pool2(h, tape)
            # fc0 takes the features in (h, w, c) order
            h = T.reshape(h, (h.shape[0], self.spec.flat_dim()), tape)
        n_dense = len(self.spec.dense_sizes()) - 1
        for i in range(n_dense):
            h = T.matmul(h, self.registry[f"fc{i}_w"].tensor, tape)
            h = T.bias_add(h, self.registry[f"fc{i}_b"].tensor, tape)
            if i < n_dense - 1:
                h = T.relu(h, tape)
        return h

    def loss_and_grads(self, x, y):
        """Mean cross-entropy over the batch, gradients per parameter, logits.

        Returns (loss, grads, logits): a float, a name -> array mapping over
        every registry entry, and the [batch, C] logits array.
        """
        tape = T.Tape()
        logits = self.forward(x, tape)
        loss = T.softmax_cross_entropy(logits, y, tape)
        leaf_grads = tape.backward(loss)
        grads = {e.name: leaf_grads[e.tensor] for e in self.registry}
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
        return self.sliced_forward(np.asarray(x, dtype=np.float64))[0]

    def snapshot(self):
        return {e.name: e.tensor.data.copy() for e in self.registry}

    def restore(self, snap):
        """Load a snapshot by taking its arrays, not copies: the snapshot is used up."""
        for e in self.registry:
            e.tensor.data = snap[e.name]


def _dense_init(fan_in, fan_out, seed_keys):
    w = T.tensor_randn((fan_in, fan_out), seed_keys, math.sqrt(2.0 / fan_in))
    b = T.Tensor(np.zeros(fan_out))
    return w, b


def build_model(spec, seed):
    """Deterministic model construction: Kaiming-scaled weights, zero biases."""
    reg = ParamRegistry()
    # one draw per layer, convs first; the layer index doubles as the draw key
    cin = spec.input_shape[0]
    for layer, (cout, k, _, _) in enumerate(spec.conv_stack):
        fan_in = cin * k * k
        w = T.tensor_randn((cout, cin, k, k), (seed, layer), math.sqrt(2.0 / fan_in))
        reg.add(f"conv{layer}_w", w, True)
        reg.add(f"conv{layer}_b", T.Tensor(np.zeros(cout)), False)
        cin = cout
    sizes = spec.dense_sizes()
    for i in range(len(sizes) - 1):
        layer = len(spec.conv_stack) + i
        w, b = _dense_init(sizes[i], sizes[i + 1], (seed, layer))
        reg.add(f"fc{i}_w", w, True)
        reg.add(f"fc{i}_b", b, False)
    return Model(spec, reg)
