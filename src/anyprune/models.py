"""Desk-scale classifiers: an MLP and a small convnet.

Both expose an ordered parameter registry whose entries carry a prunable flag:
weight matrices and convolution kernels are prunable, biases are not.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ModelSpecError, ShapeError
from .kernels import conv2d_output_hw


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of a classifier.

    ``layer_sizes`` drives the MLP (input dim through class count);
    ``conv_stack`` holds (out_channels, kernel, stride, padding) per conv
    layer, each followed by relu and 2x2 mean pooling, before a dense head of
    ``head_hidden`` sizes and the final class layer.
    """

    kind: str
    input_shape: tuple
    class_count: int
    layer_sizes: tuple = ()
    conv_stack: tuple = ()
    head_hidden: tuple = ()

    def __post_init__(self):
        if self.class_count < 2:
            raise ModelSpecError(f"class_count must be >= 2, got {self.class_count}")
        if self.kind == "mlp":
            if len(self.layer_sizes) < 2:
                raise ModelSpecError("mlp needs at least input and output sizes")
            if any(s < 1 for s in self.layer_sizes):
                raise ModelSpecError(f"layer sizes must be positive: {self.layer_sizes}")
            d = int(np.prod(self.input_shape))
            if self.layer_sizes[0] != d:
                raise ModelSpecError(
                    f"first layer size {self.layer_sizes[0]} != input dim {d}"
                )
            if self.layer_sizes[-1] != self.class_count:
                raise ModelSpecError(
                    f"final layer size {self.layer_sizes[-1]} != class count {self.class_count}"
                )
        elif self.kind == "convnet":
            if len(self.input_shape) != 3:
                raise ModelSpecError(
                    f"convnet needs a (channels, h, w) input shape, got {self.input_shape}"
                )
            if not self.conv_stack:
                raise ModelSpecError("convnet needs at least one conv layer")
            self.flat_dim()  # raises if any stage collapses below 2x2
        else:
            raise ModelSpecError(f"unknown model kind {self.kind!r}")

    def flat_dim(self):
        """Flattened feature count after the conv/pool stack."""
        c, h, w = self.input_shape
        for cout, k, stride, pad in self.conv_stack:
            h, w = conv2d_output_hw(h, w, k, k, stride, pad)
            if h < 2 or w < 2:
                raise ModelSpecError(f"feature map collapsed to {h}x{w} before pooling")
            h, w = h // 2, w // 2
            c = cout
        return c * h * w

    def dense_sizes(self):
        """Dense layer widths from the dense input through the class count."""
        if self.kind == "mlp":
            return self.layer_sizes
        return (self.flat_dim(), *self.head_hidden, self.class_count)


def mlp_spec(input_dim, hidden, class_count):
    sizes = (int(input_dim), *[int(h) for h in hidden], int(class_count))
    return ModelSpec(
        kind="mlp", input_shape=(int(input_dim),), class_count=int(class_count),
        layer_sizes=sizes,
    )


def convnet_spec(input_shape, channels, kernel, stride, padding, head_hidden, class_count):
    stack = tuple((int(c), int(kernel), int(stride), int(padding)) for c in channels)
    return ModelSpec(
        kind="convnet", input_shape=tuple(int(s) for s in input_shape),
        class_count=int(class_count), conv_stack=stack,
        head_hidden=tuple(int(h) for h in head_hidden),
    )


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


def count_params(registry, prunable_only=False):
    return sum(e.tensor.size for e in registry if e.prunable or not prunable_only)


class Model:
    """A built classifier: spec, registry, and a taped forward pass."""

    def __init__(self, spec, registry):
        self.spec = spec
        self.registry = registry

    def params(self):
        """Ordered name -> Tensor mapping over every registry entry."""
        return {e.name: e.tensor for e in self.registry}

    def forward(self, x, tape=None):
        """Logits [batch, C] for a [batch, d] (or image-shaped) input array."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        d = int(np.prod(self.spec.input_shape))
        if int(np.prod(x.shape[1:])) != d:
            raise ShapeError(
                f"input features {x.shape[1:]} do not match model input {self.spec.input_shape}"
            )
        if self.spec.kind == "mlp":
            h = T.Tensor(x.reshape(x.shape[0], d), requires_grad=False)
        else:
            h = T.Tensor(x.reshape(x.shape[0], *self.spec.input_shape), requires_grad=False)
            for i, (_, _, stride, pad) in enumerate(self.spec.conv_stack):
                h = T.conv2d(h, self.registry[f"conv{i}_w"].tensor, stride, pad, tape)
                h = T.bias_add(h, self.registry[f"conv{i}_b"].tensor, tape)
                h = T.relu(h, tape)
                h = T.mean_pool2(h, tape)
            h = T.reshape(h, (h.shape[0], self.spec.flat_dim()), tape)
        n_dense = len(self.spec.dense_sizes()) - 1
        for i in range(n_dense):
            h = T.matmul(h, self.registry[f"fc{i}_w"].tensor, tape)
            h = T.bias_add(h, self.registry[f"fc{i}_b"].tensor, tape)
            if i < n_dense - 1:
                h = T.relu(h, tape)
        return h

    def loss_on_tape(self, x, y, tape=None):
        """Mean cross-entropy of the batch as a (possibly taped) scalar tensor."""
        logits = self.forward(x, tape)
        return T.softmax_cross_entropy(logits, y, tape)

    def loss_and_grads(self, x, y):
        """Mean cross-entropy over the batch, gradients per parameter, logits.

        Returns (loss, grads, logits): a float, a name -> array mapping over
        every registry entry, and the [batch, C] logits array.
        """
        tape = T.Tape()
        logits = self.forward(x, tape)
        loss = T.softmax_cross_entropy(logits, y, tape)
        tape.backward(loss)
        grads = {
            e.name: np.zeros(e.tensor.shape) if e.tensor.grad is None else e.tensor.grad
            for e in self.registry
        }
        return float(loss.data), grads, logits.data

    def predict(self, x, chunk=2048):
        """Argmax class indices; ties resolve to the smallest class index."""
        x = np.asarray(x, dtype=np.float64)
        preds = []
        for start in range(0, x.shape[0], chunk):
            logits = self.forward(x[start : start + chunk])
            preds.append(np.argmax(logits.data, axis=1))
        return np.concatenate(preds) if preds else np.zeros(0, dtype=np.int64)

    def snapshot(self):
        return {e.name: e.tensor.data.copy() for e in self.registry}

    def restore(self, snap):
        for e in self.registry:
            e.tensor.data = snap[e.name].copy()


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
