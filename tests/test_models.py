"""Model construction, parameter bookkeeping, and forward-pass contracts."""

import tracemalloc

import numpy as np
import pytest

from anyprune import tensor as T
from anyprune.errors import ModelSpecError, ShapeError
from anyprune.models import ModelSpec, build_model
from anyprune.pruning import SparsityMask, apply_mask
from anyprune.tensor import softmax_cross_entropy


def test_registry_prunable_flags_and_counts():
    model = build_model(ModelSpec((4,), 3, hidden=(8,)), seed=0)
    assert list(model.params) == ["fc0_w", "fc0_b", "fc1_w", "fc1_b"]
    assert model.prunable == ("fc0_w", "fc1_w")
    assert SparsityMask.full(model).size == 4 * 8 + 8 * 3
    # the tracer's read-only view lists the same names, tensors (by identity) and flags
    assert [(e.name, e.tensor, e.prunable) for e in model.registry] == [
        (name, p, name in model.prunable) for name, p in model.params.items()
    ]


def test_build_determinism():
    a = build_model(ModelSpec((4,), 3, hidden=(8,)), seed=5)
    b = build_model(ModelSpec((4,), 3, hidden=(8,)), seed=5)
    assert list(a.params) == list(b.params)
    assert a.prunable == b.prunable
    for name, p in a.params.items():
        np.testing.assert_array_equal(p.data, b.params[name].data)


def test_spec_dim_mismatch():
    with pytest.raises(ModelSpecError):
        ModelSpec((4,), 3, conv_stack=((2, 3, 1, 1),))


def test_zero_weights_forward_gives_bias():
    model = build_model(ModelSpec((3,), 2, hidden=(4,)), seed=0)
    for name in model.prunable:
        model.params[name].data[:] = 0.0
    model.params["fc1_b"].data[:] = [0.25, -0.5]
    logits = model.forward(np.zeros((5, 3)))
    np.testing.assert_array_equal(logits.data, np.tile([0.25, -0.5], (5, 1)))


def test_identity_mlp_passes_positive_inputs():
    model = build_model(ModelSpec((2,), 2), seed=0)
    model.params["fc0_w"].data[:] = np.eye(2)
    model.params["fc0_b"].data[:] = 0.0
    x = np.array([[0.5, 2.0], [1.0, 3.0]])
    np.testing.assert_array_equal(model.forward(x).data, x)


def test_forward_shape():
    model = build_model(ModelSpec((4,), 3, hidden=(8,)), seed=1)
    assert model.forward(np.zeros((3, 4))).shape == (3, 3)


def test_forward_rejects_bad_width():
    model = build_model(ModelSpec((4,), 3, hidden=(8,)), seed=1)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((3, 5)))


def test_forward_does_not_mutate_params():
    model = build_model(ModelSpec((4,), 3, hidden=(8,)), seed=1)
    before = model.snapshot()
    model.forward(np.random.default_rng(0).standard_normal((6, 4)))
    for name, arr in before.items():
        np.testing.assert_array_equal(model.params[name].data, arr)


def test_restore_takes_the_snapshot_arrays():
    model = build_model(ModelSpec((4,), 3, hidden=(8,)), seed=1)
    snap = model.snapshot()
    model.restore(snap)
    for name, p in model.params.items():
        assert p.data is snap[name], name


def test_all_ones_mask_preserves_logits():
    model = build_model(ModelSpec((5,), 3, hidden=(6,)), seed=2)
    x = np.random.default_rng(1).standard_normal((4, 5))
    want = model.forward(x).data.copy()
    apply_mask(model, SparsityMask.full(model))
    np.testing.assert_array_equal(model.forward(x).data, want)


def test_loss_and_grads_returns_loss_grads_and_forward_logits():
    model = build_model(ModelSpec((1, 8, 8), 4, conv_stack=((3, 3, 1, 1),)), seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 1, 8, 8))
    y = rng.integers(0, 4, 5)
    loss, grads, logits = model.loss_and_grads(x, y)
    np.testing.assert_array_equal(logits, model.forward(x).data)
    assert loss == float(softmax_cross_entropy(model.forward(x), y).data)
    assert list(grads) == list(model.params)
    for name, p in model.params.items():
        assert grads[name].shape == p.shape


def test_convnet_registry_and_forward():
    spec = ModelSpec((1, 8, 8), 3, hidden=(10,), conv_stack=((4, 3, 1, 1), (6, 3, 1, 1)))
    model = build_model(spec, seed=0)
    assert list(model.params) == [
        "conv0_w", "conv0_b", "conv1_w", "conv1_b",
        "fc0_w", "fc0_b", "fc1_w", "fc1_b",
    ]
    assert spec.flat_dim() == 6 * 2 * 2
    logits = model.forward(np.random.default_rng(0).standard_normal((2, 64)))
    assert logits.shape == (2, 3)
    assert model.prunable == ("conv0_w", "conv1_w", "fc0_w", "fc1_w")


def _channel_first_features(model, x):
    """The conv stack's last pooled map [B, C, H, W], by direct channel-first loops."""
    h = x.reshape(x.shape[0], *model.spec.input_shape)
    for i, (_, k, stride, pad) in enumerate(model.spec.conv_stack):
        w = model.params[f"conv{i}_w"].data
        b = model.params[f"conv{i}_b"].data
        hp = np.pad(h, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        ho, wo = (hp.shape[2] - k) // stride + 1, (hp.shape[3] - k) // stride + 1
        out = np.empty((h.shape[0], w.shape[0], ho, wo))
        for r in range(ho):
            for c in range(wo):
                window = hp[:, :, r * stride : r * stride + k, c * stride : c * stride + k]
                out[:, :, r, c] = np.einsum("bcuv,ocuv->bo", window, w)
        h = np.maximum(out + b[None, :, None, None], 0.0)
        h2, w2 = h.shape[2] // 2, h.shape[3] // 2
        blocks = h[:, :, : 2 * h2, : 2 * w2].reshape(h.shape[0], h.shape[1], h2, 2, w2, 2)
        h = blocks.mean(axis=(3, 5))
    return h


def test_convnet_flatten_hands_fc0_channel_last_features(monkeypatch):
    spec = ModelSpec((2, 9, 8), 3, hidden=(5,), conv_stack=((3, 3, 1, 1), (4, 3, 1, 1)))
    model = build_model(spec, seed=4)
    rng = np.random.default_rng(6)
    for i in range(2):
        model.params[f"conv{i}_b"].data[:] = rng.standard_normal(3 + i)
    x = rng.standard_normal((3, 2 * 9 * 8))
    fc_inputs = []
    real = T.matmul

    def recording(a, b, tape=None):
        fc_inputs.append(a.data.copy())
        return real(a, b, tape)

    monkeypatch.setattr(T, "matmul", recording)
    model.forward(x)
    assert fc_inputs[0].shape == (3, 4 * 2 * 2)
    # fc0's rows run over the last pooled map in (h, w, c) order
    expected = _channel_first_features(model, x).transpose(0, 2, 3, 1).reshape(3, -1)
    np.testing.assert_allclose(fc_inputs[0], expected, rtol=1e-12, atol=1e-12)


def test_convnet_collapsed_feature_map_rejected():
    with pytest.raises(ModelSpecError, match=r"^feature map collapsed to 1x1 before pooling$"):
        ModelSpec((1, 4, 4), 3, conv_stack=((4, 3, 1, 1), (4, 3, 1, 1), (4, 3, 1, 1)))


def test_convnet_kernel_larger_than_its_padded_map_names_the_layer():
    # conv0 keeps 6x6 and the pool halves it, so conv1 sees an unpadded 3x3 map
    with pytest.raises(ModelSpecError, match=r"^conv1: kernel 5x5 exceeds its padded 3x3 map$"):
        ModelSpec((1, 6, 6), 3, conv_stack=((4, 3, 1, 1), (4, 5, 1, 0)))


def test_predict_tie_breaks_to_smaller_class():
    model = build_model(ModelSpec((2,), 3), seed=0)
    model.params["fc0_w"].data[:] = 0.0
    model.params["fc0_b"].data[:] = 0.0
    preds = model.predict(np.ones((4, 2)))
    np.testing.assert_array_equal(preds, np.zeros(4, dtype=np.int64))


def _bias_add_out_of_place(x, b, tape=None):
    # the out-of-place bias_add that tensor.bias_add replaced; the 2-d VJP is
    # the plain column sum, so the mlp case also pins the 2-d gradient bits
    if x.data.ndim == 2:
        out = T.Tensor(x.data + b.data)
    else:
        bias_map = np.empty(x.shape[1:])
        bias_map[...] = b.data
        out = T.Tensor(x.data + bias_map)
    if tape is not None:
        def bwd(g):
            if g.ndim == 2:
                return g, g.sum(axis=0)
            return g, g.sum(axis=0).reshape(-1, g.shape[-1]).sum(axis=0)

        tape.record("bias_add", (x, b), out, bwd)
    return out


def _relu_out_of_place(x, tape=None):
    # the out-of-place relu that tensor.relu replaced
    out = T.Tensor(np.maximum(x.data, 0.0))
    if tape is not None:
        def bwd(g):
            return (g * (x.data > 0.0),)

        tape.record("relu", (x,), out, bwd)
    return out


@pytest.mark.parametrize(
    "spec, batch",
    [
        (ModelSpec((20,), 5, hidden=(16, 12)), 33),
        (ModelSpec((2, 10, 10), 4, hidden=(7,), conv_stack=((3, 3, 1, 1), (4, 3, 1, 1))), 17),
        (ModelSpec((1, 13, 13), 3, conv_stack=((4, 3, 2, 0),)), 19),
    ],
    ids=["mlp", "convnet_pad1_stride1_hidden_head", "convnet_pad0_stride2"],
)
def test_in_place_activations_keep_every_bit(spec, batch, monkeypatch):
    rng = np.random.default_rng(71)
    x = rng.standard_normal((batch, *spec.input_shape))
    y = rng.integers(0, spec.class_count, size=batch)
    model = build_model(spec, seed=3)
    loss, grads, logits = model.loss_and_grads(x, y)
    monkeypatch.setattr(T, "bias_add", _bias_add_out_of_place)
    monkeypatch.setattr(T, "relu", _relu_out_of_place)
    ref_loss, ref_grads, ref_logits = model.loss_and_grads(x, y)
    assert np.array_equal(np.float64(loss), np.float64(ref_loss))
    assert np.array_equal(logits, ref_logits)
    assert grads.keys() == ref_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], ref_grads[name]), name


def test_one_activation_buffer_per_layer_bounds_the_gradient_peak():
    # the prune_wide MLP on a scoring-sized batch; one [N, 1024] float64
    # buffer is 16 MiB, and the out-of-place bias_add and relu peaked at ~89 MiB
    model = build_model(ModelSpec((196,), 10, hidden=(1024, 512)), seed=0)
    rng = np.random.default_rng(72)
    x = rng.standard_normal((2048, 196))
    y = rng.integers(0, 10, size=2048)
    model.loss_and_grads(x, y)  # warm
    tracemalloc.start()
    try:
        model.loss_and_grads(x, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2048 * 1024 * 8, f"peak {peak / 2**20:.1f} MiB"
