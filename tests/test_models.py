"""Model construction, registry bookkeeping, and forward-pass contracts."""

import numpy as np
import pytest

from anyprune.errors import ModelSpecError, ShapeError
from anyprune.models import (
    ModelSpec,
    build_model,
    convnet_spec,
    count_params,
    mlp_spec,
)
from anyprune.pruning import SparsityMask, apply_mask


def test_registry_prunable_flags_and_counts():
    model = build_model(mlp_spec(4, (8,), 3), seed=0)
    weights = [e for e in model.registry if e.prunable]
    biases = [e for e in model.registry if not e.prunable]
    assert [e.name for e in weights] == ["fc0_w", "fc1_w"]
    assert [e.name for e in biases] == ["fc0_b", "fc1_b"]
    assert count_params(model.registry, prunable_only=True) == 4 * 8 + 8 * 3
    assert count_params(model.registry, prunable_only=False) == 56 + 8 + 3


def test_count_params_empty_registry():
    from anyprune.models import ParamRegistry

    assert count_params(ParamRegistry(), prunable_only=True) == 0
    assert count_params(ParamRegistry(), prunable_only=False) == 0


def test_build_determinism():
    a = build_model(mlp_spec(4, (8,), 3), seed=5)
    b = build_model(mlp_spec(4, (8,), 3), seed=5)
    for ea, eb in zip(a.registry, b.registry):
        assert ea.name == eb.name
        assert ea.prunable == eb.prunable
        np.testing.assert_array_equal(ea.tensor.data, eb.tensor.data)


def test_spec_dim_mismatch():
    with pytest.raises(ModelSpecError):
        ModelSpec(kind="mlp", input_shape=(4,), class_count=3, layer_sizes=(4, 8))


def test_zero_weights_forward_gives_bias():
    model = build_model(mlp_spec(3, (4,), 2), seed=0)
    for e in model.registry:
        if e.prunable:
            e.tensor.data[:] = 0.0
    model.registry["fc1_b"].tensor.data[:] = [0.25, -0.5]
    logits = model.forward(np.zeros((5, 3)))
    np.testing.assert_array_equal(logits.data, np.tile([0.25, -0.5], (5, 1)))


def test_identity_mlp_passes_positive_inputs():
    model = build_model(mlp_spec(2, (), 2), seed=0)
    model.registry["fc0_w"].tensor.data[:] = np.eye(2)
    model.registry["fc0_b"].tensor.data[:] = 0.0
    x = np.array([[0.5, 2.0], [1.0, 3.0]])
    np.testing.assert_array_equal(model.forward(x).data, x)


def test_forward_shape():
    model = build_model(mlp_spec(4, (8,), 3), seed=1)
    assert model.forward(np.zeros((3, 4))).shape == (3, 3)


def test_forward_rejects_bad_width():
    model = build_model(mlp_spec(4, (8,), 3), seed=1)
    with pytest.raises(ShapeError):
        model.forward(np.zeros((3, 5)))


def test_forward_does_not_mutate_params():
    model = build_model(mlp_spec(4, (8,), 3), seed=1)
    before = model.snapshot()
    model.forward(np.random.default_rng(0).standard_normal((6, 4)))
    for name, arr in before.items():
        np.testing.assert_array_equal(model.registry[name].tensor.data, arr)


def test_all_ones_mask_preserves_logits():
    model = build_model(mlp_spec(5, (6,), 3), seed=2)
    x = np.random.default_rng(1).standard_normal((4, 5))
    want = model.forward(x).data.copy()
    apply_mask(model, SparsityMask.full(model))
    np.testing.assert_array_equal(model.forward(x).data, want)


def test_loss_and_grads_returns_loss_grads_and_forward_logits():
    model = build_model(convnet_spec((1, 8, 8), (3,), 3, 1, 1, (), 4), seed=1)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 1, 8, 8))
    y = rng.integers(0, 4, 5)
    loss, grads, logits = model.loss_and_grads(x, y)
    np.testing.assert_array_equal(logits, model.forward(x).data)
    assert loss == float(model.loss_on_tape(x, y).data)
    assert list(grads) == [e.name for e in model.registry]
    for e in model.registry:
        assert grads[e.name].shape == e.tensor.shape


def test_convnet_registry_and_forward():
    spec = convnet_spec((1, 8, 8), (4, 6), 3, 1, 1, (10,), 3)
    model = build_model(spec, seed=0)
    names = [e.name for e in model.registry]
    assert names == [
        "conv0_w", "conv0_b", "conv1_w", "conv1_b",
        "fc0_w", "fc0_b", "fc1_w", "fc1_b",
    ]
    assert spec.flat_dim() == 6 * 2 * 2
    logits = model.forward(np.random.default_rng(0).standard_normal((2, 64)))
    assert logits.shape == (2, 3)
    prunable = {e.name for e in model.registry.prunable()}
    assert prunable == {"conv0_w", "conv1_w", "fc0_w", "fc1_w"}


def test_convnet_collapsed_feature_map_rejected():
    with pytest.raises(ModelSpecError):
        convnet_spec((1, 4, 4), (4, 4, 4), 3, 1, 1, (), 3)


def test_predict_tie_breaks_to_smaller_class():
    model = build_model(mlp_spec(2, (), 3), seed=0)
    model.registry["fc0_w"].tensor.data[:] = 0.0
    model.registry["fc0_b"].tensor.data[:] = 0.0
    preds = model.predict(np.ones((4, 2)))
    np.testing.assert_array_equal(preds, np.zeros(4, dtype=np.int64))
