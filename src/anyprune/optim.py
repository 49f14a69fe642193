"""SGD with momentum, weight decay, and hard sparsity-mask enforcement."""

import numpy as np

from .errors import ParameterError, ShapeError


class OptimState:
    """Momentum buffers plus hyperparameters for one model's parameters.

    ``lr`` is mutable: the harness sets it per epoch from the schedule.
    """

    def __init__(self, params, lr, momentum=0.9, weight_decay=0.0):
        if lr <= 0.0:
            raise ParameterError(f"learning rate must be positive, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ParameterError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0.0:
            raise ParameterError(f"weight decay must be >= 0, got {weight_decay}")
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.velocity = {name: np.zeros(p.shape) for name, p in params.items()}


def sgd_momentum_step(params, grads, state, mask):
    """One in-place update: v <- m*v + (g + wd*p); p <- p - lr*v; then mask.

    Masked positions of both the parameter and its momentum buffer are forced
    to exactly zero after the update, so pruned weights can never drift. A
    tensor the mask keeps whole is skipped: ``x * 1.0`` is ``x`` bit for bit.
    """
    for name, p in params.items():
        g = grads[name]
        if np.shape(g) != p.shape:
            raise ShapeError(f"grad shape {np.shape(g)} != param shape {p.shape} for {name}")
        v = state.velocity[name]
        if v.shape != p.shape:
            raise ShapeError(f"momentum shape {v.shape} != param shape {p.shape} for {name}")
        step = g + state.weight_decay * p.data if state.weight_decay else g
        v *= state.momentum
        v += step
        p.data -= state.lr * v
        if name in mask.arrays:
            m = mask.arrays[name]
            if m.shape != p.shape:
                raise ShapeError(f"mask shape {m.shape} != param shape {p.shape} for {name}")
            if mask.kept[name] < m.size:
                m = m.astype(np.float64)  # cast once: a bool operand is cast again in each product
                p.data *= m
                v *= m
