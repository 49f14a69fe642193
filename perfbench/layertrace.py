"""Per-layer tracer for one anyprune run, installed from outside the package.

The tracer rebinds public functions in the module namespaces that call them
(``harness.selection_scores``, ``tensor.matmul``, ``Tape.backward``, ...) with
timing wrappers. Nothing under ``src/`` is edited. Wrappers nest, so each span
charges its duration to its parent's child time: a layer's self time is its
spans' durations minus the time covered by their child spans, and its
inclusive time is the duration of its outermost spans.

Import anyprune before calling :meth:`Tracer.install`, and install before
``parse_config`` so that every call of the run is seen.
"""

import statistics
import time
import weakref
from collections import defaultdict

import numpy as np

from anyprune import config, harness, kernels, models, reporting
from anyprune import tensor as T

LAYERS = (
    "config", "datasets", "stream", "tensor", "kernels",
    "optim", "pruning", "models", "harness", "reporting",
)

# forward op function name -> the name the op records on the tape
TENSOR_OPS = {
    "matmul": "matmul",
    "bias_add": "bias_add",
    "relu": "relu",
    "conv2d": "conv2d",
    "mean_pool2": "mean_pool2",
    "reshape": "reshape",
    "softmax_cross_entropy": "softmax_ce",
}


def _conv_macs(x_shape, w_shape, out_hw):
    b, cin = x_shape[0], x_shape[1]
    cout, _, kh, kw = w_shape
    return b * cout * out_hw[0] * out_hw[1] * cin * kh * kw


class Tracer:
    """Spans, counts and per-call samples of one traced run."""

    def __init__(self):
        self.clock = time.perf_counter
        self.last_s = 0.0  # duration of the span that closed last
        self.stack = []  # open spans as [layer, child seconds]
        self.depth = defaultdict(int)
        self.layer_incl = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.seconds = defaultdict(float)  # metric name -> inclusive seconds
        self.counts = defaultdict(int)
        self.optim_step_s = []
        self.step_stamps = []  # (megabatch, epoch, time) per optimizer step
        self.param_names = {}  # id(Tensor) -> registry name
        self.param_sizes = {}
        self.kept = {}  # registry name -> kept weights under the current mask
        self.kept_fraction = 1.0
        self.tape_outputs = weakref.WeakKeyDictionary()

    # -- spans -------------------------------------------------------------

    def _span(self, layer, metrics, fn, *args, **kwargs):
        self.stack.append([layer, 0.0])
        self.depth[layer] += 1
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = self.last_s = self.clock() - t0
            _, child = self.stack.pop()
            self.layer_self[layer] += dur - child
            self.depth[layer] -= 1
            if self.depth[layer] == 0:
                self.layer_incl[layer] += dur
            if self.stack:
                self.stack[-1][1] += dur
            for m in metrics:
                self.seconds[m] += dur

    def _wrap(self, owner, attr, layer, *metrics, after=None):
        """Rebind ``owner.attr`` to a spanned call; ``after(result, args)`` counts."""
        fn = getattr(owner, attr)

        def wrapped(*args, **kwargs):
            result = self._span(layer, metrics, fn, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        setattr(owner, attr, wrapped)

    # -- labels and counts -------------------------------------------------

    def _label(self, op, inputs):
        for t in inputs:
            name = self.param_names.get(id(t))
            if name is not None:
                return f"{name}.{op}"
        return op

    def _count_matmul(self, a, b, products=1):
        """Multiply-adds of ``products`` matmuls of a's and b's size; useful ones
        multiply a kept weight of ``b``."""
        macs = products * a.shape[0] * a.shape[1] * b.shape[1]
        name = self.param_names.get(id(b))
        kept = self.kept.get(name, self.param_sizes.get(name, 1))
        size = self.param_sizes.get(name, 1)
        self.counts["matmul_macs"] += macs
        self.counts["matmul_useful_macs"] += macs * kept // size

    def _capture_model(self, model, _args):
        for e in model.registry:
            self.param_names[id(e.tensor)] = e.name
            self.param_sizes[e.name] = e.tensor.size
            if e.prunable:
                self.kept[e.name] = e.tensor.size

    # -- installation ------------------------------------------------------

    def install(self):
        self._wrap(config, "parse_config", "config", "config.parse_s")
        self._wrap(harness, "dataset_for_config", "datasets", "datasets.load_s")
        self._wrap(harness, "build_stream", "stream", "stream.view_s")
        self._wrap(
            harness, "replay_view", "stream", "stream.view_s",
            after=lambda view, _a: self._add("stream.train_samples", view.train_idx.size),
        )
        self._wrap(harness, "draw_pi", "stream", "stream.view_s")
        self._wrap(harness, "build_model", "models", after=self._capture_model)
        for fn_name, op in TENSOR_OPS.items():
            self._install_op(fn_name, op)
        self._install_tape()
        self._install_kernels()
        self._wrap(
            harness, "sgd_momentum_step", "optim", "optim.step_s",
            after=self._count_optim,
        )
        self._wrap(
            harness, "selection_scores", "pruning", "pruning.score_s",
            after=lambda _s, args: self._add(
                "pruning.scored_samples",
                args[3].shape[0] if len(args) > 3 and args[3] is not None else 0,
            ),
        )
        self._wrap(harness, "prune_global", "pruning", "pruning.select_s")
        self._wrap(harness, "apply_mask", "pruning", "pruning.apply_s")
        self._wrap(models.Model, "snapshot", "models", "models.snapshot_s")
        self._wrap(models.Model, "restore", "models", "models.snapshot_s")
        self._wrap(models.Model, "predict", "models", "models.predict_s")
        self._wrap(harness, "train_megabatch", "harness", "harness.train_s")
        self._wrap(harness, "evaluate", "harness", "harness.eval_s")
        self._wrap(harness, "run", "harness")
        self._wrap(reporting, "write_run_dir", "reporting", "reporting.write_s")

    def _add(self, name, n):
        self.counts[name] += int(n)

    def _install_op(self, fn_name, op):
        fn = getattr(T, fn_name)

        def wrapped(*args, **kwargs):
            label = self._label(op, args[:2])
            if op == "matmul":
                self._count_matmul(args[0], args[1])
            return self._span(
                "tensor", ("tensor.fwd_s", f"tensor.{label}.fwd_s"), fn, *args, **kwargs
            )

        setattr(T, fn_name, wrapped)

    def _install_tape(self):
        record = T.Tape.record
        backward = T.Tape.backward
        tracer = self

        def traced_record(tape, name, inputs, output, *rest):
            *fwd, bwd = rest  # the last argument is the vector-Jacobian product
            outputs = tracer.tape_outputs.setdefault(tape, set())
            label = tracer._label(name, inputs)
            dead = [
                id(t) not in outputs and id(t) not in tracer.param_names for t in inputs
            ]
            outputs.add(id(output))
            metrics = (f"tensor.{label}.bwd_s",)

            def traced_bwd(g):
                grads = tracer._span("tensor", metrics, bwd, g)
                for gi, is_dead in zip(grads, dead):
                    if is_dead and gi is not None:
                        tracer.counts["tensor.dead_vjp_bytes"] += np.asarray(gi).nbytes
                if name == "matmul":  # input and weight gradients
                    tracer._count_matmul(inputs[0], inputs[1], products=2)
                return grads

            return record(tape, name, inputs, output, *fwd, traced_bwd)

        def traced_backward(tape, loss):
            tracer.counts["backward_calls"] += 1
            tracer.counts["backward_nodes"] += len(tape)
            return tracer._span("tensor", ("tensor.bwd_s",), backward, tape, loss)

        T.Tape.record = traced_record
        T.Tape.backward = traced_backward

    def _install_kernels(self):
        def count_conv_fwd(out, args):
            x, w = args[0], args[1]
            self._add("kernels.conv2d_macs", _conv_macs(x.shape, w.shape, out.shape[2:]))
            self._add("kernels.conv2d_bytes", x.nbytes + w.nbytes + out.nbytes)
            self._add("kernels.calls", 1)

        def count_conv_bwd(grads, args):
            x, w, gout = args[0], args[1], args[2]
            self._add("kernels.conv2d_macs", 2 * _conv_macs(x.shape, w.shape, gout.shape[2:]))
            self._add(
                "kernels.conv2d_bytes",
                x.nbytes + w.nbytes + gout.nbytes + sum(g.nbytes for g in grads),
            )
            self._add("kernels.calls", 1)

        def count_call(_r, _a):
            self._add("kernels.calls", 1)

        self._wrap(kernels, "conv2d_fwd", "kernels", "kernels.conv2d_fwd_s", after=count_conv_fwd)
        self._wrap(kernels, "conv2d_bwd", "kernels", "kernels.conv2d_bwd_s", after=count_conv_bwd)
        self._wrap(kernels, "meanpool2_fwd", "kernels", "kernels.meanpool2_fwd_s", after=count_call)
        self._wrap(kernels, "meanpool2_bwd", "kernels", "kernels.meanpool2_bwd_s", after=count_call)

    def _count_optim(self, _r, args):
        self.optim_step_s.append(self.last_s)
        params, grads, state = args[0], args[1], args[2]
        mask = args[3] if len(args) > 3 else None
        masks = mask.arrays if mask is not None else {}
        # parameter and velocity are read and written; gradient and mask are read
        self.counts["optim.bytes_per_step"] = sum(
            2 * p.data.nbytes + np.asarray(grads[name]).nbytes
            + 2 * state.velocity[name].nbytes
            + (masks[name].nbytes if name in masks else 0)
            for name, p in params.items()
        )

    # -- observer hooks (passed to harness.run) ----------------------------

    def on_step(self, t, epoch, model, optim, mask):
        self.step_stamps.append((t, epoch, self.clock()))

    def on_prune(self, t, old_mask, new_mask):
        kept = {name: int(np.count_nonzero(a)) for name, a in new_mask.arrays.items()}
        self.kept.update(kept)
        self.kept_fraction = sum(kept.values()) / sum(a.size for a in new_mask.arrays.values())

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Flat per-layer metrics of the traced run (seconds, counts, ratios)."""
        out = dict(self.seconds)
        out.update(
            (k, v) for k, v in self.counts.items()
            if k.startswith(("stream.", "tensor.", "kernels.", "optim.", "pruning."))
        )
        calls = self.counts["backward_calls"]
        out["tensor.nodes_per_step"] = self.counts["backward_nodes"] / calls if calls else 0.0
        macs = self.counts["matmul_macs"]
        out["tensor.matmul_useful_ratio"] = (
            self.counts["matmul_useful_macs"] / macs if macs else 0.0
        )
        conv_s = self.seconds["kernels.conv2d_fwd_s"] + self.seconds["kernels.conv2d_bwd_s"]
        # two floating-point operations per multiply-add
        out["kernels.conv2d_gflops"] = (
            2.0 * self.counts["kernels.conv2d_macs"] / conv_s / 1e9 if conv_s else 0.0
        )
        if self.optim_step_s:
            out["optim.step_us_p50"] = statistics.median(self.optim_step_s) * 1e6
        steps = [
            b[2] - a[2]
            for a, b in zip(self.step_stamps, self.step_stamps[1:])
            if a[:2] == b[:2]
        ]
        if len(steps) >= 10:
            deciles = statistics.quantiles(steps, n=10)
            out["harness.step_ms_p50"] = deciles[4] * 1e3
            out["harness.step_ms_p90"] = deciles[8] * 1e3
        out["pruning.kept_fraction"] = self.kept_fraction
        for layer in LAYERS:
            out[f"{layer}.incl_s"] = self.layer_incl[layer]
            out[f"{layer}.self_s"] = self.layer_self[layer]
        return out
