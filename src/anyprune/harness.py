"""Megabatch training loops and the run-variant dispatcher.

One run walks the stream in order. The variants differ only in when the mask
is refined within a megabatch: before training (app_default,
app_noreplay_snip, anytime_osp at the first megabatch only), after a warmup
(app_warmup), after training from the best checkpoint (app_final), or never
(baseline). After each megabatch the best validation checkpoint is evaluated
on the held-out test set and carried into the next megabatch.

Every random draw comes from a Philox stream keyed by integers (a config seed
and the megabatch, epoch or layer; see ``rng`` for the purpose constants), so
an identical config reproduces an identical MetricsLog.
"""

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import config_hash, run_id
from .datasets import Dataset, gen_blobs, gen_spirals, load_csv, load_idx, split_test
from .errors import AnypruneError, DataError, FormatError, NumericError
from .kernels import blas_threads
from .metrics import error_count, generalization_gap
from .models import ModelSpec, build_model
from .optim import OptimState, sgd_momentum_step
from .pruning import (
    SparsityMask,
    apply_mask,
    keep_count,
    layer_pruned_fraction,
    make_delta_schedule,
    prune_global,
    selection_scores,
)
from .rng import STREAM_SHUFFLE, rng_from
from .stream import build_stream, draw_pi, replay_view

logger = logging.getLogger(__name__)

# an MLP step under this many multiply-adds trains on one OpenBLAS thread: a second
# thread slows its elementwise numpy work more than it speeds up its small products
SMALL_STEP_MACS = 2**22


@dataclass
class EpochRecord:
    megabatch: int
    epoch: int
    lr: float
    global_iter: int
    train_correct: int
    train_total: int
    train_loss: float
    val_correct: int
    val_total: int
    val_loss: float
    kept_count: int

    @property
    def train_acc(self):
        return self.train_correct / self.train_total

    @property
    def val_acc(self):
        return self.val_correct / self.val_total


@dataclass
class MegabatchRecord:
    megabatch: int
    best_epoch: int
    test_errors: int
    test_total: int
    gen_gap_pp: float
    kept_count: int
    layer_pruned: list
    predictions: np.ndarray


@dataclass
class RunEvent:
    megabatch: int
    seq: int
    kind: str
    detail: dict


@dataclass
class MetricsLog:
    config: object
    config_hash: str
    run_id: str
    prunable_total: int
    layer_names: list
    test_labels: np.ndarray
    epochs: list = field(default_factory=list)
    megabatches: list = field(default_factory=list)
    events: list = field(default_factory=list)
    wall_clock_seconds: float = 0.0


def lr_at(config, t, epoch):
    """Learning rate for (megabatch t, epoch) under the configured regime.

    The multistep shape over k = epochs multiplies lr0 by lr_gamma from
    1-based epoch floor(0.5k) on, and by lr_gamma again from floor(0.75k) on.
    So k = 20 trains 9 epochs at lr0, 5 at lr0*lr_gamma and 6 at
    lr0*lr_gamma**2, and k <= 3 never trains at lr0. multistep_m1_only
    applies the shape to megabatch 1 and holds post_m1_lr from megabatch 2
    on; cyclic_every_mt restarts the shape at every megabatch.
    """
    if not 1 <= epoch <= config.epochs:
        raise IndexError(f"epoch {epoch} outside 1..{config.epochs}")
    if config.lr_mode == "multistep_m1_only" and t >= 2:
        return config.post_m1_lr
    m1 = math.floor(0.5 * config.epochs)
    m2 = math.floor(0.75 * config.epochs)
    if epoch >= m2:
        return config.lr0 * config.lr_gamma * config.lr_gamma
    if epoch >= m1:
        return config.lr0 * config.lr_gamma
    return config.lr0


def evaluate(model, x, y):
    """Exact counts plus mean loss on a labelled set, deterministically."""
    preds, loss_sum = model.sliced_forward(x, y)
    return int((preds == y).sum()), x.shape[0], loss_sum / x.shape[0]


def _no_hook(*args):
    """Stands in for each observer hook that the observer does not define."""


def _check_loss(kind, loss, epoch, global_iter):
    if not math.isfinite(loss):
        raise NumericError(f"{kind} loss is {loss} at epoch {epoch}, global_iter {global_iter}")


def train_megabatch(model, mask, dataset, view, config, t, epochs, optim, global_iter=0, observer=None):
    """Train the view's rows of the dataset for the given epochs, tracking the best val checkpoint.

    Returns (best_record, epoch_records, global_iter); the best record is the
    epoch with the highest validation accuracy (ties favor the earlier epoch),
    or None when no epochs ran. Epochs that end at ``config.epochs`` leave the
    model at the best epoch's parameters; a span that stops earlier (a
    warmup) copies no checkpoint and leaves the running (last-step) ones.
    """
    if epochs and view.train_idx.size == 0:
        raise DataError("megabatch training view has no training samples")
    final = bool(epochs) and epochs[-1] == config.epochs
    kept = mask.kept_count
    records = []
    best_snap = best_rec = None
    for epoch in epochs:
        order = rng_from(STREAM_SHUFFLE, config.seed_shuffle, t, epoch).permutation(view.train_idx)
        optim.lr = lr_at(config, t, epoch)
        correct = 0
        loss_sum = 0.0
        for start in range(0, order.size, config.minibatch):
            batch = order[start : start + config.minibatch]
            xb, yb = dataset.x[batch], dataset.y[batch]
            with np.errstate(over="ignore", invalid="ignore"):  # finiteness checked below
                step_loss, grads, logits = model.loss_and_grads(xb, yb)
            global_iter += 1
            _check_loss("training", step_loss, epoch, global_iter)
            sgd_momentum_step(model.params, grads, optim, mask)
            del grads  # used up by the step; the next backward builds a new set
            correct += int((np.argmax(logits, axis=1) == yb).sum())
            loss_sum += step_loss * yb.size
            getattr(observer, "on_step", _no_hook)(t, epoch, model, optim, mask)
        with np.errstate(over="ignore", invalid="ignore"):
            val_correct, val_total, val_loss = evaluate(
                model, dataset.x[view.val_idx], dataset.y[view.val_idx]
            )
        _check_loss("validation", val_loss, epoch, global_iter)
        rec = EpochRecord(
            megabatch=t, epoch=epoch, lr=optim.lr, global_iter=global_iter,
            train_correct=correct, train_total=int(order.size), train_loss=loss_sum / order.size,
            val_correct=val_correct, val_total=val_total, val_loss=val_loss, kept_count=kept,
        )
        records.append(rec)
        if best_rec is None or rec.val_correct > best_rec.val_correct:
            best_rec = rec
            if final:
                del best_snap  # the old best goes before the new copy is made
                best_snap = model.snapshot()
    if final:
        model.restore(best_snap)
    return best_rec, records, global_iter


def dataset_for_config(config):
    if config.dataset == "synthetic_blobs":
        return gen_blobs(
            config.blob_classes, config.blob_per_class, config.blob_dim,
            config.blob_noise, config.seed_partition, config.test_per_class,
        )
    if config.dataset == "synthetic_spirals":
        return gen_spirals(
            config.spiral_classes, config.spiral_per_class, config.spiral_noise,
            config.seed_partition, config.test_per_class,
        )
    if config.dataset == "idx":
        x, y, shape = load_idx(config.idx_train_images, config.idx_train_labels)
        xt, yt, shape_t = load_idx(config.idx_test_images, config.idx_test_labels)
        if shape != shape_t:
            raise FormatError(f"train images are {shape}, test images are {shape_t}")
    else:
        x, y = load_csv(config.csv_path, config.csv_label_column)
        x, y, xt, yt = split_test(x, y, config.test_fraction, config.seed_partition)
        shape = (x.shape[1],)
    return Dataset(x, y, xt, yt, input_shape=shape)


def model_spec_for_config(config, dataset):
    return ModelSpec(
        dataset.input_shape, dataset.class_count,
        hidden=config.mlp_hidden or config.head_hidden or (),  # None where not applicable
        conv_stack=tuple(
            (c, config.conv_kernel, config.conv_stride, config.conv_padding)
            for c in config.conv_channels or ()
        ),
    )


def _prune_step(config, dataset, stream, view, model, mask, t, delta):
    """Score the weights ``mask`` keeps; keep the best 0.8**delta share of all prunable ones.

    Returns (new_mask, detail of the prune event). The scoring rows and the
    scores are local, so they are freed before training resumes.
    """
    x = y = pi_size = None
    if config.pruner in ("snip", "grasp"):
        source = replay_view(stream, t, "none") if config.variant == "app_noreplay_snip" else view
        pi_idx = draw_pi(source, config.pi_fraction, (config.seed_pruning, t))
        pi_size = int(pi_idx.size)
        if pi_size == 0:
            raise DataError(
                f"pi_fraction = {config.pi_fraction} of the view's "
                f"{source.train_idx.size} training samples is an empty scoring set"
            )
        x, y = dataset.x[pi_idx], dataset.y[pi_idx]
    with np.errstate(over="ignore", invalid="ignore"):  # a kept weight's NaN score raises
        scores = selection_scores(config.pruner, model, mask, x, y, (config.seed_pruning, t))
    keep = keep_count(delta, mask.size)
    new_mask = prune_global(mask, scores, keep)
    detail = {
        "delta": float(delta), "keep": keep, "kept_before": mask.kept_count,
        "kept_after": new_mask.kept_count, "pi_size": pi_size,
    }
    return new_mask, detail


def _warn_collapse(t, mask):
    """Log the prunable tensors ``mask`` leaves empty, and the classes it cuts off."""
    collapsed = [f"{name} keeps no weight" for name, kept in mask.kept.items() if kept == 0]
    head = list(mask.arrays)[-1]  # the class layer, fc{last}_w, comes last
    classes = np.flatnonzero(~mask.arrays[head].any(axis=0)).tolist()
    if classes:
        collapsed.append(f"classes {classes} keep no weight in {head}")
    if collapsed:
        logger.warning("megabatch %d: layer collapse: %s", t, "; ".join(collapsed))


def run(config, observer=None):
    """Execute one configured run over the whole stream; returns the MetricsLog.

    ``observer`` may define any of four hooks; a hook it lacks is a no-op:
    ``on_megabatch_start(t, model, mask)``, ``on_step(t, epoch, model, optim,
    mask)`` after every optimizer step, ``on_prune(t, old_mask, new_mask)``
    before the new mask reaches the weights, and ``on_megabatch_end(t, model,
    mask)`` once the best checkpoint is restored and evaluated. ``mask`` is
    always a SparsityMask; the baseline's keeps every weight and never prunes.
    A package error raised inside megabatch ``t`` is raised again as its own
    class, prefixed ``megabatch t, <phase>:`` (train, prune or eval).
    """
    started = time.perf_counter()
    dataset = dataset_for_config(config)
    stream = build_stream(
        dataset, config.megabatches, config.val_fraction,
        config.per_class_cap, config.seed_partition,
    )
    spec = model_spec_for_config(config, dataset)
    sizes = spec.dense_sizes()
    step_macs = config.minibatch * sum(a * b for a, b in zip(sizes, sizes[1:]))
    with blas_threads(1 if not spec.conv_stack and step_macs < SMALL_STEP_MACS else None):
        model = build_model(spec, config.seed_init)
        mask = SparsityMask.full(model)
        # deltas: the exponents of the megabatches that prune, in stream order;
        # at: the epochs each megabatch trains before its prune step
        steps = 1 if config.variant == "anytime_osp" else config.megabatches
        deltas = make_delta_schedule(config.tau, steps) if config.variant != "baseline" else ()
        at = 0
        if config.variant == "app_final":
            at = config.epochs
        elif config.variant == "app_warmup":
            at = config.warmup_epochs
            if at >= config.epochs:
                at = math.ceil(config.epochs / 2)
                logger.warning(
                    "warmup_epochs %d >= epochs %d; pruning after epoch %d instead",
                    config.warmup_epochs, config.epochs, at,
                )

        log = MetricsLog(
            config=config, config_hash=config_hash(config), run_id=run_id(config),
            prunable_total=mask.size, layer_names=list(mask.arrays),
            test_labels=dataset.y_test.copy(),
        )
        global_iter = 0

        for t in range(1, config.megabatches + 1):
            phase = "train"
            try:
                getattr(observer, "on_megabatch_start", _no_hook)(t, model, mask)
                view = replay_view(stream, t, config.replay)
                optim = OptimState(config.lr0, config.momentum, config.weight_decay)
                events = []  # (kind, detail), numbered in order below
                # the prune step falls between the two spans, so an empty second span
                # leaves the pruned weights and the first span's best record standing
                for span, (first, last) in enumerate(((1, at), (at + 1, config.epochs))):
                    phase = "train"
                    span_best, records, global_iter = train_megabatch(
                        model, mask, dataset, view, config, t, epochs=range(first, last + 1),
                        optim=optim, global_iter=global_iter, observer=observer,
                    )
                    if records:
                        log.epochs.extend(records)
                        events.append(("train", {"first_epoch": first, "last_epoch": last}))
                        best_rec = span_best
                    if span == 0 and t <= len(deltas):
                        phase = "prune"
                        new_mask, detail = _prune_step(
                            config, dataset, stream, view, model, mask, t, deltas[t - 1]
                        )
                        getattr(observer, "on_prune", _no_hook)(t, mask, new_mask)
                        mask = new_mask
                        apply_mask(model, mask)  # the next step zeroes the pruned momentum
                        _warn_collapse(t, mask)
                        events.append(("prune", detail))

                phase = "eval"
                preds = model.predict(dataset.x_test)
                errors = error_count(preds, dataset.y_test)
                gap = generalization_gap(best_rec.train_acc, best_rec.val_acc)
                log.megabatches.append(MegabatchRecord(
                    megabatch=t, best_epoch=best_rec.epoch, test_errors=errors,
                    test_total=int(dataset.y_test.size), gen_gap_pp=gap, kept_count=mask.kept_count,
                    layer_pruned=layer_pruned_fraction(mask), predictions=preds,
                ))
                events.append(("eval", {"test_errors": errors}))
                log.events.extend(
                    RunEvent(megabatch=t, seq=seq, kind=kind, detail=detail)
                    for seq, (kind, detail) in enumerate(events)
                )
                getattr(observer, "on_megabatch_end", _no_hook)(t, model, mask)
            except AnypruneError as exc:
                raise type(exc)(f"megabatch {t}, {phase}: {exc}") from exc

    log.wall_clock_seconds = time.perf_counter() - started
    return log
