"""Variant mechanics: event order, pi sizes, carryover, and mask trajectories."""

import itertools
import json
import logging
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from anyprune import harness, kernels
from anyprune.config import parse_config
from anyprune.datasets import Dataset
from anyprune.errors import NumericError
from anyprune.harness import run, train_megabatch
from anyprune.models import ModelSpec, build_model
from anyprune.optim import OptimState
from anyprune.pruning import SparsityMask, keep_count, make_delta_schedule
from anyprune.rng import round_half_up
from anyprune.stream import Megabatch, build_stream, replay_view


def _cfg(**overrides):
    base = {
        "variant": "app_default",
        "pruner": "snip",
        "tau": "3.0",
        "megabatches": "3",
        "dataset": "synthetic_blobs",
        "blob_classes": "3",
        "blob_per_class": "60",
        "blob_dim": "8",
        "epochs": "2",
        "mlp_hidden": "12",
        "lr_mode": "cyclic_every_mt",
    }
    base.update({k: str(v) for k, v in overrides.items()})
    if base.get("variant") == "baseline":
        for key in ("pruner", "tau"):
            base.pop(key, None)
    text = "\n".join(f"{k} = {v}" for k, v in base.items())
    return parse_config(text)


def _event_kinds(log, t):
    return [e.kind for e in log.events if e.megabatch == t]


def _prune_events(log):
    return [e for e in log.events if e.kind == "prune"]


def _assert_seq_counts_each_megabatch(log):
    for t in range(1, log.config.megabatches + 1):
        seqs = [e.seq for e in log.events if e.megabatch == t]
        assert seqs == list(range(len(seqs)))


class TestVariantEventOrder:
    def test_app_default_prunes_before_training(self):
        log = run(_cfg())
        for t in (1, 2, 3):
            assert _event_kinds(log, t) == ["prune", "train", "eval"]
        _assert_seq_counts_each_megabatch(log)

    def test_app_final_prunes_after_training(self):
        log = run(_cfg(variant="app_final"))
        for t in (1, 2, 3):
            assert _event_kinds(log, t) == ["train", "prune", "eval"]
        _assert_seq_counts_each_megabatch(log)

    def test_app_warmup_prunes_after_exactly_warmup_epochs(self):
        log = run(_cfg(variant="app_warmup", epochs=22, warmup_epochs=20))
        for t in (1, 2, 3):
            events = [e for e in log.events if e.megabatch == t]
            assert [e.kind for e in events] == ["train", "prune", "train", "eval"]
            assert events[0].detail == {"first_epoch": 1, "last_epoch": 20}
            assert events[2].detail == {"first_epoch": 21, "last_epoch": 22}
        _assert_seq_counts_each_megabatch(log)

    def test_warmup_short_run_prunes_at_half(self):
        log = run(_cfg(variant="app_warmup", epochs=4, warmup_epochs=20))
        events = [e for e in log.events if e.megabatch == 1]
        assert events[0].detail == {"first_epoch": 1, "last_epoch": 2}
        _assert_seq_counts_each_megabatch(log)

    def test_baseline_never_prunes(self):
        class MaskTrace:
            def __init__(self):
                self.masks = []

            def on_megabatch_start(self, t, model, mask):
                self.masks.append(mask)

            def on_step(self, t, epoch, model, optim, mask):
                self.masks.append(mask)

            def on_prune(self, t, old_mask, new_mask):
                self.masks += [old_mask, new_mask]

            def on_megabatch_end(self, t, model, mask):
                self.masks.append(mask)

        trace = MaskTrace()
        log = run(_cfg(variant="baseline"), observer=trace)
        assert _prune_events(log) == []
        assert all(r.kept_count == log.prunable_total for r in log.epochs)
        assert all(r.kept_count == log.prunable_total for r in log.megabatches)
        assert len(trace.masks) > 2 * log.config.megabatches
        for mask in trace.masks:
            assert isinstance(mask, SparsityMask)
            assert mask.kept_count == log.prunable_total
        for rec in log.megabatches:
            assert [name for name, _ in rec.layer_pruned] == log.layer_names
            assert all(frac == 0.0 for _, frac in rec.layer_pruned)
        _assert_seq_counts_each_megabatch(log)

    def test_osp_prunes_once_at_start(self):
        log = run(_cfg(variant="anytime_osp"))
        prunes = _prune_events(log)
        assert len(prunes) == 1 and prunes[0].megabatch == 1
        want = keep_count(3.0, log.prunable_total)
        assert all(r.kept_count == want for r in log.megabatches)
        _assert_seq_counts_each_megabatch(log)

    def test_osp_mask_bit_identical_across_megabatches(self):
        class MaskTrace:
            def __init__(self):
                self.per_megabatch = []

            def on_megabatch_end(self, t, model, mask):
                self.per_megabatch.append({k: v.copy() for k, v in mask.arrays.items()})

        trace = MaskTrace()
        log = run(_cfg(variant="anytime_osp"), observer=trace)
        _assert_seq_counts_each_megabatch(log)
        first = trace.per_megabatch[0]
        for later in trace.per_megabatch[1:]:
            for name, arr in first.items():
                np.testing.assert_array_equal(later[name], arr)


class _MaskedWeights:
    """Largest |weight| at a masked position, per megabatch end."""

    def __init__(self):
        self.largest = []

    def on_megabatch_end(self, t, model, mask):
        self.largest.append(max(
            float(np.abs(model.params[name].data[m == 0.0]).max(initial=0.0))
            for name, m in mask.arrays.items()
        ))


class TestNoEpochsAfterPrune:
    """At epochs = 1, app_warmup and app_final prune after the only epoch."""

    @pytest.mark.parametrize("variant", ["app_warmup", "app_final"])
    def test_single_epoch_keeps_pruned_weights_and_epoch_one(self, variant):
        obs = _MaskedWeights()
        log = run(_cfg(variant=variant, epochs=1), observer=obs)
        for t in (1, 2, 3):
            assert _event_kinds(log, t) == ["train", "prune", "eval"]
        assert [r.best_epoch for r in log.megabatches] == [1, 1, 1]
        want = [keep_count(d, log.prunable_total) for d in make_delta_schedule(3.0, 3)]
        assert [r.kept_count for r in log.megabatches] == want
        assert obs.largest == [0.0, 0.0, 0.0]

    def test_warmup_fallback_warns_once_per_run(self, caplog):
        with caplog.at_level(logging.WARNING, logger="anyprune.harness"):
            run(_cfg(variant="app_warmup", epochs=1))
        assert [r.getMessage() for r in caplog.records] == [
            "warmup_epochs 20 >= epochs 1; pruning after epoch 1 instead"
        ]


class TestLayerCollapse:
    """GraSP at tau = 8 prunes the class layer away on the shipped APP config."""

    CONFIG = pathlib.Path(__file__).parents[1] / "configs" / "app_blobs.cfg"

    def _warnings(self, caplog, overrides):
        text = self.CONFIG.read_text()
        for key, value in overrides.items():
            text = re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        with caplog.at_level(logging.WARNING, logger="anyprune.harness"):
            log = run(parse_config(text))
        return log, [r.getMessage() for r in caplog.records]

    def test_grasp_collapse_is_logged(self, caplog):
        log, messages = self._warnings(caplog, {"pruner": "grasp", "tau": 8})
        assert log.megabatches[-1].test_errors == 4 * len(log.test_labels) // 5  # chance
        assert (
            "megabatch 8: layer collapse: fc2_w keeps no weight; "
            "classes [0, 1, 2, 3, 4] keep no weight in fc2_w"
        ) in messages
        assert all("fc2_w" in m for m in messages)

    def test_snip_logs_no_collapse(self, caplog):
        assert self._warnings(caplog, {})[1] == []


class TestNonFiniteLoss:
    def test_validation_loss_is_checked(self, monkeypatch):
        monkeypatch.setattr(harness, "evaluate", lambda model, x, y: (0, y.size, float("nan")))
        with pytest.raises(NumericError, match="^megabatch 1, train: validation loss is nan at epoch 1,"):
            run(_cfg(variant="baseline"))


class TestPiSizes:
    def test_noreplay_snip_draws_from_current_megabatch(self):
        log = run(_cfg(variant="app_noreplay_snip"))
        # train split per megabatch: 60 samples -> 54 train; pi = round(0.2*54)
        sizes = [e.detail["pi_size"] for e in _prune_events(log)]
        assert sizes == [round_half_up(0.2 * 54)] * 3

    def test_default_pi_grows_with_replay(self):
        log = run(_cfg())
        sizes = [e.detail["pi_size"] for e in _prune_events(log)]
        assert sizes == [round_half_up(0.2 * 54 * t) for t in (1, 2, 3)]

    def test_noreplay_snip_still_trains_on_replay_view(self):
        log = run(_cfg(variant="app_noreplay_snip"))
        by_mb = {r.megabatch: r.train_total for r in log.epochs}
        assert by_mb == {1: 54, 2: 108, 3: 162}

    def test_data_free_pruners_skip_pi(self):
        log = run(_cfg(pruner="magnitude"))
        assert all(e.detail["pi_size"] is None for e in _prune_events(log))


class TestSparsityTrajectory:
    def test_app_kept_counts_follow_schedule(self):
        log = run(_cfg())
        deltas = make_delta_schedule(3.0, 3)
        want = [keep_count(d, log.prunable_total) for d in deltas]
        assert [r.kept_count for r in log.megabatches] == want
        assert all(a >= b for a, b in zip(want, want[1:]))

    def test_app_final_mask_lags_during_training(self):
        log = run(_cfg(variant="app_final"))
        deltas = make_delta_schedule(3.0, 3)
        want = [keep_count(d, log.prunable_total) for d in deltas]
        # megabatch t trains under the previous mask, then prunes at the end
        for rec in log.epochs:
            expected = log.prunable_total if rec.megabatch == 1 else want[rec.megabatch - 2]
            assert rec.kept_count == expected
        assert [r.kept_count for r in log.megabatches] == want

    def test_warmup_epoch_records_switch_mid_megabatch(self):
        log = run(_cfg(variant="app_warmup", epochs=6, warmup_epochs=2))
        deltas = make_delta_schedule(3.0, 3)
        want = [keep_count(d, log.prunable_total) for d in deltas]
        for rec in log.epochs:
            before = log.prunable_total if rec.megabatch == 1 else want[rec.megabatch - 2]
            assert rec.kept_count == (before if rec.epoch <= 2 else want[rec.megabatch - 1])


class _CarryoverObserver:
    def __init__(self):
        self.start = {}
        self.end = {}
        self.epoch_end = {}

    def on_megabatch_start(self, t, model, mask):
        self.start[t] = model.snapshot()

    def on_megabatch_end(self, t, model, mask):
        self.end[t] = model.snapshot()

    def on_step(self, t, epoch, model, optim, mask):
        self.epoch_end[(t, epoch)] = model.snapshot()


class TestCheckpointCarryover:
    def test_best_checkpoint_enters_next_megabatch(self):
        obs = _CarryoverObserver()
        log = run(_cfg(epochs=3), observer=obs)
        for t in (1, 2):
            for name, arr in obs.end[t].items():
                np.testing.assert_array_equal(obs.start[t + 1][name], arr)

    def test_megabatch_end_params_equal_best_epoch_params(self):
        obs = _CarryoverObserver()
        log = run(_cfg(variant="baseline", epochs=3), observer=obs)
        for rec in log.megabatches:
            best = obs.epoch_end[(rec.megabatch, rec.best_epoch)]
            for name, arr in obs.end[rec.megabatch].items():
                np.testing.assert_array_equal(best[name], arr)

    def test_best_epoch_is_earliest_argmax(self):
        log = run(_cfg(variant="baseline", epochs=4))
        for rec in log.megabatches:
            epochs = [r for r in log.epochs if r.megabatch == rec.megabatch]
            best_val = max(r.val_correct for r in epochs)
            first_best = min(r.epoch for r in epochs if r.val_correct == best_val)
            assert rec.best_epoch == first_best


class _PrunedWeights:
    """The weights after each epoch's last step, and the weights the prune step scores."""

    def __init__(self):
        self.after_epoch = {}
        self.pruned = None

    def _copy(self):
        return {name: p.data.copy() for name, p in self.model.params.items()}

    def on_megabatch_start(self, t, model, mask):
        self.model = model

    def on_step(self, t, epoch, model, optim, mask):
        self.after_epoch[epoch] = self._copy()

    def on_prune(self, t, old_mask, new_mask):
        self.pruned = self._copy()


class TestWhatEachVariantPrunes:
    """Each epoch scores one validation answer fewer, so a span's first epoch is its best."""

    @pytest.mark.parametrize("variant, epochs, warmup, pruned_epoch", [
        ("app_final", 3, 20, 1),  # the best checkpoint, restored after the last epoch
        ("app_warmup", 4, 2, 2),  # the running weights at the warmup's end
        ("app_warmup", 1, 20, 1),  # the fallback prunes after the only epoch
    ])
    def test_the_prune_step_scores(self, monkeypatch, variant, epochs, warmup, pruned_epoch):
        fewer = itertools.count()
        monkeypatch.setattr(
            harness, "evaluate", lambda model, x, y: (x.shape[0] - next(fewer), x.shape[0], 1.0)
        )
        obs = _PrunedWeights()
        run(_cfg(variant=variant, megabatches=1, epochs=epochs, warmup_epochs=warmup), observer=obs)
        assert sorted(obs.after_epoch) == list(range(1, epochs + 1))
        want = obs.after_epoch[pruned_epoch]
        assert obs.pruned.keys() == want.keys()
        for name, arr in want.items():
            np.testing.assert_array_equal(obs.pruned[name], arr)


class TestTrainMegabatch:
    def test_zero_epochs_is_noop(self):
        cfg = _cfg()
        from anyprune.harness import dataset_for_config

        dataset = dataset_for_config(cfg)
        stream = build_stream(dataset, cfg.megabatches, cfg.val_fraction, None, cfg.seed_partition)
        model = build_model(ModelSpec((8,), 3, hidden=(12,)), seed=cfg.seed_init)
        before = model.snapshot()
        optim = OptimState(cfg.lr0, cfg.momentum, cfg.weight_decay)
        rec, records, gi = train_megabatch(
            model, SparsityMask.full(model), dataset, replay_view(stream, 1, "full"), cfg, 1,
            epochs=range(0), optim=optim,
        )
        assert rec is None and records == [] and gi == 0
        for name, arr in before.items():
            np.testing.assert_array_equal(model.params[name].data, arr)

    def test_an_epoch_holds_one_gradient_set(self):
        # the prune_wide MLP; the rows are allocated before tracing starts.
        # A step's gradients die before the next backward builds its own
        rng = np.random.default_rng(12)
        x = rng.standard_normal((104, 196))
        y = rng.integers(0, 10, 104)
        dataset = Dataset(x, y, x[:1], y[:1], input_shape=(196,))
        model = build_model(ModelSpec((196,), 10, hidden=(1024, 512)), seed=0)
        mask = SparsityMask.full(model)
        cfg = _cfg(minibatch=32, epochs=1)  # the epoch ends the megabatch, so it takes a snapshot
        optim = OptimState(cfg.lr0, cfg.momentum, cfg.weight_decay)
        val = np.arange(96, 104)
        views = {1: Megabatch(np.arange(32), val), 3: Megabatch(np.arange(96), val)}
        train_megabatch(model, mask, dataset, views[1], cfg, 1, range(1, 2), optim)  # warm-up
        peaks = {}
        for steps, view in views.items():
            tracemalloc.start()
            try:
                train_megabatch(model, mask, dataset, view, cfg, 1, range(1, 2), optim)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3] - peaks[1] <= 2 ** 18, peaks
        # one whole-model set at a time: the gradients, then the best snapshot
        model_bytes = sum(p.data.nbytes for p in model.params.values())
        assert peaks[3] < 1.25 * model_bytes, (peaks, model_bytes)

    def test_a_new_best_frees_the_old_snapshot(self, monkeypatch):
        # every epoch is a new best, so every epoch takes a snapshot; the old
        # one must be gone by the time the new copy exists
        rng = np.random.default_rng(12)
        x = rng.standard_normal((40, 196))
        y = rng.integers(0, 10, 40)
        dataset = Dataset(x, y, x[:1], y[:1], input_shape=(196,))
        model = build_model(ModelSpec((196,), 10, hidden=(1024, 512)), seed=0)
        mask = SparsityMask.full(model)
        cfg = _cfg(minibatch=32, epochs=3)
        optim = OptimState(cfg.lr0, cfg.momentum, cfg.weight_decay)
        view = Megabatch(np.arange(32), np.arange(32, 40))
        calls = itertools.count(1)
        monkeypatch.setattr(harness, "evaluate", lambda model, x, y: (next(calls), x.shape[0], 1.0))
        train_megabatch(model, mask, dataset, view, cfg, 1, range(1, 2), optim)  # warm-up
        take, held = model.snapshot, []

        def snapshot():
            snap = take()
            held.append(tracemalloc.get_traced_memory()[0])
            return snap

        monkeypatch.setattr(model, "snapshot", snapshot)
        tracemalloc.start()
        try:
            train_megabatch(model, mask, dataset, view, cfg, 1, range(1, 4), optim)
        finally:
            tracemalloc.stop()
        model_bytes = sum(p.data.nbytes for p in model.params.values())
        assert len(held) == 3
        assert max(held) < 1.5 * model_bytes, (held, model_bytes)


class TestGlobalIter:
    def test_counts_accumulate_across_stream(self):
        log = run(_cfg(minibatch=10))
        last = 0
        for rec in log.epochs:
            steps = -(-rec.train_total // 10)  # ceil division
            assert rec.global_iter == last + steps
            last = rec.global_iter


class TestOtherSourcesAndPruners:
    def test_convnet_run_on_idx_digits(self, tmp_path):
        from anyprune.datasets import gen_digits, write_idx

        x, y, shape = gen_digits(per_class=20, seed=3, side=8)
        write_idx(x, y, tmp_path / "ti", tmp_path / "tl", shape)
        xt, yt, _ = gen_digits(per_class=4, seed=4, side=8)
        write_idx(xt, yt, tmp_path / "si", tmp_path / "sl", shape)
        cfg = parse_config(
            f"""
            variant = app_default
            pruner = snip
            tau = 2.0
            megabatches = 2
            dataset = idx
            idx_train_images = {tmp_path / 'ti'}
            idx_train_labels = {tmp_path / 'tl'}
            idx_test_images = {tmp_path / 'si'}
            idx_test_labels = {tmp_path / 'sl'}
            epochs = 2
            model = convnet
            conv_channels = 4,8
            minibatch = 16
            """
        )
        log = run(cfg)
        assert log.layer_names == ["conv0_w", "conv1_w", "fc0_w"]
        assert len(log.megabatches) == 2

    @pytest.mark.parametrize("pruner", ["random", "grasp"])
    def test_remaining_pruners_complete(self, pruner):
        log = run(_cfg(pruner=pruner, epochs=1))
        assert [r.kept_count for r in log.megabatches] == [
            keep_count(d, log.prunable_total)
            for d in make_delta_schedule(3.0, 3)
        ]


class TestDegenerateEquivalence:
    def test_single_megabatch_app_equals_osp(self):
        a = run(_cfg(megabatches=1, epochs=3))
        b = run(_cfg(variant="anytime_osp", megabatches=1, epochs=3))
        assert [r.test_errors for r in a.megabatches] == [r.test_errors for r in b.megabatches]
        assert [r.kept_count for r in a.megabatches] == [r.kept_count for r in b.megabatches]
        ea = [(r.epoch, r.train_correct, r.val_correct, r.train_loss) for r in a.epochs]
        eb = [(r.epoch, r.train_correct, r.val_correct, r.train_loss) for r in b.epochs]
        assert ea == eb
        np.testing.assert_array_equal(a.megabatches[0].predictions, b.megabatches[0].predictions)


def _blas_count():
    return kernels._openblas()[1]()


class _StepThreads:
    """Records the OpenBLAS thread count at every optimizer step."""

    def __init__(self):
        self.counts = set()

    def on_step(self, t, epoch, model, optim, mask):
        self.counts.add(_blas_count())


@pytest.mark.skipif(
    kernels._openblas() is None, reason="numpy's OpenBLAS thread count is not settable"
)
class TestBlasThreadRule:
    # every test starts from 2 inherited threads, whatever the host's default,
    # so that the rule's single thread is told apart from the inherited count

    @pytest.mark.parametrize("hidden, threads", [
        ("256,128", 1),  # 32 x (8·256 + 256·128 + 128·3) multiply-adds a step
        ("2048,256", 2),  # 32 x 541440, over harness.SMALL_STEP_MACS
    ])
    def test_an_mlp_trains_on_one_thread_only_under_the_constant(self, hidden, threads):
        observer = _StepThreads()
        with kernels.blas_threads(2):
            run(_cfg(megabatches=1, epochs=1, mlp_hidden=hidden, minibatch=32), observer)
            assert _blas_count() == 2
        assert observer.counts == {threads}

    def test_a_convnet_keeps_the_inherited_count(self, tmp_path):
        from anyprune.datasets import gen_digits, write_idx

        x, y, shape = gen_digits(per_class=10, seed=3, side=8)
        write_idx(x, y, tmp_path / "ti", tmp_path / "tl", shape)
        write_idx(x, y, tmp_path / "si", tmp_path / "sl", shape)
        cfg = parse_config(
            "variant = baseline\nmegabatches = 1\nepochs = 1\ndataset = idx\n"
            f"idx_train_images = {tmp_path / 'ti'}\nidx_train_labels = {tmp_path / 'tl'}\n"
            f"idx_test_images = {tmp_path / 'si'}\nidx_test_labels = {tmp_path / 'sl'}\n"
            "model = convnet\nconv_channels = 2\nminibatch = 16\n"
        )
        observer = _StepThreads()
        with kernels.blas_threads(2):
            run(cfg, observer)
        assert observer.counts == {2}

    def test_the_count_is_restored_after_a_diverging_run(self):
        text = (pathlib.Path(__file__).parents[1] / "configs" / "baseline_blobs.cfg").read_text()
        with kernels.blas_threads(2):
            with pytest.raises(NumericError, match="training loss is nan"):
                run(parse_config(text + "lr0 = 1e6\n"))
            assert _blas_count() == 2


def test_a_run_with_no_settable_blas_count_writes_the_same_artifacts(tmp_path, monkeypatch):
    from anyprune.reporting import write_run_dir

    cfg = _cfg(mlp_hidden="256,128")
    write_run_dir(run(cfg), tmp_path / "rule")
    monkeypatch.setattr(kernels, "_openblas", lambda: None)
    write_run_dir(run(cfg), tmp_path / "inert")
    for name in ("summary.json", "curves.csv", "predictions.csv", "events.csv"):
        assert (tmp_path / "rule" / name).read_bytes() == (tmp_path / "inert" / name).read_bytes()


def test_benchmark_tracer_reads_the_model_and_the_harness(tmp_path):
    # perfbench/layertrace.py rebinds harness names and reads model.registry
    # from outside the package; a name it needs that moves breaks here
    root = pathlib.Path(__file__).parents[1]
    cfg = tmp_path / "traced.cfg"
    cfg.write_text(
        "variant = app_default\npruner = snip\ntau = 2.0\nmegabatches = 2\nepochs = 1\n"
        "dataset = synthetic_blobs\nblob_classes = 3\nblob_per_class = 20\nblob_dim = 4\n"
        "mlp_hidden = 6\n"
    )
    result = tmp_path / "result.json"
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PERFBENCH_SRC": str(root / "src")}
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "child.py"), "run", str(cfg),
         str(tmp_path / "out"), str(result), "--trace"],
        env=env, cwd=root, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    trace = json.loads(result.read_text())["trace"]
    assert trace["tensor.fc0_w.matmul.fwd_s"] > 0  # a per-parameter label
    assert trace["pruning.kept_fraction"] < 1
