"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and the recorded (non-asserted) desk-scale comparisons.
"""

import contextlib
import csv
import json
import math
import os
import time

import numpy as np
import pytest

from anyprune.cli import main
from anyprune.config import parse_config
from anyprune.datasets import gen_digits, write_idx
from anyprune.harness import dataset_for_config, run
from anyprune.metrics import error_count
from anyprune.models import ModelSpec, build_model
from anyprune.pruning import SparsityMask, make_delta_schedule, prune_global
from anyprune.reporting import read_megabatches_csv, write_run_dir
from anyprune.rng import round_half_up
from anyprune.stream import build_stream, replay_view
from anyprune.tensor import hvp_fd, Tensor
from helpers import support_subset


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] {name}: FAIL")
        raise
    print(f"[criterion {num:02d}] {name}: PASS")


# ---------------------------------------------------------------------------
# criterion 1: reverse-mode gradients vs central finite differences


def _gradcheck_max_rel_err(seed, h=1e-6):
    rng = np.random.default_rng(10_000 + seed)
    model = build_model(ModelSpec((5,), 3, hidden=(8,)), seed=seed)  # 75 params
    x = rng.standard_normal((4, 5))
    y = rng.integers(0, 3, 4)
    _, grads, _ = model.loss_and_grads(x, y)
    worst = 0.0
    for name, p in model.params.items():
        flat = p.data.ravel()
        ga = grads[name].ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp, _, _ = model.loss_and_grads(x, y)
            flat[i] = orig - h
            lm, _, _ = model.loss_and_grads(x, y)
            flat[i] = orig
            gn = (lp - lm) / (2.0 * h)
            worst = max(worst, abs(ga[i] - gn) / max(1.0, abs(ga[i]), abs(gn)))
    return worst


def test_criterion_1_gradient_oracle():
    with criterion(1, "gradient oracle on 20 seeded MLPs"):
        started = time.perf_counter()
        worst = max(_gradcheck_max_rel_err(seed) for seed in range(20))
        elapsed = time.perf_counter() - started
        assert worst < 1e-5, f"max relative error {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 2: HVP against the analytic quadratic and eps-halving consistency


def test_criterion_2_hvp_oracle():
    with criterion(2, "hvp_fd quadratic + eps consistency"):
        w = Tensor([1.0, 1.0])
        diag = np.array([2.0, 4.0])

        def quad_grad():  # gradient of 0.5 * w' diag(d) w
            return {"w": diag * w.data}

        for v, want in ((np.array([1.0, 0.0]), [2.0, 0.0]), (np.array([0.0, 1.0]), [0.0, 4.0])):
            hv = hvp_fd(quad_grad, {"w": w}, {"w": v})["w"]
            denom = max(1e-12, float(np.linalg.norm(want)))
            assert np.linalg.norm(hv - want) / denom < 1e-6

        rng = np.random.default_rng(2)
        model = build_model(ModelSpec((6,), 3, hidden=(9,)), seed=6)
        x = rng.standard_normal((12, 6))
        y = rng.integers(0, 3, 12)
        params = model.params
        v = {name: rng.standard_normal(p.shape) for name, p in params.items()}

        def grad_fn():
            return model.loss_and_grads(x, y)[1]

        a = np.concatenate([h.ravel() for h in hvp_fd(grad_fn, params, v, eps=1e-4).values()])
        b = np.concatenate([h.ravel() for h in hvp_fd(grad_fn, params, v, eps=1e-5).values()])
        rel = np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b))
        assert rel < 1e-3, f"eps consistency {rel}"


# ---------------------------------------------------------------------------
# criteria 3/4/6/11 share one instrumented app_default run

SCHEDULE_RUN = """
variant = app_default
pruner = snip
tau = 4.5
megabatches = 8
dataset = synthetic_blobs
blob_classes = 5
blob_per_class = 160
blob_dim = 16
epochs = 3
mlp_hidden = 32,16
lr_mode = cyclic_every_mt
"""


class _ClosureObserver:
    """Checks mask refinement and exact zero closure at every logged step."""

    def __init__(self):
        self.steps_checked = 0
        self.prunes_checked = 0

    def on_prune(self, t, old_mask, new_mask):
        assert support_subset(new_mask, old_mask), f"support grew at megabatch {t}"
        self.prunes_checked += 1

    def on_step(self, t, epoch, model, optim, mask):
        for name, m in mask.arrays.items():
            dead = m == 0.0
            assert np.all(model.params[name].data[dead] == 0.0)
            assert np.all(optim.velocity[name][dead] == 0.0)
        self.steps_checked += 1


@pytest.fixture(scope="module")
def schedule_run(tmp_path_factory):
    observer = _ClosureObserver()
    config = parse_config(SCHEDULE_RUN)
    started = time.perf_counter()
    log = run(config, observer=observer)
    elapsed = time.perf_counter() - started
    outdir = tmp_path_factory.mktemp("schedule_run")
    write_run_dir(log, outdir)
    return log, observer, elapsed, outdir


def test_criterion_3_schedule_sparsity_exactness(schedule_run):
    with criterion(3, "0.8^delta kept counts, exactly"):
        log, _, elapsed, _ = schedule_run
        total = log.prunable_total
        deltas = make_delta_schedule(4.5, 8)
        expected = [max(1, round_half_up(0.8 ** d * total)) for d in deltas]
        got = [rec.kept_count for rec in log.megabatches]
        assert got == expected, f"{got} != {expected}"
        assert abs(got[-1] - 0.366351 * total) <= 1.0
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_4_mask_monotonicity_and_closure(schedule_run):
    with criterion(4, "monotone refinement and exact closure each step"):
        log, observer, _, _ = schedule_run
        assert observer.prunes_checked == 8
        expected_steps = sum(
            math.ceil(rec.train_total / log.config.minibatch) for rec in log.epochs
        )
        assert observer.steps_checked == expected_steps


def test_criterion_6_cer_oracle(schedule_run):
    with criterion(6, "CER equals brute-force recount from predictions"):
        log, _, _, _ = schedule_run
        recounted = sum(
            error_count(rec.predictions, log.test_labels) for rec in log.megabatches
        )
        reported = sum(rec.test_errors for rec in log.megabatches)
        assert recounted == reported


def test_criterion_11_layerwise_accounting(schedule_run):
    with criterion(11, "per-layer pruned counts partition the global count"):
        log, _, _, outdir = schedule_run
        from anyprune.harness import dataset_for_config, model_spec_for_config

        spec = model_spec_for_config(log.config, dataset_for_config(log.config))
        model = build_model(spec, seed=log.config.seed_init)
        sizes = {name: model.params[name].size for name in model.prunable}
        total = sum(sizes.values())
        rows, layer_cols = read_megabatches_csv(str(outdir / "megabatches.csv"))
        assert layer_cols == [f"pruned_{name}" for name in sizes]
        for rec, row in zip(log.megabatches, rows):
            per_layer = dict(rec.layer_pruned)
            counts = [round(per_layer[n] * sizes[n]) for n in sizes]
            assert sum(counts) == total - rec.kept_count
            csv_counts = [round(float(row[f"pruned_{n}"]) * sizes[n]) for n in sizes]
            assert csv_counts == counts


# ---------------------------------------------------------------------------
# criterion 5: degenerate single-megabatch equivalence of APP and OSP

OSP_EQUIV = """
variant = {variant}
pruner = snip
tau = 4.5
megabatches = 1
dataset = synthetic_blobs
blob_per_class = 80
blob_dim = 8
epochs = 4
mlp_hidden = 16
seed = 7
"""


def test_criterion_5_osp_degenerate_equivalence(tmp_path):
    with criterion(5, "single-megabatch app_default == anytime_osp, byte-wise"):
        payloads = {}
        for variant in ("app_default", "anytime_osp"):
            config = parse_config(OSP_EQUIV.format(variant=variant))
            outdir = tmp_path / variant
            write_run_dir(run(config), outdir)
            payloads[variant] = (outdir / "summary.json").read_bytes()
        assert payloads["app_default"] == payloads["anytime_osp"]


# ---------------------------------------------------------------------------
# criterion 7: global selection vs a full-sort brute-force oracle


def test_criterion_7_global_selection_optimality():
    with criterion(7, "prune_global matches full-sort oracle on 100 instances"):
        rng = np.random.default_rng(77)
        for case in range(100):
            n = int(rng.integers(2, 10_001))
            scores = rng.standard_normal(n)
            if case % 3 == 0:  # force plateaus of equal scores
                scores = np.round(scores, 1)
            prior = (rng.random(n) < 0.7).astype(float)
            if prior.sum() == 0:
                prior[0] = 1.0
            kept_now = int(prior.sum())
            keep = int(rng.integers(1, kept_now + 1))
            ranked = scores.copy()
            ranked[prior == 0.0] = -np.inf
            # split across two tensors to exercise the cross-tensor ranking
            cut = n // 2 if n > 1 else 1
            mask = SparsityMask({"a": prior[:cut], "b": prior[cut:]})
            got = prune_global(mask, {"a": ranked[:cut], "b": ranked[cut:]}, keep)
            got_kept = set(
                np.flatnonzero(np.concatenate([got.arrays["a"], got.arrays["b"]]) == 1.0)
            )
            eligible = np.flatnonzero(prior == 1.0)
            order = sorted(eligible, key=lambda i: (-scores[i], i))
            assert got_kept == set(order[:keep]), f"case {case}"


# ---------------------------------------------------------------------------
# criterion 8: byte-identical artifacts for identical configs


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "same config twice gives identical bytes"):
        config_text = SCHEDULE_RUN + "seed = 11\n"
        dirs = []
        for label in ("first", "second"):
            outdir = tmp_path / label
            write_run_dir(run(parse_config(config_text)), outdir)
            dirs.append(outdir)
        for name in ("curves.csv", "summary.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


# ---------------------------------------------------------------------------
# criterion 9: desk-scale end-to-end experiment on an IDX digit dataset

DESK_VARIANTS = ("baseline", "anytime_osp", "app_default")


@pytest.fixture(scope="module")
def digits_idx(tmp_path_factory):
    # noisy labels on the training pool make overfitting (and hence the gap
    # comparison) observable at desk scale; the test set stays clean
    root = tmp_path_factory.mktemp("digits")
    x, y, shape = gen_digits(per_class=300, seed=1, side=14, label_noise=0.15)
    write_idx(x, y, root / "train-images.idx", root / "train-labels.idx", shape)
    xt, yt, _ = gen_digits(per_class=40, seed=2, side=14)
    write_idx(xt, yt, root / "test-images.idx", root / "test-labels.idx", shape)
    return root


def _desk_config(root, variant, seed):
    lines = [
        f"variant = {variant}",
        "megabatches = 8",
        "replay = full",
        "epochs = 20",
        "lr_mode = cyclic_every_mt",
        "model = mlp",
        "mlp_hidden = 256,128",
        "dataset = idx",
        f"idx_train_images = {root / 'train-images.idx'}",
        f"idx_train_labels = {root / 'train-labels.idx'}",
        f"idx_test_images = {root / 'test-images.idx'}",
        f"idx_test_labels = {root / 'test-labels.idx'}",
        "per_class_cap = 270",
        f"seed = {seed}",
    ]
    if variant != "baseline":
        lines += ["pruner = snip", "tau = 4.5"]
    return "\n".join(lines) + "\n"


def test_criterion_9_desk_scale_experiment(digits_idx, tmp_path):
    with criterion(9, "end-to-end IDX digits, 3 variants x 3 seeds"):
        cfg_dir, out = tmp_path / "cfgs", tmp_path / "runs"
        cfg_dir.mkdir()
        for seed in (0, 1, 2):
            for variant in DESK_VARIANTS:
                (cfg_dir / f"{variant}_s{seed}.cfg").write_text(_desk_config(digits_idx, variant, seed))
        workers = min(2, os.cpu_count() or 1)
        assert main(["sweep", str(cfg_dir), "--out", str(out), "--parallel", str(workers)]) == 0
        gaps = {}
        for seed in (0, 1, 2):
            # sanity: the cap kept 270*10 samples -> megabatches of 337, of which
            # 303 train; train_megabatch permutes this view and records its size
            # as train_total, and 303 rows at minibatch 32 are 10 steps an epoch
            config = parse_config(_desk_config(digits_idx, "baseline", seed))
            dataset = dataset_for_config(config)
            stream = build_stream(
                dataset, config.megabatches, config.val_fraction,
                config.per_class_cap, config.seed_partition,
            )
            assert replay_view(stream, 1, "full").train_idx.size == 303
            for variant in DESK_VARIANTS:
                outdir = out / f"{variant}_s{seed}"
                for name in (
                    "curves.csv", "megabatches.csv", "summary.json",
                    "gen_gap.svg", "cer.svg", "layer_pruned.svg",
                ):
                    assert (outdir / name).exists(), name
                elapsed = json.loads((outdir / "meta.json").read_text())["wall_clock_seconds"]
                assert elapsed < 900.0, f"{variant} seed {seed} took {elapsed:.0f}s"
                with open(outdir / "curves.csv", newline="") as f:
                    assert int(next(csv.DictReader(f))["global_iter"]) == 10
                summary = json.loads((outdir / "summary.json").read_text())
                gaps[(variant, seed)] = summary["final_generalization_gap_pp"]
        for seed in (0, 1, 2):
            app = gaps[("app_default", seed)]
            base = gaps[("baseline", seed)]
            verdict = "<=" if app <= base else ">"
            print(
                f"    seed {seed}: APP final gap {app:+.3f}pp {verdict} "
                f"baseline {base:+.3f}pp (recorded, not asserted)"
            )


# ---------------------------------------------------------------------------
# criterion 10: ablation variant mechanics in a 3-megabatch run

MECHANICS_BASE = """
pruner = snip
tau = 3.0
megabatches = 3
dataset = synthetic_blobs
blob_classes = 3
blob_per_class = 60
blob_dim = 8
mlp_hidden = 12
"""


def test_criterion_10_variant_mechanics():
    with criterion(10, "app_final / app_warmup / app_noreplay_snip mechanics"):
        log = run(parse_config("variant = app_final\nepochs = 2\n" + MECHANICS_BASE))
        for t in (1, 2, 3):
            kinds = [e.kind for e in log.events if e.megabatch == t]
            assert kinds == ["train", "prune", "eval"]

        log = run(parse_config("variant = app_warmup\nepochs = 22\n" + MECHANICS_BASE))
        for t in (1, 2, 3):
            events = [e for e in log.events if e.megabatch == t]
            assert [e.kind for e in events] == ["train", "prune", "train", "eval"]
            assert events[0].detail["last_epoch"] == 20

        log = run(parse_config("variant = app_noreplay_snip\nepochs = 2\n" + MECHANICS_BASE))
        pi_sizes = [e.detail["pi_size"] for e in log.events if e.kind == "prune"]
        assert pi_sizes == [round_half_up(0.2 * 54)] * 3  # M_t only: 54 train samples
        replay_sizes = {r.megabatch: r.train_total for r in log.epochs}
        assert replay_sizes == {1: 54, 2: 108, 3: 162}  # training still replays
