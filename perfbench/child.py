"""One benchmark process: generate a workload's inputs, or make one run.

    python3 child.py gen <seed> <datadir> <provenance.json>
    python3 child.py run <config> <outdir> <result.json> [--trace | --setup-only]

``run`` makes the same public calls as ``anyprune run``:
``config.parse_config`` -> ``harness.run`` -> ``reporting.write_run_dir``.
With ``--setup-only`` it stops when megabatch 1 starts, so set-up time can be
sampled more often than whole runs.
Timestamps use ``time.monotonic`` (CLOCK_MONOTONIC, shared by all processes on
Linux), so the parent can measure set-up from before it started this process.
The parent puts the checkout's ``src`` first on ``PYTHONPATH`` and passes it
as ``PERFBENCH_SRC``; a run against any other copy of anyprune is refused.
"""

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

import anyprune
from anyprune import config, harness, kernels, reporting


class _Stamps:
    """Observer that timestamps megabatch boundaries only (no per-step hook)."""

    def __init__(self, megabatches):
        self.last = megabatches
        self.first_start = None
        self.last_start = None
        self.last_end = None

    def on_megabatch_start(self, t, model, mask):
        now = time.monotonic()
        if t == 1:
            self.first_start = now
        if t == self.last:
            self.last_start = now

    def on_megabatch_end(self, t, model, mask):
        if t == self.last:
            self.last_end = time.monotonic()


class _SetupDone(Exception):
    pass


class _SetupOnly(_Stamps):
    def on_megabatch_start(self, t, model, mask):
        self.first_start = time.monotonic()
        raise _SetupDone


class _TracedStamps(_Stamps):
    """Adds the tracer's per-step and per-prune hooks."""

    def __init__(self, megabatches, tracer):
        super().__init__(megabatches)
        self.on_step = tracer.on_step
        self.on_prune = tracer.on_prune


def setup_only(cfg_path, result_path):
    cfg = config.parse_config(cfg_path)
    observer = _SetupOnly(cfg.megabatches)
    try:
        harness.run(cfg, observer)
    except _SetupDone:
        pass
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump({"setup_end": observer.first_start}, f)


def run(cfg_path, outdir, result_path, traced):
    tracer = None
    if traced:
        from layertrace import Tracer  # this directory is first on sys.path

        tracer = Tracer()
        tracer.install()

    t0 = time.perf_counter()
    cfg = config.parse_config(cfg_path)
    observer = _TracedStamps(cfg.megabatches, tracer) if traced else _Stamps(cfg.megabatches)
    log = harness.run(cfg, observer)
    reporting.write_run_dir(log, outdir)
    wall_s = time.perf_counter() - t0

    result = {
        "wall_s": wall_s,
        "setup_end": observer.first_start,
        "last_mb_s": observer.last_end - observer.last_start,
        "train_samples": sum(r.train_total for r in log.epochs),
    }
    if traced:
        result["trace"] = tracer.metrics()
        result["trace"]["reporting.bytes_written"] = sum(
            p.stat().st_size for p in Path(outdir).iterdir() if p.is_file()
        )
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


def gen(seed, datadir, provenance_path):
    """Criterion-9 digit stream for one workload seed, written as IDX files."""
    from anyprune.datasets import gen_digits, write_idx

    os.makedirs(datadir, exist_ok=True)
    d = Path(datadir)
    x, y, shape = gen_digits(per_class=300, seed=2 * seed + 1, side=14, label_noise=0.15)
    write_idx(x, y, d / "train-images.idx", d / "train-labels.idx", shape)
    xt, yt, _ = gen_digits(per_class=40, seed=2 * seed + 2, side=14)
    write_idx(xt, yt, d / "test-images.idx", d / "test-labels.idx", shape)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    provenance = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        # the backend switch may not exist in every version of the package
        "kernel_backend": getattr(kernels, "active_backend", lambda: "numpy")(),
    }
    with open(provenance_path, "w", encoding="utf-8") as f:
        json.dump(provenance, f)


def main(argv):
    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    if src not in Path(anyprune.__file__).resolve().parents:
        raise SystemExit(f"imported anyprune from {anyprune.__file__}, not from {src}")
    if argv[0] == "gen":
        gen(int(argv[1]), argv[2], argv[3])
    elif argv[0] == "run" and "--setup-only" in argv[4:]:
        setup_only(argv[1], argv[3])
    elif argv[0] == "run":
        run(argv[1], argv[2], argv[3], traced="--trace" in argv[4:])
    else:
        raise SystemExit(f"unknown mode {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
