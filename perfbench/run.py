"""Benchmark of record for anyprune: whole megabatch-stream runs, end to end.

    python3 perfbench/run.py --workload desk_mlp --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 1

Every workload trains on the criterion-9 digit stream, which this script
generates from ``--seed`` and hands to the program as IDX files. Each timed
run is a fresh process (``child.py``) that makes the same public calls as
``anyprune run``, one run at a time, with the numpy/BLAS settings of the
calling environment. Runs repeat until ``--seconds`` is used up; timings are
medians over the runs.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates an untraced and a traced run and reports the
per-layer metrics of the traced runs (``layertrace.py``); ``trace.overhead_s``
is the traced minus the untraced median wall time.

Every run passes a correctness gate on its artifacts, and every run of one
invocation must write byte-identical ``summary.json``, ``curves.csv`` and
``predictions.csv``; their sha256 digests are printed. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The script exits 2 when the checkout holds no ``src/anyprune``.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
INVOCATION_LIMIT_S = 170.0  # a run never outlasts this, counted from the start
SETUP_PROBES = 1  # set-up-only processes per whole run, for a steadier setup_s
DIGESTED = ("summary.json", "curves.csv", "predictions.csv")

# Shared by all workloads: the criterion-9 stream under APP (0.8**delta kept
# after each megabatch, delta from 1 to tau) with SNIP scoring and full replay.
COMMON = {
    "variant": "app_default",
    "pruner": "snip",
    "tau": 4.5,
    "replay": "full",
    "lr_mode": "cyclic_every_mt",
    "dataset": "idx",
    "idx_train_images": "../data/train-images.idx",
    "idx_train_labels": "../data/train-labels.idx",
    "idx_test_images": "../data/test-images.idx",
    "idx_test_labels": "../data/test-labels.idx",
    "per_class_cap": 270,
}

WORKLOADS = {
    # The ROADMAP desk workload at half its epochs: 3440 small steps
    # (minibatch 32, 256-128 MLP). Time goes to per-step overhead: the
    # optimizer step and the tape backward pass, with pruning under 5% and no
    # conv kernels. It exercises tensor/optim per-call costs and bypasses the
    # kernels layer.
    "desk_mlp": {
        "megabatches": 8, "epochs": 10, "minibatch": 32,
        "model": "mlp", "mlp_hidden": "256,128",
    },
    # A small convnet: the kernels layer (conv2d forward/backward, mean
    # pooling) does most of the work and the optimizer is under 1%. It is the
    # only workload that calls the kernels, so kernel changes show here alone.
    # lr_gamma = 1.0 keeps its three epochs at lr0: with the default decay it
    # stayed under-trained, at 68-95% test accuracy depending on the seed.
    # Four megabatches fit about nine runs in 40 s; the last view, whose time
    # is last_mb_s, is the whole pool for any megabatch count.
    "conv_digits": {
        "megabatches": 4, "epochs": 3, "minibatch": 32,
        "model": "convnet", "conv_channels": "8,16", "conv_kernel": 3,
        "conv_padding": 1, "lr_gamma": 1.0,
    },
    # A wide MLP scored on the whole replay view every megabatch: SNIP scoring
    # and global selection dominate, through few large BLAS-bound matmuls. It
    # uses the tensor layer the opposite way from desk_mlp, so a BLAS thread
    # policy that helps one can hurt the other. Twelve megabatches give 129
    # steps, enough for a step-time p90 with ten samples beyond it.
    "prune_wide": {
        "megabatches": 12, "epochs": 1, "minibatch": 128,
        "model": "mlp", "mlp_hidden": "1024,512", "pi_fraction": 1.0,
        "lr_gamma": 1.0,
    },
}


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad definition)."""


# ---------------------------------------------------------------------------
# inputs


def config_text(name, seed):
    keys = {**COMMON, **WORKLOADS[name], "seed": seed}
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def prunable_total(spec, side=14, classes=10):
    """Prunable weights of the workload's model, from its architecture alone."""
    if spec["model"] == "mlp":
        sizes = [side * side, *map(int, spec["mlp_hidden"].split(",")), classes]
        return sum(a * b for a, b in zip(sizes, sizes[1:]))
    k, pad = spec["conv_kernel"], spec["conv_padding"]
    total, cin, hw = 0, 1, side
    for cout in map(int, spec["conv_channels"].split(",")):
        total += cout * cin * k * k
        hw = (hw + 2 * pad - k + 1) // 2  # stride-1 conv, then 2x2 pooling
        cin = cout
    return total + cin * hw * hw * classes


def expected_kept(spec):
    """keep_count(delta_t, total) for delta_t = linspace(1, tau, T)."""
    total, tau, steps = prunable_total(spec), COMMON["tau"], spec["megabatches"]
    step = (tau - 1.0) / (steps - 1)
    deltas = [i * step + 1.0 for i in range(steps - 1)] + [tau]  # as np.linspace
    return [max(1, math.floor(0.8 ** d * total + 0.5)) for d in deltas]


# ---------------------------------------------------------------------------
# processes


def spawn(args, cwd, log_path, deadline):
    """Run child.py to completion; returns (exit code, start time, rusage)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env["PERFBENCH_SRC"] = str(SRC)
    with open(log_path, "wb") as log:
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=cwd, env=env, stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, started, usage


def _tail(path, lines=15):
    try:
        return "\n".join(Path(path).read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


# ---------------------------------------------------------------------------
# correctness gate


def gate(spec, outdir):
    """Problems with one run's artifacts; an empty list means the run passed."""
    problems = []
    with open(outdir / "curves.csv", newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            if not (math.isfinite(float(row["train_loss"]))
                    and math.isfinite(float(row["val_loss"]))):
                problems.append(f"non-finite loss at megabatch {row['megabatch']} "
                                f"epoch {row['epoch']}")
                break
    summary = json.loads((outdir / "summary.json").read_text(encoding="utf-8"))
    kept = summary["kept_count_trajectory"]
    if kept != expected_kept(spec):
        problems.append(f"kept counts {kept} != schedule {expected_kept(spec)}")
    if any(b > a for a, b in zip(kept, kept[1:])):
        problems.append(f"kept counts rise: {kept}")
    errors = [0] * spec["megabatches"]
    samples = [0] * spec["megabatches"]
    with open(outdir / "predictions.csv", newline="", encoding="utf-8") as f:
        for row in csv.DictReader(f):
            errors[int(row["megabatch"]) - 1] += row["label"] != row["prediction"]
            samples[int(row["megabatch"]) - 1] += 1
    if summary["cer"] != sum(errors) or summary["megabatch_errors"] != errors:
        problems.append(f"cer {summary['cer']} != recount {sum(errors)} of predictions.csv")
    acc = 100.0 * (samples[-1] - errors[-1]) / samples[-1]
    if summary["final_test_accuracy_pct"] != acc:
        problems.append(f"test accuracy {summary['final_test_accuracy_pct']} != recount {acc}")
    return problems, summary


def digests(outdir):
    return {n: hashlib.sha256((outdir / n).read_bytes()).hexdigest() for n in DIGESTED}


# ---------------------------------------------------------------------------
# one workload


def run_once(name, rundir, mode, deadline):
    """One fresh-process run in ``mode`` run, trace or setup; returns its record."""
    wdir = WORK / name
    result_path = wdir / f"{rundir}.json"
    flags = {"run": [], "trace": ["--trace"], "setup": ["--setup-only"]}[mode]
    args = ["run", "run.cfg", rundir, str(result_path), *flags]
    code, started, usage = spawn(args, wdir, wdir / f"{rundir}.log", deadline)
    rec = {"mode": mode, "problems": []}
    if code != 0:
        rec["problems"].append(f"exit code {code}:\n{_tail(wdir / f'{rundir}.log')}")
        return rec
    res = json.loads(result_path.read_text(encoding="utf-8"))
    rec["setup_s"] = res["setup_end"] - started
    if mode == "setup":
        return rec
    try:
        rec["problems"], summary = gate(WORKLOADS[name], wdir / rundir)
        rec["digests"] = digests(wdir / rundir)
    except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        rec["problems"].append(f"unreadable artifacts: {exc!r}")
        return rec
    rec["trace"] = res.get("trace")
    rec["e2e"] = {
        "wall_s": res["wall_s"],
        "last_mb_s": res["last_mb_s"],
        "train_samples_per_s": res["train_samples"] / res["wall_s"],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "test_acc_pct": summary["final_test_accuracy_pct"],
    }
    if rec["trace"] is not None:
        rec["trace"]["metrics.cer"] = summary["cer"]
    return rec


def run_workload(name, seed, seconds, trace, metric_units):
    """Runs until ``seconds`` are used up; returns (records, metrics).

    Untraced, each round is one whole run plus SETUP_PROBES set-up-only
    processes; traced, each round is an untraced and a traced run.
    """
    wdir = WORK / name
    wdir.mkdir(parents=True)
    (wdir / "run.cfg").write_text(config_text(name, seed), encoding="utf-8")
    begin = time.monotonic()
    limit = begin + INVOCATION_LIMIT_S
    rounds = ("run", "trace") if trace else ("run",) + ("setup",) * SETUP_PROBES
    records, durations = [], []
    while True:
        t0 = time.monotonic()
        for mode in rounds:
            records.append(run_once(name, f"run-{len(records) + 1}", mode, limit))
        durations.append(time.monotonic() - t0)
        if time.monotonic() + max(durations) > begin + seconds:
            break
        if time.monotonic() + 2 * max(durations) > limit:
            break

    first = next((r["digests"] for r in records if "digests" in r), None)
    for r in records:
        if "digests" in r and r["digests"] != first:
            r["problems"].append(f"artifacts differ from the first run: {r['digests']}")
    ok = [r for r in records if not r["problems"]]
    runs = [r for r in ok if r["mode"] == "run"]
    traced = [r for r in ok if r["mode"] == "trace"]
    if not runs or (trace and not traced):
        return records, None

    if trace:
        names = set().union(*(r["trace"] for r in traced))
        unknown = sorted(names - set(metric_units))
        if unknown:
            raise BenchError(f"trace metrics missing from BENCHMARK.json: {unknown}")
        metrics = {
            m: statistics.median(r["trace"].get(m, 0.0) for r in traced)
            for m in metric_units
        }
        wall = statistics.median(r["e2e"]["wall_s"] for r in traced)
        metrics["trace.wall_s"] = wall
        metrics["trace.overhead_s"] = wall - statistics.median(
            r["e2e"]["wall_s"] for r in runs
        )
    else:
        metrics = {m: statistics.median(r["e2e"][m] for r in runs) for m in runs[0]["e2e"]}
        metrics["setup_s"] = statistics.median(r["setup_s"] for r in ok)
        metrics["pass_rate"] = len(ok) / len(records)
    return records, metrics


# ---------------------------------------------------------------------------
# reporting


def provenance(extra):
    head = None
    git = ROOT / ".git"
    if (git / "HEAD").is_file():
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref_file = git / ref[5:]
            if ref_file.is_file():
                head = ref_file.read_text().strip()
            elif (git / "packed-refs").is_file():
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref[5:]):
                        head = line.split()[0]
        else:
            head = ref
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    info = {
        "git_commit": head,
        "src_sha256": src_hash.hexdigest(),
        **extra,
        "env": {
            v: os.environ.get(v, "unset")
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    return info


def print_purpose(name, m):
    """The shares that make each workload worth running, from the trace."""
    wall = m["trace.wall_s"]
    kernels = sum(m[f"kernels.{k}_s"] for k in
                  ("conv2d_fwd", "conv2d_bwd", "meanpool2_fwd", "meanpool2_bwd"))
    print(f"  purpose {name}: kernels {kernels / wall:.1%} of wall "
          f"({int(m['kernels.calls'])} calls); "
          f"score+select {(m['pruning.score_s'] + m['pruning.select_s']) / wall:.1%}; "
          f"optim+tensor {(m['optim.step_s'] + m['tensor.fwd_s'] + m['tensor.bwd_s']) / wall:.1%}")


def report(name, seed, records, metrics, metric_units, trace):
    modes = {m: sum(r["mode"] == m for r in records) for m in ("run", "trace", "setup")}
    failed = sum(1 for r in records if r["problems"])
    print(f"workload {name} seed {seed}: {modes['run']} runs, {modes['trace']} traced runs, "
          f"{modes['setup']} set-up probes; {failed} failed")
    for i, r in enumerate(records, start=1):
        for p in r["problems"]:
            print(f"  run-{i} ({r['mode']}) FAILED: {p}", file=sys.stderr)
    if metrics is None:
        return
    ok = [r for r in records if not r["problems"]]
    runs = [r for r in ok if r["mode"] == "run"]
    for m, unit in metric_units.items():
        line = f"  {m:<34} {metrics[m]:>16.6f} {unit}"
        if not trace and m != "pass_rate":
            vals = sorted(r["setup_s"] if m == "setup_s" else r["e2e"][m]
                          for r in (ok if m == "setup_s" else runs))
            line += f"   (median of {len(vals)}; min {vals[0]:.6g}, max {vals[-1]:.6g})"
        print(line)
    if trace:
        print_purpose(name, metrics)
    d = runs[0]["digests"]
    print(f"digests {name} seed={seed} " + " ".join(f"{k}={d[k]}" for k in DIGESTED))


def load_definition():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if names != list(WORKLOADS):
        raise BenchError(f"BENCHMARK.json workloads {names} != {list(WORKLOADS)}")
    units = {key: {m["name"]: m["unit"] for m in bench[key]}
             for key in ("end_to_end", "per_layer")}
    return names, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        if not (SRC / "anyprune" / "__init__.py").is_file():
            raise BenchError(f"no anyprune sources under {SRC}")
        names, units = load_definition()
        selected = names if args.workload == "all" else [args.workload]
        if not set(selected) <= set(names):
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        metric_units = units["per_layer" if args.trace else "end_to_end"]

        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir()
        prov_path = WORK / "provenance.json"
        code, _, _ = spawn(
            ["gen", str(args.seed), str(WORK / "data"), str(prov_path)],
            WORK, WORK / "gen.log", time.monotonic() + 60.0,
        )
        if code != 0:
            raise BenchError(f"input generation failed:\n{_tail(WORK / 'gen.log')}")
        prov = provenance(json.loads(prov_path.read_text(encoding="utf-8")))
        print("provenance " + json.dumps(prov, sort_keys=True))

        attempted = failed = 0
        correct = True
        combined = {}
        for name in selected:
            records, metrics = run_workload(
                name, args.seed, args.seconds, args.trace, metric_units
            )
            report(name, args.seed, records, metrics, metric_units, args.trace)
            attempted += len(records)
            failed += sum(1 for r in records if r["problems"])
            if metrics is None:
                raise BenchError(f"{name}: no run passed the correctness gate")
            correct = correct and all(not r["problems"] for r in records)
            prefix = "" if len(selected) == 1 else f"{name}."
            combined.update(
                (prefix + m, {"value": v, "unit": metric_units[m]})
                for m, v in metrics.items()
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": combined,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
