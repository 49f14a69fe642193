"""Command-line interface: run one config, sweep a directory, or re-plot a run.

Exit codes: 0 success, 1 configuration error, 2 any other failure. A pooled
sweep runs each job in a process of its own, so a dying process fails only its job.
"""

import argparse
import os
import sys
import traceback

from .config import parse_config, run_id
from .errors import AnypruneError, ConfigError
from .harness import run
from .kernels import blas_threads
from .reporting import check_run_dir, emit_svg_from_dir, pruner_label, write_run_dir


def _describe(exc):
    """One line for a failure; an unexpected one prints its traceback first."""
    if isinstance(exc, MemoryError):
        return f"out of memory: {exc}" if str(exc) else "out of memory"
    if isinstance(exc, (AnypruneError, OSError)):
        return str(exc)
    traceback.print_exception(exc)
    return f"{type(exc).__name__}: {exc}"


def _execute(config, outdir):
    log = run(config)
    summary = write_run_dir(log, outdir)
    print(
        f"{config.variant}/{pruner_label(config)} -> {outdir}  "
        f"test_acc={summary.final_test_accuracy_pct:.2f}%  cer={summary.cer}  "
        f"gap={summary.final_generalization_gap_pp:.3f}pp  "
        f"({log.wall_clock_seconds:.1f}s)"
    )
    return summary


def _cmd_run(args):
    config = parse_config(args.config, seed_override=args.seed)
    outdir = args.out if args.out else os.path.join("runs", run_id(config))
    check_run_dir(outdir)
    _execute(config, outdir)
    return 0


def _sweep_one(job, threads=None):
    """Run one sweep job, an MLP at ``threads`` BLAS threads; returns None, or its error."""
    _, config, outdir = job
    try:
        with blas_threads(threads if config.model == "mlp" else None):
            _execute(config, outdir)
    except Exception as exc:  # recorded as failed; the sweep runs the rest
        return _describe(exc)
    return None


def _send_outcome(job, threads, conn):  # the body of a pooled job's process
    conn.send(_sweep_one(job, threads))


def _sweep_pooled(jobs, workers):
    """Run each job in a process of its own, ``workers`` at most at once; returns their errors."""
    import multiprocessing.connection  # only a pooled sweep pays for the import

    threads = max(1, (os.cpu_count() or 1) // workers)  # an MLP job's share of the cores
    errors = [None] * len(jobs)
    running = {}  # read end of a job's pipe -> (job index, its process)
    pending = list(enumerate(jobs))
    while pending or running:
        while pending and len(running) < workers:
            i, job = pending.pop(0)
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_send_outcome, args=(job, threads, send))
            proc.start()
            send.close()  # the child holds the only write end, so its death reads as EOF
            running[recv] = (i, proc)
        for recv in multiprocessing.connection.wait(list(running)):
            i, proc = running.pop(recv)
            try:
                errors[i] = recv.recv()
            except EOFError:
                errors[i] = "worker process died"
            recv.close()
            proc.join()
    return errors


def _cmd_sweep(args):
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be >= 1, got {args.parallel}")
    try:
        entries = os.listdir(args.config_dir)
    except OSError as exc:
        raise ConfigError(f"cannot read config directory: {exc}") from None
    names = sorted(
        n for n in entries if os.path.isfile(os.path.join(args.config_dir, n)) and not n.startswith(".")
    )
    if not names:
        raise ConfigError(f"no config files in {args.config_dir}")
    base = args.out if args.out else "runs"
    jobs = []
    writers = {}  # run directory -> the config file that writes it
    for name in names:  # parse everything first so a bad config fails the sweep fast
        path = os.path.join(args.config_dir, name)
        outdir = os.path.join(base, os.path.splitext(name)[0])
        if outdir in writers:
            raise ConfigError(f"{writers[outdir]} and {path} would both write {outdir}")
        writers[outdir] = path
        check_run_dir(outdir)
        jobs.append((path, parse_config(path, seed_override=args.seed), outdir))
    workers = min(args.parallel, len(jobs))
    errors = _sweep_pooled(jobs, workers) if workers > 1 else [_sweep_one(job) for job in jobs]
    failed = sum(e is not None for e in errors)
    print(f"sweep: {len(jobs) - failed} of {len(jobs)} configs finished")
    for (path, _, outdir), error in zip(jobs, errors):
        print(f"failed  {path}: {error}" if error is not None else f"ok      {path} -> {outdir}")
    return 2 if failed else 0


def _cmd_plot(args):
    emit_svg_from_dir(args.run_dir)
    print(f"plots written to {args.run_dir}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="anyprune",
        description="Progressive pruning experiments on megabatch streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one run config")
    p_run.add_argument("config", help="path to a key = value config file")
    p_run.add_argument(
        "--out", default=None,
        help="output directory (default runs/<run_id>); an existing one is replaced "
        "only if it holds nothing but run artifacts",
    )
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run every config file in a directory")
    p_sweep.add_argument("config_dir")
    p_sweep.add_argument(
        "--out", default=None,
        help="base output directory (default runs/); an existing run directory in it is "
        "replaced only if it holds nothing but run artifacts",
    )
    p_sweep.add_argument("--parallel", type=int, default=1, help="independent runs in parallel (>= 1)")
    p_sweep.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_plot = sub.add_parser("plot", help="re-render SVG charts from a run directory")
    p_plot.add_argument("run_dir")
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {_describe(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
