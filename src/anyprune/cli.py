"""Command-line interface: run one config, sweep a directory, or re-plot a run.

Exit codes: 0 success, 1 configuration error, 2 runtime or numeric error.
"""

import argparse
import concurrent.futures
import os
import sys

from .config import parse_config, run_id
from .errors import AnypruneError, ConfigError
from .harness import run
from .reporting import emit_svg_from_dir, write_run_dir

# failures that exit 2; a sweep records them per config and runs the rest
RUNTIME_ERRORS = (AnypruneError, OSError, FloatingPointError)


def _execute(config, outdir):
    log = run(config)
    summary = write_run_dir(log, outdir)
    print(
        f"{config.variant}/{config.pruner or 'none'} -> {outdir}  "
        f"test_acc={summary.final_test_accuracy_pct:.2f}%  cer={summary.cer}  "
        f"gap={summary.final_generalization_gap_pp:.3f}pp  "
        f"({log.wall_clock_seconds:.1f}s)"
    )
    return summary


def _cmd_run(args):
    config = parse_config(args.config, seed_override=args.seed)
    outdir = args.out if args.out else os.path.join("runs", run_id(config))
    _execute(config, outdir)
    return 0


def _sweep_one(job):
    """Run one sweep job; returns None, or the error that stopped it."""
    _, config, outdir = job
    try:
        _execute(config, outdir)
    except RUNTIME_ERRORS as exc:
        return str(exc)
    return None


def _cmd_sweep(args):
    names = sorted(
        n for n in os.listdir(args.config_dir)
        if os.path.isfile(os.path.join(args.config_dir, n)) and not n.startswith(".")
    )
    if not names:
        raise ConfigError(f"no config files in {args.config_dir}")
    base = args.out if args.out else "runs"
    jobs = []
    for name in names:  # parse everything first so a bad config fails the sweep fast
        path = os.path.join(args.config_dir, name)
        config = parse_config(path, seed_override=args.seed)
        stem = os.path.splitext(name)[0]
        jobs.append((path, config, os.path.join(base, stem)))
    if args.parallel > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.parallel) as pool:
            errors = list(pool.map(_sweep_one, jobs))
    else:
        errors = [_sweep_one(job) for job in jobs]
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
    p_run.add_argument("--out", default=None, help="output directory (default runs/<run_id>)")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run every config file in a directory")
    p_sweep.add_argument("config_dir")
    p_sweep.add_argument("--out", default=None, help="base output directory (default runs/)")
    p_sweep.add_argument("--parallel", type=int, default=1, help="independent runs in parallel")
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
    except RUNTIME_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
