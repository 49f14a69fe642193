"""Serialization of run results: CSVs, summary JSON, and dependency-free SVGs.

All writers are deterministic: fixed column order, LF line endings, and
shortest-roundtrip float formatting, so re-serializing the same log yields
byte-identical files. The summary JSON carries results only; the config echo,
hash, and wall-clock time live in sidecar files (config.resolved, meta.json)
so that equivalent runs compare byte-equal on their summaries.
"""

import csv
import dataclasses
import io
import itertools
import json
import os
import shutil
import tempfile

from . import __version__
from .config import format_value, resolved_text
from .errors import ConfigError
from .metrics import summarize

CURVES_COLUMNS = (
    "run_id", "variant", "pruner", "megabatch", "epoch", "global_iter", "lr",
    "train_acc", "train_loss", "val_acc", "val_loss", "kept_count", "kept_fraction",
)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _write_csv(path, rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([format_value(v) for v in row] for row in rows)
    _write_text(path, out.getvalue())


def pruner_label(config):
    """The pruner name, or "none" for the unpruned baseline."""
    return config.pruner or "none"


def write_curves_csv(log, path):
    """Per-epoch training curves with the fixed 13-column schema."""
    pruner = pruner_label(log.config)
    rows = [CURVES_COLUMNS]
    for r in log.epochs:
        rows.append((
            log.run_id, log.config.variant, pruner, r.megabatch, r.epoch,
            r.global_iter, float(r.lr), float(r.train_acc), float(r.train_loss),
            float(r.val_acc), float(r.val_loss), r.kept_count,
            float(r.kept_count / log.prunable_total),
        ))
    _write_csv(path, rows)


def write_megabatches_csv(log, path):
    """Per-megabatch results plus one pruned-fraction column per prunable layer."""
    rows = [
        ("megabatch", "test_errors", "test_acc", "gen_gap")
        + tuple(f"pruned_{name}" for name in log.layer_names)
    ]
    for r in log.megabatches:
        fractions = dict(r.layer_pruned)
        rows.append(
            (
                r.megabatch, r.test_errors,
                float((r.test_total - r.test_errors) / r.test_total),
                float(r.gen_gap_pp),
            )
            + tuple(float(fractions[name]) for name in log.layer_names)
        )
    _write_csv(path, rows)


def write_predictions_csv(log, path):
    rows = [("megabatch", "sample", "label", "prediction")]
    for r in log.megabatches:
        for j, pred in enumerate(r.predictions):
            rows.append((r.megabatch, j, int(log.test_labels[j]), int(pred)))
    _write_csv(path, rows)


def write_events_csv(log, path):
    rows = [("megabatch", "seq", "kind", "detail")]
    for e in log.events:
        rows.append((e.megabatch, e.seq, e.kind, json.dumps(e.detail, sort_keys=True)))
    _write_csv(path, rows)


def write_summary_json(summary, path):
    """The deterministic, variant-neutral RunSummary fields, as JSON."""
    _write_text(path, json.dumps(dataclasses.asdict(summary), indent=2) + "\n")


RUN_ARTIFACTS = frozenset((
    "config.resolved", "curves.csv", "megabatches.csv", "predictions.csv", "events.csv",
    "summary.json", "meta.json", "gen_gap.svg", "cer.svg", "layer_pruned.svg",
))


def check_run_dir(outdir):
    """Raise ConfigError unless ``outdir`` is absent, empty, or holds only run artifacts.

    Only such a directory may be replaced by a new run, so a mistyped ``--out``
    can never delete a directory of other files.
    """
    if not os.path.exists(outdir):
        return
    if not os.path.isdir(outdir):
        raise ConfigError(f"{outdir} exists and is not a directory")
    foreign = sorted(set(os.listdir(outdir)) - RUN_ARTIFACTS)
    if foreign:
        raise ConfigError(
            f"{outdir} is not a run directory (it holds {foreign[0]!r}); refusing to replace it"
        )


def write_run_dir(log, outdir):
    """Write every artifact of a completed run into ``outdir``; returns the summary.

    ``outdir`` must pass ``check_run_dir``. The artifacts go into a temporary
    sibling directory that is renamed into place once complete, replacing an
    existing ``outdir`` (or the directory a symlink ``outdir`` points to) whole.
    A failure while writing leaves ``outdir`` as it was, so no half-written run
    directory is ever visible.
    """
    check_run_dir(outdir)
    target = os.path.realpath(outdir)
    parent, name = os.path.split(target)
    os.makedirs(parent, exist_ok=True)
    box = tempfile.mkdtemp(dir=parent, prefix=f".{name}.")
    try:
        tmp, old = os.path.join(box, name), os.path.join(box, "old")
        os.mkdir(tmp)
        summary = _write_artifacts(log, tmp)
        replacing = os.path.isdir(target)
        if replacing:
            os.replace(target, old)
        try:
            os.replace(tmp, target)
        except BaseException:
            if replacing:
                os.replace(old, target)
            raise
    finally:
        shutil.rmtree(box, ignore_errors=True)  # a failed cleanup must not fail a finished write
    return summary


def _write_artifacts(log, outdir):
    summary = summarize(log)
    _write_text(os.path.join(outdir, "config.resolved"), resolved_text(log.config))
    write_curves_csv(log, os.path.join(outdir, "curves.csv"))
    write_megabatches_csv(log, os.path.join(outdir, "megabatches.csv"))
    write_predictions_csv(log, os.path.join(outdir, "predictions.csv"))
    write_events_csv(log, os.path.join(outdir, "events.csv"))
    write_summary_json(summary, os.path.join(outdir, "summary.json"))
    meta = {
        "run_id": log.run_id,
        "config_hash": log.config_hash,
        "variant": log.config.variant,
        "pruner": pruner_label(log.config),
        "wall_clock_seconds": log.wall_clock_seconds,
        "version": __version__,
    }
    _write_text(os.path.join(outdir, "meta.json"), json.dumps(meta, indent=2) + "\n")
    emit_svg_from_dir(outdir)
    return summary


# ---------------------------------------------------------------------------
# CSV readers (used by the plot subcommand)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        return header, [dict(zip(header, row)) for row in reader]


def read_megabatches_csv(path):
    header, rows = _read_csv(path)
    layer_cols = [h for h in header if h.startswith("pruned_")]
    return rows, layer_cols


# ---------------------------------------------------------------------------
# SVG emission (fixed-size line charts, no dependencies)

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 15, 30, 45
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB  # plot area inside the margins
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2")
# chart text escapes; importing xml.sax.saxutils.escape would load urllib.request,
# about 3 MiB more peak RSS in every run
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _ticks(lo, hi, n=5):
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _svg_line_chart(series, title, xlabel, ylabel):
    """series: list of (label, [(x, y), ...]) pairs; every text is XML-escaped."""
    title, xlabel, ylabel = (t.translate(_XML_ESCAPES) for t in (title, xlabel, ylabel))
    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    xlo, xhi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    ylo, yhi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0

    def px(x):
        return _ML + (x - xlo) / (xhi - xlo) * _PW

    def py(y):
        return _MT + _PH - (y - ylo) / (yhi - ylo) * _PH

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n'
        f'<rect width="{_W}" height="{_H}" fill="white"/>\n'
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>\n'
        f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" fill="none" '
        f'stroke="#333" stroke-width="1"/>\n'
    )
    for v in _ticks(xlo, xhi):
        out.write(
            f'<text x="{px(v):.1f}" y="{_MT + _PH + 16}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{v:.4g}</text>\n'
        )
    for v in _ticks(ylo, yhi):
        out.write(
            f'<text x="{_ML - 6}" y="{py(v) + 3:.1f}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif">{v:.4g}</text>\n'
        )
    out.write(
        f'<text x="{_ML + _PW / 2:.1f}" y="{_H - 8}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif">{xlabel}</text>\n'
        f'<text x="14" y="{_MT + _PH / 2:.1f}" text-anchor="middle" font-size="11" '
        f'font-family="sans-serif" transform="rotate(-90 14 {_MT + _PH / 2:.1f})">{ylabel}</text>\n'
    )
    for i, (label, pts) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.write(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
            f'<text x="{_ML + _PW - 6}" y="{_MT + 14 + 13 * i}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif" fill="{color}">'
            f'{label.translate(_XML_ESCAPES)}</text>\n'
        )
    out.write("</svg>\n")
    return out.getvalue()


def emit_svg_from_dir(rundir):
    """Render gen_gap.svg, cer.svg, and layer_pruned.svg from a run's CSVs.

    The CER and per-layer series start at megabatch 0, before any test error
    is counted or any weight pruned, so a one-megabatch run still draws a line.
    """
    _, curves = _read_csv(os.path.join(rundir, "curves.csv"))
    mb_rows, layer_cols = read_megabatches_csv(os.path.join(rundir, "megabatches.csv"))
    megabatches = [0.0] + [float(r["megabatch"]) for r in mb_rows]
    gap = [
        (float(r["global_iter"]), 100.0 * (float(r["train_acc"]) - float(r["val_acc"])))
        for r in curves
    ]
    cer = itertools.accumulate((float(r["test_errors"]) for r in mb_rows), initial=0.0)
    layers = [
        (c[len("pruned_"):], list(zip(megabatches, [0.0] + [float(r[c]) for r in mb_rows])))
        for c in layer_cols
    ]
    for name, series, title, xlabel, ylabel in (
        ("gen_gap.svg", [("gen gap", gap)], "Generalization gap over training",
         "optimizer steps", "gap (pp)"),
        ("cer.svg", [("CER", list(zip(megabatches, cer)))], "Cumulative error rate",
         "megabatch", "test errors (cumulative)"),
        ("layer_pruned.svg", layers, "Pruned weights per layer", "megabatch", "fraction pruned"),
    ):
        _write_text(os.path.join(rundir, name), _svg_line_chart(series, title, xlabel, ylabel))
