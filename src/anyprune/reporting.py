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
import json
import os

from . import __version__
from .config import resolved_text
from .metrics import summarize

CURVES_COLUMNS = (
    "run_id", "variant", "pruner", "megabatch", "epoch", "global_iter", "lr",
    "train_acc", "train_loss", "val_acc", "val_loss", "kept_count", "kept_fraction",
)


def _fmt(v):
    if isinstance(v, float):  # includes numpy float64; plain repr() would not
        return repr(float(v))
    return str(v)


def _write_lines(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for row in rows:
            f.write(",".join(_fmt(v) for v in row))
            f.write("\n")


def write_curves_csv(log, path):
    """Per-epoch training curves with the fixed 13-column schema."""
    pruner = log.config.pruner if log.config.pruner else "none"
    rows = [CURVES_COLUMNS]
    for r in log.epochs:
        rows.append((
            log.run_id, log.config.variant, pruner, r.megabatch, r.epoch,
            r.global_iter, float(r.lr), float(r.train_acc), float(r.train_loss),
            float(r.val_acc), float(r.val_loss), r.kept_count,
            float(r.kept_count / log.prunable_total),
        ))
    _write_lines(path, rows)


def megabatch_columns(layer_names):
    return ("megabatch", "test_errors", "test_acc", "gen_gap") + tuple(
        f"pruned_{name}" for name in layer_names
    )


def write_megabatches_csv(log, path):
    """Per-megabatch results plus one pruned-fraction column per prunable layer."""
    rows = [megabatch_columns(log.layer_names)]
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
    _write_lines(path, rows)


def write_predictions_csv(log, path):
    rows = [("megabatch", "sample", "label", "prediction")]
    for r in log.megabatches:
        for j, pred in enumerate(r.predictions):
            rows.append((r.megabatch, j, int(log.test_labels[j]), int(pred)))
    _write_lines(path, rows)


def write_events_csv(log, path):
    rows = [("megabatch", "seq", "kind", "detail")]
    for e in log.events:
        rows.append((e.megabatch, e.seq, e.kind, json.dumps(e.detail, sort_keys=True)))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerows(rows)


def write_summary_json(summary, path):
    """The deterministic, variant-neutral RunSummary fields, as JSON."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(dataclasses.asdict(summary), f, indent=2)
        f.write("\n")


def read_summary_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def write_run_dir(log, outdir):
    """Write every artifact of a completed run into ``outdir``."""
    os.makedirs(outdir, exist_ok=True)
    summary = summarize(log)
    with open(os.path.join(outdir, "config.resolved"), "w", encoding="utf-8", newline="\n") as f:
        f.write(resolved_text(log.config))
    write_curves_csv(log, os.path.join(outdir, "curves.csv"))
    write_megabatches_csv(log, os.path.join(outdir, "megabatches.csv"))
    write_predictions_csv(log, os.path.join(outdir, "predictions.csv"))
    write_events_csv(log, os.path.join(outdir, "events.csv"))
    write_summary_json(summary, os.path.join(outdir, "summary.json"))
    meta = {
        "run_id": log.run_id,
        "config_hash": log.config_hash,
        "variant": log.config.variant,
        "pruner": log.config.pruner if log.config.pruner else "none",
        "wall_clock_seconds": log.wall_clock_seconds,
        "version": __version__,
    }
    with open(os.path.join(outdir, "meta.json"), "w", encoding="utf-8", newline="\n") as f:
        json.dump(meta, f, indent=2)
        f.write("\n")
    emit_svg_from_dir(outdir)
    return summary


# ---------------------------------------------------------------------------
# CSV readers (used by the plot subcommand)


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        return header, [dict(zip(header, row)) for row in reader]


def read_curves_csv(path):
    return _read_csv(path)[1]


def read_megabatches_csv(path):
    header, rows = _read_csv(path)
    layer_cols = [h for h in header if h.startswith("pruned_")]
    return rows, layer_cols


# ---------------------------------------------------------------------------
# SVG emission (fixed-size line and bar charts, no dependencies)

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 60, 15, 30, 45
_PW, _PH = _W - _ML - _MR, _H - _MT - _MB  # plot area inside the margins
_COLORS = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2")


def _ticks(lo, hi, n=5):
    if hi == lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _svg_open(title):
    """A chart buffer holding the canvas, the title and the plot-area frame."""
    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n'
    )
    out.write(f'<rect width="{_W}" height="{_H}" fill="white"/>\n')
    out.write(
        f'<text x="{_W / 2:.1f}" y="18" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif">{title}</text>\n'
    )
    out.write(
        f'<rect x="{_ML}" y="{_MT}" width="{_PW}" height="{_PH}" fill="none" '
        f'stroke="#333" stroke-width="1"/>\n'
    )
    return out


def _svg_axis_labels(out, xlabel, ylabel):
    out.write(
        f'<text x="{_ML + _PW / 2:.1f}" y="{_H - 8}" text-anchor="middle" '
        f'font-size="11" font-family="sans-serif">{xlabel}</text>\n'
    )
    out.write(
        f'<text x="14" y="{_MT + _PH / 2:.1f}" text-anchor="middle" font-size="11" '
        f'font-family="sans-serif" transform="rotate(-90 14 {_MT + _PH / 2:.1f})">{ylabel}</text>\n'
    )


def _svg_line_chart(series, title, xlabel, ylabel):
    """series: list of (label, [(x, y), ...]) pairs."""
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

    out = _svg_open(title)
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
    _svg_axis_labels(out, xlabel, ylabel)
    for i, (label, pts) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.write(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
        )
        out.write(
            f'<text x="{_ML + _PW - 6}" y="{_MT + 14 + 13 * i}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif" fill="{color}">{label}</text>\n'
        )
    out.write("</svg>\n")
    return out.getvalue()


def _svg_grouped_bars(groups, bar_labels, title, xlabel, ylabel):
    """groups: list of (group_label, [height per bar]) with heights in [0, 1]."""
    out = _svg_open(title)
    for v in _ticks(0.0, 1.0):
        y = _MT + _PH - v * _PH
        out.write(
            f'<text x="{_ML - 6}" y="{y + 3:.1f}" text-anchor="end" font-size="10" '
            f'font-family="sans-serif">{v:.2f}</text>\n'
        )
    n_groups = max(1, len(groups))
    n_bars = max(1, len(bar_labels))
    group_w = _PW / n_groups
    bar_w = group_w * 0.8 / n_bars
    for gi, (glabel, heights) in enumerate(groups):
        x0 = _ML + gi * group_w + group_w * 0.1
        for bi, h in enumerate(heights):
            color = _COLORS[bi % len(_COLORS)]
            bh = max(0.0, min(1.0, h)) * _PH
            out.write(
                f'<rect x="{x0 + bi * bar_w:.2f}" y="{_MT + _PH - bh:.2f}" '
                f'width="{bar_w:.2f}" height="{bh:.2f}" fill="{color}"/>\n'
            )
        out.write(
            f'<text x="{x0 + group_w * 0.4:.1f}" y="{_MT + _PH + 16}" text-anchor="middle" '
            f'font-size="10" font-family="sans-serif">{glabel}</text>\n'
        )
    for bi, label in enumerate(bar_labels):
        color = _COLORS[bi % len(_COLORS)]
        out.write(
            f'<text x="{_ML + _PW - 6}" y="{_MT + 14 + 13 * bi}" text-anchor="end" '
            f'font-size="10" font-family="sans-serif" fill="{color}">{label}</text>\n'
        )
    _svg_axis_labels(out, xlabel, ylabel)
    out.write("</svg>\n")
    return out.getvalue()


def _render_charts(gap_pts, cer_pts, layer_groups, layer_labels, outdir):
    gap_svg = _svg_line_chart(
        [("gen gap", gap_pts)] if gap_pts else [],
        "Generalization gap over training", "optimizer steps", "gap (pp)",
    )
    cer_svg = _svg_line_chart(
        [("CER", cer_pts)] if cer_pts else [],
        "Cumulative error rate", "megabatch", "test errors (cumulative)",
    )
    layers_svg = _svg_grouped_bars(
        layer_groups, layer_labels, "Pruned weights per layer", "megabatch",
        "fraction pruned",
    )
    for name, content in (
        ("gen_gap.svg", gap_svg), ("cer.svg", cer_svg), ("layer_pruned.svg", layers_svg),
    ):
        with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n") as f:
            f.write(content)


def emit_svg_from_dir(rundir):
    """Render gen_gap.svg, cer.svg, and layer_pruned.svg from a run's CSVs."""
    curves = read_curves_csv(os.path.join(rundir, "curves.csv"))
    mb_rows, layer_cols = read_megabatches_csv(os.path.join(rundir, "megabatches.csv"))

    gap_pts = [
        (float(r["global_iter"]), 100.0 * (float(r["train_acc"]) - float(r["val_acc"])))
        for r in curves
    ]
    running = 0
    cer_pts = []
    for r in mb_rows:
        running += int(r["test_errors"])
        cer_pts.append((float(r["megabatch"]), float(running)))
    groups = [
        (r["megabatch"], [float(r[c]) for c in layer_cols]) for r in mb_rows
    ]
    labels = [c[len("pruned_"):] for c in layer_cols]
    _render_charts(gap_pts, cer_pts, groups, labels, rundir)
