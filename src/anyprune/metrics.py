"""Cumulative error rate, generalization gap, and run summarization.

Accuracies flow through this module as exact (correct, total) integer counts;
percentages only appear at presentation time, so CER and accuracy derivations
stay exact.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LogError, ParameterError, ShapeError


def error_count(predictions, labels):
    """Number of mismatched predictions."""
    p = np.asarray(predictions)
    y = np.asarray(labels)
    if p.shape != y.shape:
        raise ShapeError(f"predictions shape {p.shape} != labels shape {y.shape}")
    return int(np.count_nonzero(p != y))


def cer(per_megabatch_errors):
    """Cumulative error rate: total test errors summed over megabatches."""
    return int(sum(int(e) for e in per_megabatch_errors))


def generalization_gap(train_acc, val_acc):
    """100 * (train accuracy - validation accuracy); may be negative."""
    if not 0.0 <= train_acc <= 1.0:
        raise ParameterError(f"train accuracy {train_acc} outside [0, 1]")
    if not 0.0 <= val_acc <= 1.0:
        raise ParameterError(f"validation accuracy {val_acc} outside [0, 1]")
    return 100.0 * (train_acc - val_acc)


@dataclass
class RunSummary:
    final_test_accuracy_pct: float
    cer: int
    final_generalization_gap_pp: float
    kept_count_trajectory: list
    megabatch_errors: list
    test_set_size: int


def summarize(log):
    """Collapse a complete MetricsLog into a RunSummary.

    Raises LogError if the log is incomplete or its incrementally recorded CER
    disagrees with a recount from the stored per-sample predictions.
    """
    expected = log.config.megabatches
    if len(log.megabatches) != expected:
        raise LogError(
            f"log has {len(log.megabatches)} megabatch records, expected {expected}"
        )
    errors = [rec.test_errors for rec in log.megabatches]
    recounted = [error_count(rec.predictions, log.test_labels) for rec in log.megabatches]
    if errors != recounted:
        raise LogError(f"recorded errors {errors} disagree with predictions {recounted}")
    last = log.megabatches[-1]
    return RunSummary(
        final_test_accuracy_pct=100.0 * (last.test_total - last.test_errors) / last.test_total,
        cer=cer(errors),
        final_generalization_gap_pp=last.gen_gap_pp,
        kept_count_trajectory=[rec.kept_count for rec in log.megabatches],
        megabatch_errors=errors,
        test_set_size=last.test_total,
    )
