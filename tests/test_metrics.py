"""Error counting, CER, generalization gap, and summary consistency."""

import numpy as np
import pytest

from anyprune.config import parse_config
from anyprune.errors import LogError, ParameterError, ShapeError
from anyprune.harness import run
from anyprune.metrics import cer, error_count, generalization_gap, summarize


class TestErrorCount:
    def test_perfect(self):
        assert error_count([0, 1, 2], [0, 1, 2]) == 0

    def test_all_wrong(self):
        assert error_count([1, 2, 0], [0, 1, 2]) == 3

    def test_single_miss(self):
        assert error_count([0, 1, 0, 3], [0, 1, 2, 3]) == 1

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            error_count([0, 1], [0, 1, 2])


class TestCer:
    def test_zero(self):
        assert cer([0, 0, 0]) == 0

    def test_sum(self):
        assert cer([1, 2]) == 3

    def test_matches_per_sample_recount(self):
        cfg = parse_config(
            """
            variant = app_default
            pruner = snip
            tau = 2.0
            megabatches = 3
            dataset = synthetic_blobs
            blob_per_class = 60
            blob_noise = 1.5
            epochs = 2
            mlp_hidden = 8
            """
        )
        log = run(cfg)
        summary = summarize(log)
        recount = [
            error_count(rec.predictions, log.test_labels) for rec in log.megabatches
        ]
        assert summary.cer == cer(recount)
        assert summary.megabatch_errors == recount


class TestGeneralizationGap:
    def test_equality(self):
        assert generalization_gap(0.9, 0.9) == 0.0

    def test_arithmetic(self):
        assert generalization_gap(0.95, 0.80) == pytest.approx(15.0)

    def test_may_be_negative(self):
        assert generalization_gap(0.5, 0.6) == pytest.approx(-10.0)

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            generalization_gap(1.2, 0.5)
        with pytest.raises(ParameterError):
            generalization_gap(0.5, -0.1)


@pytest.fixture(scope="module")
def small_log():
    cfg = parse_config(
        """
        variant = baseline
        megabatches = 2
        dataset = synthetic_blobs
        blob_per_class = 40
        epochs = 2
        mlp_hidden = 8
        """
    )
    return run(cfg)


class TestSummarize:

    def test_accuracy_and_cer_arithmetic(self, small_log):
        s = summarize(small_log)
        last = small_log.megabatches[-1]
        expected_acc = 100.0 * (last.test_total - last.test_errors) / last.test_total
        assert s.final_test_accuracy_pct == expected_acc
        assert s.cer == sum(r.test_errors for r in small_log.megabatches)
        assert s.kept_count_trajectory == [small_log.prunable_total] * 2

    def test_purity(self, small_log):
        assert summarize(small_log) == summarize(small_log)

    def test_incomplete_log_rejected(self, small_log):
        import copy

        broken = copy.copy(small_log)
        broken.megabatches = small_log.megabatches[:1]
        with pytest.raises(LogError):
            summarize(broken)

    def test_tampered_predictions_rejected(self, small_log):
        import copy

        broken = copy.copy(small_log)
        rec = copy.copy(small_log.megabatches[-1])
        rec.predictions = np.asarray(rec.predictions).copy()
        rec.predictions[:] = rec.predictions + 1
        broken.megabatches = small_log.megabatches[:-1] + [rec]
        with pytest.raises(LogError):
            summarize(broken)
