import csv

import numpy as np
import pytest

from tapkit.errors import InputError
from tapkit.metrics import (ABS_THRESHOLDS, REL_THRESHOLDS, MetricReport,
                            match_boundaries, recall_prec_f1, sweep)


def exhaustive_one_to_one(pred, gt, d):
    """Repeated full scans for the globally closest admissible pair.

    Independent re-derivation of the greedy matching semantics: at each
    step examine every remaining (pred, gt) pair and take the minimum by
    (distance, pred index, gt index), admitting it only when the distance
    is strictly below the tolerance.
    """
    pred = sorted(pred)
    gt = sorted(gt)
    free_p = set(range(len(pred)))
    free_g = set(range(len(gt)))
    matched = 0
    while free_p and free_g:
        best = None
        for ip in sorted(free_p):
            for ig in sorted(free_g):
                cand = (abs(pred[ip] - gt[ig]), ip, ig)
                if best is None or cand < best:
                    best = cand
        if best is None or best[0] >= d:
            break
        matched += 1
        free_p.discard(best[1])
        free_g.discard(best[2])
    return matched


def literal_independent(pred, gt, d):
    return sum(1 for p in pred if gt and min(abs(p - g) for g in gt) < d)


class TestMatchBoundaries:
    def test_worked_triple(self):
        assert match_boundaries([11, 19, 31], [10, 20, 30], 2.0) == 3

    def test_empty_predictions(self):
        assert match_boundaries([], [10, 20], 5.0) == 0
        assert match_boundaries([], [], 5.0) == 0

    def test_mode_divergence_witness(self):
        pred = [10, 11]
        gt = [10]
        assert match_boundaries(pred, gt, 2.0, mode="independent") == 2
        assert match_boundaries(pred, gt, 2.0, mode="one-to-one") == 1

    def test_strict_inequality_at_threshold(self):
        assert match_boundaries([12], [10], 2.0) == 0
        assert match_boundaries([12], [10], 2.0 + 1e-9) == 1

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            match_boundaries([1], [1], 1.0, mode="hungarian")

    def test_negative_tolerance(self):
        with pytest.raises(InputError):
            match_boundaries([1], [1], -1.0)

    @pytest.mark.parametrize("mode", ["one-to-one", "independent"])
    def test_nan_tolerance_rejected(self, mode):
        # no distance compares to NaN, so it must not reach the matching loop
        with pytest.raises(InputError, match="nan"):
            match_boundaries([10], [100], float("nan"), mode=mode)

    @pytest.mark.parametrize("mode", ["one-to-one", "independent"])
    def test_infinite_tolerance_matches_everything(self, mode):
        assert match_boundaries([10], [100], float("inf"), mode=mode) == 1

    def test_randomized_against_oracles(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            pred = sorted(rng.integers(1, 200, size=rng.integers(0, 12)).tolist())
            gt = sorted(rng.integers(1, 200, size=rng.integers(0, 12)).tolist())
            d = float(rng.uniform(0, 30))
            assert match_boundaries(pred, gt, d) == exhaustive_one_to_one(pred, gt, d)
            assert (match_boundaries(pred, gt, d, mode="independent")
                    == literal_independent(pred, gt, d))

    def test_independent_at_least_one_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pred = rng.integers(1, 100, size=rng.integers(0, 10)).tolist()
            gt = rng.integers(1, 100, size=rng.integers(0, 10)).tolist()
            d = float(rng.uniform(0, 20))
            assert (match_boundaries(pred, gt, d, mode="independent")
                    >= match_boundaries(pred, gt, d, mode="one-to-one"))


class TestRecallPrecF1:
    def test_worked_example(self):
        recall, precision, f1 = recall_prec_f1([11, 50], [10, 20, 30], 2.0)
        assert abs(recall - 1 / 3) < 1e-15
        assert abs(precision - 1 / 2) < 1e-15
        assert abs(f1 - 0.4) < 1e-15

    def test_perfect_prediction(self):
        assert recall_prec_f1([10, 20], [10, 20], 0.5) == (1.0, 1.0, 1.0)

    def test_empty_prediction_nonempty_gt(self):
        assert recall_prec_f1([], [10], 5.0) == (0.0, 0.0, 0.0)

    def test_both_empty(self):
        assert recall_prec_f1([], [], 5.0) == (1.0, 1.0, 1.0)

    def test_nonempty_pred_empty_gt(self):
        assert recall_prec_f1([10], [], 5.0) == (0.0, 0.0, 0.0)

    def test_bounded_in_one_to_one_mode(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            pred = rng.integers(1, 100, size=rng.integers(0, 15)).tolist()
            gt = rng.integers(1, 100, size=rng.integers(0, 15)).tolist()
            r, p, f1 = recall_prec_f1(pred, gt, float(rng.uniform(0, 50)))
            assert 0.0 <= r <= 1.0 and 0.0 <= p <= 1.0 and 0.0 <= f1 <= 1.0

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pred = rng.integers(1, 150, size=8).tolist()
            gt = rng.integers(1, 150, size=6).tolist()
            last = (0.0, 0.0)
            for d in range(0, 160, 5):
                r, p, _ = recall_prec_f1(pred, gt, float(d))
                assert r >= last[0] - 1e-15 and p >= last[1] - 1e-15
                last = (r, p)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        pred = rng.integers(1, 80, size=7).tolist()
        gt = rng.integers(1, 80, size=5).tolist()
        base = recall_prec_f1(pred, gt, 7.0)
        shifted = recall_prec_f1([p + 500 for p in pred], [g + 500 for g in gt], 7.0)
        assert base == shifted


def naive_sweep(dataset, mode, rel, abs_, averaging="micro"):
    """Independent double-loop reimplementation of the sweep (micro/macro)."""
    rows = []
    for kind, thresholds in (("rel", rel), ("abs", abs_)):
        for d in thresholds:
            if averaging == "micro":
                m = tp = tg = 0
                for pred, gt, length in dataset:
                    frames = d * length if kind == "rel" else d
                    m += match_boundaries(pred, gt, frames, mode)
                    tp += len(pred)
                    tg += len(gt)
                if tp == 0:
                    precision = 1.0 if tg == 0 else 0.0
                else:
                    precision = m / tp
                if tg == 0:
                    recall = 1.0 if tp == 0 else 0.0
                else:
                    recall = m / tg
                f1 = 0.0 if recall + precision == 0 else 2 * recall * precision / (recall + precision)
            else:
                per = [recall_prec_f1(pred, gt, d * length if kind == "rel" else d, mode)
                       for pred, gt, length in dataset]
                recall = sum(s[0] for s in per) / len(per)
                precision = sum(s[1] for s in per) / len(per)
                f1 = sum(s[2] for s in per) / len(per)
            rows.append((kind, d, recall, precision, f1))
    return rows


class TestSweep:
    def test_identity_predictions_score_one_everywhere(self):
        report = sweep([([30, 60], [30, 60], 100)])
        assert len(report.rows) == 20
        for row in report.rows:
            assert row.f1 == 1.0
        assert report.avg_f1_rel == 1.0
        assert report.avg_f1_abs == 1.0

    def test_summary_carries_table_column_names(self):
        report = sweep([([10], [12], 50)])
        lines = report.summary_lines()
        assert any(line.startswith("avg. F1-score (rel.):") for line in lines)
        assert any(line.startswith("avg. F1-score (abs.):") for line in lines)

    @pytest.mark.parametrize("averaging", ["micro", "macro"])
    @pytest.mark.parametrize("mode", ["one-to-one", "independent"])
    def test_matches_naive_reimplementation(self, mode, averaging):
        rng = np.random.default_rng(5)
        dataset = []
        for _ in range(20):
            length = int(rng.integers(40, 200))
            pred = sorted(set(rng.integers(1, length, size=rng.integers(0, 9)).tolist()))
            gt = sorted(set(rng.integers(1, length, size=rng.integers(1, 9)).tolist()))
            dataset.append((pred, gt, length))
        report = sweep(dataset, mode=mode, averaging=averaging)
        for row, (kind, d, recall, precision, f1) in zip(
                report.rows, naive_sweep(dataset, mode, REL_THRESHOLDS,
                                         ABS_THRESHOLDS, averaging)):
            assert row.kind == kind and row.d == d
            assert row.recall == recall
            assert row.precision == precision
            assert row.f1 == f1

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            sweep([])

    @pytest.mark.parametrize("averaging", ["micro", "macro"])
    @pytest.mark.parametrize("grid", ["rel_thresholds", "abs_thresholds"])
    def test_nan_threshold_rejected(self, grid, averaging):
        with pytest.raises(InputError):
            sweep([([10], [100], 200)], averaging=averaging, **{grid: (0.1, float("nan"))})

    def test_csv_layout(self, tmp_path):
        report = sweep([([10, 40], [12, 70], 100)])
        path = tmp_path / "report.csv"
        report.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["threshold_kind", "d", "recall", "precision", "f1"]
        assert len(rows) == 1 + 20 + 2
        assert rows[-2][0] == "rel" and rows[-2][1] == "avg"
        assert rows[-1][0] == "abs" and rows[-1][1] == "avg"
