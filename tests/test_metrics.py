import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapkit.errors import InputError
from tapkit.metrics import (ABS_THRESHOLDS, MODES, REL_THRESHOLDS, MetricReport,
                            ThresholdScore, match_boundaries, recall_prec_f1, sweep)


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


def per_tolerance_match(pred, gt, d_frames, mode):
    """The greedy matching re-run at one tolerance, stopping at the first
    pair at or past it: the oracle for reading every tolerance off one run."""
    pred = sorted(float(p) for p in pred)
    gt = sorted(float(g) for g in gt)
    if not pred or not gt:
        return 0
    if mode == "independent":
        arr = np.asarray(gt)
        return int(sum(np.min(np.abs(arr - p)) < d_frames for p in pred))
    pairs = [(abs(p - g), ip, ig)
             for ip, p in enumerate(pred) for ig, g in enumerate(gt)]
    pairs.sort()
    used_pred = set()
    used_gt = set()
    matched = 0
    for dist, ip, ig in pairs:
        if dist >= d_frames:
            break
        if ip in used_pred or ig in used_gt:
            continue
        used_pred.add(ip)
        used_gt.add(ig)
        matched += 1
    return matched


def per_tolerance_prf(matched, num_pred, num_gt):
    if num_pred == 0:
        precision = 1.0 if num_gt == 0 else 0.0
    else:
        precision = matched / num_pred
    if num_gt == 0:
        recall = 1.0 if num_pred == 0 else 0.0
    else:
        recall = matched / num_gt
    if recall + precision == 0.0:
        f1 = 0.0
    else:
        f1 = 2.0 * recall * precision / (recall + precision)
    return recall, precision, f1


def per_tolerance_sweep(dataset, mode, averaging, rel, abs_):
    """The sweep that matches every instance once per tolerance."""
    rows = []
    for kind, thresholds in (("rel", rel), ("abs", abs_)):
        for d in thresholds:
            if averaging == "micro":
                matched = pred_total = gt_total = 0
                for pred, gt, length in dataset:
                    frames = d * length if kind == "rel" else d
                    matched += per_tolerance_match(pred, gt, frames, mode)
                    pred_total += len(pred)
                    gt_total += len(gt)
                recall, precision, f1 = per_tolerance_prf(matched, pred_total, gt_total)
            else:
                scores = []
                for pred, gt, length in dataset:
                    frames = d * length if kind == "rel" else d
                    scores.append(per_tolerance_prf(
                        per_tolerance_match(pred, gt, frames, mode), len(pred), len(gt)))
                recall = sum(s[0] for s in scores) / len(scores)
                precision = sum(s[1] for s in scores) / len(scores)
                f1 = sum(s[2] for s in scores) / len(scores)
            rows.append(ThresholdScore(kind=kind, d=float(d), recall=recall,
                                       precision=precision, f1=f1))
    return rows


ORACLE = settings(max_examples=300, deadline=None, derandomize=True, database=None)
# a narrow range with repeats makes equal distances and tied pairs common
POSITIONS = st.lists(st.integers(0, 40).map(lambda v: v / 2), max_size=7)
INSTANCES = st.lists(st.tuples(POSITIONS, POSITIONS, st.integers(1, 120)),
                     min_size=1, max_size=5)
REL_GRID = st.lists(st.one_of(st.sampled_from([0.0, 0.01, 0.125, 0.3, 1.0, math.inf]),
                              st.floats(0.0, 1.5)), max_size=6)
ABS_TOLERANCES = st.one_of(st.sampled_from([0.0, 0.5, 5.0, 7.5, math.inf]),
                           st.integers(0, 40).map(lambda v: v / 2), st.floats(0.0, 25.0))
ABS_GRID = st.lists(ABS_TOLERANCES, max_size=6)


class TestOneMatchingPerInstance:
    """Every tolerance read off one matching equals a matching per tolerance."""

    @ORACLE
    @given(pred=POSITIONS, gt=POSITIONS, d=ABS_TOLERANCES, mode=st.sampled_from(MODES))
    def test_match_boundaries_equals_per_tolerance_greedy(self, pred, gt, d, mode):
        assert match_boundaries(pred, gt, d, mode) == per_tolerance_match(pred, gt, d, mode)

    @ORACLE
    @given(dataset=INSTANCES, rel=REL_GRID, abs_=ABS_GRID, mode=st.sampled_from(MODES),
           averaging=st.sampled_from(["micro", "macro"]))
    def test_sweep_equals_per_tolerance_sweep(self, dataset, rel, abs_, mode, averaging):
        report = sweep(dataset, mode=mode, averaging=averaging,
                       rel_thresholds=rel, abs_thresholds=abs_)
        assert list(report.rows) == per_tolerance_sweep(dataset, mode, averaging, rel, abs_)

    @pytest.mark.parametrize("mode", MODES)
    def test_boundary_at_a_tied_distance(self, mode):
        # 10 and 14 both sit 2 from 12; the count at d=2 is strict, at just above it is not
        for d, want in ((2.0, 0), (math.nextafter(2.0, 3.0), 1), (math.inf, 1)):
            assert match_boundaries([12], [10, 14], d, mode) == want

    @pytest.mark.parametrize("grid", ["rel_thresholds", "abs_thresholds"])
    def test_negative_threshold_rejected(self, grid):
        with pytest.raises(InputError, match="d_frames must be >= 0, got -0.5"):
            sweep([([10], [100], 200)], **{grid: (0.1, -0.5)})


class TestToleranceLabels:
    def test_default_grids_keep_their_labels(self):
        for d in REL_THRESHOLDS:
            assert ThresholdScore("rel", d, 0.0, 0.0, 0.0).d_text == f"{d:.2f}"
        for d in ABS_THRESHOLDS:
            assert ThresholdScore("abs", d, 0.0, 0.0, 0.0).d_text == f"{d:g}"
        assert ThresholdScore("abs", 5.0, 0.0, 0.0, 0.0).d_text == "5"

    @pytest.mark.parametrize("kind, d, text", [
        ("rel", 0.125, "0.125"), ("rel", 0.12, "0.12"), ("rel", 0.1, "0.10"),
        ("rel", math.inf, "inf"), ("abs", 5.0000001, "5.0000001"), ("abs", 2.5, "2.5"),
        ("abs", 1234567.0, "1234567.0"), ("abs", math.inf, "inf")])
    def test_label_reads_back_as_the_tolerance(self, kind, d, text):
        label = ThresholdScore(kind, d, 0.0, 0.0, 0.0).d_text
        assert label == text
        assert float(label) == d

    def test_csv_rows_keep_distinct_tolerances_apart(self, tmp_path):
        report = sweep([([10, 40], [12, 70], 100)], rel_thresholds=(0.125, 0.12),
                       abs_thresholds=(5.0000001, 5.0))
        path = tmp_path / "report.csv"
        report.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [row[:2] for row in rows[1:5]] == [
            ["rel", "0.125"], ["rel", "0.12"], ["abs", "5.0000001"], ["abs", "5"]]
