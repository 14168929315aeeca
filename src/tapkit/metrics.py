"""Tolerance-matched boundary detection scores.

A predicted start counts as correct when it lies strictly closer than a
tolerance ``d`` to a ground-truth start; ``d`` is either an absolute frame
count or a fraction of the instance length.  Two matching modes exist:

* ``one-to-one`` (default): predictions and ground truths are paired
  greedily by ascending distance, each side used at most once, which keeps
  recall and precision bounded by 1;
* ``independent``: every prediction whose nearest ground truth is closer
  than ``d`` counts, so a single ground truth can absorb several
  predictions (and recall can exceed 1 when predictions outnumber truths).

Reports sweep the standard grids (relative 0.05..0.50 step 0.05, absolute
5..50 step 5) and carry the per-kind averages.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError

REL_THRESHOLDS: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 11))
ABS_THRESHOLDS: tuple[float, ...] = tuple(float(d) for d in range(5, 55, 5))

MODES = ("one-to-one", "independent")


def match_boundaries(pred: Sequence[float], gt: Sequence[float], d_frames: float,
                     mode: str = "one-to-one") -> int:
    """Number of correct predictions at tolerance ``d_frames``.

    Distances must be strictly smaller than ``d_frames`` to match, so a
    boundary exactly at the tolerance does not count.
    """
    if not d_frames >= 0:  # also rejects NaN, which no distance compares to
        raise InputError(f"d_frames must be >= 0, got {d_frames}")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}, expected one of {MODES}")
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
    used_pred: set[int] = set()
    used_gt: set[int] = set()
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


def _prf(matched: int, num_pred: int, num_gt: int) -> tuple[float, float, float]:
    """Recall/precision/F1 with the empty-side conventions applied."""
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


def recall_prec_f1(pred: Sequence[float], gt: Sequence[float], d_frames: float,
                   mode: str = "one-to-one") -> tuple[float, float, float]:
    """(recall, precision, F1) for one instance at one tolerance."""
    matched = match_boundaries(pred, gt, d_frames, mode)
    return _prf(matched, len(pred), len(gt))


@dataclass(frozen=True)
class ThresholdScore:
    kind: str  # "rel" or "abs"
    d: float
    recall: float
    precision: float
    f1: float


@dataclass(frozen=True)
class MetricReport:
    """Scores per threshold plus the per-kind averages, mode-labelled."""

    mode: str
    averaging: str  # "micro" or "macro"
    rows: tuple[ThresholdScore, ...]

    def rows_for(self, kind: str) -> list[ThresholdScore]:
        return [r for r in self.rows if r.kind == kind]

    def averages(self, kind: str) -> tuple[float, float, float]:
        rows = self.rows_for(kind)
        if not rows:
            raise InputError(f"no rows of kind {kind!r}")
        recall = sum(r.recall for r in rows) / len(rows)
        precision = sum(r.precision for r in rows) / len(rows)
        f1 = sum(r.f1 for r in rows) / len(rows)
        return recall, precision, f1

    @property
    def avg_f1_rel(self) -> float:
        return self.averages("rel")[2]

    @property
    def avg_f1_abs(self) -> float:
        return self.averages("abs")[2]

    def summary_lines(self) -> list[str]:
        lines = []
        if self.rows_for("rel"):
            lines.append(f"avg. F1-score (rel.): {self.avg_f1_rel:.4f}")
        if self.rows_for("abs"):
            lines.append(f"avg. F1-score (abs.): {self.avg_f1_abs:.4f}")
        return lines

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["threshold_kind", "d", "recall", "precision", "f1"])
            for row in self.rows:
                d_text = f"{row.d:.2f}" if row.kind == "rel" else f"{row.d:g}"
                writer.writerow([row.kind, d_text, f"{row.recall:.6f}",
                                 f"{row.precision:.6f}", f"{row.f1:.6f}"])
            for kind in ("rel", "abs"):
                if not self.rows_for(kind):
                    continue
                recall, precision, f1 = self.averages(kind)
                writer.writerow([kind, "avg", f"{recall:.6f}",
                                 f"{precision:.6f}", f"{f1:.6f}"])


def sweep(dataset: Sequence[tuple[Sequence[float], Sequence[float], int]],
          mode: str = "one-to-one", averaging: str = "micro",
          rel_thresholds: Sequence[float] = REL_THRESHOLDS,
          abs_thresholds: Sequence[float] = ABS_THRESHOLDS) -> MetricReport:
    """Score a pool of ``(pred, gt, length)`` triples over both threshold grids.

    Relative thresholds convert to frames as ``d * length`` per instance,
    without rounding.  Micro averaging pools matched/prediction/truth counts
    over all instances before taking ratios; macro averages the
    per-instance scores.
    """
    if not dataset:
        raise InputError("sweep needs at least one instance")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}, expected one of {MODES}")
    if averaging not in ("micro", "macro"):
        raise InputError(f"unknown averaging {averaging!r}")
    rows: list[ThresholdScore] = []
    for kind, thresholds in (("rel", rel_thresholds), ("abs", abs_thresholds)):
        for d in thresholds:
            if averaging == "micro":
                matched = pred_total = gt_total = 0
                for pred, gt, length in dataset:
                    frames = d * length if kind == "rel" else d
                    matched += match_boundaries(pred, gt, frames, mode)
                    pred_total += len(pred)
                    gt_total += len(gt)
                recall, precision, f1 = _prf(matched, pred_total, gt_total)
            else:
                scores = []
                for pred, gt, length in dataset:
                    frames = d * length if kind == "rel" else d
                    scores.append(recall_prec_f1(pred, gt, frames, mode))
                recall = sum(s[0] for s in scores) / len(scores)
                precision = sum(s[1] for s in scores) / len(scores)
                f1 = sum(s[2] for s in scores) / len(scores)
            rows.append(ThresholdScore(kind=kind, d=float(d), recall=recall,
                                       precision=precision, f1=f1))
    return MetricReport(mode=mode, averaging=averaging, rows=tuple(rows))
