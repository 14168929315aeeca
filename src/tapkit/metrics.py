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
5..50 step 5) and carry the per-kind averages.  Every count is read off one
matching per instance: the pairs that count at ``d`` are the pairs of an
unbounded matching that lie closer than ``d``.
"""

from __future__ import annotations

import csv
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError

REL_THRESHOLDS: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 11))
ABS_THRESHOLDS: tuple[float, ...] = tuple(float(d) for d in range(5, 55, 5))

MODES = ("one-to-one", "independent")


def _check_tolerances(*tolerances: float) -> None:
    for d in tolerances:
        if not d >= 0:  # also rejects NaN, which no distance compares to
            raise InputError(f"d_frames must be >= 0, got {d}")


def _matched_distances(pred: Sequence[float], gt: Sequence[float],
                       mode: str) -> list[float]:
    """Ascending distances of the pairs that count at an unbounded tolerance.

    One-to-one: the greedy's accepted pairs, in acceptance order.  It visits
    pairs by ascending ``(dist, ip, ig)``, so each decision depends only on
    closer pairs, and at tolerance ``d`` it accepts exactly the pairs listed
    here below ``d``.  Independent: each prediction's nearest-truth distance.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}, expected one of {MODES}")
    pred = sorted(float(p) for p in pred)
    gt = sorted(float(g) for g in gt)
    if not pred or not gt:
        return []
    if mode == "independent":
        return np.sort(np.abs(np.subtract.outer(gt, pred)).min(axis=0)).tolist()
    pairs = sorted((abs(p - g), ip, ig) for ip, p in enumerate(pred) for ig, g in enumerate(gt))
    used_pred, used_gt, accepted = set(), set(), []
    for dist, ip, ig in pairs:
        if ip not in used_pred and ig not in used_gt:
            used_pred.add(ip)
            used_gt.add(ig)
            accepted.append(dist)
    return accepted


def match_boundaries(pred: Sequence[float], gt: Sequence[float], d_frames: float,
                     mode: str = "one-to-one") -> int:
    """Number of correct predictions at tolerance ``d_frames``.

    Distances must be strictly smaller than ``d_frames`` to match, so a
    boundary exactly at the tolerance does not count.
    """
    _check_tolerances(d_frames)
    return bisect_left(_matched_distances(pred, gt, mode), d_frames)


def _prf(matched: int, num_pred: int, num_gt: int) -> tuple[float, float, float]:
    """Recall/precision/F1 with the empty-side conventions applied."""
    precision = matched / num_pred if num_pred else float(num_gt == 0)
    recall = matched / num_gt if num_gt else float(num_pred == 0)
    f1 = 2.0 * recall * precision / (recall + precision) if recall + precision else 0.0
    return recall, precision, f1


def recall_prec_f1(pred: Sequence[float], gt: Sequence[float], d_frames: float,
                   mode: str = "one-to-one") -> tuple[float, float, float]:
    """(recall, precision, F1) for one instance at one tolerance."""
    return _prf(match_boundaries(pred, gt, d_frames, mode), len(pred), len(gt))


@dataclass(frozen=True)
class ThresholdScore:
    kind: str  # "rel" or "abs"
    d: float
    recall: float
    precision: float
    f1: float

    @property
    def d_text(self) -> str:
        """``d`` as printed: ``:.2f`` (rel) or ``:g`` (abs) if that reads back as ``d``."""
        text = f"{self.d:.2f}" if self.kind == "rel" else f"{self.d:g}"
        return text if float(text) == self.d else repr(self.d)


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
        return tuple(sum(col) / len(rows)
                     for col in zip(*((r.recall, r.precision, r.f1) for r in rows)))

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
                writer.writerow([row.kind, row.d_text, f"{row.recall:.6f}",
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
    without rounding.  Each instance is matched once; the count at every
    ``(kind, d)`` is the number of its matched distances below ``d``.  Micro
    averaging pools matched/prediction/truth counts over all instances
    before taking ratios; macro averages the per-instance scores.
    """
    if not dataset:
        raise InputError("sweep needs at least one instance")
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}, expected one of {MODES}")
    if averaging not in ("micro", "macro"):
        raise InputError(f"unknown averaging {averaging!r}")
    _check_tolerances(*rel_thresholds, *abs_thresholds)
    matched = [(_matched_distances(pred, gt, mode), len(pred), len(gt), length)
               for pred, gt, length in dataset]
    rows: list[ThresholdScore] = []
    for kind, thresholds in (("rel", rel_thresholds), ("abs", abs_thresholds)):
        for d in thresholds:
            counts = [(bisect_left(dists, d * length if kind == "rel" else d), num_pred, num_gt)
                      for dists, num_pred, num_gt, length in matched]
            if averaging == "micro":
                recall, precision, f1 = _prf(*map(sum, zip(*counts)))
            else:
                scores = [_prf(*c) for c in counts]
                recall, precision, f1 = (sum(col) / len(scores) for col in zip(*scores))
            rows.append(ThresholdScore(kind=kind, d=float(d), recall=recall,
                                       precision=precision, f1=f1))
    return MetricReport(mode=mode, averaging=averaging, rows=tuple(rows))
