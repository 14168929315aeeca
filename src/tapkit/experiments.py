"""Segment-sampling classification study and the ablation grid runner.

The sampling study probes how much segment-aligned pooling helps a linear
classifier over uniform pooling: each instance is cut into a fixed number
of segments (evenly, by ground-truth boundaries, or by parser predictions),
each segment is mean-pooled, the pooled vectors are concatenated, and a
softmax linear probe is trained on the train split and scored on the test
split.  The ablation runner trains one parser per grid cell (unit count x
local loss on/off) under identical seeds and reports boundary metrics
averaged over the absolute tolerance grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .data import AnnotationRecord
from .errors import InputError
from .losses import LossConfig, train
from .metrics import MetricReport, sweep
from .model import ModelConfig, TransParserModel, forward
from .parsing import extract_boundaries

SCHEMES = ("uniform", "aligned", "predicted")


# ---------------------------------------------------------------------------
# segment pooling
# ---------------------------------------------------------------------------

def segment_spans(length: int, starts: Sequence[int], num_segments: int
                  ) -> list[tuple[int, int]]:
    """Adjust a boundary-defined segmentation to exactly ``num_segments`` spans.

    Too many segments: repeatedly merge the adjacent pair with the smallest
    combined length (ties to the leftmost pair).  Too few: repeatedly halve
    the longest segment (ties to the leftmost).  Never raises; degenerate
    zero-length spans are possible when ``num_segments`` exceeds the frame
    count and pool to zero vectors.
    """
    if num_segments < 1:
        raise InputError(f"num_segments must be >= 1, got {num_segments}")
    edges = [0, *starts, length]
    spans = [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]
    while len(spans) > num_segments:
        combined = [spans[i + 1][1] - spans[i][0] for i in range(len(spans) - 1)]
        i = int(np.argmin(combined))
        spans[i:i + 2] = [(spans[i][0], spans[i + 1][1])]
    while len(spans) < num_segments:
        sizes = [hi - lo for lo, hi in spans]
        i = int(np.argmax(sizes))
        lo, hi = spans[i]
        mid = lo + (hi - lo) // 2
        spans[i:i + 1] = [(lo, mid), (mid, hi)]
    return spans


def uniform_spans(length: int, num_segments: int) -> list[tuple[int, int]]:
    edges = [length * i // num_segments for i in range(num_segments + 1)]
    edges[-1] = length
    return [(edges[i], edges[i + 1]) for i in range(num_segments)]


def pool_segments(features: np.ndarray, spans: Sequence[tuple[int, int]]) -> np.ndarray:
    """Mean-pool each span and concatenate; empty spans pool to zeros."""
    chunks = []
    for lo, hi in spans:
        if hi > lo:
            chunks.append(features[lo:hi].mean(axis=0))
        else:
            chunks.append(np.zeros(features.shape[1]))
    return np.concatenate(chunks)


# ---------------------------------------------------------------------------
# linear probe
# ---------------------------------------------------------------------------

def _softmax_probe_fit(x: np.ndarray, y: np.ndarray, num_classes: int,
                       steps: int = 400, lr: float = 0.5) -> tuple[np.ndarray, ...]:
    """Full-batch GD on multinomial logistic regression from a zero init.

    The objective is convex and the start is fixed, so the fit is
    deterministic without any RNG.
    """
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std[std < 1e-12] = 1.0
    xs = (x - mean) / std
    n, dim = xs.shape
    w = np.zeros((dim, num_classes))
    b = np.zeros(num_classes)
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    for _ in range(steps):
        logits = xs @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        delta = (probs - onehot) / n
        w -= lr * (xs.T @ delta)
        b -= lr * delta.sum(axis=0)
    return w, b, mean, std


def _probe_predict(x, w, b, mean, std):
    return (((x - mean) / std) @ w + b).argmax(axis=1)


@dataclass(frozen=True)
class SamplingReport:
    scheme: str
    num_segments: int
    top1_accuracy: float
    avg_class_accuracy: float


def sampling_classifier(records: Sequence[AnnotationRecord],
                        features_by_id: Mapping[str, np.ndarray],
                        scheme: str, num_segments: int,
                        predictions: Mapping[str, Sequence[int]] | None = None
                        ) -> SamplingReport:
    """Linear-probe accuracy of one segment-sampling scheme.

    ``scheme`` is ``uniform``, ``aligned`` (ground-truth boundaries), or
    ``predicted`` (requires ``predictions``: instance id -> starts).  The
    probe trains on the train split and reports top-1 and per-class-average
    accuracy on the test split.  The probe is deterministic.
    """
    if num_segments < 1:
        raise InputError(f"num_segments must be >= 1, got {num_segments}")
    if scheme not in SCHEMES:
        raise InputError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    if scheme == "predicted" and predictions is None:
        raise InputError("scheme 'predicted' needs a predictions mapping")
    labels = sorted({r.label for r in records})
    label_index = {lab: i for i, lab in enumerate(labels)}
    rows: dict[str, list[np.ndarray]] = {"train": [], "test": []}
    targets: dict[str, list[int]] = {"train": [], "test": []}
    for record in records:
        if record.split not in rows:
            continue
        feats = features_by_id[record.instance_id]
        if scheme == "uniform":
            spans = uniform_spans(record.length, num_segments)
        elif scheme == "aligned":
            spans = segment_spans(record.length, record.boundaries, num_segments)
        else:
            if record.instance_id not in predictions:
                raise InputError(f"no prediction for instance {record.instance_id!r}")
            spans = segment_spans(record.length, predictions[record.instance_id],
                                  num_segments)
        rows[record.split].append(pool_segments(feats, spans))
        targets[record.split].append(label_index[record.label])
    if not rows["train"] or not rows["test"]:
        raise InputError("need instances in both the train and test splits")
    x_train = np.vstack(rows["train"])
    y_train = np.asarray(targets["train"])
    x_test = np.vstack(rows["test"])
    y_test = np.asarray(targets["test"])
    w, b, mean, std = _softmax_probe_fit(x_train, y_train, len(labels))
    predicted = _probe_predict(x_test, w, b, mean, std)
    top1 = float((predicted == y_test).mean())
    per_class = {}
    for lab, idx in label_index.items():
        mask = y_test == idx
        if mask.any():
            per_class[lab] = float((predicted[mask] == idx).mean())
    avg = float(np.mean(list(per_class.values())))
    return SamplingReport(scheme=scheme, num_segments=num_segments,
                          top1_accuracy=top1, avg_class_accuracy=avg)


# ---------------------------------------------------------------------------
# ablation grid
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AblationRow:
    num_units: int
    local_loss: bool
    avg_f1: float
    avg_recall: float
    avg_precision: float

    @property
    def setting(self) -> str:
        return f"x{self.num_units}" + ("+local" if self.local_loss else "")


DEFAULT_GRID: tuple[tuple[int, bool], ...] = ((1, False), (1, True), (2, True))


def run_ablation(train_data, eval_data, model_config: ModelConfig,
                 loss_config: LossConfig, grid: Sequence[tuple[int, bool]] = DEFAULT_GRID
                 ) -> list[AblationRow]:
    """Train one parser per (num_units, local on/off) cell and score it.

    Every cell uses the same data and optimizer settings, and
    ``loss_config.seed`` seeds both its model init and its shuffle;
    reported numbers are recall/precision/F1 averaged over the absolute
    tolerance grid on ``eval_data``.  ``train_data`` holds
    ``(features, starts, label)`` triples, ``eval_data`` ``(features,
    gt_starts, length)`` triples.
    """
    if not grid:
        raise InputError("ablation grid is empty")
    rows = []
    for num_units, use_local in grid:
        cell_model_cfg = replace(model_config, num_units=int(num_units))
        cell_loss_cfg = replace(loss_config,
                                w_local=loss_config.w_local if use_local else 0.0)
        model = TransParserModel.initialize(cell_model_cfg, seed=loss_config.seed)
        train(train_data, model, cell_loss_cfg)
        triples = [(extract_boundaries(forward(features, model).response),
                    tuple(gt_starts), length)
                   for features, gt_starts, length in eval_data]
        report: MetricReport = sweep(triples)
        recall, precision, f1 = report.averages("abs")
        rows.append(AblationRow(num_units=int(num_units), local_loss=bool(use_local),
                                avg_f1=f1, avg_recall=recall, avg_precision=precision))
    return rows
