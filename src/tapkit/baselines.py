"""Parsing baselines: k-means cluster transitions and a TCN boundary detector.

The k-means baseline clusters frame features and marks a boundary wherever
consecutive frames land in different clusters (the same transition rule the
parser uses on its representatives).  The TCN baseline trains a two-layer
temporal convolution to score each frame's boundary probability with a
weighted BCE, then thresholds and peak-picks at inference.  Both layers run
on plain arrays with a hand-written backward (:meth:`TCNModel._grads`).
Training steps them with :func:`tapkit.linalg.sgd`, one straight-line step
per instance (:func:`_step`); neither training nor inference builds a graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .errors import ConfigError, InputError, NumericError, check_float_count
from .parsing import starts_from_labels


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def kmeans(features, k: int, seed: int, max_iter: int = 100,
           tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray]:
    """Lloyd's algorithm with deterministic farthest-point seeding.

    The first centroid is a seeded random frame; each further seed is the
    frame farthest from the chosen set (ties to the lowest index).  Returns
    ``(labels, centroids)``.  Empty clusters keep their previous centroid.
    """
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise InputError(f"features must be a non-empty 2-D matrix, got {arr.shape}")
    n = arr.shape[0]
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if k > n:
        raise InputError(f"k={k} exceeds the {n} available frames")
    rng = np.random.default_rng(seed)
    centroids = np.empty((k, arr.shape[1]))
    centroids[0] = arr[int(rng.integers(n))]
    min_d2 = ((arr - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        centroids[j] = arr[int(np.argmax(min_d2))]
        min_d2 = np.minimum(min_d2, ((arr - centroids[j]) ** 2).sum(axis=1))
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iter):
        d2 = ((arr[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        shift = 0.0
        for j in range(k):
            members = arr[labels == j]
            if len(members) == 0:
                continue
            new = members.mean(axis=0)
            shift = max(shift, float(np.abs(new - centroids[j]).max()))
            centroids[j] = new
        if shift < tol:
            break
    return labels, centroids


def kmeans_parse(features, k: int, seed: int) -> tuple[int, ...]:
    """Starts at cluster transitions of the per-frame k-means labels."""
    return starts_from_labels(kmeans(features, k, seed)[0])


# ---------------------------------------------------------------------------
# TCN boundary detector
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TCNTrainConfig:
    """Architecture, labeling, and optimizer settings for the TCN baseline.

    ``neighbor_radius`` frames on each side of a ground-truth boundary are
    labeled positive; ``pos_weight=None`` weights positives by the
    negative/positive count ratio of the training set.
    """

    kernel_size: int = 9
    hidden_channels: int = 32
    neighbor_radius: int = 2
    pos_weight: float | None = None
    threshold: float = 0.5
    learning_rate: float = 0.05
    momentum: float = 0.9
    epochs: int = 30
    seed: int = 0

    def validate(self, feature_dim: int = 1) -> None:
        """Check the settings for a model that reads ``feature_dim`` features."""
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd >= 1, got {self.kernel_size}")
        if self.hidden_channels < 1:
            raise ConfigError("hidden_channels must be >= 1")
        # kernel_size taps of a feature_dim x hidden_channels and a
        # hidden_channels x 1 weight, plus the biases: checked before the
        # tap lists are built and before np.sqrt sees the products
        check_float_count("kernel_size x hidden_channels x (feature_dim + 1)",
                          self.kernel_size * self.hidden_channels * (feature_dim + 1)
                          + self.hidden_channels + 1)
        if self.neighbor_radius < 0:
            raise ConfigError("neighbor_radius must be >= 0")
        if self.pos_weight is not None and not (math.isfinite(self.pos_weight)
                                                and self.pos_weight > 0):
            raise ConfigError("pos_weight must be finite and positive when given")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be inside (0, 1), got {self.threshold}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0 <= self.momentum < 1 or self.epochs < 0:
            raise ConfigError("bad optimizer settings")


def _bias_grad(g: np.ndarray) -> np.ndarray:
    """A row bias's gradient: the column sums of ``g``.

    A one-row ``g`` is returned as is, as ``la.add`` does for operands of
    equal shape: a sum would start from +0.0 and turn a -0.0 into +0.0.
    """
    return g if g.shape[0] == 1 else g.sum(axis=0, keepdims=True)


class TCNModel:
    """Two temporal convolution layers producing a per-frame boundary score.

    Same-padding with edge replication keeps the output length equal to the
    input length; the final scalar goes through a sigmoid, so scores are
    strictly inside (0, 1).
    """

    def __init__(self, feature_dim: int, kernel_size: int, hidden_channels: int,
                 seed: int):
        if kernel_size < 1 or kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd >= 1, got {kernel_size}")
        self.feature_dim = feature_dim
        self.kernel_size = kernel_size
        self.hidden_channels = hidden_channels
        rng = np.random.default_rng(seed)
        s1 = 1.0 / np.sqrt(feature_dim * kernel_size)
        s2 = 1.0 / np.sqrt(hidden_channels * kernel_size)
        self.w1 = [la.Node(rng.uniform(-s1, s1, size=(feature_dim, hidden_channels)))
                   for _ in range(kernel_size)]
        self.b1 = la.Node(np.zeros((1, hidden_channels)))
        self.w2 = [la.Node(rng.uniform(-s2, s2, size=(hidden_channels, 1)))
                   for _ in range(kernel_size)]
        self.b2 = la.Node(np.zeros((1, 1)))

    def parameters(self) -> list[la.Node]:
        return [*self.w1, self.b1, *self.w2, self.b2]

    def _values(self, features) -> tuple[np.ndarray, tuple]:
        """Both layers on plain arrays: ``(logits, saved)``, logits ``n x 1``.

        Tap k reads frame ``t + offset_k``, clipped to the sequence (edge
        replication).  The taps are summed in offset order, as the chain of
        ``matmul``/``add``/``gather_rows``/``relu`` nodes that the tests
        keep as an oracle summed them, so the values are bitwise equal to
        it.  ``saved`` holds what :meth:`_grads` reads.
        """
        arr = np.asarray(features, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.feature_dim:
            raise InputError(f"features must be (frames x {self.feature_dim}), "
                             f"got {arr.shape}")
        n = arr.shape[0]
        if n < 1:
            raise InputError("empty feature sequence")
        half = self.kernel_size // 2
        taps = np.clip(np.arange(n) + np.arange(-half, half + 1)[:, None], 0, n - 1)
        inputs = [arr[idx] for idx in taps]
        pre = inputs[0] @ self.w1[0].value
        for x_in, w in zip(inputs[1:], self.w1[1:]):
            pre += x_in @ w.value
        pre += self.b1.value
        mask = pre > 0.0
        hidden = np.maximum(pre, 0.0)  # NaN stays NaN; -0.0 becomes +0.0
        gathered = [hidden[idx] for idx in taps]
        out = gathered[0] @ self.w2[0].value
        for g_in, w in zip(gathered[1:], self.w2[1:]):
            out += g_in @ w.value
        out += self.b2.value
        return out, (inputs, taps, mask, gathered)

    def _grads(self, saved: tuple, g: np.ndarray) -> list[np.ndarray]:
        """The chain's pushes replayed by hand: one gradient per parameter,
        in :meth:`parameters` order, for the logits' gradient ``g``.

        The hidden gradient scatter-adds each tap with one ``np.bincount``
        from +0.0, as ``gather_rows`` did, and sums the taps in offset
        order, as ``backward`` summed them.
        """
        inputs, taps, mask, gathered = saved
        n, h = mask.shape
        flat = (taps[:, :, None] * h + np.arange(h)).reshape(len(taps), -1)
        g_hidden = None
        for idx, w in zip(flat, self.w2):
            part = np.bincount(idx, weights=(g @ w.value.T).ravel(),
                               minlength=n * h).reshape(n, h)
            if g_hidden is None:
                g_hidden = part
            else:
                g_hidden += part
        g_pre = g_hidden * mask
        return [*(x_in.T @ g_pre for x_in in inputs), _bias_grad(g_pre),
                *(g_in.T @ g for g_in in gathered), _bias_grad(g)]

    def predict(self, features) -> np.ndarray:
        """Per-frame boundary probabilities in (0, 1); builds no graph."""
        scores = la._logistic(self._values(features)[0])[:, 0]
        if not np.isfinite(scores).all():
            raise NumericError("TCN produced non-finite scores")
        return scores


def boundary_targets(length: int, starts, radius: int) -> np.ndarray:
    """0/1 frame labels: 1 within ``radius`` frames of any ground-truth start."""
    targets = np.zeros(length)
    for s in starts:
        lo = max(0, int(s) - radius)
        hi = min(length, int(s) + radius + 1)
        targets[lo:hi] = 1.0
    return targets


def tcn_train(dataset, cfg: TCNTrainConfig) -> TCNModel:
    """Fit the detector on ``(features, gt_starts)`` pairs with weighted BCE.

    Steps one instance at a time, unclipped, with :func:`tapkit.linalg.sgd`
    (deterministic for a fixed seed).  Raises when the labeled training set
    contains no positive frames at all, or no negative frames while
    ``pos_weight`` is left to their count ratio (which would be 0).
    """
    if not dataset:
        raise InputError("training dataset is empty")
    feature_dim = np.asarray(dataset[0][0]).shape[1]
    cfg.validate(feature_dim)
    prepared = []
    total_pos = 0.0
    total_neg = 0.0
    for features, starts in dataset:
        arr = np.asarray(features, dtype=np.float64)
        targets = boundary_targets(arr.shape[0], starts, cfg.neighbor_radius)
        total_pos += targets.sum()
        total_neg += (1.0 - targets).sum()
        prepared.append((arr, targets.reshape(-1, 1)))
    if total_pos == 0:
        raise ConfigError("training set labels contain no positive frames")
    if total_neg == 0 and cfg.pos_weight is None:
        raise ConfigError("training set labels contain no negative frames")
    pos_weight = cfg.pos_weight if cfg.pos_weight is not None else total_neg / total_pos
    model = TCNModel(feature_dim, cfg.kernel_size, cfg.hidden_channels, cfg.seed)
    la.sgd(model.parameters(), prepared, lambda inst: _step(model, pos_weight, *inst),
           cfg.epochs, cfg.seed, cfg.learning_rate, cfg.momentum, 1, 0.0)
    return model


def _step(model: TCNModel, pos_weight: float, features, targets):
    """One instance's training step for :func:`tapkit.linalg.sgd`.

    Returns ``(loss, (), grads)``: the weighted BCE of the logits, and a
    function for the parameters' gradients, the loss op's push and then the
    layers', bitwise what ``backward`` leaves on a logits node whose push is
    :meth:`TCNModel._grads`.
    """
    out, saved = model._values(features)
    loss = la.weighted_bce_with_logits(out, targets, pos_weight)
    return loss.item(), (), lambda: model._grads(saved, loss._push(np.ones((1, 1)))[0])


def tcn_parse(features, model: TCNModel, threshold: float = 0.5,
              nms_radius: int = 5) -> tuple[int, ...]:
    """Threshold the per-frame scores, then keep local maxima.

    Candidates are frames (never frame 0) with score strictly above the
    threshold; non-maximum suppression keeps the higher-scoring frame within
    ``nms_radius`` (ties go to the earlier frame).  Radius 0 keeps every
    candidate, the literal threshold rule.
    """
    if not 0.0 < threshold < 1.0:
        raise InputError(f"threshold must be inside (0, 1), got {threshold}")
    if nms_radius < 0:
        raise InputError(f"nms_radius must be >= 0, got {nms_radius}")
    scores = model.predict(features)
    candidates = [t for t in range(1, len(scores)) if scores[t] > threshold]
    if nms_radius > 0:
        kept: list[int] = []
        for t in sorted(candidates, key=lambda t: (-scores[t], t)):
            if all(abs(t - other) > nms_radius for other in kept):
                kept.append(t)
        candidates = sorted(kept)
    return tuple(candidates)
