"""Training losses and the parser's trainer.

Two signals train the parser: a local ratio loss that pulls attention
responses together inside a sub-action and pushes them apart across
sub-actions, and a global classification loss on mean-pooled logits that
keeps the refined features predictive of the action label.  Both are read
off the final unit (for a one-unit model, that unit).  :func:`train` steps
the parser with :func:`tapkit.linalg.sgd`, one straight-line step per
instance (:func:`_step`) that builds no graph.  :func:`combined_loss` on
:func:`tapkit.model.forward_graph` is the same loss as a graph: the path of
``grad_check`` and the oracle the step is tested against.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .data import check_starts
from .errors import ConfigError, InputError
from .model import TransParserModel, _check_features, _unit_grads, _unit_values
from .model import forward_graph  # noqa: F401  (the graph path, looked up here by name)

EPSILON_DIV = 1e-8
"""Guard added to the local ratio loss's denominator, which is otherwise
undefined when all cross-segment responses coincide."""


@dataclass(frozen=True)
class LossConfig:
    """Loss shape and optimizer settings.

    ``lambda_reg`` is the numerator regularizer of the local ratio loss (it
    keeps the collapsed all-rows-identical solution expensive);
    ``w_local`` weighs that loss against the global classification loss,
    which always enters with weight 1 (``w_local=0`` trains on it alone).
    """

    lambda_reg: float = 1.0
    w_local: float = 1.0
    learning_rate: float = 0.01
    momentum: float = 0.9
    grad_clip: float = 5.0
    epochs: int = 100
    batch_size: int = 1
    seed: int = 0

    def validate(self) -> None:
        # NaN fails every comparison, so each check asks for the valid range
        for name in ("lambda_reg", "w_local", "learning_rate", "grad_clip"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


def local_loss(responses, segmentation, cfg: LossConfig) -> la.Node:
    """Ratio of within-segment to cross-segment mean response distance.

    ``(L_sim + lambda) / (L_dissim + epsilon)`` where both L terms average
    Euclidean distances between attention-response rows over the respective
    pair sets (:func:`tapkit.linalg.segment_distance_ratio`).  With fewer
    than two segments there are no cross pairs; the guarded value
    ``(L_sim + lambda) / epsilon`` is returned and a degenerate-instance
    warning is emitted.
    """
    cfg.validate()
    resp = la.as_node(responses)
    starts = check_starts(segmentation, resp.shape[0], "local loss")
    if not starts:
        warnings.warn("instance has fewer than 2 segments; local loss "
                      "falls back to its epsilon-guarded denominator",
                      stacklevel=2)
    return la.segment_distance_ratio(resp, starts, cfg.lambda_reg, EPSILON_DIV)


def combined_loss(graph, segmentation, label: int,
                  cfg: LossConfig) -> tuple[la.Node, float, float]:
    """Weighted local ratio loss plus the global NLL on a forward graph.

    Returns ``(total, local_value, global_value)``; with ``w_local`` zero the
    local side is skipped and reported as 0.0.
    """
    gl = la.nll_from_logits(graph.logits, label)
    if cfg.w_local == 0:
        return gl, 0.0, gl.item()
    ll = local_loss(graph.responses[-1], segmentation, cfg)
    return la.add(la.scale(ll, cfg.w_local), gl), ll.item(), gl.item()


def _step(model: TransParserModel, cfg: LossConfig, features, starts, label: int):
    """One instance's training step for :func:`tapkit.linalg.sgd`.

    Returns ``(total, (local, global), grads)``.  The values are those of
    :func:`combined_loss` on :func:`forward_graph`, and ``grads()`` returns
    what ``backward`` would leave on ``model.parameters()``, bit for bit:
    each node of that graph has one consumer, so its reverse pass is this
    straight line.  The local term's gradient reaches the last unit only;
    a one-frame instance has none.
    """
    x = _check_features(features, model.config.feature_dim)
    saved = []
    for unit in model.units:
        x, response, unit_saved = _unit_values(x, unit)
        saved.append(unit_saved)
    logits = (x @ model.classifier_w.value).mean(axis=0, keepdims=True)
    gl = la.nll_from_logits(logits, label)
    glob = gl.item()
    if cfg.w_local == 0:
        ll = None
        local, total = 0.0, glob
    else:
        ll = local_loss(response, starts, cfg)  # the last unit's response
        local = ll.item()
        total = local * float(cfg.w_local) + glob

    def grads() -> list[np.ndarray]:
        # the loss ops' pushes, then mean_over_rows' and the classifier
        # matmul's, then each unit's in reverse, as backward would run them
        g_resp = None
        if ll is not None and ll._push is not None:
            (g_resp,) = ll._push(np.array([[float(cfg.w_local)]]))
        (g_logits,) = gl._push(np.ones((1, 1)))
        n = x.shape[0]
        g_out = np.repeat(g_logits, n, axis=0) / n
        out_grads = [x.T @ g_out]
        g_out = g_out @ model.classifier_w.value.T
        for i in reversed(range(len(model.units))):
            unit_grads = _unit_grads(model.units[i], saved[i], g_out, g_resp, i > 0)
            if i > 0:
                g_out = unit_grads.pop(0)
            out_grads[:0] = unit_grads
            g_resp = None  # only the last unit's response has a loss
        return out_grads

    return total, (local, glob), grads


def train(dataset, model: TransParserModel, cfg: LossConfig,
          log_path=None) -> tuple[TransParserModel, list[dict]]:
    """SGD with momentum over ``(features, segmentation, label)`` triples.

    The loop is :func:`tapkit.linalg.sgd` (deterministic for a fixed
    ``cfg.seed``; raises on the first non-finite loss, naming the epoch and
    instance).  History carries per-epoch means of the raw loss components
    and the weighted total.
    """
    cfg.validate()
    if not dataset:
        raise InputError("training dataset is empty")
    prepared = []
    for i, (features, segmentation, label) in enumerate(dataset):
        arr = np.asarray(features, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != model.config.feature_dim:
            raise InputError(
                f"features must be (frames x {model.config.feature_dim}), got {arr.shape}")
        if not 0 <= int(label) < model.config.num_classes:
            raise InputError(f"label {label} out of range")
        starts = check_starts(segmentation, arr.shape[0], f"training instance {i}")
        prepared.append((arr, starts, int(label)))

    sums = la.sgd(model.parameters(), prepared, lambda inst: _step(model, cfg, *inst),
                  cfg.epochs, cfg.seed, cfg.learning_rate, cfg.momentum,
                  cfg.batch_size, cfg.grad_clip)
    count = len(prepared)
    history = [{"epoch": epoch, "local_loss": local / count,
                "global_loss": glob / count, "total": total / count}
               for epoch, (total, local, glob) in enumerate(sums)]
    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            for record in history:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return model, history
