"""Training losses and the SGD loop.

Two signals train the parser: a local ratio loss that pulls attention
responses together inside a sub-action and pushes them apart across
sub-actions, and a global classification loss on mean-pooled logits that
keeps the refined features predictive of the action label.  Both are read
off the final unit (for a one-unit model, that unit).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg as la
from .data import check_starts
from .errors import ConfigError, InputError, NumericError
from .model import TransParserModel, forward_graph

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


def train(dataset, model: TransParserModel, cfg: LossConfig,
          log_path=None) -> tuple[TransParserModel, list[dict]]:
    """SGD with momentum over ``(features, segmentation, label)`` triples.

    Instance order is reshuffled each epoch from ``cfg.seed``; gradients
    within a batch are averaged in instance order, so the whole run is
    deterministic for a fixed seed.  History carries per-epoch means of the
    raw loss components and the weighted total.  Raises on the first
    non-finite loss, naming the epoch and instance.
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

    params = model.parameters()
    velocity = [np.zeros_like(p.value) for p in params]
    accum = [np.zeros_like(p.value) for p in params]
    rng = np.random.default_rng(cfg.seed)
    history: list[dict] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(prepared))
        local_sum = 0.0
        global_sum = 0.0
        total_sum = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            for buf in accum:
                buf.fill(0.0)
            for idx in batch:
                arr, starts, label = prepared[idx]
                graph = forward_graph(arr, model)
                total, lval, gval = combined_loss(graph, starts, label, cfg)
                tval = total.item()
                if not np.isfinite(tval):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch}, instance {idx}")
                local_sum += lval
                global_sum += gval
                total_sum += tval
                la.backward(total)
                for buf, p in zip(accum, params):
                    buf += p.grad
            inv = 1.0 / len(batch)
            if cfg.grad_clip > 0:
                # global-norm clip keeps the ratio loss's near-pole gradients
                # from blowing up the first few updates
                norm_sq = sum(float((buf * buf).sum()) for buf in accum) * inv * inv
                norm = np.sqrt(norm_sq)
                if norm > cfg.grad_clip:
                    inv *= cfg.grad_clip / norm
            for p, v, buf in zip(params, velocity, accum):
                v *= cfg.momentum
                v += buf * inv
                p.value -= cfg.learning_rate * v
        count = len(prepared)
        history.append({
            "epoch": epoch,
            "local_loss": local_sum / count,
            "global_loss": global_sum / count,
            "total": total_sum / count,
        })
    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            for record in history:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return model, history
