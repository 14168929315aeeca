"""Training losses and the parser's trainer.

Two signals train the parser: a local ratio loss that pulls attention
responses together inside a sub-action and pushes them apart across
sub-actions, and a global classification loss on mean-pooled logits that
keeps the refined features predictive of the action label.  Both are read
off the final unit (for a one-unit model, that unit).  :func:`train` steps
the parser with :func:`tapkit.linalg.sgd`.
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

    sums = la.sgd(model.parameters(), prepared,
                  lambda inst: combined_loss(forward_graph(inst[0], model), *inst[1:], cfg),
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
