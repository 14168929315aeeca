import os

# One BLAS thread, set before NumPy loads: the suite's matrices are small, so
# more threads add CPU time without saving wall time.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from tapkit.model import ModelConfig, TransParserModel


def spread_model(cfg: ModelConfig, seed: int,
                 q_scale: float = 4.1, k_scale: float = 1.7,
                 miner_scale: float = 2.5) -> TransParserModel:
    """Model whose attention responses are well spread at initialization.

    Finite-difference gradient checks on the ratio loss need cross-segment
    response distances of order one: near-uniform responses put the loss
    close to its pole, where central differences drown in float64
    cancellation noise.  Scaling the query/key/miner weights after the
    standard init moves the committed test instance into the
    well-conditioned regime without touching any backward rule under test.
    """
    model = TransParserModel.initialize(cfg, seed=seed)
    for unit in model.units:
        unit.miner.value *= miner_scale
        for head in unit.heads:
            head.w_q.value *= q_scale
            head.w_k.value *= k_scale
    return model


def spread_features(seed: int, shape: tuple[int, int], scale: float = 5.4) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=shape) * scale
