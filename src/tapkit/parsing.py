"""Boundary extraction from per-frame pattern responses.

Each frame's representative pattern is the argmax of its response row; a
new sub-action starts wherever two consecutive frames disagree on their
representative.  Frame 0 always opens the first segment and is never
reported as a detected boundary.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def representatives_of(responses) -> np.ndarray:
    """Argmax pattern index per frame; ties go to the lowest index."""
    arr = np.asarray(responses, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError(f"responses must be 2-D, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise InputError(f"responses must be non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError("responses contain non-finite entries")
    return arr.argmax(axis=1)


def smooth_labels(labels: np.ndarray, window: int) -> np.ndarray:
    """Majority-vote filter over a centered window (truncated at the edges).

    On a tie the previous output value is kept (the raw first label for
    frame 0).  ``window`` must be odd; window 1 is the identity.
    """
    if window < 1 or window % 2 == 0:
        raise InputError(f"smoothing window must be odd and >= 1, got {window}")
    labels = np.asarray(labels)
    if window == 1:
        return labels.copy()
    half = window // 2
    n = labels.shape[0]
    out = np.empty_like(labels)
    for t in range(n):
        lo = max(0, t - half)
        hi = min(n, t + half + 1)
        values, counts = np.unique(labels[lo:hi], return_counts=True)
        best = counts.max()
        winners = values[counts == best]
        if winners.size == 1:
            out[t] = winners[0]
        else:
            out[t] = out[t - 1] if t > 0 else labels[0]
    return out


def starts_from_labels(labels) -> tuple[int, ...]:
    """Frames where the label differs from the previous frame's label."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] < 1:
        raise InputError("labels must be a non-empty 1-D sequence")
    changed = np.nonzero(labels[1:] != labels[:-1])[0] + 1
    return tuple(int(t) for t in changed)


def extract_boundaries(responses, smoothing_window: int | None = None) -> tuple[int, ...]:
    """Read predicted sub-action starts off a response matrix.

    Smoothing, when requested, majority-filters the representative sequence
    before transitions are read; it is off by default because the raw rule
    is the reference behavior.
    """
    reps = representatives_of(responses)
    if smoothing_window is not None:
        reps = smooth_labels(reps, smoothing_window)
    return starts_from_labels(reps)
