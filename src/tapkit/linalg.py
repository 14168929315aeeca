"""Dense float64 matrices with reverse-mode gradient support.

Both losses are built from the operations in this module.  An attention
unit (:mod:`tapkit.model`) and the TCN baseline (:mod:`tapkit.baselines`)
are each one :class:`Node` with a hand-written backward; the TCN's
probabilities go through :func:`_logistic`.  Values are plain 2-D numpy
arrays wrapped in graph :class:`Node` objects; each operation records how to
push an upstream gradient back to its operands, and :func:`backward` replays
those rules from a scalar output.  :func:`sgd` trains both models.  Analytic
gradients are verified against central finite differences with
:func:`grad_check`.

Conventions
-----------
* everything is 2-D: scalars are ``1x1``, row vectors ``1xd``;
* float64 throughout (storage formats may narrow, computation never does);
* broadcasting is limited to adding a ``1xd`` row bias to an ``nxd`` matrix.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable

import numpy as np

from .errors import DimensionError, InputError, NumericError

_node_ids = itertools.count()


class Node:
    """A matrix value plus the bookkeeping for reverse-mode differentiation.

    ``value`` is a 2-D float64 array.  ``grad`` starts as ``None``;
    :func:`backward` sets it to an array of ``value``'s shape on every node it
    reaches.  ``parents`` are the operand nodes; ``_push`` maps an upstream
    gradient to one contribution per parent.
    """

    __slots__ = ("value", "grad", "parents", "_push", "id")

    def __init__(self, value, parents=(), push=None):
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise DimensionError(f"nodes hold 2-D values, got shape {arr.shape}")
        if not arr.flags["C_CONTIGUOUS"]:
            arr = np.ascontiguousarray(arr)
        self.value = arr
        self.grad = None
        self.parents = tuple(parents)
        self._push = push
        self.id = next(_node_ids)

    @property
    def shape(self) -> tuple[int, int]:
        return self.value.shape

    def item(self) -> float:
        if self.value.shape != (1, 1):
            raise DimensionError(f"item() needs a 1x1 node, got {self.value.shape}")
        return float(self.value[0, 0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node(shape={self.value.shape}, id={self.id})"


def as_node(x) -> Node:
    """Wrap ``x`` in a leaf Node; scalars become 1x1, 1-D arrays row vectors."""
    return x if isinstance(x, Node) else Node(x)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def matmul(a, b) -> Node:
    """Matrix product ``a @ b``; differentiable in each Node operand.

    An operand that is not a Node is a constant: it is not a parent and
    gets no gradient matmul.
    """
    a_grad, b_grad = isinstance(a, Node), isinstance(b, Node)
    a, b = as_node(a), as_node(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: cannot multiply {a.shape} by {b.shape}")
    av, bv = a.value, b.value
    parents = tuple(n for n, wanted in ((a, a_grad), (b, b_grad)) if wanted)

    def push(g):
        return ((g @ bv.T,) if a_grad else ()) + ((av.T @ g,) if b_grad else ())

    return Node(av @ bv, parents, push if parents else None)


def add(a, b) -> Node:
    """Elementwise sum; also accepts a 1xd row bias against an nxd matrix."""
    a, b = as_node(a), as_node(b)
    sa, sb = a.shape, b.shape
    if sa == sb:
        def push(g):
            return (g, g)
    elif sb == (1, sa[1]):
        def push(g):
            return (g, g.sum(axis=0, keepdims=True))
    elif sa == (1, sb[1]):
        def push(g):
            return (g.sum(axis=0, keepdims=True), g)
    else:
        raise DimensionError(f"add: incompatible shapes {sa} and {sb}")
    return Node(a.value + b.value, (a, b), push)


def sub(a, b) -> Node:
    a, b = as_node(a), as_node(b)
    if a.shape != b.shape:
        raise DimensionError(f"sub: incompatible shapes {a.shape} and {b.shape}")

    def push(g):
        return (g, -g)

    return Node(a.value - b.value, (a, b), push)


def mul(a, b) -> Node:
    """Elementwise (Hadamard) product of same-shape operands."""
    a, b = as_node(a), as_node(b)
    if a.shape != b.shape:
        raise DimensionError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    av, bv = a.value, b.value

    def push(g):
        return (g * bv, g * av)

    return Node(av * bv, (a, b), push)


def div(a, b) -> Node:
    """Elementwise quotient of same-shape operands."""
    a, b = as_node(a), as_node(b)
    if a.shape != b.shape:
        raise DimensionError(f"div: incompatible shapes {a.shape} and {b.shape}")
    av, bv = a.value, b.value

    def push(g):
        return (g / bv, -g * av / (bv * bv))

    return Node(av / bv, (a, b), push)


def scale(a, c: float) -> Node:
    """Multiply by a python scalar constant (not differentiated in ``c``)."""
    a = as_node(a)
    c = float(c)

    def push(g):
        return (g * c,)

    return Node(a.value * c, (a,), push)


def transpose(a) -> Node:
    a = as_node(a)

    def push(g):
        return (g.T,)

    return Node(a.value.T, (a,), push)


def relu(a) -> Node:
    a = as_node(a)
    mask = a.value > 0.0

    def push(g):
        return (g * mask,)

    return Node(np.where(mask, a.value, 0.0), (a,), push)


def _logistic(v: np.ndarray) -> np.ndarray:
    """Elementwise ``1 / (1 + exp(-v))``, split by sign so exp never overflows."""
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def sigmoid(a) -> Node:
    """Numerically stable logistic function, elementwise."""
    a = as_node(a)
    out = _logistic(a.value)

    def push(g):
        return (g * out * (1.0 - out),)

    return Node(out, (a,), push)


def softmax_rows(a) -> Node:
    """Row-wise softmax, stabilized by subtracting each row's maximum.

    Every output row is nonnegative and sums to 1; adding a constant to a
    row of the input leaves that row's output unchanged.
    """
    a = as_node(a)
    v = a.value
    shifted = v - v.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)

    def push(g):
        inner = (g * s).sum(axis=1, keepdims=True)
        return (s * (g - inner),)

    return Node(s, (a,), push)


def hconcat(a, b) -> Node:
    """Concatenate two matrices with equal row counts along columns."""
    a, b = as_node(a), as_node(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionError(f"hconcat: row counts differ, {a.shape} vs {b.shape}")
    ca = a.shape[1]

    def push(g):
        return (g[:, :ca], g[:, ca:])

    return Node(np.concatenate([a.value, b.value], axis=1), (a, b), push)


def gather_rows(a, indices) -> Node:
    """Select rows ``a[indices]``; backward scatter-adds into the source.

    The push adds with one flat ``np.bincount``, in index order starting from
    zero, so it is bitwise equal to ``np.add.at`` (``np.add.reduceat`` is not).
    """
    a = as_node(a)
    n, d = a.shape
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError(f"gather_rows: indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InputError(f"gather_rows: index out of range for {n} rows")

    def push(g):
        flat = (idx[:, None] * d + np.arange(d)).ravel()
        return (np.bincount(flat, weights=g.ravel(), minlength=n * d).reshape(n, d),)

    return Node(a.value[idx], (a,), push)


# Float64 elements in one row tile of a segment block: 256 KiB, so a tile's
# pair differences stay in L2 cache.  A block row wider than this is a tile.
_TILE_ELEMS = 32768


def _fold_column_sum(part, out, carry: bool) -> None:
    """``out = part.sum(axis=0)``, with ``out``'s running total first if ``carry``.

    The total goes in as part of the first row, so the sum adds the rows in
    the same order as one sum over every tile would; that row is restored.
    """
    if not carry:
        part.sum(axis=0, out=out)
        return
    first = part[0].copy()
    part[0] += out
    part.sum(axis=0, out=out)
    part[0] = first


def segment_distance_ratio(a, starts, lam: float, eps: float) -> Node:
    """``(mean within-segment distance + lam) / (mean cross-segment distance + eps)``.

    ``starts`` splits the rows of ``a`` into consecutive segments; the means
    run over the row distances of the pairs p < q inside one segment
    (within) or across two (cross).  An empty pair set counts as 0, a zero
    distance gets the zero subgradient, and a one-row input is a constant.

    Segment k's block is rows [0, e) against its columns [s, e): no pair
    index arrays.  Forward and backward walk each block in row tiles of at
    most ``_TILE_ELEMS`` pair-difference elements, written into one scratch
    buffer.  Between them the node keeps only the n x n distance matrix;
    the backward recomputes each tile's differences.

    Value and gradient are bitwise equal to a gather/scatter chain over
    row-major pair lists.  The means read the distances back in that
    order.  Each gradient row adds its pair terms one by one from +0.0:
    NumPy sums a block axis in order only when the rest of the tile is at
    least two wide (hence the zero column for one-column input).  A sum
    that spans tiles or blocks takes its running total in as its first
    term: a row sum across blocks in the first column, a column sum across
    tiles in the first row, which is restored before the row sums read it.
    The cross row sums hold no -0.0, so adding them settles every zero's
    sign.  The parts add as within rows, within columns, cross rows, cross
    columns.
    """
    a = as_node(a)
    v = a.value
    n, d = v.shape
    bounds = [0, *(int(s) for s in starts), n]
    if any(lo >= hi for lo, hi in zip(bounds, bounds[1:])):
        raise InputError(f"segment_distance_ratio: starts {list(starts)} "
                         f"are not increasing inside (0, {n})")
    if n == 1:
        return Node([[(0.0 + lam) / (0.0 + eps)]])
    if d == 1:
        v = np.hstack([v, np.zeros_like(v)])
    w = v.shape[1]
    segments = list(zip(bounds, bounds[1:]))
    scratch_size = max(_TILE_ELEMS, max(e - s for s, e in segments) * w)

    def tiles(scratch, s, e):
        # block k: rows [0, e) against the columns [s, e) of segment k; its
        # rows before s are cross pairs, the rest the segment's own square
        m = e - s
        rows = max(1, _TILE_ELEMS // (m * w))
        for i0 in range(0, e, rows):
            i1 = min(i0 + rows, e)
            diff = scratch[:(i1 - i0) * m * w].reshape(i1 - i0, m, w)
            np.subtract(v[i0:i1, None, :], v[None, s:e, :], out=diff)
            yield i0, i1, diff

    dist = np.zeros((n, n))
    scratch = np.empty(scratch_size)
    for s, e in segments:
        for i0, i1, diff in tiles(scratch, s, e):
            np.multiply(diff, diff, out=diff)
            r = dist[i0:i1, s:e]
            diff.sum(axis=2, out=r)
            np.sqrt(r, out=r)
    seg_of = np.repeat(np.arange(len(segments)), np.diff(bounds))
    r_within = dist[np.triu(seg_of[:, None] == seg_of, k=1)]
    r_cross = dist[seg_of[:, None] < seg_of]
    n_within, n_cross = r_within.size, r_cross.size
    sim = r_within.mean() if n_within else 0.0
    dissim = r_cross.mean() if n_cross else 0.0
    num = sim + lam
    den = dissim + eps
    # the push divides by these: x / inf is a zero, whose sign never
    # reaches the gradient
    dist[~(dist > 0.0)] = np.inf

    def push(g):
        g = g[0, 0]
        # per-pair weights; max(., 1) only guards an empty, unused pair set
        c_within = g / den / max(n_within, 1)
        c_cross = -g * num / (den * den) / max(n_cross, 1)
        # pair (p, q) adds step(p, q) to row p and -step(p, q) to row q, and
        # step(q, p) == -step(p, q): every scatter is a column sum, negated
        # where the pairs run the other way
        within_i, within_j, cross_i, cross_j = (np.zeros_like(v) for _ in range(4))
        scratch = np.empty(scratch_size)
        for s, e in segments:
            k = np.arange(e - s)
            for i0, i1, steps in tiles(scratch, s, e):
                np.divide(steps, dist[i0:i1, s:e, None], out=steps)
                c = max(0, min(s, i1) - i0)  # the tile's cross rows
                cross, within = steps[:c], steps[c:]
                cross *= c_cross
                within *= c_within
                if c:
                    _fold_column_sum(cross, cross_j[s:e], i0 > 0)
                    # a row sum that spans blocks takes its running total in first
                    cross[:, 0] += cross_i[i0:i0 + c]
                    cross.sum(axis=1, out=cross_i[i0:i0 + c])
                if c < i1 - i0:
                    lo, hi = i0 + c - s, i1 - s
                    np.multiply(within, (k[lo:hi, None] < k)[:, :, None], out=within)
                    within.sum(axis=1, out=within_i[s + lo:s + hi])
                    _fold_column_sum(within, within_j[s:e], lo > 0)
            np.negative(cross_j[s:e], out=cross_j[s:e])
            np.negative(within_j[s:e], out=within_j[s:e])
        grad = within_i + within_j
        grad += cross_i
        grad += cross_j
        return (grad[:, :d],)

    return Node([[num / den]], (a,), push)


def row_norms(a) -> Node:
    """Euclidean norm of each row, as an nx1 column.

    The norm is not differentiable at an all-zero row; the backward rule
    uses the zero subgradient there so training on collapsed rows stays
    finite.
    """
    a = as_node(a)
    v = a.value
    r = np.sqrt((v * v).sum(axis=1, keepdims=True))

    def push(g):
        direction = np.divide(v, r, out=np.zeros_like(v), where=r > 0.0)
        return (g * direction,)

    return Node(r, (a,), push)


def mean_all(a) -> Node:
    a = as_node(a)
    size = a.value.size

    def push(g):
        return (np.full_like(a.value, g[0, 0] / size),)

    return Node([[a.value.mean()]], (a,), push)


def mean_over_rows(a) -> Node:
    """Average the rows of an nxd matrix into a 1xd row."""
    a = as_node(a)
    n = a.shape[0]

    def push(g):
        return (np.repeat(g, n, axis=0) / n,)

    return Node(a.value.mean(axis=0, keepdims=True), (a,), push)


def nll_from_logits(logits, label: int) -> Node:
    """Negative log-likelihood of ``label`` under softmax(logits).

    ``logits`` is a 1xC row; computed in log-space so large magnitudes do
    not overflow.
    """
    lg = as_node(logits)
    if lg.shape[0] != 1:
        raise DimensionError(f"nll_from_logits: logits must be 1xC, got {lg.shape}")
    num_classes = lg.shape[1]
    if not 0 <= int(label) < num_classes:
        raise InputError(f"label {label} out of range for {num_classes} classes")
    label = int(label)
    v = lg.value
    m = v.max()
    lse = m + np.log(np.exp(v - m).sum())
    probs = np.exp(v - lse)
    onehot = np.zeros_like(v)
    onehot[0, label] = 1.0

    def push(g):
        return ((probs - onehot) * g[0, 0],)

    return Node([[lse - v[0, label]]], (lg,), push)


def weighted_bce_with_logits(logits, targets, pos_weight: float = 1.0) -> Node:
    """Mean binary cross-entropy on logits with a positive-class weight.

    ``targets`` is a constant 0/1 array of the same shape.  With
    ``pos_weight=1`` this is ordinary BCE.  Computed via softplus so large
    logits stay finite.
    """
    z = as_node(logits)
    y = np.asarray(targets, dtype=np.float64).reshape(z.shape)
    w = float(pos_weight)
    if w <= 0.0:
        raise InputError(f"pos_weight must be positive, got {w}")
    zv = z.value
    per = w * y * np.logaddexp(0.0, -zv) + (1.0 - y) * np.logaddexp(0.0, zv)
    size = zv.size
    sig = _logistic(zv)

    def push(g):
        return (g[0, 0] * (w * y * (sig - 1.0) + (1.0 - y) * sig) / size,)

    return Node([[per.mean()]], (z,), push)


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------

def backward(root: Node) -> None:
    """Set ``grad`` on every node reachable from the scalar ``root``.

    One walk pops the reachable nodes from a max-heap on id, so they are
    visited in descending id order.  A parent is pushed when its first
    gradient contribution arrives; since every consumer has a higher id than
    its operands, a node holds all of its contributions when it is popped.
    The contributions into a node are summed in ascending id of the consumer
    that produced them (a stable sort keeps a consumer's own contributions in
    push order), which fixes the floating-point summation order.
    """
    if root.value.shape != (1, 1):
        raise InputError(f"backward starts from a scalar node, got shape {root.value.shape}")
    contribs: dict[int, list[tuple[int, np.ndarray]]] = {root.id: [(-1, np.ones((1, 1)))]}
    heap = [(-root.id, root)]
    while heap:
        _, node = heapq.heappop(heap)
        entries = contribs.pop(node.id)
        entries.sort(key=lambda item: item[0])
        grad = entries[0][1].copy()
        for _, extra in entries[1:]:
            grad += extra
        node.grad = grad
        if node._push is None:
            continue
        for parent, contribution in zip(node.parents, node._push(grad)):
            pending = contribs.get(parent.id)
            if pending is None:
                contribs[parent.id] = [(node.id, contribution)]
                heapq.heappush(heap, (-parent.id, parent))
            else:
                pending.append((node.id, contribution))


def sgd(params: list[Node], instances, loss_of, epochs: int, seed: int,
        learning_rate: float, momentum: float, batch_size: int,
        grad_clip: float) -> list[list[float]]:
    """SGD with momentum: the one update rule of both trainers.

    ``loss_of(instance)`` returns the scalar loss node and any floats to sum
    with it; each epoch's sums are returned.  The order is reshuffled each
    epoch from ``seed``, a batch's gradients are summed in instance order and
    averaged, and ``grad_clip > 0`` caps the batch's global norm.  Raises on
    the first non-finite loss, naming the epoch and instance.
    """
    velocity = [np.zeros_like(p.value) for p in params]
    accum = [np.zeros_like(p.value) for p in params]
    rng = np.random.default_rng(seed)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(instances))
        sums = None
        for lo in range(0, len(order), batch_size):
            batch = order[lo:lo + batch_size]
            for k, idx in enumerate(batch):
                loss, *parts = loss_of(instances[idx])
                value = loss.item()
                if not np.isfinite(value):
                    raise NumericError(f"non-finite loss at epoch {epoch}, instance {idx}")
                sums = [s + t for s, t in zip(sums or itertools.repeat(0.0), (value, *parts))]
                backward(loss)
                for buf, p in zip(accum, params):
                    np.add(buf if k else 0.0, p.grad, out=buf)  # a batch starts at +0.0
            inv = 1.0 / len(batch)
            if grad_clip > 0:
                # global-norm clip keeps the ratio loss's near-pole gradients
                # from blowing up the first few updates
                norm = np.sqrt(sum(float((buf * buf).sum()) for buf in accum) * inv * inv)
                if norm > grad_clip:
                    inv *= grad_clip / norm
            if inv != 1.0:
                for buf in accum:
                    buf *= inv
            for p, v, buf in zip(params, velocity, accum):
                v *= momentum
                v += buf
                p.value -= learning_rate * v
        history.append(sums)
    return history


# ---------------------------------------------------------------------------
# finite-difference verification
# ---------------------------------------------------------------------------

def grad_check(loss_fn: Callable[[], Node], params: Iterable[Node], eps: float = 1e-5) -> float:
    """Worst relative error between analytic and central-difference gradients.

    ``loss_fn`` must rebuild the loss graph from the current parameter
    values on every call and be deterministic for fixed parameters.  Every
    entry of every parameter is perturbed by ``+/-eps``; the relative error
    uses ``max(|analytic|, |numeric|, 1e-8)`` as the denominator so exact
    zeros do not blow up.
    """
    if eps <= 0.0:
        raise InputError(f"eps must be positive, got {eps}")
    params = list(params)
    root = loss_fn()
    if not np.isfinite(root.value).all():
        raise NumericError("loss is not finite at the unperturbed parameters")
    backward(root)
    # a parameter the loss does not reach keeps grad None: its gradient is 0
    analytic = [np.zeros(p.value.size) if p.grad is None else p.grad.copy().reshape(-1)
                for p in params]
    worst = 0.0
    for pi, p in enumerate(params):
        flat = p.value.reshape(-1)
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + eps
            up = loss_fn().item()
            flat[j] = saved - eps
            down = loss_fn().item()
            flat[j] = saved
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError(f"non-finite loss while perturbing parameter {pi} entry {j}")
            numeric = (up - down) / (2.0 * eps)
            a = analytic[pi][j]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if rel > worst:
                worst = rel
    return worst
