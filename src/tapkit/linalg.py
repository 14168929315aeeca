"""Dense float64 matrices with reverse-mode gradient support.

Everything downstream (the attention units, both losses, the TCN baseline)
is built from the operations in this module.  Values are plain 2-D numpy
arrays wrapped in graph :class:`Node` objects; each operation records how to
push an upstream gradient back to its operands, and :func:`backward` replays
those rules from a scalar output.  Analytic gradients are verified against
central finite differences with :func:`grad_check`.

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
    """Matrix product ``a @ b``; differentiable in both operands."""
    a, b = as_node(a), as_node(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: cannot multiply {a.shape} by {b.shape}")
    av, bv = a.value, b.value

    def push(g):
        return (g @ bv.T, av.T @ g)

    return Node(av @ bv, (a, b), push)


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


def _row_indices(indices, n: int, op: str) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError(f"{op}: indices must be 1-D, got shape {idx.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise InputError(f"{op}: index out of range for {n} rows")
    return idx


def _scatter_rows(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """Add ``rows[p]`` into row ``idx[p]`` of an n-row zero matrix.

    One flat ``np.bincount`` adds in input order starting from zero, so the
    result is bitwise equal to ``np.add.at`` (``np.add.reduceat`` is not).
    """
    d = rows.shape[1]
    flat = (idx[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=rows.ravel(), minlength=n * d).reshape(n, d)


def gather_rows(a, indices) -> Node:
    """Select rows ``a[indices]``; backward scatter-adds into the source."""
    a = as_node(a)
    n = a.shape[0]
    idx = _row_indices(indices, n, "gather_rows")

    def push(g):
        return (_scatter_rows(idx, g, n),)

    return Node(a.value[idx], (a,), push)


def mean_pair_distance(a, i, j) -> Node:
    """Mean Euclidean distance between rows ``a[i[p]]`` and ``a[j[p]]``.

    One node for ``mean_all(row_norms(sub(gather_rows(a, i), gather_rows(a,
    j))))``, equal to that chain bit for bit in value and gradient: the
    elementwise arithmetic is the same, coincident rows get the zero
    subgradient, and the push returns the ``i``-scatter before the
    ``j``-scatter, so :func:`backward` sums them in the chain's order.
    """
    a = as_node(a)
    n = a.shape[0]
    i = _row_indices(i, n, "mean_pair_distance")
    j = _row_indices(j, n, "mean_pair_distance")
    if i.shape != j.shape:
        raise DimensionError(f"mean_pair_distance: {i.size} i-indices but {j.size} j-indices")
    if not i.size:
        raise InputError("mean_pair_distance: needs at least one pair")
    diff = a.value[i] - a.value[j]
    r = np.sqrt((diff * diff).sum(axis=1, keepdims=True))

    def push(g):
        step = np.divide(diff, r, out=np.zeros_like(diff), where=r > 0.0)
        step *= g[0, 0] / r.size
        return (_scatter_rows(i, step, n), _scatter_rows(j, -step, n))

    return Node([[r.mean()]], (a, a), push)


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


def sum_all(a) -> Node:
    a = as_node(a)

    def push(g):
        return (np.full_like(a.value, g[0, 0]),)

    return Node([[a.value.sum()]], (a,), push)


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


def linear(x, weight, bias=None) -> Node:
    """Affine map ``x @ weight (+ bias)`` with the bias broadcast per row."""
    out = matmul(x, weight)
    if bias is not None:
        out = add(out, bias)
    return out


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
