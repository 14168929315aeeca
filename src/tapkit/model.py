"""Pattern-bank attention units and the stacked parser network.

An attention unit keeps a learnable bank of pattern vectors.  Each frame
feature queries the bank through two attention heads, the two head outputs
are merged by one fc layer, added back onto the frame feature, and pushed
through a small feed-forward net.  Stacking units refines the features; the
last unit's attention response is what downstream parsing and the local
loss consume.

:func:`forward_graph` is the training pass: every unit in full plus the
action classifier, one graph node per unit.  :func:`forward` is inference:
it stops at the last unit's response, so that unit's merge fc and FFN and
the classifier never run, and it checks only what it computes.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass
from itertools import islice
from typing import BinaryIO, Iterable, Iterator, Sequence

import numpy as np

from . import CHECKPOINT_FORMAT_VERSION
from . import linalg as la
from .errors import ConfigError, DimensionError, FormatError, InputError, NumericError

CHECKPOINT_MAGIC = b"TPSR"

NUM_HEADS = 2  # two groups of query/key/value projections


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the parser network.

    ``feature_dim`` must match the per-frame feature width of the data;
    everything else is free.  Defaults are sized for desk-scale synthetic
    runs.
    """

    feature_dim: int = 64
    pattern_dim: int = 64
    num_patterns: int = 32
    attn_dim: int = 32
    value_dim: int = 32
    hidden_dim: int = 128
    num_classes: int = 4
    num_units: int = 2

    def validate(self) -> None:
        for name in ("feature_dim", "pattern_dim", "num_patterns", "attn_dim",
                     "value_dim", "hidden_dim", "num_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.num_units < 1:
            raise ConfigError(f"num_units must be >= 1, got {self.num_units}")


@dataclass
class AttentionHead:
    w_q: la.Node
    w_k: la.Node
    w_v: la.Node


@dataclass
class SPSUnit:
    """One soft-pattern-strengthen block: bank, two heads, merge fc, FFN."""

    miner: la.Node  # the pattern bank, one pattern per row
    heads: list[AttentionHead]
    merge_w: la.Node
    merge_b: la.Node
    ffn_w1: la.Node
    ffn_b1: la.Node
    ffn_w2: la.Node
    ffn_b2: la.Node

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, la.Node]]:
        yield f"{prefix}miner", self.miner
        for h, head in enumerate(self.heads):
            yield f"{prefix}head{h}.w_q", head.w_q
            yield f"{prefix}head{h}.w_k", head.w_k
            yield f"{prefix}head{h}.w_v", head.w_v
        yield f"{prefix}merge.w", self.merge_w
        yield f"{prefix}merge.b", self.merge_b
        yield f"{prefix}ffn.w1", self.ffn_w1
        yield f"{prefix}ffn.b1", self.ffn_b1
        yield f"{prefix}ffn.w2", self.ffn_w2
        yield f"{prefix}ffn.b2", self.ffn_b2


def _unit_shapes(c: ModelConfig) -> list[tuple[int, int, int]]:
    """``(rows, cols, fan_in)`` of one unit's weights in ``named_parameters``
    order; a fan-in of 0 marks a zero-initialised bias."""
    head = [(c.feature_dim, c.attn_dim, c.feature_dim),
            (c.pattern_dim, c.attn_dim, c.pattern_dim),
            (c.pattern_dim, c.value_dim, c.pattern_dim)]
    return [(c.num_patterns, c.pattern_dim, c.pattern_dim), *head * NUM_HEADS,
            (NUM_HEADS * c.value_dim, c.feature_dim, NUM_HEADS * c.value_dim),
            (1, c.feature_dim, 0),
            (c.feature_dim, c.hidden_dim, c.feature_dim), (1, c.hidden_dim, 0),
            (c.hidden_dim, c.feature_dim, c.hidden_dim), (1, c.feature_dim, 0)]


def _parameter_shapes(c: ModelConfig) -> list[tuple[int, int, int]]:
    """:func:`_unit_shapes` for every unit, then the classifier's."""
    return _unit_shapes(c) * c.num_units + [(c.feature_dim, c.num_classes, c.feature_dim)]


class TransParserModel:
    """Stack of attention units plus a linear action classifier.

    Each unit owns its own pattern bank.  ``labels``, when present, gives
    the action-name vocabulary in classifier column order.
    """

    def __init__(self, config: ModelConfig, units: Sequence[SPSUnit],
                 classifier_w: la.Node, labels: Sequence[str] | None = None):
        config.validate()
        if len(units) != config.num_units:
            raise ConfigError(f"config says {config.num_units} units, got {len(units)}")
        if classifier_w.shape != (config.feature_dim, config.num_classes):
            raise DimensionError(
                f"classifier must be {(config.feature_dim, config.num_classes)}, "
                f"got {classifier_w.shape}")
        if labels is not None and len(labels) != config.num_classes:
            raise ConfigError(f"{len(labels)} labels for {config.num_classes} classes")
        self.config = config
        self.units = list(units)
        self.classifier_w = classifier_w
        self.labels = tuple(labels) if labels is not None else None

    @classmethod
    def initialize(cls, config: ModelConfig, seed: int,
                   labels: Sequence[str] | None = None) -> "TransParserModel":
        """Fresh model with uniform(-1/sqrt(fan_in), +) weights, zero biases."""
        rng = np.random.default_rng(seed)
        return cls._assemble(config, (
            rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), (rows, cols))
            if fan_in else np.zeros((rows, cols))
            for rows, cols, fan_in in _parameter_shapes(config)), labels)

    @classmethod
    def _assemble(cls, config: ModelConfig, values: Iterable[np.ndarray],
                  labels: Sequence[str] | None) -> "TransParserModel":
        """Model from its weight arrays in ``named_parameters`` order, drawn
        from ``values`` only once ``config`` is valid."""
        config.validate()
        nodes = map(la.Node, values)
        units = [SPSUnit(next(nodes), [AttentionHead(*islice(nodes, 3))
                                       for _ in range(NUM_HEADS)], *islice(nodes, 6))
                 for _ in range(config.num_units)]
        return cls(config, units, next(nodes), labels)

    def named_parameters(self) -> Iterator[tuple[str, la.Node]]:
        for i, unit in enumerate(self.units):
            yield from unit.named_parameters(prefix=f"unit{i}.")
        yield "classifier.w", self.classifier_w

    def parameters(self) -> list[la.Node]:
        return [node for _, node in self.named_parameters()]

    # -- checkpoint container ------------------------------------------------

    def save(self, path) -> None:
        """Write the self-describing little-endian checkpoint container."""
        header = {**asdict(self.config),
                  "labels": list(self.labels) if self.labels is not None else None}
        blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        entries = list(self.named_parameters())
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(struct.pack("<I", CHECKPOINT_FORMAT_VERSION))
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<I", len(entries)))
            for name, node in entries:
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                rows, cols = node.shape
                fh.write(struct.pack("<II", rows, cols))
                fh.write(node.value.astype("<f8").tobytes(order="C"))

    @classmethod
    def load(cls, path) -> "TransParserModel":
        with open(path, "rb") as fh:
            magic = _read_exact(fh, 4)
            if magic != CHECKPOINT_MAGIC:
                raise FormatError(f"bad checkpoint magic {magic!r}")
            (version,) = struct.unpack("<I", _read_exact(fh, 4))
            if version != CHECKPOINT_FORMAT_VERSION:
                raise FormatError(f"unsupported checkpoint version {version}")
            size = os.fstat(fh.fileno()).st_size
            (hlen,) = struct.unpack("<I", _read_exact(fh, 4))
            # sizes are checked against the file before anything is read or
            # allocated for them
            if hlen > size - fh.tell():
                raise FormatError(f"checkpoint header length {hlen} exceeds the "
                                  f"{size - fh.tell()} bytes left in the file")
            try:
                header = json.loads(_read_exact(fh, hlen).decode("utf-8"))
            except (ValueError, RecursionError) as exc:
                raise FormatError(f"unreadable checkpoint header: {exc}") from exc
            if not isinstance(header, dict):
                raise FormatError("checkpoint header must be a JSON object, "
                                  f"got {type(header).__name__}")
            try:
                # headers written before layer norm was removed carry a false flag
                if header.pop("use_layer_norm", False) is not False:
                    raise FormatError("checkpoint uses layer norm, which is no longer supported")
                labels = header.pop("labels")
                if any(type(value) is not int for value in header.values()):
                    raise FormatError(f"checkpoint dimensions must be ints: {header}")
                config = ModelConfig(**header)
            except (KeyError, TypeError) as exc:
                raise FormatError(f"incomplete checkpoint header: {exc}") from exc
            if labels is not None and (not isinstance(labels, list)
                                       or any(not isinstance(x, str) for x in labels)):
                raise FormatError(f"checkpoint labels must be null or a list of "
                                  f"strings, got {labels!r}")
            needed = 8 * _weight_count(config)
            if needed > size - fh.tell():
                raise FormatError(f"checkpoint dimensions need {needed} bytes of weights, "
                                  f"the file has {size - fh.tell()} left")
            # allocated, not drawn: every value is overwritten from the file
            model = cls._assemble(config, (np.empty((rows, cols)) for rows, cols, _
                                           in _parameter_shapes(config)), labels)
            expected = list(model.named_parameters())
            (count,) = struct.unpack("<I", _read_exact(fh, 4))
            if count != len(expected):
                raise FormatError(f"checkpoint has {count} weights, expected {len(expected)}")
            for name, node in expected:
                (nlen,) = struct.unpack("<H", _read_exact(fh, 2))
                stored = _read_exact(fh, nlen)
                if stored != name.encode("utf-8"):
                    raise FormatError(f"weight order mismatch: expected {name!r}, got {stored!r}")
                rows, cols = struct.unpack("<II", _read_exact(fh, 8))
                if (rows, cols) != node.shape:
                    raise FormatError(f"{name}: shape {(rows, cols)} does not match {node.shape}")
                values = np.frombuffer(_read_exact(fh, rows * cols * 8), dtype="<f8")
                if not np.isfinite(values).all():
                    raise FormatError(f"{name}: non-finite weights")
                np.copyto(node.value, values.reshape(rows, cols))
            if fh.read(1):
                raise FormatError("trailing bytes after checkpoint payload")
        # an all-zero bank makes every response permanently uniform
        if any(not unit.miner.value.any() for unit in model.units):
            raise FormatError("checkpoint has an all-zero pattern bank")
        return model


def _weight_count(c: ModelConfig) -> int:
    """Number of float64 weights a model with config ``c`` holds."""
    unit = sum(rows * cols for rows, cols, _ in _unit_shapes(c))
    return c.num_units * unit + c.feature_dim * c.num_classes


def _read_exact(fh: BinaryIO, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FormatError(f"truncated checkpoint: wanted {n} bytes, got {len(data)}")
    return data


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------

@dataclass
class GraphTrace:
    """Differentiable forward pass: per-unit responses/features plus logits."""

    responses: list[la.Node]
    features: list[la.Node]
    logits: la.Node


@dataclass
class ForwardTrace:
    """Inference-side view of the forward pass: one response per unit."""

    responses: list[np.ndarray]

    @property
    def response(self) -> np.ndarray:
        """Last unit's per-frame attention response, the parsing signal."""
        return self.responses[-1]


def _unit_attention(x: np.ndarray, unit: SPSUnit) -> tuple[list[tuple], np.ndarray]:
    """One unit's attention half: each head's ``(q, k_t, a)``, and the
    response, the mean of the heads' rows, so every row is a probability
    vector."""
    bank = unit.miner.value
    heads = []
    for head in unit.heads:
        q = x @ head.w_q.value
        # contiguous, as a graph node stores it: a transposed view
        # multiplies to different bits
        k_t = np.ascontiguousarray((bank @ head.w_k.value).T)
        scores = q @ k_t
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        heads.append((q, k_t, e / e.sum(axis=1, keepdims=True)))
    return heads, (heads[0][2] + heads[1][2]) * 0.5


def _unit_values(x: np.ndarray, unit: SPSUnit) -> tuple[np.ndarray, np.ndarray, tuple]:
    """One unit's forward on plain arrays: ``(out, response, saved)``.

    ``saved`` holds what :func:`_unit_grads` reads.  The arithmetic and the
    memory layouts are those of the chain of public ops (per head
    ``softmax_rows(matmul(x @ w_q, transpose(bank @ w_k))) @ (bank @ w_v)``,
    then ``hconcat``, the merge fc, the residual add and the FFN) that the
    tests keep as an oracle, so values and gradients are bitwise equal to
    it.
    """
    bank = unit.miner.value
    attention, response = _unit_attention(x, unit)
    heads = []
    for head, (q, k_t, a) in zip(unit.heads, attention):
        v = bank @ head.w_v.value
        heads.append((q, k_t, a, v, a @ v))
    cat = np.concatenate([o for *_, o in heads], axis=1)
    amplified = x + (cat @ unit.merge_w.value + unit.merge_b.value)
    pre = amplified @ unit.ffn_w1.value + unit.ffn_b1.value
    mask = pre > 0.0
    hidden = np.maximum(pre, 0.0)  # NaN stays NaN; -0.0 becomes +0.0
    out = hidden @ unit.ffn_w2.value + unit.ffn_b2.value
    return out, response, (x, heads, cat, amplified, mask, hidden)


def _unit_grads(unit: SPSUnit, saved: tuple, g_out: np.ndarray,
                g_resp: np.ndarray | None, need_input: bool) -> list[np.ndarray]:
    """The chain's pushes replayed by hand: input gradient (if asked), then
    one gradient per parameter in ``named_parameters`` order.

    Sums run in the chain's consumer order: a head's probabilities take the
    value path before the response, the bank sums key 0, value 0, key 1,
    value 1, and the input sums query 0, query 1, then the residual.  The
    contiguous copies stand where ``backward`` copied a transposed or
    sliced gradient.
    """
    x, heads, cat, amplified, mask, hidden = saved
    bank = unit.miner.value
    g_pre = (g_out @ unit.ffn_w2.value.T) * mask
    g_amp = g_pre @ unit.ffn_w1.value.T
    g_cat = g_amp @ unit.merge_w.value.T
    width = cat.shape[1] // NUM_HEADS
    g_bank = g_x = None
    head_grads = []
    for h, (head, (q, k_t, a, v, _)) in enumerate(zip(unit.heads, heads)):
        g_o = np.ascontiguousarray(g_cat[:, h * width:(h + 1) * width])
        g_a = g_o @ v.T
        if g_resp is not None:
            g_a += g_resp * 0.5
        g_s = a * (g_a - (g_a * a).sum(axis=1, keepdims=True))
        g_q = g_s @ k_t.T
        g_k = np.ascontiguousarray((q.T @ g_s).T)
        g_v = a.T @ g_o
        from_bank = g_k @ head.w_k.value.T
        g_bank = from_bank if g_bank is None else g_bank + from_bank
        g_bank += g_v @ head.w_v.value.T
        if need_input:
            from_q = g_q @ head.w_q.value.T
            g_x = from_q if g_x is None else g_x + from_q
        head_grads += [x.T @ g_q, bank.T @ g_k, bank.T @ g_v]
    grads = [g_bank, *head_grads,
             cat.T @ g_amp, g_amp.sum(axis=0, keepdims=True),
             amplified.T @ g_pre, g_pre.sum(axis=0, keepdims=True),
             hidden.T @ g_out, g_out.sum(axis=0, keepdims=True)]
    if need_input:
        g_x += g_amp
        grads.insert(0, g_x)
    return grads


def _unit_nodes(x, unit: SPSUnit) -> tuple[la.Node, la.Node]:
    """One unit in the graph: an output node and a parentless response node.

    A plain-array input is a constant: not a parent, no input gradient.
    The response node only keeps its gradient for the output node's push;
    it has the higher id, so ``backward`` always runs it first.  The
    response's gradient reaches the weights through the output node, which
    every loss reaches through the logits.
    """
    need_input = isinstance(x, la.Node)
    out, response, saved = _unit_values(x.value if need_input else x, unit)
    held = [None]

    def push_response(g):
        held[0] = g
        return ()

    def push(g):
        g_resp, held[0] = held[0], None
        return _unit_grads(unit, saved, g, g_resp, need_input)

    params = [node for _, node in unit.named_parameters()]
    out_node = la.Node(out, [x, *params] if need_input else params, push)
    return out_node, la.Node(response, (), push_response)


def _check_features(features: np.ndarray, feature_dim: int) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"features must be 2-D (frames x dim), got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InputError("empty feature sequence")
    if arr.shape[1] != feature_dim:
        raise DimensionError(f"features have dim {arr.shape[1]}, model expects {feature_dim}")
    if not np.isfinite(arr).all():
        raise NumericError("features contain non-finite entries")
    # the units multiply the input as stored; graph nodes hold C order
    return np.ascontiguousarray(arr)


def forward_graph(features, model: TransParserModel) -> GraphTrace:
    """Differentiable forward pass through every unit plus the classifier."""
    x = _check_features(features, model.config.feature_dim)
    responses: list[la.Node] = []
    outs: list[la.Node] = []
    for unit in model.units:
        x, response = _unit_nodes(x, unit)
        responses.append(response)
        outs.append(x)
    logits = la.mean_over_rows(la.matmul(x, model.classifier_w))
    return GraphTrace(responses=responses, features=outs, logits=logits)


def forward(features, model: TransParserModel) -> ForwardTrace:
    """Inference forward pass up to the last unit's attention response.

    The last unit runs only its attention half: its merge fc, its FFN and
    the classifier serve only the training losses.  The arithmetic is
    :func:`forward_graph`'s on plain arrays with no graph, so the responses
    equal the graph's bit for bit.  Only what is computed is checked: every
    response and every earlier unit's output must be finite.
    """
    x = _check_features(features, model.config.feature_dim)
    responses: list[np.ndarray] = []
    outs: list[np.ndarray] = []
    for unit in model.units[:-1]:
        x, response, _ = _unit_values(x, unit)
        responses.append(response)
        outs.append(x)
    responses.append(_unit_attention(x, model.units[-1])[1])
    for arr in (*responses, *outs):
        if not np.isfinite(arr).all():
            raise NumericError("forward pass produced non-finite values")
    return ForwardTrace(responses=responses)


def retrieve_top_frames(responses: Iterable[tuple[str, np.ndarray]], pattern_index: int,
                        top_n: int) -> list[tuple[str, int, float]]:
    """Frames with the highest response for one pattern.

    ``responses`` holds ``(instance_id, response)`` pairs, each response a
    frames x patterns matrix such as :attr:`ForwardTrace.response`.
    Returns up to ``top_n`` ``(instance_id, frame, score)`` triples sorted by
    score descending, ties broken by instance id then frame index ascending.
    """
    if top_n < 0:
        raise InputError(f"top_n must be >= 0, got {top_n}")
    items: list[tuple[float, str, int]] = []
    for instance_id, resp in responses:
        if not 0 <= pattern_index < resp.shape[1]:
            raise InputError(
                f"pattern index {pattern_index} out of range for {resp.shape[1]} patterns")
        col = resp[:, pattern_index]
        for t in range(resp.shape[0]):
            items.append((-col[t], instance_id, t))
    items.sort()
    return [(iid, t, -neg) for neg, iid, t in items[:top_n]]
