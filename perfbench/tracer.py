"""Span tracing of tapkit's public functions, installed from outside the package.

The traced run replaces each public function with a timing wrapper at the
place where its caller looks it up (``tapkit.cli.train``,
``tapkit.losses.forward_graph``, ``tapkit.linalg.matmul`` ...), so nothing in
``src/`` changes.  Every wrapper opens a span; a span's self time is its
duration minus the time covered by its child spans.  Autograd pushes are
timed by wrapping the ``_push`` closure of each node a traced op returns, so
push spans nest under ``linalg.backward``.

Totals and self times are kept for every span; the individual spans are kept
only while ``recording`` is on and are written out at the end of the run.
"""

from __future__ import annotations

import functools
import json
import os
import time

LAYERS = ("cli", "data", "model", "linalg", "losses", "parsing", "metrics",
          "baselines")

# every op that creates a graph node on the parser, loss and TCN paths
LINALG_OPS = ("matmul", "add", "sub", "div", "scale", "transpose", "relu",
              "sigmoid", "softmax_rows", "hconcat", "gather_rows", "row_norms",
              "mean_all", "mean_over_rows", "nll_from_logits",
              "weighted_bce_with_logits")

# (module attribute path where the caller looks the function up, span name)
FUNCTIONS = (
    ("tapkit.data.generate_synthetic", "data.generate_synthetic"),
    ("tapkit.data.write_dataset", "data.write_dataset"),
    ("tapkit.data.load_dataset", "data.load_dataset"),
    ("tapkit.data.load_features", "data.load_features"),
    ("tapkit.losses.forward_graph", "model.forward_graph"),
    ("tapkit.model.forward_graph", "model.forward_graph"),
    ("tapkit.cli.forward", "model.forward"),
    ("tapkit.cli.train", "losses.train"),
    ("tapkit.losses.combined_loss", "losses.combined_loss"),
    ("tapkit.losses.local_loss", "losses.local_loss"),
    ("tapkit.linalg.backward", "linalg.backward"),
    ("tapkit.cli.extract_boundaries", "parsing.extract_boundaries"),
    ("tapkit.cli.sweep", "metrics.sweep"),
    ("tapkit.metrics.match_boundaries", "metrics.match_boundaries"),
    ("tapkit.cli.kmeans_parse", "baselines.kmeans_parse"),
    ("tapkit.cli.tcn_train", "baselines.tcn_train"),
    ("tapkit.cli.tcn_parse", "baselines.tcn_parse"),
)
METHODS = (("save", "model.save"), ("load", "model.load"))


class Tracer:
    """Collects spans from the wrappers it installs; one per traced phase."""

    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [inclusive s, self s, calls]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.recording = False
        self.cycle = 0
        self.top_level_s = 0.0
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter(), 0.0])
        self._next_id += 1

    def exit(self) -> None:
        end = time.perf_counter()
        span_id, name, start, child_s = self._stack.pop()
        duration = end - start
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0.0, 0.0, 0]
        agg[0] += duration
        agg[1] += duration - child_s
        agg[2] += 1
        if self._stack:
            self._stack[-1][3] += duration
        else:
            self.top_level_s += duration
        if self.recording:
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append((span_id, parent, name, start, end, self.cycle))

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def wrap_op(self, fn, op):
        tracer = self
        fwd_name = f"linalg.{op}"
        push_name = f"linalg.{op}.push"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.enter(fwd_name)
            try:
                node = fn(*args, **kwargs)
            finally:
                tracer.exit()
            push = node._push
            if push is not None:
                def timed_push(g):
                    tracer.enter(push_name)
                    try:
                        return push(g)
                    finally:
                        tracer.exit()
                node._push = timed_push
            return node

        return traced

    # -- installation --------------------------------------------------------

    def install(self, tapkit_modules: dict) -> None:
        """Patch every traced binding; ``tapkit_modules`` maps names to modules."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        linalg = tapkit_modules["tapkit.linalg"]
        hooks = {
            "data.load_features": self._count_feature_bytes,
            "model.save": self._count_checkpoint_bytes,
            "losses.local_loss": self._count_loss_pairs,
            "metrics.match_boundaries": self._count_compared_pairs,
        }
        for path, name in FUNCTIONS:
            module_name, attr = path.rsplit(".", 1)
            owner = tapkit_modules[module_name]
            fn = getattr(owner, attr)
            if name == "linalg.backward":
                wrapped = self._wrap_backward(fn)
            else:
                wrapped = self.wrap(fn, name, hooks.get(name))
            self._patch(owner, attr, wrapped)
        for op in LINALG_OPS:
            self._patch(linalg, op, self.wrap_op(getattr(linalg, op), op))
        model_cls = tapkit_modules["tapkit.model"].TransParserModel
        for attr, name in METHODS:
            original = model_cls.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, name, hooks.get(name)))
            else:
                wrapped = self.wrap(original, name, hooks.get(name))
            self._patch(model_cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    # -- counters (computed, not timed) -------------------------------------

    def _count_feature_bytes(self, result, args, kwargs):
        # header plus float32 payload, the exact size load_features validates
        self.count("data.load_features.bytes", 16 + 4 * result.size)

    def _count_checkpoint_bytes(self, result, args, kwargs):
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.counts["model.checkpoint.bytes"] = os.path.getsize(path)

    def _count_loss_pairs(self, result, args, kwargs):
        pairs = kwargs.get("pairs", args[3] if len(args) > 3 else None)
        if pairs is not None:
            self.count("losses.local_loss.pairs", pairs[0].size + pairs[2].size)

    def _count_compared_pairs(self, result, args, kwargs):
        self.count("metrics.pairs_compared", len(args[0]) * len(args[1]))

    def _wrap_backward(self, fn):
        """Time ``backward`` and size the graph it walks.

        The graph walk is tracer work, so it gets its own ``trace.`` span and
        is charged to no tapkit layer.
        """
        tracer = self
        timed = self.wrap(fn, "linalg.backward")

        @functools.wraps(fn)
        def traced(root, *args, **kwargs):
            tracer.enter("trace.graph_walk")
            try:
                nodes, nbytes = _graph_size(root)
                tracer.count("linalg.graph_nodes", nodes)
                tracer.count("linalg.graph_bytes", nbytes)
            finally:
                tracer.exit()
            return timed(root, *args, **kwargs)

        return traced

    # -- results -------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, (_, self_s, _) in self.totals.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += self_s
        return out

    def write_spans(self, path, phase: str) -> None:
        """Append the recorded spans to a JSON-lines file."""
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, cycle in self.spans:
                fh.write(json.dumps({"phase": phase, "cycle": cycle,
                                     "id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def _graph_size(root) -> tuple[int, int]:
    """Nodes reachable from ``root`` and the bytes their values hold."""
    seen = set()
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nbytes += node.value.nbytes
        stack.extend(node.parents)
    return len(seen), nbytes
