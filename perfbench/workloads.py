"""Workloads of the tapkit benchmark: corpora, timed cycles and output checks.

Each workload runs in one process with one caller in a closed loop: every
``tapkit`` command starts when the previous one has returned.  The commands
go through ``tapkit.cli.main`` in-process, exactly as the ``tapkit``
executable would run them, and their results are read back from the files
they write (predictions, CSV reports, epoch logs), never from stdout, except
for ``patterns``, whose only output is stdout.

A run has two phases:

* setup, once per sub-seed and the same on every workload: ``tapkit
  synth`` writes that sub-seed's corpus and ``tapkit train`` fits its
  checkpoint.  ``parse-eval`` and ``baselines`` parse with the checkpoints;
  on the train workloads, each cycle's train must reproduce its loss.  The
  train keeps ``setup_s`` steady: timing ~160 small file writes alone
  varies several-fold between runs with the host's file-system load;
* the timed loop: the workload's cycle, repeated for ``--seconds`` and at
  least once per sub-seed.  In untraced runs, coverage steps run between
  cycles: the commands the cycle does not run, each every ``period``
  cycles, so that every end-to-end metric is measured on every workload
  and its samples spread over the whole loop.  Except on ``train-long``,
  whose first setups alone take ~15 s, one of them repeats a setup, so
  that ``setup_s``, the median time of one setup, is sampled across the
  run like the loop metrics.  The traced run skips them.

The workload seed derives ``SUB_SEEDS`` sub-seeds.  Each sub-seed draws its
own corpus and seeds the trainer, k-means and TCN runs on it; the cycles
take the sub-seeds in turn, and the quality metrics are medians over them:
a single short training run's loss and F1 depend on its corpus and seed far
more than on the code.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tapkit.cli
import tapkit.data
import tapkit.linalg
import tapkit.losses
import tapkit.metrics
import tapkit.model

from tracer import LINALG_OPS, Tracer

# The acceptance suite's "easy" corpus settings.  The action orders are pinned
# to the ones seed 0 draws (3.75 segments per instance, ~53 frames), so every
# workload seed gets the same amount of work; the seed still draws the
# prototypes, segment lengths, noise and splits.
EASY_ORDERS = ((1, 2, 3, 2, 0), (1, 3, 1, 2), (2, 0, 3, 1), (0, 2))
EASY = dict(num_prototypes=4, feature_dim=64, num_actions=4,
            instances_per_action=40, seg_len_range=(8, 20),
            transition_width=2, noise_sigma=0.1, action_orders=EASY_ORDERS)
# ~219-frame instances with about the frames per epoch of EASY (28 train
# instances); the unused val share goes to test, so that parse and eval get
# 12 instances instead of 4
LONG = dict(EASY, seg_len_range=(40, 80), instances_per_action=10,
            split_fractions=(0.7, 0.0, 0.3))

LEARNING_RATE = 0.02
TRAIN_EPOCHS = 1
KMEANS_K = 4  # the CLI default of 64 exits 4 on this corpus (fewer frames)
SUB_SEEDS = 8
PATTERN_TOP = 10


@dataclass(frozen=True)
class Scale:
    easy: dict
    long: dict
    tcn_epochs: int
    checked_quality: bool  # reference loss and F1 floors apply


FULL = Scale(easy=EASY, long=LONG, tcn_epochs=5, checked_quality=True)
# smoke-test size: 6 instances per action keep one test instance per action
TINY = Scale(easy=dict(EASY, instances_per_action=6),
             long=dict(LONG, instances_per_action=6),
             tcn_epochs=1, checked_quality=False)

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_frames_per_s": "frames/s",
    "train_final_loss": "loss",
    "f1_abs5": "F1",
    "parse_frames_per_s": "frames/s",
    "parse_call_ms_p50": "ms",
    "parse_call_ms_p90": "ms",
    "eval_call_ms_p50": "ms",
    "tcn_train_frames_per_s": "frames/s",
    "kmeans_frames_per_s": "frames/s",
    "peak_rss_mb": "MB",
}

TAPKIT_MODULES = {m.__name__: m for m in (tapkit.cli, tapkit.data, tapkit.linalg,
                                          tapkit.losses, tapkit.metrics,
                                          tapkit.model)}


class Bench:
    """One benchmark run: issues CLI calls, checks their outputs, keeps samples."""

    def __init__(self, workdir: Path, seed: int, scale: Scale, reference: dict):
        self.workdir = workdir
        self.seed = seed
        self.scale = scale
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.cli_s = 0.0  # wall time of every CLI call so far
        self.samples: dict[str, list[float]] = defaultdict(list)
        # quality key -> sub-seed -> values from every repeat of that sub-seed
        self.quality: dict[str, dict[int, list[float]]] = defaultdict(
            lambda: defaultdict(list))
        self.corpora: dict[Path, dict[str, dict[str, int]]] = {}
        self.tracer: Tracer | None = None

    def sub_seed(self, j: int) -> int:
        return self.seed * SUB_SEEDS + j

    # -- bookkeeping ---------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        """Count one attempted operation; a failed one is reported on stderr."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok

    def _call(self, command: str, argv: list) -> tuple[int | None, str, float]:
        """Run one ``tapkit`` command in-process; returns (exit code, stdout, s).

        Garbage left by earlier calls is collected before the clock starts,
        so that no call pays for another's, and each starts as it would in a
        fresh ``tapkit`` process.
        """
        stdout = io.StringIO()
        gc.collect()
        if self.tracer is not None:
            self.tracer.enter("cli." + command.replace(" ", "_"))
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = tapkit.cli.main([str(a) for a in argv])
        except Exception:  # a traceback is a failed call, not a crashed run
            traceback.print_exc()
            code = None
        finally:
            seconds = time.perf_counter() - start
            self.cli_s += seconds
            if self.tracer is not None:
                self.tracer.exit()
        return code, stdout.getvalue(), seconds

    def frames(self, data: Path, split: str | None) -> int:
        return sum(self._instances(data, split).values())

    def _instances(self, data: Path, split: str | None) -> dict[str, int]:
        """Instance id -> length for one split (None: every split)."""
        by_split = self.corpora[data]
        if split is not None:
            return by_split.get(split, {})
        return {k: v for part in by_split.values() for k, v in part.items()}

    # -- commands ------------------------------------------------------------

    def synth(self, data: Path, config: dict, j: int) -> None:
        shutil.rmtree(data, ignore_errors=True)
        config_path = data.with_name(data.name + ".synth.json")
        config_path.write_text(json.dumps({**config, "seed": self.sub_seed(j)}))
        code, _, _ = self._call("synth", ["synth", "--config", config_path,
                                          "--out", data])
        by_split: dict[str, dict[str, int]] = defaultdict(dict)
        if code == 0:
            with open(data / "annotations.jsonl", encoding="utf-8") as fh:
                for line in fh:
                    record = json.loads(line)
                    by_split[record["split"]][record["id"]] = record["length"]
        self.corpora[data] = dict(by_split)
        count = sum(len(part) for part in by_split.values())
        expected = config["num_actions"] * config["instances_per_action"]
        self.check(code == 0 and count == expected,
                   f"synth exit {code}, {count} of {expected} instances")

    def train(self, data: Path, model: Path, j: int) -> None:
        epochs = TRAIN_EPOCHS
        code, _, seconds = self._call("train", [
            "train", "--data", data, "--model-out", model, "--epochs", epochs,
            "--lr", LEARNING_RATE, "--seed", self.sub_seed(j)])
        loss = _final_loss(Path(str(model) + ".log.jsonl"), epochs) if code == 0 else None
        ok = code == 0 and loss is not None and model.is_file()
        if self.check(ok, f"train exit {code}, final loss {loss}"):
            self.samples["train_frames_per_s"].append(
                epochs * self.frames(data, "train") / seconds)
            self.quality["train_final_loss"][j].append(loss)

    def parse(self, data: Path, model: Path, pred: Path) -> None:
        code, _, seconds = self._call("parse", [
            "parse", "--data", data, "--model", model, "--out", pred,
            "--split", "test", "--seed", self.seed])
        ok = code == 0 and self._predictions_ok(pred, data, "test")
        if self.check(ok, f"parse exit {code}"):
            self.samples["parse_frames_per_s"].append(self.frames(data, "test") / seconds)
            self.samples["parse_call_ms"].append(seconds * 1e3)

    def evaluate(self, data: Path, pred: Path, report: Path, j: int,
                 f1_key: str = "f1_abs5", timed: bool = True) -> None:
        """Score predictions; ``timed`` is for held-out (test-split) scoring."""
        code, _, seconds = self._call("eval", ["eval", "--pred", pred, "--gt", data,
                                               "--out", report])
        f1 = _f1_abs5(report) if code == 0 else None
        ok = f1 is not None and 0.0 <= f1 <= 1.0
        if self.check(ok, f"eval exit {code}, F1@abs-5 {f1}"):
            self.quality[f1_key][j].append(f1)
            if timed:
                self.samples["eval_call_ms"].append(seconds * 1e3)

    def patterns(self, data: Path, model: Path) -> None:
        code, out, _ = self._call("patterns", [
            "patterns", "--data", data, "--model", model, "--pattern", 0,
            "--top", PATTERN_TOP, "--split", "test", "--seed", self.seed])
        lengths = self._instances(data, "test")
        rows = [line.split("\t") for line in out.splitlines()]
        ok = (code == 0
              and len(rows) == min(PATTERN_TOP, sum(lengths.values()))
              and all(len(r) == 3 and r[0] in lengths
                      and 0 <= int(r[1].removeprefix("frame ")) < lengths[r[0]]
                      for r in rows))
        self.check(ok, f"patterns exit {code}, {len(rows)} rows")

    def kmeans(self, data: Path, pred: Path, j: int) -> None:
        code, _, seconds = self._call("baseline kmeans", [
            "baseline", "kmeans", "--data", data, "--k", KMEANS_K, "--out", pred,
            "--seed", self.sub_seed(j)])
        ok = code == 0 and self._predictions_ok(pred, data, None)
        if self.check(ok, f"baseline kmeans exit {code}"):
            self.samples["kmeans_frames_per_s"].append(self.frames(data, None) / seconds)

    def tcn(self, data: Path, pred: Path, j: int) -> None:
        """``baseline tcn``; its training share is timed by a one-call probe."""
        epochs = self.scale.tcn_epochs
        train_s: list[float] = []
        original = tapkit.cli.tcn_train

        def timed_tcn_train(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                train_s.append(time.perf_counter() - start)

        tapkit.cli.tcn_train = timed_tcn_train
        try:
            code, _, _ = self._call("baseline tcn", [
                "baseline", "tcn", "--data", data, "--out", pred, "--split", "test",
                "--epochs", epochs, "--seed", self.sub_seed(j)])
        finally:
            tapkit.cli.tcn_train = original
        ok = code == 0 and len(train_s) == 1 and self._predictions_ok(pred, data, "test")
        if self.check(ok, f"baseline tcn exit {code}"):
            self.samples["tcn_train_frames_per_s"].append(
                epochs * self.frames(data, "train") / train_s[0])

    def _predictions_ok(self, path: Path, data: Path, split: str | None) -> bool:
        """One record per instance of the split; starts strictly rise in [1, length)."""
        lengths = self._instances(data, split)
        seen = set()
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                iid, starts = record["id"], record["starts"]
                if iid in seen or iid not in lengths:
                    print(f"{path}: unexpected or repeated id {iid!r}", file=sys.stderr)
                    return False
                seen.add(iid)
                bounds = [0, *starts, lengths[iid]]
                if not all(isinstance(s, int) for s in starts) or any(
                        a >= b for a, b in zip(bounds, bounds[1:])):
                    print(f"{path}: {iid} starts {starts} not strictly increasing "
                          f"in [1, {lengths[iid]})", file=sys.stderr)
                    return False
        if len(seen) != len(lengths):
            print(f"{path}: {len(seen)} records for {len(lengths)} instances",
                  file=sys.stderr)
            return False
        return True


def _final_loss(log_path: Path, epochs: int) -> float | None:
    """Last epoch's mean total loss, if the log has every epoch and it is finite."""
    with open(log_path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    if len(records) != epochs:
        return None
    loss = records[-1]["total"]
    return loss if math.isfinite(loss) else None


def _f1_abs5(report: Path) -> float | None:
    with open(report, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["threshold_kind"] == "abs" and row["d"] == "5":
                return float(row["f1"])
    return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    setup: Callable[[int], None]  # argument: sub-seed index
    cycle: Callable[[int], None]  # argument: cycle index
    # (period in cycles, step); a step's argument counts its own runs
    coverage: tuple[tuple[int, Callable[[int], None]], ...]
    corpus: str  # which corpus the loss reference refers to
    floors: tuple[str, ...]  # quality keys with an F1 floor


def build(name: str, bench: Bench) -> Workload:
    w = bench.workdir
    model, pred, report = w / "model.tpsr", w / "pred.jsonl", w / "report.csv"
    kmeans_pred, tcn_pred = w / "kmeans.jsonl", w / "tcn.jsonl"
    corpus = "long" if name == "train-long" else "easy"
    config = getattr(bench.scale, corpus)

    def data(j: int) -> Path:
        return w / f"data{j}"

    def checkpoint(j: int) -> Path:
        return w / f"model{j}.tpsr"

    def kmeans(i: int):
        bench.kmeans(data(i % SUB_SEEDS), kmeans_pred, i % SUB_SEEDS)

    def tcn(i: int):
        bench.tcn(data(i % SUB_SEEDS), tcn_pred, i % SUB_SEEDS)

    def setup(i: int):
        """Write sub-seed ``i``'s corpus and train its checkpoint.

        The time of these CLI calls is one ``setup_s`` sample.
        """
        j = i % SUB_SEEDS
        before = bench.cli_s
        bench.synth(data(j), config, j)
        bench.train(data(j), checkpoint(j), j)
        bench.samples["setup_s"].append(bench.cli_s - before)

    if name in ("train-easy", "train-long"):
        def cycle(k: int):
            j = k % SUB_SEEDS
            bench.train(data(j), model, j)
            bench.parse(data(j), model, pred)
            bench.evaluate(data(j), pred, report, j)

        # on train-long the first setups alone take ~15 s, so they are not
        # repeated in the loop
        repeats = ((4, setup),) if name == "train-easy" else ()
        return Workload(setup, cycle, ((1, kmeans), (2, tcn), *repeats),
                        corpus, ("f1_abs5",))

    if name == "parse-eval":
        def cycle(k: int):
            j = k % SUB_SEEDS
            bench.parse(data(j), checkpoint(j), pred)
            bench.evaluate(data(j), pred, report, j)
            bench.patterns(data(j), checkpoint(j))

        # sparse, so that most of the loop stays parse, eval and patterns
        return Workload(setup, cycle,
                        ((4, kmeans), (8, setup), (16, tcn)),
                        corpus, ("f1_abs5",))

    if name == "baselines":
        def cycle(k: int):
            j = k % SUB_SEEDS
            bench.kmeans(data(j), kmeans_pred, j)
            bench.evaluate(data(j), kmeans_pred, report, j, "kmeans_f1_abs5",
                           timed=False)  # all splits, not the held-out one
            bench.tcn(data(j), tcn_pred, j)
            bench.evaluate(data(j), tcn_pred, report, j)

        def parse_eval(i: int):
            j = i % SUB_SEEDS
            bench.parse(data(j), checkpoint(j), pred)
            bench.evaluate(data(j), pred, report, j, "parser_f1_abs5")

        return Workload(setup, cycle,
                        ((1, parse_eval), (2, setup)),
                        corpus, ("f1_abs5", "kmeans_f1_abs5"))

    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

def run(name: str, bench: Bench, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object the benchmark prints."""
    workload = build(name, bench)
    if trace:
        metrics = _traced_run(name, workload, bench, seconds)
    else:
        metrics = _untraced_run(workload, bench, seconds)
        for metric, entry in metrics.items():
            bench.check(math.isfinite(entry["value"]) and entry["value"] > 0,
                        f"{metric} = {entry['value']}")
        _quality_checks(name, workload, bench, metrics)
    for key, by_sub_seed in bench.quality.items():
        for j, values in by_sub_seed.items():
            bench.check(len(set(values)) == 1,
                        f"{key} differs between repeats of sub-seed {j}: {values}")
    return {"correct": bench.failed == 0, "attempted": bench.attempted,
            "failed": bench.failed, "metrics": metrics}


def _loop(cycle: Callable[[int], None], seconds: float, min_cycles: int) -> None:
    start = time.perf_counter()
    count = 0
    while count < min_cycles or time.perf_counter() - start < seconds:
        cycle(count)
        count += 1


def _untraced_run(workload: Workload, bench: Bench, seconds: float) -> dict:
    for j in range(SUB_SEEDS):
        workload.setup(j)

    def cycle_and_coverage(k: int) -> None:
        workload.cycle(k)
        for period, step in workload.coverage:
            if k % period == period - 1:
                step(k // period)

    periods = [period for period, _ in workload.coverage]
    _loop(cycle_and_coverage, seconds, max(SUB_SEEDS, *periods))

    s = bench.samples
    values = {
        "setup_s": _median(s["setup_s"]),
        "train_frames_per_s": _median(s["train_frames_per_s"]),
        "train_final_loss": _quality(bench, "train_final_loss"),
        "f1_abs5": _quality(bench, "f1_abs5"),
        "parse_frames_per_s": _median(s["parse_frames_per_s"]),
        "parse_call_ms_p50": _median(s["parse_call_ms"]),
        "parse_call_ms_p90": _p90(s["parse_call_ms"]),
        "eval_call_ms_p50": _median(s["eval_call_ms"]),
        "tcn_train_frames_per_s": _median(s["tcn_train_frames_per_s"]),
        "kmeans_frames_per_s": _median(s["kmeans_frames_per_s"]),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def _p90(values: list[float]) -> float:
    """90th percentile, interpolated between the closest ranks.

    With the few calls a run of the train workloads makes, the default
    ("exclusive") method would read the slowest call alone.
    """
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _quality(bench: Bench, key: str) -> float:
    """Median over sub-seeds of a deterministic quality value."""
    return _median([values[0] for values in bench.quality[key].values()])


def _quality_checks(name: str, workload: Workload, bench: Bench, metrics: dict) -> None:
    """The default-seed loss reference and the F1 floors (full size only)."""
    if not bench.scale.checked_quality:
        return
    losses = bench.reference["train_final_loss"]
    if bench.seed == losses["seed"]:
        expected = losses[workload.corpus]
        got = metrics["train_final_loss"]["value"]
        bench.check(abs(got - expected) <= losses["rel_tol"] * abs(expected),
                    f"train_final_loss {got!r} != reference {expected!r} "
                    f"(rel tol {losses['rel_tol']})")
    for key in workload.floors:
        floor = bench.reference["f1_abs5_floor"][f"{name}/{key}"]
        value = _quality(bench, key)
        bench.check(value >= floor, f"{name} {key} {value} below floor {floor}")


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

# spans that only setup runs; read from the traced setup, per setup
SETUP_SPANS = ("cli.synth", "data.generate_synthetic", "data.write_dataset")
CLI_COMMANDS = ("synth", "train", "parse", "eval", "patterns", "baseline_kmeans",
                "baseline_tcn")


def _traced_run(name: str, workload: Workload, bench: Bench, seconds: float) -> dict:
    """The first setup traced, then untraced and traced cycles alternately.

    Alternating puts both kinds of cycle under the same machine conditions,
    so their difference is the tracing overhead.  Only the first traced
    cycle's individual spans are kept; totals cover every traced cycle.
    """
    setup_tracer = Tracer()
    setup_tracer.recording = True
    bench.tracer = setup_tracer
    setup_tracer.install(TAPKIT_MODULES)
    try:
        workload.setup(0)
    finally:
        setup_tracer.uninstall()
        bench.tracer = None
    for j in range(1, SUB_SEEDS):
        workload.setup(j)

    loop_tracer = Tracer()
    traced_s: list[float] = []
    untraced_s: list[float] = []

    def cycle(index: int) -> None:
        traced = index % 2 == 1
        if traced:
            loop_tracer.cycle = len(traced_s)
            loop_tracer.recording = not traced_s
            bench.tracer = loop_tracer
            loop_tracer.install(TAPKIT_MODULES)
        start = time.perf_counter()
        try:
            workload.cycle(index)
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                loop_tracer.uninstall()
                bench.tracer = None
        (traced_s if traced else untraced_s).append(elapsed)

    _loop(cycle, seconds, 2)

    spans_path = bench.workdir / "spans.jsonl"
    spans_path.unlink(missing_ok=True)
    setup_tracer.write_spans(spans_path, "setup")
    loop_tracer.write_spans(spans_path, "loop")
    metrics = per_layer_metrics(setup_tracer, loop_tracer, traced_s, untraced_s)
    summary = {
        "workload": name, "seed": bench.seed,
        "traced_cycles": len(traced_s), "untraced_cycles": len(untraced_s),
        "note": "per-layer values are per traced loop cycle, except "
                f"{', '.join(SETUP_SPANS)} (per setup); linalg.nodes_per_step "
                "and linalg.node_bytes_per_step are computed by walking each "
                "graph handed to backward, not timed",
        "metrics": metrics,
        "totals": {phase: {k: {"s": v[0], "self_s": v[1], "calls": v[2]}
                           for k, v in sorted(t.totals.items())}
                   for phase, t in (("setup", setup_tracer), ("loop", loop_tracer))},
        "counts": {"setup": setup_tracer.counts, "loop": loop_tracer.counts},
    }
    (bench.workdir / "trace_summary.json").write_text(json.dumps(summary, indent=1))
    print(f"spans: {spans_path}", file=sys.stderr)
    return metrics


def per_layer_metrics(setup: Tracer, loop: Tracer, traced_s: list[float],
                      untraced_s: list[float]) -> dict:
    cycles = len(traced_s)
    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    def span(name: str, field: int) -> float:
        tracer, per = (setup, 1) if name in SETUP_SPANS else (loop, cycles)
        agg = tracer.totals.get(name)
        return agg[field] / per if agg else 0.0

    def seconds(name: str) -> float:
        return span(name, 0)

    def calls(name: str) -> float:
        return span(name, 2)

    def per_cycle(count: str) -> float:
        return loop.counts.get(count, 0) / cycles

    def per_step(count: str) -> float:
        steps = loop.totals.get("linalg.backward", (0, 0, 0))[2]
        return loop.counts.get(count, 0) / steps if steps else 0.0

    for command in CLI_COMMANDS:
        put(f"cli.{command}.s", seconds(f"cli.{command}"), "s")
    for fn in ("generate_synthetic", "write_dataset", "load_dataset"):
        put(f"data.{fn}.s", seconds(f"data.{fn}"), "s")
    put("data.load_features.bytes", per_cycle("data.load_features.bytes"), "B")
    for fn in ("forward_graph", "forward"):
        put(f"model.{fn}.s", seconds(f"model.{fn}"), "s")
        put(f"model.{fn}.calls", calls(f"model.{fn}"), "count")
    put("model.load.s", seconds("model.load"), "s")
    put("model.save.s", seconds("model.save"), "s")
    put("model.checkpoint.bytes",
        max(loop.counts.get("model.checkpoint.bytes", 0),
            setup.counts.get("model.checkpoint.bytes", 0)), "B")
    put("linalg.backward.s", seconds("linalg.backward"), "s")
    put("linalg.backward.calls", calls("linalg.backward"), "count")
    put("linalg.backward.self_s", span("linalg.backward", 1), "s")
    put("linalg.nodes_per_step", per_step("linalg.graph_nodes"), "count")
    put("linalg.node_bytes_per_step", per_step("linalg.graph_bytes"), "B")
    for op in LINALG_OPS:
        put(f"linalg.{op}.fwd_s", seconds(f"linalg.{op}"), "s")
        put(f"linalg.{op}.push_s", seconds(f"linalg.{op}.push"), "s")
        put(f"linalg.{op}.calls", calls(f"linalg.{op}"), "count")
    put("losses.local_loss.s", seconds("losses.local_loss"), "s")
    put("losses.local_loss.pairs", per_cycle("losses.local_loss.pairs"), "count")
    put("losses.combined_loss.s", seconds("losses.combined_loss"), "s")
    put("losses.train.s", seconds("losses.train"), "s")
    put("losses.train.self_s", span("losses.train", 1), "s")
    put("parsing.extract_boundaries.s", seconds("parsing.extract_boundaries"), "s")
    put("parsing.extract_boundaries.calls", calls("parsing.extract_boundaries"), "count")
    put("metrics.sweep.s", seconds("metrics.sweep"), "s")
    put("metrics.match_boundaries.calls", calls("metrics.match_boundaries"), "count")
    put("metrics.pairs_compared", per_cycle("metrics.pairs_compared"), "count")
    for fn in ("kmeans_parse", "tcn_train", "tcn_parse"):
        put(f"baselines.{fn}.s", seconds(f"baselines.{fn}"), "s")

    for layer, value in loop.layer_self_s().items():
        put(f"self.{layer}.s", value / cycles, "s")
    put("self.unattributed.s", (sum(traced_s) - loop.top_level_s) / cycles, "s")
    traced, untraced = statistics.median(traced_s), statistics.median(untraced_s)
    put("trace.cycle_s", traced, "s")
    put("trace.untraced_cycle_s", untraced, "s")
    put("trace.overhead_s", traced - untraced, "s")
    return metrics
