"""Annotation/feature I/O, dataset statistics, and the synthetic generator.

Annotations and predictions are JSON lines, one instance per line, and both
carry start lists that obey one rule (``check_starts``): ints, strictly
increasing, inside ``[1, length)``.  Features live in a little-
endian binary container (magic ``FSEQ``): frames are stored as float32 and
widened to float64 on load.  The synthetic generator builds sequences of
prototype segments with optional linear cross-fades at the junctions, so
every instance comes with exact ground-truth boundaries.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import FEATURE_FORMAT_VERSION
from .errors import ConfigError, FormatError, InputError, ParseError, ValidationError

FEATURE_MAGIC = b"FSEQ"
SPLITS = ("train", "val", "test")

DATA_DIR_ENV = "TAPKIT_DATA_DIR"


def check_starts(starts: Sequence[int], length: int, where: str) -> tuple[int, ...]:
    """Return ``starts`` as a tuple of Python ints after checking the start rule.

    Starts are the frames where sub-actions begin after the first one:
    ints (Python or NumPy, not bools), strictly increasing, inside
    ``[1, length)`` (frame 0 trivially starts the first segment and is never
    listed).  Raises ValidationError prefixed with ``where``.
    """
    prev = 0
    for s in starts:
        if type(s) is not int and not isinstance(s, np.integer):
            raise ValidationError(f"{where}: boundary {s!r} is not an int")
        if not 0 < s < length:
            raise ValidationError(f"{where}: boundary {s} outside [1, {length})")
        if s == prev:
            raise ValidationError(f"{where}: duplicate boundary {s}")
        if s < prev:
            raise ValidationError(f"{where}: boundaries not increasing at {s}")
        prev = s
    return tuple(map(int, starts))


@dataclass(frozen=True)
class AnnotationRecord:
    """One annotated action instance."""

    instance_id: str
    video_id: str
    label: str
    length: int
    boundaries: tuple[int, ...]
    split: str

    def validate(self) -> None:
        if not self.instance_id:
            raise ValidationError("instance_id must be non-empty")
        # the id names the instance's feature file inside features/
        if "/" in self.instance_id or "\0" in self.instance_id:
            raise ValidationError(f"instance_id {self.instance_id!r} must not hold '/' or NUL")
        if self.length < 1:
            raise ValidationError(f"{self.instance_id}: length must be >= 1")
        if self.split not in SPLITS:
            raise ValidationError(f"{self.instance_id}: unknown split {self.split!r}")
        check_starts(self.boundaries, self.length, self.instance_id)


# ---------------------------------------------------------------------------
# annotation and prediction files (JSON lines)
# ---------------------------------------------------------------------------

_FIELDS = ("id", "video_id", "label", "length", "boundaries", "split")


def _jsonl_records(path, fields: tuple[str, ...], starts_field: str):
    """Yield ``(where, obj)`` for each non-blank line of a JSON-lines file.

    ``where`` is ``path:line``.  Each line must be valid UTF-8 and a JSON
    object carrying ``fields``, whose ``starts_field`` is a list of ints
    (``type(x) is int`` leaves out bools); anything else raises ParseError
    or ValidationError naming the line.
    """
    # surrogateescape defers a bad byte to the line that holds it
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            where = f"{path}:{lineno}"
            line = line.strip()
            if not line:
                continue
            try:
                line.encode("utf-8")
                obj = json.loads(line)
            except UnicodeEncodeError:
                raise ParseError(f"{where}: not UTF-8 text") from None
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"{where}: malformed JSON: {exc}") from exc
            if not isinstance(obj, dict) or any(k not in obj for k in fields):
                raise ParseError(f"{where}: record must be an object with fields {fields}")
            starts = obj[starts_field]
            if not isinstance(starts, list) or not all(type(s) is int for s in starts):
                raise ValidationError(f"{where}: {starts_field} must be a list of ints")
            yield where, obj


def load_annotations(path) -> list[AnnotationRecord]:
    """Parse and validate a JSONL annotation file.

    Unsorted boundary lists are sorted with a warning; a ``length`` that is
    not an int, duplicates and out-of-range boundaries are rejected.
    """
    records: list[AnnotationRecord] = []
    for where, obj in _jsonl_records(path, _FIELDS, "boundaries"):
        if type(obj["length"]) is not int:
            raise ValidationError(f"{where}: length must be an int")
        boundaries = obj["boundaries"]
        if sorted(boundaries) != boundaries:
            warnings.warn(f"{where}: boundaries out of order, sorting")
            boundaries = sorted(boundaries)
        record = AnnotationRecord(
            instance_id=str(obj["id"]),
            video_id=str(obj["video_id"]),
            label=str(obj["label"]),
            length=obj["length"],
            boundaries=tuple(boundaries),
            split=str(obj["split"]),
        )
        try:
            record.validate()
        except ValidationError as exc:
            raise ValidationError(f"{where}: {exc}") from exc
        records.append(record)
    return records


def load_predictions(path, records: Sequence[AnnotationRecord]) -> dict[str, tuple[int, ...]]:
    """Read a JSONL prediction file into instance id -> starts.

    Each line is ``{"id": str, "starts": [int, ...]}``; the id must name one
    of ``records`` and the starts must obey ``check_starts`` for that
    record's length.  A later line for the same id replaces an earlier one.
    """
    by_id = {r.instance_id: r for r in records}
    preds: dict[str, tuple[int, ...]] = {}
    for where, obj in _jsonl_records(path, ("id", "starts"), "starts"):
        instance_id = str(obj["id"])
        if instance_id not in by_id:
            raise ValidationError(f"{where}: prediction for unknown instance {instance_id!r}")
        preds[instance_id] = check_starts(obj["starts"], by_id[instance_id].length, where)
    return preds


def save_predictions(predictions: Iterable[tuple[str, Sequence[int]]], path) -> None:
    """Write ``(instance_id, starts)`` pairs as the JSONL that
    :func:`load_predictions` reads, one line per pair in the given order."""
    with open(path, "w", encoding="utf-8") as fh:
        for instance_id, starts in predictions:
            fh.write(json.dumps({"id": instance_id, "starts": list(starts)},
                                sort_keys=True) + "\n")


def save_annotations(records: Iterable[AnnotationRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            record.validate()
            fh.write(json.dumps({
                "id": record.instance_id,
                "video_id": record.video_id,
                "label": record.label,
                "length": record.length,
                "boundaries": list(record.boundaries),
                "split": record.split,
            }, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# feature container
# ---------------------------------------------------------------------------

def save_features(features, path) -> None:
    """Write one frame-feature matrix; storage is float32 row-major."""
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim != 2:
        raise InputError(f"features must be 2-D, got shape {arr.shape}")
    n, d = arr.shape
    if n < 1 or d < 1:
        raise InputError(f"features must be at least 1x1, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError("features contain non-finite entries")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_FORMAT_VERSION, n, d))
        fh.write(arr.astype("<f4").tobytes(order="C"))


def load_features(path) -> np.ndarray:
    """Read a feature matrix back as float64."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16 or blob[:4] != FEATURE_MAGIC:
        raise FormatError(f"{path}: not a feature container")
    version, n, d = struct.unpack("<III", blob[4:16])
    if version != FEATURE_FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported feature format version {version}")
    expected = 16 + 4 * n * d
    if len(blob) != expected:
        raise FormatError(f"{path}: expected {expected} bytes, found {len(blob)}")
    flat = np.frombuffer(blob, dtype="<f4", offset=16)
    if not np.isfinite(flat).all():
        raise FormatError(f"{path}: non-finite feature values")
    return flat.reshape(n, d).astype(np.float64)


# ---------------------------------------------------------------------------
# synthetic benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthConfig:
    """Controls the prototype-segment generator.

    Each action class is an ordered sequence of prototypes (no immediate
    repeats, lengths 2-6 unless ``action_orders`` pins them); every instance
    samples per-segment lengths from ``seg_len_range`` and adds Gaussian
    noise.  ``transition_width`` frames around each junction are linear
    cross-fades; the ground-truth boundary is the first frame where the
    incoming prototype's blend weight exceeds one half.
    """

    num_prototypes: int = 4
    feature_dim: int = 64
    num_actions: int = 4
    instances_per_action: int = 40
    seg_len_range: tuple[int, int] = (8, 20)
    transition_width: int = 2
    noise_sigma: float = 0.1
    seed: int = 0
    action_orders: tuple[tuple[int, ...], ...] | None = None
    split_fractions: tuple[float, float, float] = (0.7, 0.15, 0.15)

    def validate(self) -> None:
        if self.num_prototypes < 2:
            raise ConfigError(f"num_prototypes must be >= 2, got {self.num_prototypes}")
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        if self.num_actions < 1:
            raise ConfigError("num_actions must be >= 1")
        if self.instances_per_action < 1:
            raise ConfigError("instances_per_action must be >= 1")
        lo, hi = self.seg_len_range
        if lo < 1 or hi < lo:
            raise ConfigError(f"bad seg_len_range {self.seg_len_range}")
        if self.transition_width < 0:
            raise ConfigError("transition_width must be >= 0")
        if lo < self.transition_width + 1:
            raise ConfigError(
                f"min segment length {lo} too short for transition width "
                f"{self.transition_width} (needs >= width + 1)")
        # compared, not converted: an int beyond the float range must not raise
        if not 0 <= self.noise_sigma <= sys.float_info.max:
            raise ConfigError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.action_orders is not None:
            if len(self.action_orders) != self.num_actions:
                raise ConfigError("action_orders must give one order per action")
            for order in self.action_orders:
                if len(order) < 2:
                    raise ConfigError("each action needs at least 2 segments")
                if any(not 0 <= p < self.num_prototypes for p in order):
                    raise ConfigError("action_orders reference unknown prototypes")
                if any(a == b for a, b in zip(order, order[1:])):
                    raise ConfigError("action_orders must not repeat a prototype "
                                      "consecutively (the junction would be invisible)")
        # NumPy refuses an array whose byte size overflows intp; the largest
        # are the prototypes and one instance's blend weights and frames
        segments = 6 if self.action_orders is None else max(map(len, self.action_orders))
        for names, count in (
                ("num_prototypes x feature_dim", self.num_prototypes * self.feature_dim),
                ("seg_len_range x max(num_prototypes, feature_dim)",
                 segments * hi * max(self.num_prototypes, self.feature_dim))):
            if count > np.iinfo(np.intp).max // 8:
                raise ConfigError(f"{names} asks for an array of {count} floats, "
                                  "more than NumPy can hold")
        total = sum(self.split_fractions)
        # NaN fails every comparison, so the check asks for the valid range
        if not abs(total - 1.0) <= 1e-9 or any(f < 0 for f in self.split_fractions):
            raise ConfigError("split_fractions must be nonnegative and sum to 1")

    @classmethod
    def from_dict(cls, obj: dict) -> "SynthConfig":
        """Config from a parsed JSON object; every field is type-checked."""
        if not isinstance(obj, dict):
            raise ConfigError(f"synth config must be a JSON object, got {obj!r}")
        unknown = set(obj) - set(_SYNTH_FIELDS)
        if unknown:
            raise ConfigError(f"unknown synth config fields: {sorted(unknown)}")
        for key, value in obj.items():
            check, wanted = _SYNTH_FIELDS[key]
            if not check(value):
                raise ConfigError(f"synth config field {key!r} must be {wanted}, "
                                  f"got {value!r}")
        kwargs = dict(obj)
        for key in ("seg_len_range", "split_fractions"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        if kwargs.get("action_orders") is not None:
            kwargs["action_orders"] = tuple(tuple(o) for o in kwargs["action_orders"])
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg


def _is_int(value) -> bool:
    return type(value) is int  # leaves out bools


def _is_real(value) -> bool:
    return type(value) in (int, float)


def _is_list(value, length=None, item=_is_int) -> bool:
    return (isinstance(value, (list, tuple)) and length in (None, len(value))
            and all(map(item, value)))


_SYNTH_FIELDS = {
    **{name: (_is_int, "an int") for name in (
        "num_prototypes", "feature_dim", "num_actions", "instances_per_action",
        "transition_width", "seed")},
    "noise_sigma": (_is_real, "a number"),
    "seg_len_range": (lambda v: _is_list(v, 2), "a list of 2 ints"),
    "split_fractions": (lambda v: _is_list(v, 3, _is_real), "a list of 3 numbers"),
    "action_orders": (lambda v: v is None or _is_list(v, item=_is_list),
                      "null or a list of int lists"),
}
"""Each JSON field of :class:`SynthConfig`: its type check and its wording."""


def _sample_order(rng: np.random.Generator, num_prototypes: int) -> tuple[int, ...]:
    length = int(rng.integers(2, 7))
    order = [int(rng.integers(num_prototypes))]
    for _ in range(length - 1):
        step = int(rng.integers(num_prototypes - 1))
        nxt = step if step < order[-1] else step + 1  # skip the previous prototype
        order.append(nxt)
    return tuple(order)


def _assign_splits(rng: np.random.Generator, count: int,
                   fractions: tuple[float, float, float]) -> list[str]:
    n_train = int(round(fractions[0] * count))
    n_val = int(round(fractions[1] * count))
    n_train = min(n_train, count)
    n_val = min(n_val, count - n_train)
    tags = (["train"] * n_train + ["val"] * n_val + ["test"] * (count - n_train - n_val))
    perm = rng.permutation(count)
    return [tags[perm[i]] for i in range(count)]


def generate_synthetic(cfg: SynthConfig) -> tuple[list[np.ndarray], list[AnnotationRecord], np.ndarray]:
    """Build the synthetic corpus: features, annotations, prototype matrix.

    Deterministic for a fixed config; with ``noise_sigma=0`` and
    ``transition_width=0`` every frame equals its segment's prototype
    exactly and the boundary sits on the first frame of each new segment.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    prototypes = rng.normal(size=(cfg.num_prototypes, cfg.feature_dim))
    if cfg.action_orders is not None:
        orders = list(cfg.action_orders)
    else:
        orders = [_sample_order(rng, cfg.num_prototypes) for _ in range(cfg.num_actions)]
    lo, hi = cfg.seg_len_range
    w = cfg.transition_width
    blend = np.arange(1.0, w + 1.0) / (w + 1.0)  # incoming weight across a fade
    features: list[np.ndarray] = []
    records: list[AnnotationRecord] = []
    for action_index, order in enumerate(orders):
        label = f"act{action_index:02d}"
        splits = _assign_splits(rng, cfg.instances_per_action, cfg.split_fractions)
        for inst in range(cfg.instances_per_action):
            lengths = rng.integers(lo, hi + 1, size=len(order))
            n = int(lengths.sum())
            weights = np.zeros((n, cfg.num_prototypes))
            cursor = 0
            for proto, seg_len in zip(order, lengths):
                weights[cursor:cursor + seg_len, proto] = 1.0
                cursor += seg_len
            junctions = np.cumsum(lengths)[:-1]
            for junction, prev_proto, next_proto in zip(junctions, order, order[1:]):
                rows = np.arange(junction - w // 2, junction - w // 2 + w)
                weights[rows] = 0.0
                weights[rows, prev_proto] = 1.0 - blend
                weights[rows, next_proto] = blend
            # ground truth: the first frame whose incoming weight exceeds 1/2
            boundaries = [int(junction) + w % 2 for junction in junctions]
            frames = weights @ prototypes
            if cfg.noise_sigma > 0:
                frames = frames + cfg.noise_sigma * rng.normal(size=frames.shape)
            instance_id = f"{label}_i{inst:03d}"
            features.append(frames)
            records.append(AnnotationRecord(
                instance_id=instance_id,
                video_id=instance_id,
                label=label,
                length=n,
                boundaries=tuple(boundaries),
                split=splits[inst],
            ))
    return features, records, prototypes


# ---------------------------------------------------------------------------
# dataset directory helpers
# ---------------------------------------------------------------------------

def write_dataset(directory, features: Sequence[np.ndarray],
                  records: Sequence[AnnotationRecord]) -> None:
    """Lay out a dataset directory: annotations.jsonl plus features/<id>.fseq."""
    if len(features) != len(records):
        raise InputError(f"{len(features)} feature blocks for {len(records)} records")
    directory = Path(directory)
    (directory / "features").mkdir(parents=True, exist_ok=True)
    save_annotations(records, directory / "annotations.jsonl")
    for arr, record in zip(features, records):
        if arr.shape[0] != record.length:
            raise InputError(f"{record.instance_id}: {arr.shape[0]} frames but "
                             f"length {record.length}")
        save_features(arr, directory / "features" / f"{record.instance_id}.fseq")


def load_dataset(directory, split: str | None = None
                 ) -> list[tuple[AnnotationRecord, np.ndarray]]:
    """Load a dataset directory, optionally restricted to one split."""
    directory = Path(directory)
    if split is not None and split not in SPLITS:
        raise InputError(f"unknown split {split!r}, expected one of {SPLITS}")
    records = load_annotations(directory / "annotations.jsonl")
    out = []
    for record in records:
        if split is not None and record.split != split:
            continue
        arr = load_features(directory / "features" / f"{record.instance_id}.fseq")
        if arr.shape[0] != record.length:
            raise ValidationError(
                f"{record.instance_id}: feature file has {arr.shape[0]} frames, "
                f"annotation says {record.length}")
        out.append((record, arr))
    return out


def resolve_data_dir(value: str | None) -> Path:
    """CLI helper: explicit path wins, else the TAPKIT_DATA_DIR environment."""
    if value:
        return Path(value)
    env = os.environ.get(DATA_DIR_ENV)
    if env:
        return Path(env)
    raise InputError(f"no data directory given and {DATA_DIR_ENV} is not set")


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

HISTOGRAM_BINS = 20


@dataclass(frozen=True)
class DatasetStats:
    per_class_avg_boundaries: dict[str, float]
    boundary_histogram: np.ndarray  # fraction of boundaries per position bin
    class_counts: dict[str, int]
    split_counts: dict[str, int]

    def as_text(self) -> str:
        lines = ["instances per class:"]
        for label in sorted(self.class_counts):
            lines.append(f"  {label}: {self.class_counts[label]} instances, "
                         f"avg {self.per_class_avg_boundaries[label]:.2f} boundaries")
        lines.append("instances per split:")
        for split in SPLITS:
            lines.append(f"  {split}: {self.split_counts.get(split, 0)}")
        lines.append(f"boundary position histogram ({HISTOGRAM_BINS} bins over "
                     "normalized length):")
        lines.append("  " + " ".join(f"{v:.3f}" for v in self.boundary_histogram))
        return "\n".join(lines)


def compute_dataset_stats(records: Sequence[AnnotationRecord]) -> DatasetStats:
    """Per-class boundary counts plus the normalized boundary-position histogram."""
    if not records:
        raise InputError("no records to summarize")
    counts: dict[str, int] = {}
    boundary_totals: dict[str, int] = {}
    split_counts: dict[str, int] = {}
    hist = np.zeros(HISTOGRAM_BINS)
    for record in records:
        counts[record.label] = counts.get(record.label, 0) + 1
        boundary_totals[record.label] = (boundary_totals.get(record.label, 0)
                                         + len(record.boundaries))
        split_counts[record.split] = split_counts.get(record.split, 0) + 1
        for b in record.boundaries:
            bin_index = min(int(b / record.length * HISTOGRAM_BINS), HISTOGRAM_BINS - 1)
            hist[bin_index] += 1
    total = hist.sum()
    if total > 0:
        hist = hist / total
    averages = {label: boundary_totals[label] / counts[label] for label in counts}
    return DatasetStats(per_class_avg_boundaries=averages,
                        boundary_histogram=hist,
                        class_counts=counts,
                        split_counts=split_counts)
