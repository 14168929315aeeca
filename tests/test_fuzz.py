"""Fuzz the five file readers: annotations, predictions, features, checkpoints
and the synth config.

Each example takes one valid file of a tiny dataset and applies one
mutation: a truncation, a byte flip, or, for the JSON inputs, one field
dropped or replaced by a value of the wrong JSON type.  The reader must
accept the result or raise a ``TapkitError``; the CLI command that reads
the file must not raise, and must exit 3 or 4 when the reader rejects it.
Examples are derandomized so that every run checks the same inputs.
"""

import contextlib
import io
import json
import math
import shutil
import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tapkit.cli import main
from tapkit.data import (SynthConfig, generate_synthetic, load_annotations,
                         load_features, load_predictions, write_dataset)
from tapkit.errors import ParseError, TapkitError
from tapkit.model import ModelConfig, TransParserModel

FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None)

DROP = object()
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 300),
                    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3))
WRONG_VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4),
                         st.dictionaries(st.text(max_size=2), st.integers(0, 9), max_size=2),
                         st.just(DROP))

# small magnitudes only, so that no accepted synth config builds a large corpus
SMALL_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 8),
                          st.floats(-8, 8), st.sampled_from([math.nan, math.inf]),
                          st.text(max_size=3))
SMALL_VALUES = st.one_of(SMALL_SCALARS, st.lists(SMALL_SCALARS, max_size=4),
                         st.lists(st.lists(st.integers(-1, 4), max_size=4), max_size=3),
                         st.just(DROP))
SYNTH = dict(num_prototypes=3, feature_dim=4, num_actions=2, instances_per_action=3,
             seg_len_range=[3, 5], transition_width=0, noise_sigma=0.1, seed=0,
             action_orders=None, split_fractions=[0.0, 0.0, 1.0])

ANNOTATION_FIELDS = ("id", "video_id", "label", "length", "boundaries", "split")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz")
    cfg = SynthConfig(num_prototypes=3, feature_dim=4, num_actions=2,
                      instances_per_action=3, seg_len_range=(3, 5),
                      transition_width=0, noise_sigma=0.1, seed=0,
                      split_fractions=(0.0, 0.0, 1.0))
    features, records, _ = generate_synthetic(cfg)
    data = base / "data"
    write_dataset(data, features, records)
    pred = base / "pred.jsonl"
    pred.write_text("".join(json.dumps({"id": r.instance_id, "starts": list(r.boundaries)})
                            + "\n" for r in records))
    model = base / "model.tpsr"
    TransParserModel.initialize(ModelConfig(feature_dim=4, pattern_dim=4, num_patterns=3,
                                            attn_dim=2, value_dim=2, hidden_dim=4,
                                            num_classes=2, num_units=1),
                                seed=0, labels=["act00", "act01"]).save(model)
    synth = base / "synth.json"
    synth.write_text(json.dumps(SYNTH) + "\n")
    return {"data": data, "records": records, "pred": pred, "model": model,
            "synth": synth,
            "fseq": data / "features" / f"{records[0].instance_id}.fseq",
            "parse": ["parse", "--data", data, "--model", model,
                      "--out", base / "out.jsonl"]}


def mutate_bytes(data, blob):
    if data.draw(st.booleans(), label="truncate"):
        return blob[:data.draw(st.integers(0, len(blob) - 1), label="keep")]
    at = data.draw(st.integers(0, len(blob) - 1), label="at")
    out = bytearray(blob)
    out[at] ^= data.draw(st.integers(1, 255), label="xor")
    return bytes(out)


def mutate_object(data, obj, fields, values=WRONG_VALUES):
    field = data.draw(st.sampled_from(fields), label="field")
    value = data.draw(values, label="value")
    obj = dict(obj)
    if value is DROP:
        del obj[field]
    else:
        obj[field] = value
    return obj


def mutate_jsonl(data, blob, fields, values=WRONG_VALUES):
    if data.draw(st.booleans(), label="wrong type"):
        lines = blob.decode("utf-8").splitlines()
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        lines[i] = json.dumps(mutate_object(data, json.loads(lines[i]), fields, values))
        return ("\n".join(lines) + "\n").encode("utf-8")
    return mutate_bytes(data, blob)


def check(path, blob, read, argv, accepted_codes):
    """Write ``blob`` over ``path``, read it, run the CLI, restore the file."""
    original = path.read_bytes()
    path.write_bytes(blob)
    stderr = io.StringIO()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # unsorted boundaries warn
            try:
                read()
                rejected = False
            except TapkitError:
                rejected = True
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                code = main([str(a) for a in argv])
    finally:
        path.write_bytes(original)
    if rejected:
        assert code in (3, 4) and stderr.getvalue().startswith("error:"), (code, blob)
    else:
        assert code in accepted_codes, (code, blob)


@FUZZ
@given(data=st.data())
def test_annotations(corpus, data):
    path = corpus["data"] / "annotations.jsonl"
    blob = mutate_jsonl(data, path.read_bytes(), ANNOTATION_FIELDS)
    # an empty file reads as no records, which stats rejects
    check(path, blob, lambda: load_annotations(path),
          ["stats", "--data", corpus["data"]], (0, 4))


@FUZZ
@given(data=st.data())
def test_predictions(corpus, data):
    path = corpus["pred"]
    blob = mutate_jsonl(data, path.read_bytes(), ("id", "starts"))
    # an empty file reads as no predictions, which eval rejects
    check(path, blob, lambda: load_predictions(path, corpus["records"]),
          ["eval", "--pred", path, "--gt", corpus["data"]], (0, 4))


@FUZZ
@given(data=st.data())
def test_features(corpus, data):
    path = corpus["fseq"]
    blob = mutate_bytes(data, path.read_bytes())
    # finite but huge values can overflow the forward pass (exit 5)
    check(path, blob, lambda: load_features(path), corpus["parse"], (0, 5))


@FUZZ
@given(data=st.data())
def test_checkpoint(corpus, data):
    path = corpus["model"]
    blob = path.read_bytes()
    if data.draw(st.booleans(), label="wrong type"):
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = mutate_object(data, json.loads(blob[12:12 + hlen]),
                               ("feature_dim", "num_patterns", "num_units", "labels"))
        raw = json.dumps(header).encode("utf-8")
        blob = blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + hlen:]
    else:
        blob = mutate_bytes(data, blob)
    # finite but huge weights can overflow the forward pass (exit 5)
    check(path, blob, lambda: TransParserModel.load(path), corpus["parse"], (0, 5))


def read_synth_config(path):
    try:
        obj = json.loads(path.read_bytes().decode("utf-8"))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    return SynthConfig.from_dict(obj)


@FUZZ
@given(data=st.data())
def test_synth_config(corpus, data):
    path = corpus["synth"]
    out = path.with_name("synth_out")
    blob = mutate_jsonl(data, path.read_bytes(), tuple(SYNTH), SMALL_VALUES)
    try:
        # an accepted config must generate and write its corpus
        check(path, blob, lambda: read_synth_config(path),
              ["synth", "--config", path, "--out", out], (0,))
    finally:
        shutil.rmtree(out, ignore_errors=True)
