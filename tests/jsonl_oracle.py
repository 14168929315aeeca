"""The JSON-lines readers as they were before the one-pass rewrite.

Kept as the reference that ``tests/test_fuzz.py`` compares
``tapkit.data.load_annotations`` and ``load_predictions`` against: on every
input both must return equal records with the same warnings, or raise the
same exception class with the same message.
"""

import json
import warnings

from tapkit.data import AnnotationRecord, check_starts
from tapkit.errors import ParseError, ValidationError

_FIELDS = ("id", "video_id", "label", "length", "boundaries", "split")


def _jsonl_records(path, fields, starts_field):
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


def load_annotations(path):
    records = []
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


def load_predictions(path, records):
    by_id = {r.instance_id: r for r in records}
    preds = {}
    for where, obj in _jsonl_records(path, ("id", "starts"), "starts"):
        instance_id = str(obj["id"])
        if instance_id not in by_id:
            raise ValidationError(f"{where}: prediction for unknown instance {instance_id!r}")
        preds[instance_id] = check_starts(obj["starts"], by_id[instance_id].length, where)
    return preds
