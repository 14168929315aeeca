import json

import numpy as np
import pytest

from tapkit.baselines import kmeans_parse
from tapkit.data import (AnnotationRecord, DatasetStats, SynthConfig, check_starts,
                         compute_dataset_stats, generate_synthetic,
                         load_annotations, load_dataset, load_features,
                         load_predictions, resolve_data_dir, save_annotations,
                         save_features, write_dataset)
from tapkit.errors import (ConfigError, FormatError, InputError, ParseError,
                           ValidationError)
from tapkit.metrics import recall_prec_f1


def random_records(rng, count):
    out = []
    for i in range(count):
        length = int(rng.integers(10, 300))
        k = int(rng.integers(0, 6))
        boundaries = sorted(set(rng.integers(1, length, size=k).tolist()))
        out.append(AnnotationRecord(
            instance_id=f"inst{i:03d}", video_id=f"vid{i // 3:03d}",
            label=f"act{int(rng.integers(4)):02d}", length=length,
            boundaries=tuple(boundaries),
            split=("train", "val", "test")[int(rng.integers(3))]))
    return out


class TestAnnotations:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_annotations(path) == []

    def test_unsorted_boundaries_are_sorted_with_warning(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        path.write_text(json.dumps({
            "id": "a", "video_id": "v", "label": "jump", "length": 50,
            "boundaries": [30, 10], "split": "train"}) + "\n")
        with pytest.warns(UserWarning, match="out of order"):
            records = load_annotations(path)
        assert records[0].boundaries == (10, 30)

    def test_round_trip_100_random_records(self, tmp_path):
        records = random_records(np.random.default_rng(0), 100)
        path = tmp_path / "ann.jsonl"
        save_annotations(records, path)
        assert load_annotations(path) == records

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\nnot json\n')
        with pytest.raises(ParseError, match=":1:"):
            load_annotations(path)
        path.write_text(json.dumps({
            "id": "a", "video_id": "v", "label": "x", "length": 10,
            "boundaries": [], "split": "train"}) + "\nnot json\n")
        with pytest.raises(ParseError, match=":2:"):
            load_annotations(path)

    def test_boundary_at_or_past_length_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "id": "a", "video_id": "v", "label": "x", "length": 10,
            "boundaries": [10], "split": "train"}) + "\n")
        with pytest.raises(ValidationError, match="boundary 10"):
            load_annotations(path)

    def test_duplicate_boundaries_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "id": "a", "video_id": "v", "label": "x", "length": 10,
            "boundaries": [3, 3], "split": "train"}) + "\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_annotations(path)

    def test_unknown_split_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "id": "a", "video_id": "v", "label": "x", "length": 10,
            "boundaries": [], "split": "dev"}) + "\n")
        with pytest.raises(ValidationError, match="split"):
            load_annotations(path)


    @pytest.mark.parametrize("field,value", [
        ("length", "x"), ("length", [1]), ("length", None), ("length", 9.7),
        ("length", True), ("boundaries", [True])])
    def test_malformed_field_rejected(self, tmp_path, field, value):
        record = {"id": "a", "video_id": "v", "label": "x", "length": 10,
                  "boundaries": [2], "split": "train"}
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({**record, field: value}) + "\n")
        with pytest.raises(ValidationError, match=f"bad.jsonl:1: .*{field}"):
            load_annotations(path)

    @pytest.mark.parametrize("instance_id", ["a\u0000b", "../escape", "sub/x"])
    def test_id_unusable_as_file_name_rejected(self, tmp_path, instance_id):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({
            "id": instance_id, "video_id": "v", "label": "x", "length": 10,
            "boundaries": [], "split": "train"}) + "\n")
        with pytest.raises(ValidationError, match="bad.jsonl:1: .*instance_id"):
            load_annotations(path)

    def test_non_utf8_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b"\n" + json.dumps({"id": "a"}).encode()[:-1] + b"\xff}\n")
        with pytest.raises(ParseError, match=":2: not UTF-8"):
            load_annotations(path)


class TestCheckStarts:
    def test_valid(self):
        starts = check_starts((10, 40), 100, "a")
        assert starts == (10, 40)
        assert len(starts) + 1 == 3  # segments

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError, match="boundary 0"):
            check_starts((0,), 100, "a")
        with pytest.raises(ValidationError, match="boundary 100"):
            check_starts((100,), 100, "a")

    def test_rejects_unsorted(self):
        with pytest.raises(ValidationError, match="^a: "):
            check_starts((40, 10), 100, "a")
        with pytest.raises(ValidationError, match="duplicate"):
            check_starts((10, 10), 100, "a")

    def test_rejects_non_ints_and_accepts_numpy_ints(self):
        for bad in ((True,), (2.0,), ("3",), (np.float64(3),)):
            with pytest.raises(ValidationError, match="not an int"):
                check_starts(bad, 100, "a")
        starts = check_starts(np.array([3, 7]), 100, "a")
        assert starts == (3, 7) and all(type(s) is int for s in starts)


class TestPredictions:
    RECORDS = [AnnotationRecord("a", "v", "x", 10, (4,), "test"),
               AnnotationRecord("b", "v", "x", 6, (), "test")]

    def test_reads_starts_by_id(self, tmp_path):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"id": "b", "starts": []}\n\n{"id": "a", "starts": [3, 9]}\n')
        assert load_predictions(path, self.RECORDS) == {"b": (), "a": (3, 9)}

    @pytest.mark.parametrize("line,error,match", [
        ('{"id": "a", "starts": [true]}', ValidationError, "list of ints"),
        ('{"id": "a", "starts": [3, 10]}', ValidationError, "boundary 10"),
        ('{"id": "a", "starts": [5, 5]}', ValidationError, "duplicate"),
        ('{"id": "ghost", "starts": []}', ValidationError, "unknown instance"),
        ('{"starts": []}', ParseError, "fields"),
        ('[1]', ParseError, "fields"),
        ('{"id": "a", "starts": [', ParseError, "malformed JSON"),
    ])
    def test_bad_line_names_path_and_line(self, tmp_path, line, error, match):
        path = tmp_path / "pred.jsonl"
        path.write_text('{"id": "b", "starts": [1]}\n' + line + "\n")
        with pytest.raises(error, match=f"pred.jsonl:2: .*{match}"):
            load_predictions(path, self.RECORDS)


class TestFeatureContainer:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=(3, 4)).astype(np.float32).astype(np.float64)
        path = tmp_path / "x.fseq"
        save_features(arr, path)
        assert np.array_equal(load_features(path), arr)

    def test_truncated_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "x.fseq"
        save_features(np.ones((4, 5)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-7])
        with pytest.raises(FormatError, match="bytes"):
            load_features(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.fseq"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError, match="not a feature container"):
            load_features(path)

    def test_nonfinite_rejected_on_load(self, tmp_path):
        path = tmp_path / "x.fseq"
        save_features(np.ones((2, 3)), path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite"):
            load_features(path)

    def test_zero_frames_rejected_on_save(self, tmp_path):
        with pytest.raises(InputError):
            save_features(np.zeros((0, 4)), tmp_path / "x.fseq")

    def test_nonfinite_rejected_on_save(self, tmp_path):
        arr = np.ones((2, 2))
        arr[0, 0] = np.inf
        with pytest.raises(InputError):
            save_features(arr, tmp_path / "x.fseq")


class TestSyntheticGenerator:
    def test_noiseless_two_segments(self):
        cfg = SynthConfig(num_prototypes=2, feature_dim=4, num_actions=1,
                          instances_per_action=1, seg_len_range=(3, 3),
                          transition_width=0, noise_sigma=0.0, seed=0,
                          action_orders=((0, 1),))
        features, records, prototypes = generate_synthetic(cfg)
        frames = features[0]
        assert records[0].boundaries == (3,)
        assert np.array_equal(frames[:3], np.tile(prototypes[0], (3, 1)))
        assert np.array_equal(frames[3:], np.tile(prototypes[1], (3, 1)))

    def test_same_seed_is_bitwise_identical(self):
        cfg = SynthConfig(num_prototypes=3, feature_dim=6, num_actions=2,
                          instances_per_action=3, seg_len_range=(4, 8),
                          transition_width=2, noise_sigma=0.3, seed=7)
        f1, r1, p1 = generate_synthetic(cfg)
        f2, r2, p2 = generate_synthetic(cfg)
        assert r1 == r2
        assert np.array_equal(p1, p2)
        for a, b in zip(f1, f2):
            assert np.array_equal(a, b)

    def test_noiseless_kmeans_recovers_every_boundary(self):
        cfg = SynthConfig(num_prototypes=4, feature_dim=8, num_actions=2,
                          instances_per_action=4, seg_len_range=(4, 9),
                          transition_width=0, noise_sigma=0.0, seed=3)
        features, records, _ = generate_synthetic(cfg)
        for frames, record in zip(features, records):
            starts = kmeans_parse(frames, k=4, seed=0)
            for d in (1.0, 2.0, 10.0):
                assert recall_prec_f1(starts, record.boundaries, d) == (1, 1, 1)

    def test_crossfade_boundary_convention(self):
        # width 2: blend weights 1/3 then 2/3, so the boundary stays on the
        # first frame of the new segment
        cfg = SynthConfig(num_prototypes=2, feature_dim=4, num_actions=1,
                          instances_per_action=1, seg_len_range=(5, 5),
                          transition_width=2, noise_sigma=0.0, seed=0,
                          action_orders=((0, 1),))
        features, records, prototypes = generate_synthetic(cfg)
        frames = features[0]
        assert records[0].boundaries == (5,)
        assert np.allclose(frames[3], prototypes[0])
        assert np.allclose(frames[4], (2 * prototypes[0] + prototypes[1]) / 3)
        assert np.allclose(frames[5], (prototypes[0] + 2 * prototypes[1]) / 3)
        assert np.allclose(frames[6], prototypes[1])

    def test_boundaries_valid_for_all_widths(self):
        for width in (0, 1, 2, 3, 4):
            cfg = SynthConfig(num_prototypes=3, feature_dim=4, num_actions=3,
                              instances_per_action=5,
                              seg_len_range=(width + 1, width + 6),
                              transition_width=width, noise_sigma=0.0,
                              seed=width)
            _, records, _ = generate_synthetic(cfg)
            for record in records:
                record.validate()
                assert len(record.boundaries) >= 1

    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_odd_width_boundary_is_first_frame_past_half(self, width):
        # recover each frame's prototype weights from the noiseless frames; an
        # odd fade has a frame at exactly 1/2, which must not be the boundary
        orders = ((0, 1, 2, 0), (2, 0, 1))
        cfg = SynthConfig(num_prototypes=3, feature_dim=6, num_actions=2,
                          instances_per_action=4, seg_len_range=(width + 1, width + 5),
                          transition_width=width, noise_sigma=0.0, seed=width,
                          action_orders=orders)
        features, records, prototypes = generate_synthetic(cfg)
        for frames, record in zip(features, records):
            weights = np.linalg.lstsq(prototypes.T, frames.T, rcond=None)[0].T
            order = orders[int(record.label.removeprefix("act"))]
            previous = 0
            for boundary, incoming in zip(record.boundaries, order[1:]):
                past_half = weights[previous:, incoming] > 0.5 + 1e-9
                assert boundary == previous + int(np.argmax(past_half))
                assert past_half.any()
                previous = boundary

    def test_segment_range_too_short_for_fade(self):
        with pytest.raises(ConfigError, match="transition width"):
            SynthConfig(seg_len_range=(2, 9), transition_width=2).validate()

    def test_adjacent_repeat_orders_rejected(self):
        with pytest.raises(ConfigError, match="consecutively"):
            SynthConfig(num_actions=1, action_orders=((0, 0, 1),)).validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError, match="unknown synth config"):
            SynthConfig.from_dict({"num_protos": 4})


class TestDatasetDirectory:
    def test_write_then_load_round_trip(self, tmp_path):
        cfg = SynthConfig(num_prototypes=3, feature_dim=5, num_actions=2,
                          instances_per_action=4, seg_len_range=(3, 6),
                          transition_width=1, noise_sigma=0.1, seed=11)
        features, records, _ = generate_synthetic(cfg)
        write_dataset(tmp_path, features, records)
        loaded = load_dataset(tmp_path)
        assert [r for r, _ in loaded] == records
        for (_, arr), original in zip(loaded, features):
            assert np.allclose(arr, original, atol=1e-6)  # float32 storage

    def test_split_filter(self, tmp_path):
        cfg = SynthConfig(num_prototypes=2, feature_dim=4, num_actions=1,
                          instances_per_action=10, seg_len_range=(3, 4),
                          transition_width=0, noise_sigma=0.0, seed=5)
        features, records, _ = generate_synthetic(cfg)
        write_dataset(tmp_path, features, records)
        for split in ("train", "val", "test"):
            loaded = load_dataset(tmp_path, split=split)
            assert all(r.split == split for r, _ in loaded)
        assert sum(len(load_dataset(tmp_path, split=s))
                   for s in ("train", "val", "test")) == len(records)

    def test_resolve_data_dir(self, monkeypatch, tmp_path):
        monkeypatch.delenv("TAPKIT_DATA_DIR", raising=False)
        assert str(resolve_data_dir(str(tmp_path))) == str(tmp_path)
        with pytest.raises(InputError):
            resolve_data_dir(None)
        monkeypatch.setenv("TAPKIT_DATA_DIR", str(tmp_path))
        assert str(resolve_data_dir(None)) == str(tmp_path)


class TestDatasetStats:
    def test_single_record(self):
        record = AnnotationRecord("a", "v", "jump", 100, (25, 50), "train")
        stats = compute_dataset_stats([record])
        assert stats.per_class_avg_boundaries == {"jump": 2.0}
        assert stats.class_counts == {"jump": 1}
        assert stats.split_counts == {"train": 1}
        hist = stats.boundary_histogram
        assert hist[5] == 0.5 and hist[10] == 0.5
        assert abs(hist.sum() - 1.0) < 1e-12

    def test_uniform_boundaries_give_flat_histogram(self):
        rng = np.random.default_rng(8)
        records = []
        for i in range(400):
            length = 1000
            boundaries = sorted(set(rng.integers(1, length, size=8).tolist()))
            records.append(AnnotationRecord(f"i{i}", f"v{i}", "a", length,
                                            tuple(boundaries), "train"))
        hist = compute_dataset_stats(records).boundary_histogram
        counts = hist * sum(len(r.boundaries) for r in records)
        expected = counts.sum() / hist.size
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 43.8  # chi-square 99.9th percentile, 19 dof

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            compute_dataset_stats([])

    def test_text_rendering(self):
        record = AnnotationRecord("a", "v", "jump", 100, (25,), "val")
        text = compute_dataset_stats([record]).as_text()
        assert "jump" in text and "val: 1" in text
