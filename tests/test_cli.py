import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import tapkit.cli
from tapkit.baselines import kmeans_parse, tcn_parse, tcn_train
from tapkit.cli import main
from tapkit.data import load_features
from tapkit.model import TransParserModel, forward
from tapkit.parsing import extract_boundaries

TINY_SYNTH = {
    "num_prototypes": 3, "feature_dim": 8, "num_actions": 2,
    "instances_per_action": 8, "seg_len_range": [4, 8],
    "transition_width": 1, "noise_sigma": 0.1, "seed": 5,
}


def write_config(tmp_path, **overrides):
    payload = {**TINY_SYNTH, **overrides}
    path = tmp_path / "synth.json"
    path.write_text(json.dumps(payload))
    return path


def run(args):
    return main([str(a) for a in args])


def assert_one_error_line(code, capsys, expected=4):
    """Exit ``expected`` with a single ``error:`` line on stderr, so no
    traceback and no warning."""
    err = capsys.readouterr().err
    assert code == expected, err
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


@pytest.fixture()
def tiny_data(tmp_path):
    config = write_config(tmp_path)
    data_dir = tmp_path / "data"
    assert run(["synth", "--config", config, "--out", data_dir]) == 0
    return data_dir


class TestSynth:
    def test_writes_layout(self, tiny_data):
        assert (tiny_data / "annotations.jsonl").exists()
        assert (tiny_data / "prototypes.fseq").exists()
        fseq = list((tiny_data / "features").glob("*.fseq"))
        assert len(fseq) == 16

    def test_bad_config_field_exits_4(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"num_protos": 3}))
        assert run(["synth", "--config", config, "--out", tmp_path / "d"]) == 4
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exits_3(self, tmp_path):
        assert run(["synth", "--config", tmp_path / "nope.json",
                    "--out", tmp_path / "d"]) == 3


class TestEval:
    def test_self_evaluation_is_perfect(self, tiny_data, tmp_path, capsys):
        # ground truth as predictions: every threshold must score 1
        records = [json.loads(line) for line in
                   (tiny_data / "annotations.jsonl").read_text().splitlines()]
        pred_path = tmp_path / "pred.jsonl"
        with open(pred_path, "w") as fh:
            for record in records:
                fh.write(json.dumps({"id": record["id"],
                                     "starts": record["boundaries"]}) + "\n")
        csv_path = tmp_path / "report.csv"
        assert run(["eval", "--pred", pred_path, "--gt", tiny_data,
                    "--out", csv_path]) == 0
        out = capsys.readouterr().out
        assert "avg. F1-score (rel.): 1.0000" in out
        assert "avg. F1-score (abs.): 1.0000" in out
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "threshold_kind,d,recall,precision,f1"

    def test_worked_metric_example_prints_04000(self, tmp_path, capsys):
        data_dir = tmp_path / "gt"
        (data_dir / "features").mkdir(parents=True)
        with open(data_dir / "annotations.jsonl", "w") as fh:
            fh.write(json.dumps({"id": "w", "video_id": "w", "label": "a",
                                 "length": 100, "boundaries": [10, 20, 30],
                                 "split": "test"}) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "w", "starts": [11, 50]}) + "\n")
        assert run(["eval", "--pred", pred, "--gt", data_dir,
                    "--abs-thresholds", "2", "--rel-thresholds", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "f1=0.4000" in out

    def test_unknown_instance_exits_4(self, tiny_data, tmp_path):
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "ghost", "starts": [1]}) + "\n")
        assert run(["eval", "--pred", pred, "--gt", tiny_data]) == 4

    @pytest.mark.parametrize("starts", [None, ["a"], 5, [-4, 9999, 9999]],
                             ids=["not-an-object", "string-start", "starts-not-a-list",
                                  "out-of-range"])
    def test_malformed_prediction_exits_4(self, tiny_data, tmp_path, capsys, starts):
        first = json.loads((tiny_data / "annotations.jsonl").read_text().splitlines()[0])
        line = "5" if starts is None else json.dumps({"id": first["id"], "starts": starts})
        pred = tmp_path / "pred.jsonl"
        pred.write_text(line + "\n")
        assert run(["eval", "--pred", pred, "--gt", tiny_data]) == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [("length", "x"), ("length", [1]),
                                             ("length", None), ("length", 9.7),
                                             ("boundaries", [True])])
    def test_malformed_annotation_exits_4(self, tiny_data, tmp_path, capsys, field, value):
        ann = tiny_data / "annotations.jsonl"
        lines = ann.read_text().splitlines()
        first = json.loads(lines[0])
        ann.write_text("\n".join([json.dumps({**first, field: value}), *lines[1:]]) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": first["id"], "starts": []}) + "\n")
        assert run(["eval", "--pred", pred, "--gt", tiny_data]) == 4
        assert f"annotations.jsonl:1: {field}" in capsys.readouterr().err


    @pytest.mark.parametrize("flag,value,entry", [
        ("--abs-thresholds", "5,x", "'x'"), ("--rel-thresholds", "", "''"),
        ("--rel-thresholds", "0.1,,0.2", "''"),
    ], ids=["non-number", "empty-list", "empty-entry"])
    def test_unparsable_threshold_list_exits_2(self, tiny_data, tmp_path, capsys,
                                               flag, value, entry):
        pred = tmp_path / "pred.jsonl"
        pred.write_text("")
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--pred", str(pred), "--gt", str(tiny_data), flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: {value!r}:" in err
        assert f"float: {entry}" in err

    def test_close_tolerances_get_distinct_labels(self, tmp_path, capsys):
        data_dir = tmp_path / "gt"
        (data_dir / "features").mkdir(parents=True)
        with open(data_dir / "annotations.jsonl", "w") as fh:
            fh.write(json.dumps({"id": "w", "video_id": "w", "label": "a",
                                 "length": 100, "boundaries": [10, 20, 30],
                                 "split": "test"}) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "w", "starts": [11, 50]}) + "\n")
        csv_path = tmp_path / "report.csv"
        assert run(["eval", "--pred", pred, "--gt", data_dir, "--out", csv_path,
                    "--rel-thresholds", "0.125,0.12", "--abs-thresholds", "5,5.0000001"]) == 0
        labels = [line.split("]")[0] + "]" for line in capsys.readouterr().out.splitlines()[:4]]
        assert labels == ["[rel d=0.125]", "[rel d=0.12]", "[abs d=5]", "[abs d=5.0000001]"]
        rows = [line.split(",")[:2] for line in csv_path.read_text().splitlines()[1:5]]
        assert rows == [["rel", "0.125"], ["rel", "0.12"], ["abs", "5"], ["abs", "5.0000001"]]

    def test_nan_threshold_exits_4(self, tmp_path, capsys):
        data_dir = tmp_path / "gt"
        (data_dir / "features").mkdir(parents=True)
        with open(data_dir / "annotations.jsonl", "w") as fh:
            fh.write(json.dumps({"id": "w", "video_id": "w", "label": "a",
                                 "length": 200, "boundaries": [100],
                                 "split": "test"}) + "\n")
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "w", "starts": [10]}) + "\n")
        assert run(["eval", "--pred", pred, "--gt", data_dir,
                    "--rel-thresholds", "nan"]) == 4
        captured = capsys.readouterr()
        assert "f1=" not in captured.out
        assert "d_frames must be >= 0, got nan" in captured.err


class TestPipeline:
    def test_full_pipeline_and_determinism(self, tmp_path, capsys):
        """synth -> train -> parse -> eval twice; artifacts and stdout byte-equal."""
        config = write_config(tmp_path)
        outputs = []
        stdouts = []
        for run_dir in ("run_a", "run_b"):
            base = tmp_path / run_dir
            data = base / "data"
            printed = {}

            def step(tag, args):
                assert run(args) == 0, f"{tag} failed"
                printed[tag] = capsys.readouterr().out

            step("synth", ["synth", "--config", config, "--out", data])
            model = base / "model.tpsr"
            step("train", ["train", "--data", data, "--model-out", model,
                           "--patterns", "8", "--pattern-dim", "8",
                           "--attn-dim", "4", "--value-dim", "4",
                           "--hidden-dim", "16", "--epochs", "8",
                           "--lr", "0.02", "--seed", "1"])
            pred = base / "pred.jsonl"
            step("parse", ["parse", "--data", data, "--model", model,
                           "--out", pred, "--split", "test", "--seed", "1"])
            csv_path = base / "report.csv"
            step("eval", ["eval", "--pred", pred, "--gt", data,
                          "--out", csv_path])
            kpred = base / "kmeans.jsonl"
            step("kmeans", ["baseline", "kmeans", "--data", data, "--k", "3",
                            "--out", kpred, "--split", "test", "--seed", "1"])
            tpred = base / "tcn.jsonl"
            step("tcn", ["baseline", "tcn", "--data", data, "--out", tpred,
                         "--split", "test", "--epochs", "4", "--seed", "1"])
            outputs.append({
                "model": model.read_bytes(),
                "log": Path(str(model) + ".log.jsonl").read_bytes(),
                "pred": pred.read_bytes(),
                "csv": csv_path.read_bytes(),
                "kmeans": kpred.read_bytes(),
                "tcn": tpred.read_bytes(),
                "annotations": (data / "annotations.jsonl").read_bytes(),
            })
            stdouts.append(printed)
        for key in outputs[0]:
            assert outputs[0][key] == outputs[1][key], f"{key} differs between runs"
        for tag in stdouts[0]:
            assert stdouts[0][tag] == stdouts[1][tag], f"stdout of {tag} differs"

    def test_parse_produces_valid_jsonl(self, tiny_data, tmp_path):
        model = tmp_path / "model.tpsr"
        assert run(["train", "--data", tiny_data, "--model-out", model,
                    "--patterns", "6", "--pattern-dim", "8", "--attn-dim", "4",
                    "--value-dim", "4", "--hidden-dim", "12",
                    "--epochs", "2", "--seed", "0"]) == 0
        pred = tmp_path / "pred.jsonl"
        assert run(["parse", "--data", tiny_data, "--model", model,
                    "--out", pred]) == 0
        lines = pred.read_text().strip().splitlines()
        assert len(lines) == 16
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"id", "starts"}
            assert all(isinstance(s, int) for s in record["starts"])

    def test_patterns_command(self, tiny_data, tmp_path, capsys):
        model = tmp_path / "model.tpsr"
        run(["train", "--data", tiny_data, "--model-out", model,
             "--patterns", "6", "--pattern-dim", "8", "--attn-dim", "4",
             "--value-dim", "4", "--hidden-dim", "12", "--epochs", "1",
             "--seed", "0"])
        capsys.readouterr()  # drop the train command's output
        assert run(["patterns", "--data", tiny_data, "--model", model,
                    "--pattern", "2", "--top", "5"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 5
        assert all("frame" in line and "score" in line for line in out)

    def test_patterns_index_out_of_range_exits_4(self, tiny_data, tmp_path, capsys):
        model = tmp_path / "model.tpsr"
        run(["train", "--data", tiny_data, "--model-out", model,
             "--patterns", "6", "--pattern-dim", "8", "--attn-dim", "4",
             "--value-dim", "4", "--hidden-dim", "12", "--epochs", "1",
             "--seed", "0"])
        capsys.readouterr()  # drop the train command's output
        code = run(["patterns", "--data", tiny_data, "--model", model,
                    "--pattern", "99", "--top", "5"])
        assert_one_error_line(code, capsys)

    def test_nonfinite_checkpoint_exits_4(self, tiny_data, tmp_path, capsys):
        model = tmp_path / "model.tpsr"
        assert run(["train", "--data", tiny_data, "--model-out", model,
                    "--patterns", "6", "--pattern-dim", "8", "--attn-dim", "4",
                    "--value-dim", "4", "--hidden-dim", "12", "--epochs", "1"]) == 0
        blob = bytearray(model.read_bytes())
        name = b"unit0.ffn.w1"
        at = blob.index(name) + len(name) + 8  # skip rows and cols
        blob[at:at + 8] = struct.pack("<d", float("nan"))
        model.write_bytes(bytes(blob))
        assert run(["parse", "--data", tiny_data, "--model", model,
                    "--out", tmp_path / "pred.jsonl"]) == 4
        assert "unit0.ffn.w1: non-finite" in capsys.readouterr().err

    def test_overflow_after_the_last_response_does_not_stop_parse(self, tiny_data,
                                                                   tmp_path, capsys):
        # the last unit's FFN overflows to inf, but parse reads only that
        # unit's attention response, which stays finite
        path = tmp_path / "model.tpsr"
        assert run(["train", "--data", tiny_data, "--model-out", path,
                    "--patterns", "6", "--pattern-dim", "8", "--attn-dim", "4",
                    "--value-dim", "4", "--hidden-dim", "12", "--epochs", "1"]) == 0
        assert run(["parse", "--data", tiny_data, "--model", path,
                    "--out", tmp_path / "plain.jsonl"]) == 0
        model = TransParserModel.load(path)
        model.units[-1].ffn_w2.value[:] = 1e300
        model.units[-1].ffn_b1.value[:] = 1e10
        model.save(path)
        capsys.readouterr()
        assert run(["parse", "--data", tiny_data, "--model", path,
                    "--out", tmp_path / "overflow.jsonl"]) == 0
        assert capsys.readouterr().err == ""
        assert ((tmp_path / "overflow.jsonl").read_bytes()
                == (tmp_path / "plain.jsonl").read_bytes())


    def test_checkpoint_dimension_beyond_the_file_exits_4(self, tiny_data, tmp_path,
                                                           capsys):
        model = tmp_path / "model.tpsr"
        assert run(["train", "--data", tiny_data, "--model-out", model,
                    "--patterns", "6", "--pattern-dim", "8", "--attn-dim", "4",
                    "--value-dim", "4", "--hidden-dim", "12", "--epochs", "0"]) == 0
        blob = model.read_bytes()
        (hlen,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + hlen])
        header["num_patterns"] = 10**12
        raw = json.dumps(header).encode("utf-8")
        model.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[12 + hlen:])
        capsys.readouterr()
        assert run(["parse", "--data", tiny_data, "--model", model,
                    "--out", tmp_path / "pred.jsonl"]) == 4
        assert "bytes of weights" in capsys.readouterr().err

class TestPredictionPairing:
    """Each prediction command writes one record per split instance, in
    annotation order, holding the library function's starts for that
    instance's features."""

    @pytest.mark.parametrize("command", ["parse", "parse-smoothed", "kmeans", "tcn"])
    def test_records_pair_ids_with_library_starts(self, tiny_data, tmp_path,
                                                  monkeypatch, command):
        # an untrained model whose representatives flicker: smoothing changes
        # the starts of 7 of the 16 instances
        model_path = tmp_path / "model.tpsr"
        assert run(["train", "--data", tiny_data, "--model-out", model_path,
                    "--patterns", "6", "--pattern-dim", "8", "--attn-dim", "4",
                    "--value-dim", "4", "--hidden-dim", "12", "--epochs", "0",
                    "--seed", "2"]) == 0
        model = TransParserModel.load(model_path)
        tcn_models = []

        def kept_tcn_train(*args, **kwargs):
            tcn_models.append(tcn_train(*args, **kwargs))
            return tcn_models[-1]

        monkeypatch.setattr(tapkit.cli, "tcn_train", kept_tcn_train)
        pred = tmp_path / "pred.jsonl"
        args, split, starts_of = {
            "parse": (["parse", "--model", model_path], None,
                      lambda f: extract_boundaries(forward(f, model).response)),
            "parse-smoothed": (["parse", "--model", model_path, "--smooth-window", "3"], None,
                               lambda f: extract_boundaries(forward(f, model).response, 3)),
            "kmeans": (["baseline", "kmeans", "--k", "3", "--seed", "2"], None,
                       lambda f: kmeans_parse(f, 3, 2)),
            "tcn": (["baseline", "tcn", "--split", "test", "--epochs", "2"], "test",
                    lambda f: tcn_parse(f, tcn_models[0], 0.5, 5)),
        }[command]
        assert run([*args, "--data", tiny_data, "--out", pred]) == 0
        annotations = [json.loads(line) for line in
                       (tiny_data / "annotations.jsonl").read_text().splitlines()]
        ids = [a["id"] for a in annotations if split in (None, a["split"])]
        expected = [{"id": i, "starts": list(starts_of(
                        load_features(tiny_data / "features" / f"{i}.fseq")))}
                    for i in ids]
        assert [json.loads(line) for line in pred.read_text().splitlines()] == expected
        assert any(record["starts"] for record in expected)


class TestBaselineKmeans:
    def test_default_k_runs_on_default_corpus(self, tmp_path):
        data_dir = tmp_path / "data"
        assert run(["synth", "--out", data_dir, "--seed", "0"]) == 0
        pred = tmp_path / "kmeans.jsonl"
        assert run(["baseline", "kmeans", "--data", data_dir, "--out", pred]) == 0
        assert pred.read_text().strip()


class TestStatsAndSampling:
    def test_stats_prints_class_table(self, tiny_data, capsys):
        assert run(["stats", "--data", tiny_data]) == 0
        out = capsys.readouterr().out
        assert "act00" in out and "boundary position histogram" in out

    def test_compare_sampling_runs(self, tiny_data, tmp_path, capsys):
        csv_path = tmp_path / "sampling.csv"
        assert run(["compare-sampling", "--data", tiny_data,
                    "--segments", "2", "--out", csv_path]) == 0
        out = capsys.readouterr().out
        assert "uniform" in out and "aligned" in out
        assert csv_path.read_text().startswith("scheme,segments,")

    @staticmethod
    def _write_pred(tiny_data, tmp_path, starts_of):
        pred = tmp_path / "pred.jsonl"
        with open(pred, "w") as fh:
            for line in (tiny_data / "annotations.jsonl").read_text().splitlines():
                record = json.loads(line)
                fh.write(json.dumps({"id": record["id"],
                                     "starts": starts_of(record)}) + "\n")
        return pred

    def test_compare_sampling_scores_ground_truth_predictions(self, tiny_data, tmp_path,
                                                              capsys):
        pred = self._write_pred(tiny_data, tmp_path, lambda r: r["boundaries"])
        assert run(["compare-sampling", "--data", tiny_data, "--segments", "2",
                    "--pred", pred]) == 0
        assert "predicted  top-1" in capsys.readouterr().out

    def test_compare_sampling_out_of_range_starts_exit_4(self, tiny_data, tmp_path, capsys):
        pred = self._write_pred(tiny_data, tmp_path, lambda r: [-4, 9999, 9999])
        assert run(["compare-sampling", "--data", tiny_data, "--segments", "2",
                    "--pred", pred]) == 4
        captured = capsys.readouterr()
        assert "error:" in captured.err and "top-1" not in captured.out

    def test_compare_sampling_unknown_instance_exits_4(self, tiny_data, tmp_path, capsys):
        pred = tmp_path / "pred.jsonl"
        pred.write_text(json.dumps({"id": "ghost", "starts": [1]}) + "\n")
        assert run(["compare-sampling", "--data", tiny_data, "--segments", "2",
                    "--pred", pred]) == 4
        assert "ghost" in capsys.readouterr().err

    def test_data_dir_env_fallback(self, tiny_data, capsys, monkeypatch):
        monkeypatch.setenv("TAPKIT_DATA_DIR", str(tiny_data))
        assert run(["stats"]) == 0
        assert "act00" in capsys.readouterr().out

    def test_missing_data_dir_exits_4(self, capsys, monkeypatch):
        monkeypatch.delenv("TAPKIT_DATA_DIR", raising=False)
        assert run(["stats"]) == 4


class TestCleanFailures:
    """Malformed input exits with its code and one stderr line, no traceback."""

    @pytest.mark.parametrize("text", [
        '{"seg_len_range": [5]}', '{"seg_len_range": 5}', '{"seg_len_range": [8.5, 20]}',
        '{"num_prototypes": "4"}', '{"instances_per_action": 1.5}',
        '{"transition_width": true}', '{"noise_sigma": NaN}', '[1]',
        '{"split_fractions": [NaN, 0.5, 0.5]}', '{"split_fractions": [1.0]}',
        '{"action_orders": [[0, 1.5], [1, 0], [0, 2], [2, 1]]}', '{"seed": 1\udcff}',
    ])
    def test_malformed_synth_config(self, tmp_path, capsys, text):
        config = tmp_path / "synth.json"
        config.write_bytes(text.encode("utf-8", errors="surrogateescape"))  # \udcff: 0xff
        code = run(["synth", "--config", config, "--out", tmp_path / "d", "--seed", "1"])
        assert_one_error_line(code, capsys)
        assert not (tmp_path / "d").exists()

    def test_negative_synth_seed(self, tmp_path, capsys):
        assert_one_error_line(run(["synth", "--out", tmp_path / "d", "--seed", "-1"]), capsys)

    @pytest.mark.parametrize("segments", ["0", "-1"])
    def test_compare_sampling_without_segments(self, tiny_data, capsys, segments):
        code = run(["compare-sampling", "--data", tiny_data, "--segments", segments])
        assert_one_error_line(code, capsys)

    @pytest.mark.parametrize("overrides, fields", [
        ({"noise_sigma": 10**400}, "noise_sigma"),
        ({"num_prototypes": 10**11, "feature_dim": 10**11}, "num_prototypes x feature_dim"),
        ({"seg_len_range": [4, 10**20]}, "seg_len_range"),
    ], ids=["sigma-beyond-float", "prototypes-too-big", "segments-too-long"])
    def test_synth_magnitude_beyond_numpy_exits_4(self, tmp_path, capsys, overrides,
                                                  fields):
        # every size here overflows intp, so nothing is allocated
        code = run(["synth", "--config", write_config(tmp_path, **overrides),
                    "--out", tmp_path / "d"])
        assert fields in assert_one_error_line(code, capsys)
        assert not (tmp_path / "d").exists()

    @pytest.mark.filterwarnings("error")  # pytest would hide a printed warning
    def test_overflowing_synth_noise_prints_one_line(self, tmp_path, capsys):
        code = run(["synth", "--config", write_config(tmp_path, noise_sigma=1e308),
                    "--out", tmp_path / "d"])
        assert_one_error_line(code, capsys)

    @pytest.mark.filterwarnings("error")  # pytest would hide a printed warning
    def test_diverging_train_prints_one_line(self, tmp_path, capsys):
        # the easy corpus at data seed 1 overflows at instance 36 without a clip
        config = tmp_path / "easy.json"
        config.write_text(json.dumps({
            "num_prototypes": 4, "feature_dim": 64, "num_actions": 4,
            "instances_per_action": 40, "seg_len_range": [8, 20],
            "transition_width": 2, "noise_sigma": 0.1, "seed": 1}))
        assert run(["synth", "--config", config, "--out", tmp_path / "d"]) == 0
        capsys.readouterr()
        code = run(["train", "--data", tmp_path / "d", "--model-out", tmp_path / "m.tpsr",
                    "--epochs", "1", "--grad-clip", "0", "--lr", "0.02", "--seed", "0"])
        err = assert_one_error_line(code, capsys, expected=5)
        assert "non-finite loss at epoch 0, instance 36" in err

    def test_user_warnings_still_print(self, tiny_data):
        ann = tiny_data / "annotations.jsonl"
        lines = ann.read_text().splitlines()
        first = json.loads(lines[0])
        first["boundaries"] = [5, 2]
        ann.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
        # NumPy's floating-point warnings are off in a command, Python's are not
        with pytest.warns(UserWarning, match="boundaries out of order, sorting"):
            assert run(["stats", "--data", tiny_data]) == 0


COMMAND_HELP = {
    "synth": "generate a synthetic dataset",
    "train": "train the parser on the train split",
    "parse": "predict sub-action starts with a checkpoint",
    "eval": "score a prediction file against ground truth",
    "baseline": "run a parsing baseline",
    "stats": "dataset statistics",
    "ablate": "unit-count x local-loss ablation table",
    "compare-sampling": "uniform vs aligned (vs predicted) linear-probe accuracy",
    "patterns": "frames with the highest response for one pattern",
}
CHOICES = "{" + ",".join(COMMAND_HELP) + "}"
MODEL_DIMS = {"--sps-units", "--patterns", "--pattern-dim", "--attn-dim", "--value-dim",
              "--hidden-dim"}
OPTIMIZER = {"--epochs", "--lr", "--momentum", "--grad-clip", "--batch-size", "--lambda"}
COMMAND_OPTIONS = {
    "synth": {"--config", "--out", "--seed"},
    "train": {"--data", "--model-out", "--log", "--no-local-loss", "--seed",
              *MODEL_DIMS, *OPTIMIZER},
    "parse": {"--data", "--model", "--out", "--smooth-window", "--split", "--seed"},
    "eval": {"--pred", "--gt", "--mode", "--macro", "--out", "--rel-thresholds",
             "--abs-thresholds"},
    "baseline": set(),
    "baseline kmeans": {"--data", "--k", "--out", "--split", "--seed"},
    "baseline tcn": {"--data", "--out", "--split", "--kernel-size", "--hidden-channels",
                     "--neighbor-radius", "--pos-weight", "--threshold", "--nms-radius",
                     "--epochs", "--lr", "--momentum", "--seed"},
    "stats": {"--data"},
    "ablate": {"--data", "--out", "--seed", *MODEL_DIMS, *OPTIMIZER},
    "compare-sampling": {"--data", "--pred", "--segments", "--out", "--seed"},
    "patterns": {"--data", "--model", "--pattern", "--top", "--split", "--seed"},
}


class TestHelpAndUsage:
    """The parser is built for the invoked command only; every help text and
    usage error still shows the whole command surface."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @staticmethod
    def exit_of(args, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        return excinfo.value.code, capsys.readouterr()

    def test_top_level_help_lists_every_command(self, capsys):
        code, captured = self.exit_of(["--help"], capsys)
        assert code == 0
        text = " ".join(captured.out.split())  # undo argparse's line wrapping
        assert CHOICES in text
        for name, help_text in COMMAND_HELP.items():
            assert f" {name} {help_text}" in text

    @pytest.mark.parametrize("command", COMMAND_OPTIONS)
    def test_command_help_lists_exactly_its_options(self, capsys, command):
        code, captured = self.exit_of([*command.split(), "--help"], capsys)
        assert code == 0
        assert captured.out.startswith(f"usage: tapkit {command} [-h]")
        options = set(re.findall(r"--[a-z][a-z-]*", captured.out))
        assert options == COMMAND_OPTIONS[command] | {"--help"}

    def test_baseline_help_lists_its_methods(self, capsys):
        text = " ".join(self.exit_of(["baseline", "--help"], capsys)[1].out.split())
        assert "kmeans cluster-transition parsing" in text
        assert "tcn temporal-convolution boundary detector" in text

    @pytest.mark.parametrize("args", [[], ["frob"], ["--frobnicate"],
                                      ["synth", "--out", "d", "--frobnicate"]],
                             ids=["no-command", "unknown-command", "unknown-flag",
                                  "unknown-command-flag"])
    def test_bad_command_line_shows_every_command(self, capsys, args):
        code, captured = self.exit_of(args, capsys)
        assert code == 2
        assert CHOICES in captured.err
        assert captured.err.count("tapkit: error:") == 1

    @pytest.mark.parametrize("args, message", [
        (["eval"], "tapkit eval: error: the following arguments are required: --pred"),
        (["baseline", "kmeans"],
         "tapkit baseline kmeans: error: the following arguments are required: --out"),
        (["eval", "--pred", "p.jsonl", "--mode", "bogus"],
         "tapkit eval: error: argument --mode: invalid choice: 'bogus'"),
    ], ids=["eval-without-pred", "kmeans-without-out", "bad-mode"])
    def test_bad_option_is_named(self, capsys, args, message):
        code, captured = self.exit_of(args, capsys)
        assert code == 2
        assert message in captured.err


class TestUsageErrors:
    @pytest.mark.parametrize("args", [
        ["train", "--lr", "nan"], ["train", "--lr", "inf"],
        ["train", "--grad-clip", "nan"], ["train", "--lambda", "nan"],
        ["baseline", "tcn", "--lr", "nan"], ["baseline", "tcn", "--pos-weight", "nan"],
    ], ids="_".join)
    def test_non_finite_optimizer_setting_exits_4(self, tiny_data, tmp_path, capsys, args):
        if args[0] == "train":
            out = ["--model-out", tmp_path / "m.tpsr"]
        else:
            out = ["--out", tmp_path / "p.jsonl"]
        assert run([*args, "--data", tiny_data, "--epochs", "1", *out]) == 4
        assert "must be finite" in capsys.readouterr().err

    def test_tcn_without_negative_frames_exits_4(self, tiny_data, tmp_path, capsys):
        # a radius wider than every instance labels each training frame positive
        assert run(["baseline", "tcn", "--data", tiny_data, "--out", tmp_path / "p.jsonl",
                    "--neighbor-radius", "100", "--epochs", "1"]) == 4
        assert ("error: training set labels contain no negative frames"
                in capsys.readouterr().err)

    def test_instance_id_with_nul_exits_4(self, tiny_data, tmp_path, capsys):
        ann = tiny_data / "annotations.jsonl"
        lines = ann.read_text().splitlines()
        first = json.loads(lines[0])
        first["id"] = "a\u0000b"
        ann.write_text("\n".join([json.dumps(first), *lines[1:]]) + "\n")
        assert run(["train", "--data", tiny_data, "--model-out", tmp_path / "m.tpsr",
                    "--epochs", "1"]) == 4
        assert "annotations.jsonl:1:" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["synth", "--frobnicate"])
        assert excinfo.value.code == 2

    def test_module_entry_point(self):
        # the child imports the same tapkit as this process, installed or not
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run([sys.executable, "-m", "tapkit", "--version"],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 0
        assert "tapkit 0.1.0" in result.stdout
        assert "checkpoint format v1" in result.stdout
