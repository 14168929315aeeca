import json
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

import tapkit.linalg as la
from tapkit.errors import (ConfigError, DimensionError, FormatError, InputError,
                           NumericError)
from tapkit.model import (ForwardTrace, ModelConfig, PatternMiner, TransParserModel,
                          forward, forward_graph, retrieve_top_frames)

SMALL = ModelConfig(feature_dim=6, pattern_dim=5, num_patterns=3, attn_dim=4,
                    value_dim=4, hidden_dim=7, num_classes=3, num_units=2)
ONE_UNIT = replace(SMALL, num_units=1)


def unit_oracle(feats, unit):
    """Per-frame scalar-loop re-derivation of one unit's forward pass."""
    phi = unit.miner.patterns
    n = feats.shape[0]
    m = phi.shape[0]
    out = np.zeros((n, feats.shape[1]))
    resp = np.zeros((n, m))
    for t in range(n):
        f_t = feats[t]
        head_alphas = []
        head_outs = []
        for head in unit.heads:
            q = f_t @ head.w_q.value
            scores = np.array([q @ (phi[j] @ head.w_k.value) for j in range(m)])
            e = np.exp(scores - scores.max())
            alpha = e / e.sum()
            head_alphas.append(alpha)
            head_outs.append(alpha @ (phi @ head.w_v.value))
        cat = np.concatenate(head_outs)
        r = cat @ unit.merge_w.value + unit.merge_b.value[0]
        h = f_t + r
        hidden = np.maximum(h @ unit.ffn_w1.value + unit.ffn_b1.value[0], 0.0)
        out[t] = hidden @ unit.ffn_w2.value + unit.ffn_b2.value[0]
        resp[t] = 0.5 * (head_alphas[0] + head_alphas[1])
    return out, resp


class TestSpsForward:
    """One attention unit, run through ``forward`` on a one-unit model."""

    def test_zero_queries_give_uniform_response(self):
        model = TransParserModel.initialize(ONE_UNIT, seed=0)
        for head in model.units[0].heads:
            head.w_q.value[:] = 0.0
        trace = forward(np.random.default_rng(0).normal(size=(4, 6)), model)
        assert np.allclose(trace.response, 1.0 / SMALL.num_patterns, atol=1e-15)

    def test_zero_values_and_merge_isolate_ffn(self):
        model = TransParserModel.initialize(ONE_UNIT, seed=1)
        unit = model.units[0]
        for head in unit.heads:
            head.w_v.value[:] = 0.0
        unit.merge_w.value[:] = 0.0
        unit.merge_b.value[:] = 0.0
        feats = np.random.default_rng(1).normal(size=(5, 6))
        out = forward(feats, model).final_features
        hidden = np.maximum(feats @ unit.ffn_w1.value + unit.ffn_b1.value, 0.0)
        expected = hidden @ unit.ffn_w2.value + unit.ffn_b2.value
        assert np.array_equal(out, expected)

    def test_matches_per_frame_loop_oracle(self):
        model = TransParserModel.initialize(ONE_UNIT, seed=2)
        feats = np.random.default_rng(2).normal(size=(4, 6))
        trace = forward(feats, model)
        out_o, resp_o = unit_oracle(feats, model.units[0])
        assert np.max(np.abs(trace.final_features - out_o)) < 1e-10
        assert np.max(np.abs(trace.response - resp_o)) < 1e-10

    def test_dimension_error(self):
        model = TransParserModel.initialize(ONE_UNIT, seed=0)
        with pytest.raises(DimensionError):
            forward(np.zeros((3, 4)), model)


class TestForward:
    def test_duplicated_frames_duplicate_rows(self):
        model = TransParserModel.initialize(SMALL, seed=4)
        feats = np.random.default_rng(4).normal(size=(3, 6))
        doubled = np.repeat(feats, 2, axis=0)
        single = forward(feats, model)
        double = forward(doubled, model)
        assert np.array_equal(double.response, np.repeat(single.response, 2, axis=0))
        assert np.array_equal(double.final_features,
                              np.repeat(single.final_features, 2, axis=0))

    def test_two_units_match_composed_oracle(self):
        model = TransParserModel.initialize(SMALL, seed=5)
        feats = np.random.default_rng(5).normal(size=(5, 6))
        trace = forward(feats, model)
        mid, _ = unit_oracle(feats, model.units[0])
        out, resp = unit_oracle(mid, model.units[1])
        assert np.max(np.abs(trace.final_features - out)) < 1e-10
        assert np.max(np.abs(trace.response - resp)) < 1e-10

    def test_empty_sequence_rejected(self):
        model = TransParserModel.initialize(SMALL, seed=0)
        with pytest.raises(InputError):
            forward(np.zeros((0, 6)), model)

    def test_nonfinite_features_rejected(self):
        model = TransParserModel.initialize(SMALL, seed=0)
        feats = np.zeros((2, 6))
        feats[1, 3] = np.nan
        with pytest.raises(NumericError):
            forward(feats, model)

    def test_response_rows_are_probability_vectors(self):
        rng = np.random.default_rng(6)
        for seed in range(5):
            model = TransParserModel.initialize(SMALL, seed=seed)
            trace = forward(rng.normal(size=(7, 6)) * 3, model)
            for resp in trace.responses:
                assert np.all(resp >= 0)
                assert np.max(np.abs(resp.sum(axis=1) - 1.0)) < 1e-9

    def test_permutation_equivariance(self):
        model = TransParserModel.initialize(SMALL, seed=7)
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(6, 6))
        perm = rng.permutation(6)
        straight = forward(feats, model)
        permuted = forward(feats[perm], model)
        assert np.array_equal(permuted.response, straight.response[perm])
        assert np.array_equal(permuted.final_features, straight.final_features[perm])

    def test_key_scaling_preserves_argmax(self):
        model = TransParserModel.initialize(SMALL, seed=8)
        feats = np.random.default_rng(8).normal(size=(5, 6))
        before = forward(feats, model)
        for unit in model.units:
            for head in unit.heads:
                head.w_k.value *= 3.0
        after = forward(feats, model)
        assert not np.allclose(before.response, after.response)
        assert np.array_equal(before.responses[0].argmax(axis=1),
                              after.responses[0].argmax(axis=1))

    def test_gradients_flow_to_every_parameter(self):
        cfg = ModelConfig(feature_dim=4, pattern_dim=3, num_patterns=3, attn_dim=2,
                          value_dim=2, hidden_dim=4, num_classes=2, num_units=2)
        model = TransParserModel.initialize(cfg, seed=9)
        feats = np.random.default_rng(9).normal(size=(3, 4))

        def loss():
            graph = forward_graph(feats, model)
            pieces = la.add(la.mean_all(graph.responses[-1]),
                            la.add(la.mean_all(graph.features[-1]),
                                   la.mean_all(graph.logits)))
            return pieces

        err = la.grad_check(loss, model.parameters(), eps=1e-5)
        assert err < 1e-5


class TestRetrieveTopFrames:
    def _trace(self, iid, resp):
        resp = np.asarray(resp, dtype=float)
        return ForwardTrace(instance_id=iid, responses=[resp], features=[resp],
                            logits=np.zeros((1, 2)))

    def test_single_trace_top1(self):
        tr = self._trace("a", [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
        assert retrieve_top_frames([tr], 1, 1) == [("a", 1, 0.9)]

    def test_saturation_returns_all_sorted(self):
        tr = self._trace("a", [[0.2, 0.8], [0.7, 0.3]])
        got = retrieve_top_frames([tr], 0, 10)
        assert got == [("a", 1, 0.7), ("a", 0, 0.2)]

    def test_ties_break_by_id_then_frame(self):
        t1 = self._trace("b", [[0.5, 0.5], [0.5, 0.5]])
        t2 = self._trace("a", [[0.5, 0.5]])
        got = retrieve_top_frames([t1, t2], 0, 3)
        assert got == [("a", 0, 0.5), ("b", 0, 0.5), ("b", 1, 0.5)]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(10)
        traces = [self._trace(f"i{k}", rng.uniform(size=(rng.integers(2, 6), 4)))
                  for k in range(3)]
        col = 2
        pool = [(tr.instance_id, t, tr.response[t, col])
                for tr in traces for t in range(tr.response.shape[0])]
        pool.sort(key=lambda item: (-item[2], item[0], item[1]))
        assert retrieve_top_frames(traces, col, 5) == pool[:5]

    def test_pattern_index_out_of_range(self):
        tr = self._trace("a", [[0.5, 0.5]])
        with pytest.raises(IndexError):
            retrieve_top_frames([tr], 5, 1)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = TransParserModel.initialize(SMALL, seed=11, labels=["x", "y", "z"])
        path = tmp_path / "model.tpsr"
        model.save(path)
        loaded = TransParserModel.load(path)
        assert loaded.config == model.config
        assert loaded.labels == ("x", "y", "z")
        for (na, a), (nb, b) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(a.value, b.value)

    def test_save_is_deterministic(self, tmp_path):
        model = TransParserModel.initialize(SMALL, seed=12)
        p1, p2 = tmp_path / "a.tpsr", tmp_path / "b.tpsr"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tpsr"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            TransParserModel.load(path)

    def test_truncated_file(self, tmp_path):
        model = TransParserModel.initialize(SMALL, seed=13)
        path = tmp_path / "model.tpsr"
        model.save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            TransParserModel.load(path)

    def test_header_keys_are_config_fields_plus_labels(self, tmp_path):
        path = tmp_path / "model.tpsr"
        TransParserModel.initialize(SMALL, seed=14).save(path)
        header = read_header(path.read_bytes())[0]
        assert set(header) == {f.name for f in fields(ModelConfig)} | {"labels"}

    def test_legacy_layer_norm_false_loads(self, tmp_path):
        model = TransParserModel.initialize(SMALL, seed=15, labels=["x", "y", "z"])
        path = tmp_path / "model.tpsr"
        model.save(path)
        rewrite_header(path, use_layer_norm=False)
        loaded = TransParserModel.load(path)
        assert loaded.config == model.config
        assert loaded.labels == model.labels
        for (na, a), (nb, b) in zip(model.named_parameters(), loaded.named_parameters()):
            assert na == nb
            assert np.array_equal(a.value, b.value)

    def test_layer_norm_true_rejected(self, tmp_path):
        path = tmp_path / "model.tpsr"
        TransParserModel.initialize(SMALL, seed=16).save(path)
        rewrite_header(path, use_layer_norm=True)
        with pytest.raises(FormatError):
            TransParserModel.load(path)

    @pytest.mark.parametrize("raw", [b"5", b"[1,2]", b"null", b'"header"'])
    def test_non_object_header_rejected(self, tmp_path, raw):
        path = tmp_path / "model.tpsr"
        TransParserModel.initialize(SMALL, seed=17).save(path)
        blob = path.read_bytes()
        payload_at = read_header(blob)[1]
        path.write_bytes(blob[:8] + struct.pack("<I", len(raw)) + raw + blob[payload_at:])
        with pytest.raises(FormatError, match="JSON object"):
            TransParserModel.load(path)

    @pytest.mark.parametrize("header", [{"feature_dim": "x"}, {"labels": 5},
                                        {"num_units": 1.5}, {"num_classes": None}],
                             ids=["feature_dim-str", "labels-int", "num_units-float",
                                  "num_classes-null"])
    def test_mistyped_header_rejected(self, tmp_path, header):
        path = tmp_path / "model.tpsr"
        TransParserModel.initialize(SMALL, seed=18).save(path)
        rewrite_header(path, **header)
        with pytest.raises(FormatError, match="checkpoint"):
            TransParserModel.load(path)

    def test_nonfinite_weight_rejected(self, tmp_path):
        model = TransParserModel.initialize(SMALL, seed=19)
        model.units[0].ffn_w1.value[2, 3] = np.nan
        path = tmp_path / "model.tpsr"
        model.save(path)
        with pytest.raises(FormatError, match="unit0.ffn.w1: non-finite"):
            TransParserModel.load(path)

    def test_all_zero_pattern_bank_rejected(self, tmp_path):
        model = TransParserModel.initialize(SMALL, seed=20)
        model.units[1].miner.node.value[:] = 0.0
        path = tmp_path / "model.tpsr"
        model.save(path)
        with pytest.raises(FormatError, match="all-zero pattern bank"):
            TransParserModel.load(path)


def read_header(blob):
    """Checkpoint header dict and the offset where the weight payload starts."""
    (hlen,) = struct.unpack("<I", blob[8:12])
    return json.loads(blob[12:12 + hlen]), 12 + hlen


def rewrite_header(path, **extra):
    """Add ``extra`` keys to a saved checkpoint's header, keeping its payload."""
    blob = path.read_bytes()
    header, payload_at = read_header(blob)
    new = json.dumps({**header, **extra}, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new + blob[payload_at:])


class TestConstruction:
    def test_all_zero_bank_rejected(self):
        with pytest.raises(InputError):
            PatternMiner(np.zeros((3, 4)))

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ModelConfig(num_units=0).validate()
        with pytest.raises(ConfigError):
            ModelConfig(num_patterns=0).validate()

    def test_deterministic_initialization(self):
        a = TransParserModel.initialize(SMALL, seed=21)
        b = TransParserModel.initialize(SMALL, seed=21)
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(pa.value, pb.value)
