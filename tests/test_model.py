import hashlib
import json
import struct
from dataclasses import fields, replace

import numpy as np
import pytest

import tapkit.linalg as la
from tapkit.errors import (ConfigError, DimensionError, FormatError, InputError,
                           NumericError)
from tapkit.model import (GraphTrace, ModelConfig, TransParserModel, _unit_nodes,
                          _unit_values, _weight_count, forward, forward_graph,
                          retrieve_top_frames)

SMALL = ModelConfig(feature_dim=6, pattern_dim=5, num_patterns=3, attn_dim=4,
                    value_dim=4, hidden_dim=7, num_classes=3, num_units=2)
ONE_UNIT = replace(SMALL, num_units=1)


def unit_oracle(feats, unit):
    """Per-frame scalar-loop re-derivation of one unit's forward pass."""
    phi = unit.miner.value
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


def final_features(feats, model):
    """Last unit's output, which only the training pass computes."""
    return forward_graph(feats, model).features[-1].value


class TestSpsForward:
    """One attention unit, run through ``forward`` (its response) and
    ``forward_graph`` (its output) on a one-unit model."""

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
        out = final_features(feats, model)
        hidden = np.maximum(feats @ unit.ffn_w1.value + unit.ffn_b1.value, 0.0)
        expected = hidden @ unit.ffn_w2.value + unit.ffn_b2.value
        assert np.array_equal(out, expected)

    def test_matches_per_frame_loop_oracle(self):
        model = TransParserModel.initialize(ONE_UNIT, seed=2)
        feats = np.random.default_rng(2).normal(size=(4, 6))
        trace = forward(feats, model)
        out_o, resp_o = unit_oracle(feats, model.units[0])
        assert np.max(np.abs(final_features(feats, model) - out_o)) < 1e-10
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
        assert np.array_equal(final_features(doubled, model),
                              np.repeat(final_features(feats, model), 2, axis=0))

    def test_two_units_match_composed_oracle(self):
        model = TransParserModel.initialize(SMALL, seed=5)
        feats = np.random.default_rng(5).normal(size=(5, 6))
        trace = forward(feats, model)
        mid, _ = unit_oracle(feats, model.units[0])
        out, resp = unit_oracle(mid, model.units[1])
        assert np.max(np.abs(final_features(feats, model) - out)) < 1e-10
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
        assert np.array_equal(final_features(feats[perm], model),
                              final_features(feats, model)[perm])

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


def chain_affine(x, weight, bias):
    """``x @ weight + bias`` as a matmul node then an add node."""
    return la.add(la.matmul(x, weight), bias)


def chain_unit(feats, unit):
    """The op chain the fused unit replaces, built from the public ops."""
    alphas = []
    head_outs = []
    for head in unit.heads:
        queries = la.matmul(feats, head.w_q)
        keys = la.matmul(unit.miner, head.w_k)
        alpha = la.softmax_rows(la.matmul(queries, la.transpose(keys)))
        alphas.append(alpha)
        head_outs.append(la.matmul(alpha, la.matmul(unit.miner, head.w_v)))
    merged = chain_affine(la.hconcat(head_outs[0], head_outs[1]), unit.merge_w, unit.merge_b)
    amplified = la.add(feats, merged)
    hidden = la.relu(chain_affine(amplified, unit.ffn_w1, unit.ffn_b1))
    out = chain_affine(hidden, unit.ffn_w2, unit.ffn_b2)
    response = la.scale(la.add(alphas[0], alphas[1]), 0.5)
    return out, response


def chain_forward_graph(features, model):
    """``forward_graph`` over :func:`chain_unit`, the input a leaf node."""
    node = la.Node(np.asarray(features, dtype=np.float64))
    responses, outs = [], []
    for unit in model.units:
        node, response = chain_unit(node, unit)
        responses.append(response)
        outs.append(node)
    logits = la.mean_over_rows(la.matmul(node, model.classifier_w))
    return GraphTrace(responses=responses, features=outs, logits=logits)


def glue(node, seed):
    """Scalar reading every entry of ``node`` through fixed signed weights."""
    w = np.random.default_rng(seed).normal(size=node.shape)
    return la.mean_all(la.mul(node, la.Node(w)))


def random_config(rng, num_units):
    dims = [1, 2, 3, 4, 5, 7, 8, 13]
    return ModelConfig(*(int(rng.choice(dims)) for _ in range(7)), num_units=num_units)


class TestFusedUnit:
    """The fused unit equals the public-op chain bit for bit."""

    @staticmethod
    def _unit_run(build, x, unit, weight, with_response):
        node = la.Node(x.copy())
        out, response = build(node, unit)
        root = glue(out, 1)
        if with_response:
            root = la.add(root, glue(response, 2))
        la.backward(la.scale(root, weight))
        return [out.value.tobytes(), response.value.tobytes(), node.grad.tobytes()] + [
            p.grad.tobytes() for _, p in unit.named_parameters()]

    def test_random_units_match_chain(self):
        from conftest import spread_model
        rng = np.random.default_rng(31)
        for case in range(24):
            cfg = random_config(rng, num_units=1)
            unit = spread_model(cfg, seed=case).units[0]
            n = int(rng.integers(1, 40))
            x = rng.normal(size=(n, cfg.feature_dim)) * rng.uniform(0.5, 6.0)
            # upstream weights of both signs, with and without a response term
            for weight in (-0.7, 1.3):
                for with_response in (False, True):
                    chain = self._unit_run(chain_unit, x, unit, weight, with_response)
                    fused = self._unit_run(_unit_nodes, x, unit, weight, with_response)
                    assert chain == fused, (case, weight, with_response)

    def test_unit_gradients_pass_grad_check(self):
        from conftest import spread_model
        cfg = ModelConfig(feature_dim=4, pattern_dim=3, num_patterns=5, attn_dim=3,
                          value_dim=2, hidden_dim=6, num_classes=2, num_units=1)
        unit = spread_model(cfg, seed=3).units[0]
        x = la.Node(np.random.default_rng(3).normal(size=(5, 4)))
        params = [x, *(p for _, p in unit.named_parameters())]

        def loss():
            out, response = _unit_nodes(x, unit)
            return la.add(glue(out, 1), la.scale(glue(response, 2), 3.0))

        assert la.grad_check(loss, params, eps=1e-6) < 1e-6

    @pytest.mark.parametrize("num_units", [1, 2])
    @pytest.mark.parametrize("w_local", [0.0, 1.0])
    def test_model_gradients_match_chain(self, num_units, w_local):
        from conftest import spread_features, spread_model
        from tapkit.losses import LossConfig, combined_loss
        rng = np.random.default_rng(32 + num_units)
        cfg = LossConfig(w_local=w_local)
        for case in range(6):
            model_cfg = random_config(rng, num_units)
            model = spread_model(model_cfg, seed=case)
            n = int(rng.integers(2, 30))
            feats = spread_features(case, (n, model_cfg.feature_dim))
            starts = sorted(rng.choice(np.arange(1, n), size=min(2, n - 1),
                                       replace=False).tolist())
            label = case % model_cfg.num_classes
            results = []
            for build in (chain_forward_graph, forward_graph):
                graph = build(feats, model)
                total = combined_loss(graph, starts, label, cfg)[0]
                # the first unit's response gets a gradient too
                la.backward(la.add(total, glue(graph.responses[0], 3)))
                results.append(
                    [graph.logits.value.tobytes()]
                    + [r.value.tobytes() for r in graph.responses]
                    + [f.value.tobytes() for f in graph.features]
                    + [p.grad.tobytes() for p in model.parameters()])
            assert results[0] == results[1], case

    def test_forward_equals_forward_graph(self):
        rng = np.random.default_rng(34)
        for case in range(24):
            model_cfg = random_config(rng, num_units=case % 3 + 1)
            model = TransParserModel.initialize(model_cfg, seed=case)
            n = (1, 2, int(rng.integers(30, 60)))[case // 3 % 3]
            feats = rng.normal(size=(n, model_cfg.feature_dim))
            graph = forward_graph(feats, model)
            trace = forward(feats, model)
            assert len(trace.responses) == len(graph.responses) == model_cfg.num_units
            for got, node in zip(trace.responses, graph.responses):
                assert got.tobytes() == node.value.tobytes(), case
            # unit outputs and logits, which only training reads, equal the
            # graph's on plain arrays too
            x = feats
            for unit, node in zip(model.units, graph.features):
                x = _unit_values(x, unit)[0]
                assert x.tobytes() == node.value.tobytes(), case
            logits = (x @ model.classifier_w.value).mean(axis=0, keepdims=True)
            assert logits.tobytes() == graph.logits.value.tobytes(), case

    @pytest.mark.parametrize("name", ["merge.w", "merge.b", "ffn.w1", "ffn.b1",
                                      "ffn.w2", "ffn.b2", "classifier.w"])
    def test_forward_skips_last_merge_ffn_and_classifier(self, name):
        model = TransParserModel.initialize(SMALL, seed=36)
        feats = np.random.default_rng(36).normal(size=(9, 6))
        before = forward(feats, model)
        prefix = "" if name == "classifier.w" else f"unit{SMALL.num_units - 1}."
        dict(model.named_parameters())[prefix + name].value[:] = np.nan
        after = forward(feats, model)
        assert [r.tobytes() for r in after.responses] == [
            r.tobytes() for r in before.responses]

    def test_forward_builds_no_node(self, monkeypatch):
        model = TransParserModel.initialize(SMALL, seed=38)
        made = []

        class CountingNode(la.Node):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(la, "Node", CountingNode)
        forward(np.random.default_rng(38).normal(size=(5, 6)), model)
        assert made == []

    @pytest.mark.parametrize("name", ["ffn.w2", "ffn.b2"])
    def test_nan_in_first_unit_ffn_still_raises(self, name):
        model = TransParserModel.initialize(SMALL, seed=37)
        dict(model.named_parameters())[f"unit0.{name}"].value[:] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            forward(np.random.default_rng(37).normal(size=(4, 6)), model)

    @pytest.mark.parametrize("name", ["merge.w", "merge.b", "ffn.w1", "ffn.b1"])
    def test_nan_before_the_first_unit_relu_raises(self, name):
        # the relu passes NaN on, so the check on unit 0's output sees it
        model = TransParserModel.initialize(SMALL, seed=37)
        dict(model.named_parameters())[f"unit0.{name}"].value[:] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            forward(np.random.default_rng(37).normal(size=(4, 6)), model)

    @pytest.mark.parametrize("name", ["merge.w", "ffn.b1"])
    def test_nan_before_the_first_unit_relu_stops_training(self, name):
        from tapkit.losses import LossConfig, train
        model = TransParserModel.initialize(SMALL, seed=39)
        dict(model.named_parameters())[f"unit0.{name}"].value[:] = np.nan
        feats = np.random.default_rng(39).normal(size=(6, 6))
        with pytest.raises(NumericError, match="non-finite loss at epoch 0"):
            train([(feats, [3], 0)], model, LossConfig(epochs=1))

    def test_input_of_first_unit_is_a_constant(self):
        model = TransParserModel.initialize(SMALL, seed=35)
        graph = forward_graph(np.random.default_rng(35).normal(size=(4, 6)), model)
        first, second = graph.features
        assert first.parents == tuple(p for _, p in model.units[0].named_parameters())
        assert second.parents[0] is first
        assert all(r.parents == () for r in graph.responses)

    def test_training_matches_chain(self, monkeypatch):
        import tapkit.losses as losses
        from tapkit.data import SynthConfig, generate_synthetic
        synth = SynthConfig(num_prototypes=3, feature_dim=8, num_actions=2,
                            instances_per_action=6, seg_len_range=(3, 6),
                            transition_width=1, noise_sigma=0.05, seed=3)
        features, records, _ = generate_synthetic(synth)
        labels = sorted({r.label for r in records})
        dataset = [(f, r.boundaries, labels.index(r.label))
                   for f, r in zip(features, records)]
        cfg = ModelConfig(feature_dim=8, pattern_dim=8, num_patterns=6, attn_dim=4,
                          value_dim=4, hidden_dim=12, num_classes=2, num_units=2)
        for loss_cfg in (losses.LossConfig(epochs=3),
                         losses.LossConfig(epochs=2, batch_size=3, w_local=0.0)):
            hashes = []
            for build in (chain_forward_graph, forward_graph):
                monkeypatch.setattr(losses, "forward_graph", build)
                model, history = losses.train(dataset, TransParserModel.initialize(cfg, 4),
                                              loss_cfg)
                hashes.append((history, [p.value.tobytes() for p in model.parameters()]))
            assert hashes[0] == hashes[1]


class TestRetrieveTopFrames:
    def _pair(self, iid, resp):
        return iid, np.asarray(resp, dtype=float)

    def test_single_trace_top1(self):
        pair = self._pair("a", [[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
        assert retrieve_top_frames([pair], 1, 1) == [("a", 1, 0.9)]

    def test_saturation_returns_all_sorted(self):
        pair = self._pair("a", [[0.2, 0.8], [0.7, 0.3]])
        got = retrieve_top_frames([pair], 0, 10)
        assert got == [("a", 1, 0.7), ("a", 0, 0.2)]

    def test_ties_break_by_id_then_frame(self):
        t1 = self._pair("b", [[0.5, 0.5], [0.5, 0.5]])
        t2 = self._pair("a", [[0.5, 0.5]])
        got = retrieve_top_frames([t1, t2], 0, 3)
        assert got == [("a", 0, 0.5), ("b", 0, 0.5), ("b", 1, 0.5)]

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(10)
        pairs = [self._pair(f"i{k}", rng.uniform(size=(rng.integers(2, 6), 4)))
                 for k in range(3)]
        col = 2
        pool = [(iid, t, resp[t, col]) for iid, resp in pairs for t in range(resp.shape[0])]
        pool.sort(key=lambda item: (-item[2], item[0], item[1]))
        assert retrieve_top_frames(pairs, col, 5) == pool[:5]

    def test_pattern_index_out_of_range(self):
        pair = self._pair("a", [[0.5, 0.5]])
        with pytest.raises(InputError):
            retrieve_top_frames([pair], 5, 1)


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
        model.units[1].miner.value[:] = 0.0
        path = tmp_path / "model.tpsr"
        model.save(path)
        with pytest.raises(FormatError, match="all-zero pattern bank"):
            TransParserModel.load(path)


    def test_round_trip_is_bytes_equal_over_random_configs(self, tmp_path):
        rng = np.random.default_rng(25)
        for case in range(9):
            cfg = random_config(rng, num_units=case % 3 + 1)
            labels = [f"a{i}" for i in range(cfg.num_classes)] if case % 2 else None
            model = TransParserModel.initialize(cfg, seed=case, labels=labels)
            first, second = tmp_path / "a.tpsr", tmp_path / "b.tpsr"
            model.save(first)
            loaded = TransParserModel.load(first)
            assert loaded.config == cfg
            assert loaded.labels == model.labels
            assert ([(n, p.value.tobytes()) for n, p in loaded.named_parameters()]
                    == [(n, p.value.tobytes()) for n, p in model.named_parameters()])
            for node in loaded.parameters():  # training updates them in place
                assert node.value.flags.writeable and node.value.flags.c_contiguous
            loaded.save(second)
            assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("seed, digest", [
        (0, "7fe050d14932452846bc141d548a68e85baf4300a92559adf9127b100a11078e"),
        (1, "f0d4c8d18fa6b2a175bd89eb44c564b4aa2118255e8df9b06892e340a08a1e32"),
    ])
    def test_initialize_draws_the_pinned_weights(self, seed, digest):
        # the CLI's default dims; a change to the draw order changes every run
        model = TransParserModel.initialize(ModelConfig(), seed=seed)
        weights = b"".join(node.value.tobytes() for node in model.parameters())
        assert hashlib.sha256(weights).hexdigest() == digest

    def test_weight_count_matches_initialized_model(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            cfg = random_config(rng, num_units=int(rng.integers(1, 4)))
            model = TransParserModel.initialize(cfg, seed=0)
            assert _weight_count(cfg) == sum(p.value.size for p in model.parameters())

    @pytest.mark.parametrize("dims", [{"num_patterns": 10**12}, {"num_units": 10**9},
                                      {"hidden_dim": 4000}],
                             ids=["patterns-huge", "units-huge", "hidden-fits-in-memory"])
    def test_dimensions_beyond_the_file_rejected_before_allocation(self, tmp_path,
                                                                   monkeypatch, dims):
        path = tmp_path / "model.tpsr"
        TransParserModel.initialize(SMALL, seed=23).save(path)
        rewrite_header(path, **dims)

        def no_alloc(*args, **kwargs):
            raise AssertionError("weights allocated for an unchecked header")

        # load allocates every weight array in one place, before any is read
        monkeypatch.setattr(TransParserModel, "_assemble", no_alloc)
        with pytest.raises(FormatError, match="bytes of weights"):
            TransParserModel.load(path)

    @pytest.mark.parametrize("hlen", [2**32 - 1, 10**6])
    def test_header_length_beyond_the_file_rejected(self, tmp_path, hlen):
        path = tmp_path / "model.tpsr"
        TransParserModel.initialize(SMALL, seed=24).save(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:8] + struct.pack("<I", hlen) + blob[12:])
        with pytest.raises(FormatError, match="header length"):
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
