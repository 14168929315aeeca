import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import tapkit.linalg as la
from tapkit.data import SynthConfig, generate_synthetic
from tapkit.errors import ConfigError, InputError, NumericError, ValidationError
from tapkit.losses import EPSILON_DIV, LossConfig, _step, combined_loss, local_loss, train
from tapkit.model import ModelConfig, TransParserModel, forward_graph

CFG = LossConfig()


def pairwise_local_oracle(resp, starts, lam, eps):
    """Explicit double-loop pair enumeration of the ratio loss."""
    n = resp.shape[0]
    bounds = [0] + list(starts) + [n]
    seg_of = np.zeros(n, dtype=int)
    for k in range(len(bounds) - 1):
        seg_of[bounds[k]:bounds[k + 1]] = k
    within, cross = [], []
    for i in range(n):
        for j in range(i + 1, n):
            dist = np.linalg.norm(resp[i] - resp[j])
            (within if seg_of[i] == seg_of[j] else cross).append(dist)
    sim = np.mean(within) if within else 0.0
    dissim = np.mean(cross) if cross else 0.0
    return (sim + lam) / (dissim + eps)


class TestLocalLoss:
    def test_two_singleton_segments(self):
        resp = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = local_loss(resp, [1], CFG)
        expected = 1.0 / (np.sqrt(2.0) + 1e-8)
        assert abs(loss.item() - expected) < 1e-12
        assert abs(loss.item() - 0.7071) < 1e-4

    def test_collapsed_responses_blow_up(self):
        resp = np.tile([[0.3, 0.7]], (6, 1))
        loss = local_loss(resp, [3], CFG)
        assert np.isclose(loss.item(), 1e8)

    def test_matches_pair_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        resp = rng.uniform(size=(8, 5))
        starts = [3, 6]
        loss = local_loss(resp, starts, CFG)
        oracle = pairwise_local_oracle(resp, starts, CFG.lambda_reg, EPSILON_DIV)
        assert abs(loss.item() - oracle) < 1e-10

    def test_single_segment_warns_and_guards(self):
        resp = np.random.default_rng(1).uniform(size=(4, 3))
        with pytest.warns(UserWarning, match="fewer than 2 segments"):
            loss = local_loss(resp, [], CFG)
        sim = np.mean([np.linalg.norm(resp[i] - resp[j])
                       for i in range(4) for j in range(i + 1, 4)])
        assert abs(loss.item() - (sim + 1.0) / 1e-8) < abs(loss.item()) * 1e-9

    def test_length_one_segments_skip_within_pairs(self):
        resp = np.random.default_rng(2).uniform(size=(3, 4))
        # segments {0}, {1}, {2}: no within pairs at all
        loss = local_loss(resp, [1, 2], CFG)
        cross = [np.linalg.norm(resp[i] - resp[j])
                 for i in range(3) for j in range(i + 1, 3)]
        expected = 1.0 / (np.mean(cross) + 1e-8)
        assert abs(loss.item() - expected) < 1e-12

    def test_nonnegative_and_positive_with_lambda(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            resp = rng.uniform(size=(7, 4))
            loss = local_loss(resp, [2, 5], CFG)
            assert loss.item() > 0.0

    def test_reversal_invariance(self):
        # the loss depends only on which pairs share a segment, so mirroring
        # the sequence (and its segmentation) must not change it
        rng = np.random.default_rng(4)
        resp = rng.uniform(size=(9, 4))
        starts = [2, 5]
        mirrored_starts = sorted(9 - s for s in starts)
        loss = local_loss(resp, starts, CFG).item()
        mirrored = local_loss(resp[::-1], mirrored_starts, CFG).item()
        assert abs(loss - mirrored) < 1e-12

    def test_bad_starts_rejected(self):
        resp = np.zeros((4, 2))
        with pytest.raises(ValidationError):
            local_loss(resp, [0], CFG)
        with pytest.raises(ValidationError):
            local_loss(resp, [4], CFG)
        with pytest.raises(ValidationError):
            local_loss(resp, [2, 2], CFG)


def pair_indices(n, starts):
    """Index arrays (wi, wj, ci, cj) of within- and cross-segment pairs.

    Pairs are unordered (i < j) and listed in row-major order.
    """
    seg_of = np.searchsorted(np.asarray(starts, dtype=np.intp), np.arange(n), side="right")
    ii, jj = np.triu_indices(n, k=1)
    same = seg_of[ii] == seg_of[jj]
    return ii[same], jj[same], ii[~same], jj[~same]


def chain_mean_distance(resp, i, j):
    """Mean pair distance from public ops; no pairs give the constant 0."""
    if not i.size:
        return la.as_node(0.0)
    return la.mean_all(la.row_norms(la.sub(la.gather_rows(resp, i),
                                           la.gather_rows(resp, j))))


def chain_ratio(resp, starts, lam, eps):
    """The op chain that ``segment_distance_ratio`` fuses, over explicit pairs."""
    wi, wj, ci, cj = pair_indices(resp.shape[0], starts)
    return la.div(la.add(chain_mean_distance(resp, wi, wj), la.as_node(lam)),
                  la.add(chain_mean_distance(resp, ci, cj), la.as_node(eps)))


def chain_combined_loss(graph, starts, label, cfg):
    """``combined_loss`` with its local ratio term built from the op chain."""
    local = chain_ratio(graph.responses[-1], starts, cfg.lambda_reg, EPSILON_DIV)
    return la.add(la.scale(local, cfg.w_local),
                  la.scale(la.nll_from_logits(graph.logits, label), 1.0))


class TestFusedPairDistance:
    """segment_distance_ratio equals the op chain over pair lists bit for bit."""

    @staticmethod
    def _assert_same(values, starts):
        # upstream weights of both signs, as the ratio loss gets inside a step
        for weight in (-0.7, 1.3):
            results = []
            for build in (chain_ratio, la.segment_distance_ratio):
                a = la.Node(values.copy())
                out = build(a, starts, 1.0, EPSILON_DIV)
                la.backward(la.scale(out, weight))
                results.append((out.value.tobytes(),
                                None if a.grad is None else a.grad.tobytes()))
            assert results[0] == results[1]

    def test_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 90))
            values = rng.normal(size=(n, int(rng.choice([1, 2, 5, 8, 9, 32]))))
            values[n - 1] = values[0]  # coincident rows give a zero-distance pair
            count = min(int(rng.integers(0, 7)), n - 1)
            starts = sorted(rng.choice(np.arange(1, n), size=count, replace=False).tolist())
            self._assert_same(values, starts)

    def test_single_pair_and_zero_distance(self):
        values = np.array([[1.0, -2.0, 0.5], [1.0, -2.0, 0.5], [0.0, 3.0, 4.0]])
        for rows, starts in ((values[:2], []), (values[:2], [1]), (values[1:], []),
                             (values, [1]), (values, [2]), (np.zeros((4, 3)), [2])):
            self._assert_same(rows, starts)

    def test_one_segment(self):
        values = np.random.default_rng(22).normal(size=(30, 4))
        self._assert_same(values, [])

    def test_single_frame_segments(self):
        values = np.random.default_rng(23).normal(size=(12, 3))
        self._assert_same(values, list(range(1, 12)))

    def test_one_frame_instance(self):
        self._assert_same(np.array([[0.2, 0.8]]), [])

    def test_constant_column(self):
        # every difference in column 1 is zero, so each of its pair terms
        # is a signed zero: the sums must land on +0.0 as a scatter does
        rng = np.random.default_rng(24)
        for n, starts in ((20, []), (20, [7]), (25, [3, 11, 18]), (9, list(range(1, 9)))):
            values = rng.normal(size=(n, 3))
            values[:, 1] = 0.25
            self._assert_same(values, starts)

    @staticmethod
    def _tile_rows(width, d):
        """Rows in one tile of a block whose segment is ``width`` rows wide."""
        return max(1, la._TILE_ELEMS // (width * max(d, 2)))

    def test_instances_spanning_row_tiles(self):
        rng = np.random.default_rng(25)
        cases = (
            (400, 32, [100, 200, 300]),      # the response width, tiles of 10 rows
            (397, 32, [37, 150, 151, 290]),  # tile edges off the segment starts
            (192, 32, [64, 128]),            # a tile edge on each start
            (80, 520, [16]),                 # one row per tile in the wide segment
            (400, 1, [10, 200]),             # the zero column, tiled
            (300, 1, []),
        )
        for n, d, starts in cases:
            bounds = [0, *starts, n]
            widths = [e - s for s, e in zip(bounds, bounds[1:])]
            assert any(self._tile_rows(m, d) < e for m, e in zip(widths, bounds[1:]))
            values = rng.normal(size=(n, d))
            values[n - 1] = values[n // 2]
            self._assert_same(values, starts)
        assert self._tile_rows(64, 32) == 16
        assert self._tile_rows(64, 520) == 1

    def test_memory_stays_off_pair_count(self):
        # one step at n = 400 must not hold every block's (rows x segment x d)
        # differences, 25.6 MB here; the distance matrix is 1.3 MB
        values = np.random.default_rng(26).normal(size=(400, 32))
        a = la.Node(values)
        tracemalloc.start()
        try:
            la.backward(la.segment_distance_ratio(a, [100, 200, 300], 1.0, EPSILON_DIV))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.grad is not None
        assert peak < 8 * 2**20

    def test_pair_indices_split(self):
        wi, wj, ci, cj = pair_indices(4, [2])
        within = set(zip(wi.tolist(), wj.tolist()))
        cross = set(zip(ci.tolist(), cj.tolist()))
        assert within == {(0, 1), (2, 3)}
        assert cross == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_two_unit_model_gradients(self):
        from conftest import spread_features, spread_model
        cfg = ModelConfig(feature_dim=6, pattern_dim=5, num_patterns=5, attn_dim=4,
                          value_dim=4, hidden_dim=7, num_classes=3, num_units=2)
        for seed, n, starts in ((3, 30, [7, 15, 22]), (4, 17, [1, 9]), (5, 41, [20])):
            model = spread_model(cfg, seed=seed)
            feats = spread_features(seed, (n, 6))
            grads = []
            for loss in ("fused", "chain"):
                graph = forward_graph(feats, model)
                if loss == "fused":
                    total = combined_loss(graph, starts, seed % 3, CFG)[0]
                else:
                    total = chain_combined_loss(graph, starts, seed % 3, CFG)
                la.backward(total)
                grads.append([total.value.tobytes()]
                             + [p.grad.tobytes() for p in model.parameters()])
            assert grads[0] == grads[1]


GLOBAL_ONLY = LossConfig(w_local=0.0)
GLOBAL_CFG = ModelConfig(feature_dim=4, pattern_dim=3, num_patterns=3, attn_dim=3,
                         value_dim=3, hidden_dim=5, num_classes=5, num_units=1)


def global_term(model, feats, label):
    """Global term of ``combined_loss`` on a ``forward_graph`` trace."""
    graph = forward_graph(feats, model)
    _, local_value, global_value = combined_loss(graph, (), label, GLOBAL_ONLY)
    assert local_value == 0.0
    return graph, global_value


class TestGlobalLoss:
    def test_uniform_logits_give_log_c(self):
        model = TransParserModel.initialize(GLOBAL_CFG, seed=5)
        model.classifier_w.value[:] = 0.0
        feats = np.random.default_rng(5).normal(size=(6, 4))
        _, value = global_term(model, feats, label=2)
        assert abs(value - np.log(5.0)) < 1e-12

    def test_saturated_correct_class(self):
        model = TransParserModel.initialize(GLOBAL_CFG, seed=6)
        feats = np.random.default_rng(6).normal(size=(3, 4))
        pooled = forward_graph(feats, model).features[-1].value.mean(axis=0)
        # class 0 gets logit 100, every other class logit 0
        model.classifier_w.value[:] = 0.0
        model.classifier_w.value[:, 0] = 100.0 * pooled / (pooled @ pooled)
        _, value = global_term(model, feats, label=0)
        assert value < 1e-12

    def test_matches_mean_pool_log_softmax_oracle(self):
        model = TransParserModel.initialize(GLOBAL_CFG, seed=7)
        feats = np.random.default_rng(7).normal(size=(5, 4))
        label = 1
        graph, value = global_term(model, feats, label)
        pooled = (graph.features[-1].value @ model.classifier_w.value).mean(axis=0)
        oracle = -(pooled[label] - np.log(np.exp(pooled - pooled.max()).sum())
                   - pooled.max())
        assert abs(value - oracle) < 1e-10

    def test_label_out_of_range(self):
        model = TransParserModel.initialize(GLOBAL_CFG, seed=8)
        with pytest.raises(InputError):
            global_term(model, np.zeros((2, 4)), label=5)


class TestCombinedGradients:
    def test_grad_check_random_instance(self):
        from conftest import spread_features, spread_model
        cfg = ModelConfig(feature_dim=5, pattern_dim=4, num_patterns=4, attn_dim=3,
                          value_dim=3, hidden_dim=6, num_classes=4, num_units=2)
        model = spread_model(cfg, seed=7)
        feats = spread_features(7, (6, 5))
        starts = [2, 4]

        def loss():
            graph = forward_graph(feats, model)
            total, _, _ = combined_loss(graph, starts, 1, CFG)
            return total

        assert la.grad_check(loss, model.parameters(), eps=1e-5) < 1e-5


def tiny_dataset(seed=0):
    cfg = SynthConfig(num_prototypes=3, feature_dim=8, num_actions=2,
                      instances_per_action=8, seg_len_range=(3, 6),
                      transition_width=1, noise_sigma=0.05, seed=seed)
    features, records, _ = generate_synthetic(cfg)
    labels = sorted({r.label for r in records})
    return [(f, r.boundaries, labels.index(r.label))
            for f, r in zip(features, records)]


def tiny_model(seed=0, num_units=2):
    cfg = ModelConfig(feature_dim=8, pattern_dim=8, num_patterns=6, attn_dim=4,
                      value_dim=4, hidden_dim=12, num_classes=2, num_units=num_units)
    return TransParserModel.initialize(cfg, seed=seed)


class TestTrain:
    def test_zero_epochs_leave_model_unchanged(self):
        model = tiny_model()
        before = [p.value.copy() for p in model.parameters()]
        _, history = train(tiny_dataset(), model, LossConfig(epochs=0))
        assert history == []
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.value, b)

    def test_zero_learning_rate_is_a_no_op(self):
        model = tiny_model()
        before = [p.value.copy() for p in model.parameters()]
        train(tiny_dataset(), model, LossConfig(epochs=3, learning_rate=0.0))
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p.value, b)

    def test_loss_decreases_on_easy_data(self):
        model = tiny_model(seed=1)
        _, history = train(tiny_dataset(seed=1), model,
                           LossConfig(epochs=200, learning_rate=0.02, seed=1))
        assert history[-1]["total"] <= 0.5 * history[0]["total"]
        assert all(np.isfinite(h["total"]) for h in history)

    def test_fixed_seed_is_bit_reproducible(self):
        cfg = LossConfig(epochs=4, seed=9)
        m1 = tiny_model(seed=2)
        m2 = tiny_model(seed=2)
        data = tiny_dataset(seed=2)
        _, h1 = train(data, m1, cfg)
        _, h2 = train(data, m2, cfg)
        assert h1 == h2
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a.value, b.value)

    def test_writes_jsonl_log(self, tmp_path):
        log = tmp_path / "train.log.jsonl"
        train(tiny_dataset(), tiny_model(), LossConfig(epochs=3), log_path=log)
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            record = json.loads(line)
            assert record["epoch"] == i
            assert set(record) == {"epoch", "local_loss", "global_loss", "total"}

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            train([], tiny_model(), LossConfig(epochs=1))

    def test_batch_size_two_still_deterministic(self):
        cfg = LossConfig(epochs=3, batch_size=2, seed=4)
        m1, m2 = tiny_model(seed=3), tiny_model(seed=3)
        data = tiny_dataset(seed=3)
        train(data, m1, cfg)
        train(data, m2, cfg)
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a.value, b.value)


def oracle_train(dataset, model, cfg, build=forward_graph):
    """The parser's own SGD loop from before :func:`tapkit.linalg.sgd`,
    stepping ``backward`` on the graph that ``build`` makes: the oracle that
    the shared loop must equal bit for bit."""
    prepared = [(np.asarray(f, dtype=np.float64), list(s), int(y)) for f, s, y in dataset]
    params = model.parameters()
    velocity = [np.zeros_like(p.value) for p in params]
    accum = [np.zeros_like(p.value) for p in params]
    rng = np.random.default_rng(cfg.seed)
    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(prepared))
        local_sum = global_sum = total_sum = 0.0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            for buf in accum:
                buf.fill(0.0)
            for idx in batch:
                arr, starts, label = prepared[idx]
                total, lval, gval = combined_loss(build(arr, model), starts, label, cfg)
                tval = total.item()
                if not np.isfinite(tval):
                    raise NumericError(f"non-finite loss at epoch {epoch}, instance {idx}")
                local_sum += lval
                global_sum += gval
                total_sum += tval
                la.backward(total)
                for buf, p in zip(accum, params):
                    buf += p.grad
            inv = 1.0 / len(batch)
            if cfg.grad_clip > 0:
                norm_sq = sum(float((buf * buf).sum()) for buf in accum) * inv * inv
                norm = np.sqrt(norm_sq)
                if norm > cfg.grad_clip:
                    inv *= cfg.grad_clip / norm
            for p, v, buf in zip(params, velocity, accum):
                v *= cfg.momentum
                v += buf * inv
                p.value -= cfg.learning_rate * v
        count = len(prepared)
        history.append({"epoch": epoch, "local_loss": local_sum / count,
                        "global_loss": global_sum / count, "total": total_sum / count})
    return history


def outcome(fn, model):
    """Weights' bytes and history (as JSON text) of one run, or its error."""
    try:
        history = fn()
    except NumericError as exc:
        return str(exc)
    return (json.dumps(history),
            [p.value.tobytes() for p in model.parameters()])


class TestSharedSgdOracle:
    @pytest.mark.parametrize("num_units", [1, 2])
    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("grad_clip", [5.0, 0.0])
    @pytest.mark.parametrize("w_local", [0.0, 1.0])
    def test_weights_and_history_are_bytes_equal(self, num_units, batch_size,
                                                 grad_clip, w_local):
        cfg = LossConfig(epochs=2, learning_rate=0.02, batch_size=batch_size,
                         grad_clip=grad_clip, w_local=w_local, seed=6)
        data = tiny_dataset(seed=4)
        shared = tiny_model(seed=5, num_units=num_units)
        own = tiny_model(seed=5, num_units=num_units)
        got = outcome(lambda: train(data, shared, cfg)[1], shared)
        want = outcome(lambda: oracle_train(data, own, cfg), own)
        assert got == want


def step_instances(rng, feature_dim):
    """``(features, starts, label)`` of several shapes: many segments, one
    segment, and one frame (no pair at all)."""
    return [(rng.normal(size=(n, feature_dim)) * 2.0, starts, n % 2)
            for n, starts in ((9, [2, 5, 6]), (4, [1]), (6, []), (1, []))]


class TestStraightLineStep:
    """The training step equals ``forward_graph``, ``combined_loss`` and
    ``backward`` on the same instance, bit for bit, without the graph."""

    @pytest.mark.parametrize("num_units", [1, 2, 3])
    @pytest.mark.parametrize("w_local", [0.0, 1.0])
    def test_one_instance_is_bytes_equal_to_backward(self, num_units, w_local):
        from conftest import spread_model
        cfg = LossConfig(w_local=w_local)
        model = spread_model(replace(tiny_model().config, num_units=num_units),
                             seed=num_units)
        rng = np.random.default_rng(40 + num_units)
        for features, starts, label in step_instances(rng, 8):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                total, extras, grads = _step(model, cfg, features, starts, label)
            # the degenerate-instance warning fires where the local term runs
            assert [str(w.message)[:34] for w in caught] == (
                ["instance has fewer than 2 segments"] if w_local and not starts else [])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                graph_total, local, glob = combined_loss(forward_graph(features, model),
                                                         starts, label, cfg)
            la.backward(graph_total)
            assert (total, extras) == (graph_total.item(), (local, glob))
            assert [g.tobytes() for g in grads()] == [
                p.grad.tobytes() for p in model.parameters()], (len(features), starts)

    @pytest.mark.parametrize("num_units", [1, 2, 3])
    @pytest.mark.parametrize("w_local", [0.0, 1.0])
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_one_update_is_bytes_equal_to_backward(self, num_units, w_local, batch_size):
        # a batch holding the whole dataset: one update of the weights
        data = step_instances(np.random.default_rng(43), 8)[:batch_size]
        cfg = LossConfig(epochs=1, learning_rate=0.02, batch_size=batch_size,
                         w_local=w_local, seed=6)
        shared = tiny_model(seed=8, num_units=num_units)
        own = tiny_model(seed=8, num_units=num_units)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the one-segment instance's
            got = outcome(lambda: train(data, shared, cfg)[1], shared)
            want = outcome(lambda: oracle_train(data, own, cfg), own)
        assert got == want

    def test_training_builds_no_graph(self, monkeypatch):
        def no_backward(root):
            raise AssertionError("training called backward")

        monkeypatch.setattr(la, "backward", no_backward)
        model = tiny_model(seed=9)
        _, history = train(tiny_dataset(seed=9)[:5], model,
                           LossConfig(epochs=2, batch_size=2))
        assert len(history) == 2 and np.isfinite(history[-1]["total"])


class TestLossConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            LossConfig(lambda_reg=-1.0).validate()
        with pytest.raises(ConfigError):
            LossConfig(w_local=-1.0).validate()
        with pytest.raises(ConfigError):
            LossConfig(momentum=1.0).validate()
