import numpy as np
import pytest

import tapkit.linalg as la
from tapkit.baselines import (TCNModel, TCNTrainConfig, _step, boundary_targets, kmeans,
                              kmeans_parse, tcn_parse, tcn_train)
from tapkit.errors import ConfigError, InputError, NumericError
from tapkit.parsing import starts_from_labels


def wcss(features, labels, k):
    total = 0.0
    for j in range(k):
        members = features[labels == j]
        if len(members):
            total += ((members - members.mean(axis=0)) ** 2).sum()
    return total


class TestKmeans:
    def test_separable_two_clusters(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=4) + 50, rng.normal(size=4) - 50
        features = np.array([a, a, a, b, b, b])
        assert kmeans_parse(features, k=2, seed=0) == (3,)

    def test_k_one_never_yields_boundaries(self):
        rng = np.random.default_rng(1)
        assert kmeans_parse(rng.normal(size=(12, 3)), k=1, seed=0) == ()

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(InputError):
            kmeans_parse(np.zeros((3, 2)), k=4, seed=0)
        with pytest.raises(InputError):
            kmeans_parse(np.zeros((3, 2)), k=0, seed=0)

    def test_beats_random_assignment_restarts(self):
        rng = np.random.default_rng(2)
        centers = rng.normal(size=(2, 5)) * 6
        features = np.vstack([centers[i % 2] + rng.normal(size=5) * 0.5
                              for i in range(40)])
        labels, _ = kmeans(features, k=2, seed=0)
        ours = wcss(features, labels, 2)
        for restart in range(50):
            random_labels = np.random.default_rng(100 + restart).integers(0, 2, size=40)
            assert ours <= wcss(features, random_labels, 2) + 1e-9

    def test_boundaries_equal_label_transitions(self):
        rng = np.random.default_rng(3)
        features = rng.normal(size=(25, 4))
        labels, _ = kmeans(features, k=3, seed=5)
        assert kmeans_parse(features, k=3, seed=5) == starts_from_labels(labels)

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(4)
        features = rng.normal(size=(30, 4))
        l1, c1 = kmeans(features, k=4, seed=9)
        l2, c2 = kmeans(features, k=4, seed=9)
        assert np.array_equal(l1, l2)
        assert np.array_equal(c1, c2)


class TestBoundaryTargets:
    def test_labeling_rule(self):
        targets = boundary_targets(20, [10], radius=1)
        assert targets[9] == targets[10] == targets[11] == 1.0
        assert targets.sum() == 3.0

    def test_radius_zero_marks_only_the_boundary(self):
        targets = boundary_targets(10, [4], radius=0)
        assert targets.tolist() == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0]

    def test_clipping_at_sequence_edges(self):
        targets = boundary_targets(5, [1], radius=3)
        assert targets.tolist() == [1, 1, 1, 1, 1]


class TestWeightedBce:
    def test_weight_one_matches_plain_bce_oracle(self):
        rng = np.random.default_rng(5)
        z = rng.normal(size=(8, 1)) * 2
        y = (rng.uniform(size=(8, 1)) > 0.5).astype(float)
        loss = la.weighted_bce_with_logits(la.Node(z), y, pos_weight=1.0)
        p = 1.0 / (1.0 + np.exp(-z))
        oracle = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
        assert abs(loss.item() - oracle) < 1e-12


def chain_logits_graph(model, features):
    """The TCN as the chain of public ops it was built from: the oracle the
    fused node must equal bit for bit."""
    arr = np.asarray(features, dtype=np.float64)
    n = arr.shape[0]
    frame_index = np.arange(n)
    half = model.kernel_size // 2
    offsets = range(-half, half + 1)
    hidden = None
    for off, w in zip(offsets, model.w1):
        term = la.matmul(arr[np.clip(frame_index + off, 0, n - 1)], w)
        hidden = term if hidden is None else la.add(hidden, term)
    hidden = la.relu(la.add(hidden, model.b1))
    out = None
    for off, w in zip(offsets, model.w2):
        shifted = la.gather_rows(hidden, np.clip(frame_index + off, 0, n - 1))
        term = la.matmul(shifted, w)
        out = term if out is None else la.add(out, term)
    return la.add(out, model.b2)


def fused_logits_graph(model, features):
    """The fused TCN's logits as one node whose parents are the parameters:
    the graph form of what training steps, for ``backward`` and
    ``grad_check``."""
    out, saved = model._values(features)
    return la.Node(out, model.parameters(), lambda g: model._grads(saved, g))


def loss_and_grads(model, logits_fn, features, targets, pos_weight):
    logits = logits_fn(model, features)
    la.backward(la.weighted_bce_with_logits(logits, targets, pos_weight))
    return logits.value.tobytes(), [p.grad.tobytes() for p in model.parameters()]


class TestTcnChainOracle:
    @pytest.mark.parametrize("kernel", [1, 3, 9])
    @pytest.mark.parametrize("hidden", [1, 4, 32])
    @pytest.mark.parametrize("dim", [1, 3, 64])
    def test_logits_and_gradients_are_bytes_equal(self, kernel, hidden, dim):
        rng = np.random.default_rng(kernel * 10_000 + hidden * 100 + dim)
        model = TCNModel(dim, kernel, hidden, seed=kernel + hidden + dim)
        # nonzero biases, so the relu mask and the bias sums are exercised
        model.b1.value[:] = rng.normal(size=model.b1.value.shape) * 0.3
        model.b2.value[:] = rng.normal()
        for n in sorted({1, 2, max(kernel - 1, 1), 40}):
            features = rng.normal(size=(n, dim))
            targets = (rng.uniform(size=(n, 1)) > 0.6).astype(float)
            for pos_weight in (0.5, 2.5):
                logits, grads = loss_and_grads(model, fused_logits_graph,
                                               features, targets, pos_weight)
                ref_logits, ref_grads = loss_and_grads(model, chain_logits_graph,
                                                       features, targets, pos_weight)
                assert logits == ref_logits, (n, pos_weight)
                assert len(grads) == 2 * kernel + 2
                for i, (got, want) in enumerate(zip(grads, ref_grads)):
                    assert got == want, (n, pos_weight, i)
                # the training step, with no graph, gives the same loss and
                # gradients
                loss, extras, step_grads = _step(model, pos_weight, features, targets)
                want_loss = la.weighted_bce_with_logits(
                    chain_logits_graph(model, features), targets, pos_weight).item()
                assert (loss, extras) == (want_loss, ())
                assert [g.tobytes() for g in step_grads()] == ref_grads, (n, pos_weight)

    def test_training_weights_are_bytes_equal(self):
        rng = np.random.default_rng(11)
        dataset = []
        for length in (3, 5, 8, 20, 37):  # some shorter than the kernel
            features = rng.normal(size=(length, 5))
            dataset.append((features, (length // 2,)))
        cfg = TCNTrainConfig(kernel_size=9, hidden_channels=6, epochs=4, seed=4)
        fused = tcn_train(dataset, cfg)
        chained = oracle_tcn_train(dataset, cfg, chain_logits_graph)
        for a, b in zip(fused.parameters(), chained.parameters(), strict=True):
            assert a.value.tobytes() == b.value.tobytes()

    def test_predict_equals_sigmoid_of_chain(self):
        rng = np.random.default_rng(12)
        model = TCNModel(feature_dim=4, kernel_size=9, hidden_channels=8, seed=2)
        model.b1.value[:] = rng.normal(size=model.b1.value.shape) * 0.3
        for n in (1, 4, 40):
            features = rng.normal(size=(n, 4)) * 3
            want = la.sigmoid(chain_logits_graph(model, features)).value[:, 0]
            assert model.predict(features).tobytes() == want.tobytes()

    def test_one_node_per_logits_call_and_none_per_predict(self, monkeypatch):
        model = TCNModel(feature_dim=3, kernel_size=3, hidden_channels=4, seed=0)
        features = np.random.default_rng(13).normal(size=(7, 3))
        made = []

        class CountingNode(la.Node):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(la, "Node", CountingNode)
        node = fused_logits_graph(model, features)
        assert made == [node]
        params = model.parameters()
        assert len(node.parents) == len(params)
        assert all(a is b for a, b in zip(node.parents, params))
        made.clear()
        model.predict(features)
        assert made == []

    def test_nan_in_a_first_layer_tap_raises(self):
        # one NaN weight makes a hidden channel NaN; the relu passes it on
        model = TCNModel(feature_dim=4, kernel_size=3, hidden_channels=5, seed=0)
        model.w1[1].value[2, 3] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            model.predict(np.random.default_rng(14).normal(size=(6, 4)))


def oracle_tcn_train(dataset, cfg, logits_graph=fused_logits_graph):
    """The TCN's own SGD loop from before :func:`tapkit.linalg.sgd`, stepping
    ``backward`` on ``logits_graph``: the oracle that the shared loop must
    equal bit for bit."""
    prepared = []
    for features, starts in dataset:
        arr = np.asarray(features, dtype=np.float64)
        prepared.append((arr, boundary_targets(arr.shape[0], starts,
                                               cfg.neighbor_radius).reshape(-1, 1)))
    targets = np.concatenate([t for _, t in prepared])
    pos_weight = cfg.pos_weight
    if pos_weight is None:
        pos_weight = (1.0 - targets).sum() / targets.sum()
    model = TCNModel(prepared[0][0].shape[1], cfg.kernel_size, cfg.hidden_channels,
                     cfg.seed)
    params = model.parameters()
    velocity = [np.zeros_like(p.value) for p in params]
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        for idx in rng.permutation(len(prepared)):
            arr, target = prepared[idx]
            loss = la.weighted_bce_with_logits(logits_graph(model, arr), target,
                                               pos_weight)
            la.backward(loss)
            for p, v in zip(params, velocity):
                v *= cfg.momentum
                v += p.grad
                p.value -= cfg.learning_rate * v
    return model


class TestSharedSgdOracle:
    @pytest.mark.parametrize("pos_weight", [None, 1.5])
    def test_training_weights_are_bytes_equal(self, pos_weight):
        rng = np.random.default_rng(21)
        dataset = [(rng.normal(size=(length, 5)), (length // 3, 2 * length // 3))
                   for length in (4, 9, 16, 30, 41)]
        cfg = TCNTrainConfig(kernel_size=5, hidden_channels=6, epochs=3, seed=8,
                             pos_weight=pos_weight)
        shared = tcn_train(dataset, cfg)
        own = oracle_tcn_train(dataset, cfg)
        for a, b in zip(shared.parameters(), own.parameters(), strict=True):
            assert a.value.tobytes() == b.value.tobytes()

    def test_training_builds_no_graph(self, monkeypatch):
        def no_backward(root):
            raise AssertionError("training called backward")

        monkeypatch.setattr(la, "backward", no_backward)
        rng = np.random.default_rng(22)
        model = tcn_train([(rng.normal(size=(12, 3)), (4,)), (rng.normal(size=(2, 3)), (1,))],
                          TCNTrainConfig(kernel_size=5, hidden_channels=4, epochs=2))
        assert all(np.isfinite(p.value).all() for p in model.parameters())

    def test_nan_weight_stops_training(self, monkeypatch):
        init = TCNModel.__init__

        def init_with_nan(self, *args):
            init(self, *args)
            self.w2[0].value[1, 0] = np.nan

        monkeypatch.setattr(TCNModel, "__init__", init_with_nan)
        with pytest.raises(NumericError, match="non-finite loss at epoch 0, instance"):
            tcn_train([(np.ones((6, 2)), (3,))], TCNTrainConfig(epochs=2))


class TestTcn:
    def make_spike_dataset(self, count=6, length=40, seed=0):
        # one feature channel jumps at the boundary: linearly separable
        rng = np.random.default_rng(seed)
        dataset = []
        for _ in range(count):
            boundary = int(rng.integers(10, length - 10))
            features = rng.normal(size=(length, 4)) * 0.1
            features[boundary - 1:boundary + 2, 0] += 5.0
            dataset.append((features, (boundary,)))
        return dataset

    def test_output_length_and_range(self):
        model = TCNModel(feature_dim=4, kernel_size=9, hidden_channels=8, seed=0)
        rng = np.random.default_rng(6)
        for n in (1, 2, 9, 40):
            scores = model.predict(rng.normal(size=(n, 4)))
            assert scores.shape == (n,)
            assert np.all(scores > 0) and np.all(scores < 1)

    def test_training_drives_loss_down_on_separable_spike(self):
        dataset = self.make_spike_dataset()
        cfg = TCNTrainConfig(epochs=40, neighbor_radius=1, seed=0)
        model = tcn_train(dataset, cfg)
        total = 0.0
        pos_weight = 1.0
        for features, starts in dataset:
            targets = boundary_targets(len(features), starts, 1).reshape(-1, 1)
            total += la.weighted_bce_with_logits(
                fused_logits_graph(model, np.asarray(features)), targets, pos_weight).item()
        assert total / len(dataset) < 0.1

    def test_gradients_pass_grad_check(self):
        model = TCNModel(feature_dim=3, kernel_size=3, hidden_channels=4, seed=1)
        features = np.random.default_rng(7).normal(size=(6, 3))
        targets = boundary_targets(6, [3], 1).reshape(-1, 1)

        def loss():
            return la.weighted_bce_with_logits(fused_logits_graph(model, features),
                                               targets, 2.5)

        assert la.grad_check(loss, model.parameters(), eps=1e-6) < 1e-6

    def test_no_positive_frames_is_a_config_error(self):
        features = np.zeros((10, 2))
        with pytest.raises(ConfigError, match="no positive frames"):
            tcn_train([(features, ())], TCNTrainConfig(epochs=1))

    def test_no_negative_frames_with_automatic_weight_is_a_config_error(self):
        # every frame lies within neighbor_radius of the start at frame 1
        with pytest.raises(ConfigError, match="no negative frames"):
            tcn_train([(np.zeros((3, 2)), (1,))], TCNTrainConfig(epochs=1))

    def test_no_negative_frames_trains_with_an_explicit_weight(self):
        model = tcn_train([(np.ones((3, 2)), (1,))],
                          TCNTrainConfig(epochs=2, pos_weight=1.5))
        assert np.all(model.predict(np.ones((3, 2))) > 0.5)

    def test_deterministic_training(self):
        dataset = self.make_spike_dataset(count=3, seed=2)
        cfg = TCNTrainConfig(epochs=5, seed=3)
        m1 = tcn_train(dataset, cfg)
        m2 = tcn_train(dataset, cfg)
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a.value, b.value)


class FixedScoreModel:
    """Stands in for a trained TCN at parse time."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)

    def predict(self, features):
        return self.scores


class TestTcnParse:
    def test_all_below_threshold(self):
        model = FixedScoreModel([0.1, 0.2, 0.3])
        assert tcn_parse(None, model, threshold=0.5) == ()

    def test_single_spike(self):
        model = FixedScoreModel([0.1, 0.9, 0.1])
        for radius in (0, 1, 5):
            assert tcn_parse(None, model, threshold=0.5, nms_radius=radius) == (1,)

    def test_plateau_keeps_earlier_frame(self):
        model = FixedScoreModel([0.1, 0.8, 0.8, 0.1])
        assert tcn_parse(None, model, threshold=0.5, nms_radius=1) == (1,)

    def test_radius_zero_keeps_the_whole_run(self):
        model = FixedScoreModel([0.1, 0.8, 0.8, 0.1])
        assert tcn_parse(None, model, threshold=0.5, nms_radius=0) == (1, 2)

    def test_frame_zero_never_predicted(self):
        model = FixedScoreModel([0.9, 0.1, 0.1])
        assert tcn_parse(None, model, threshold=0.5) == ()

    def test_invariant_under_level_set_preserving_transform(self):
        scores = np.array([0.1, 0.8, 0.3, 0.7, 0.2, 0.9, 0.1])
        base = tcn_parse(None, FixedScoreModel(scores), threshold=0.5, nms_radius=2)
        # affine map fixing 0.5 and order: x -> 0.5 + 0.4*(x - 0.5)
        squeezed = 0.5 + 0.4 * (scores - 0.5)
        same = tcn_parse(None, FixedScoreModel(squeezed), threshold=0.5, nms_radius=2)
        assert base == same

    def test_threshold_validation(self):
        with pytest.raises(InputError):
            tcn_parse(None, FixedScoreModel([0.5]), threshold=1.5)
        with pytest.raises(InputError):
            tcn_parse(None, FixedScoreModel([0.5]), nms_radius=-1)
