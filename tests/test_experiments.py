import numpy as np
import pytest

from tapkit.data import SynthConfig, generate_synthetic
from tapkit.errors import InputError
from tapkit.experiments import (AblationRow, pool_segments, run_ablation,
                                sampling_classifier, segment_spans, uniform_spans)
from tapkit.losses import LossConfig
from tapkit.metrics import sweep
from tapkit.model import ModelConfig, TransParserModel, forward
from tapkit.parsing import extract_boundaries


class TestSegmentSpans:
    def test_exact_fit_passes_through(self):
        assert segment_spans(10, [4, 7], 3) == [(0, 4), (4, 7), (7, 10)]

    def test_merge_prefers_smallest_combined_pair(self):
        # segments 0-4 (4), 4-6 (2), 6-9 (3): merging (4,6)+(6,9) -> 5 beats
        # (0,4)+(4,6) -> 6
        assert segment_spans(9, [4, 6], 2) == [(0, 4), (4, 9)]

    def test_split_halves_the_longest(self):
        assert segment_spans(10, [6], 3) == [(0, 3), (3, 6), (6, 10)]

    def test_no_boundaries_splits_evenly(self):
        assert segment_spans(8, [], 2) == [(0, 4), (4, 8)]

    def test_more_segments_than_frames_never_errors(self):
        spans = segment_spans(2, [], 4)
        assert len(spans) == 4
        assert spans[0][0] == 0 and spans[-1][1] == 2

    def test_uniform_spans_cover_everything(self):
        for length in (7, 8, 20):
            for k in (1, 2, 3, 5):
                spans = uniform_spans(length, k)
                assert spans[0][0] == 0 and spans[-1][1] == length
                assert all(spans[i][1] == spans[i + 1][0] for i in range(k - 1))

    def test_pool_segments_handles_empty_span(self):
        feats = np.arange(8.0).reshape(4, 2)
        pooled = pool_segments(feats, [(0, 2), (2, 2), (2, 4)])
        assert np.array_equal(pooled, [1.0, 2.0, 0.0, 0.0, 5.0, 6.0])


def order_sensitive_dataset(seed=1, instances=60, noise=1.5):
    """Two actions built from the same prototypes, differing only in order.

    Wildly varying segment lengths scramble what uniform bins see, while
    aligned pooling always reads pure segments.
    """
    cfg = SynthConfig(num_prototypes=2, feature_dim=8, num_actions=2,
                      instances_per_action=instances, seg_len_range=(1, 50),
                      transition_width=0, noise_sigma=noise, seed=seed,
                      action_orders=((0, 1, 0, 1, 0), (1, 0, 1, 0, 1)))
    features, records, _ = generate_synthetic(cfg)
    return records, {r.instance_id: f for r, f in zip(records, features)}


class TestSamplingClassifier:
    def test_one_segment_collapses_schemes(self):
        records, feats = order_sensitive_dataset(seed=1)
        uniform = sampling_classifier(records, feats, "uniform", 1)
        aligned = sampling_classifier(records, feats, "aligned", 1)
        assert uniform.top1_accuracy == aligned.top1_accuracy
        assert uniform.avg_class_accuracy == aligned.avg_class_accuracy

    def test_aligned_beats_uniform_on_order_sensitive_data(self):
        records, feats = order_sensitive_dataset(seed=1)
        uniform = sampling_classifier(records, feats, "uniform", 5)
        aligned = sampling_classifier(records, feats, "aligned", 5)
        assert aligned.top1_accuracy > uniform.top1_accuracy

    def test_random_labels_scores_near_chance(self):
        rng = np.random.default_rng(3)
        cfg = SynthConfig(num_prototypes=4, feature_dim=8, num_actions=4,
                          instances_per_action=40, seg_len_range=(4, 8),
                          transition_width=0, noise_sigma=0.1, seed=3)
        features, records, _ = generate_synthetic(cfg)
        # scramble the labels: no scheme can beat chance on average
        shuffled = [r.__class__(**{**r.__dict__,
                                   "label": f"act{int(rng.integers(4)):02d}"})
                    for r in records]
        feats = {r.instance_id: f for r, f in zip(shuffled, features)}
        report = sampling_classifier(shuffled, feats, "uniform", 2)
        # binomial: 24 test draws at p=1/4 -> 3 sigma is ~0.27
        assert abs(report.top1_accuracy - 0.25) < 0.30

    def test_predicted_scheme_requires_predictions(self):
        records, feats = order_sensitive_dataset(seed=4, instances=8)
        with pytest.raises(InputError):
            sampling_classifier(records, feats, "predicted", 3)
        preds = {r.instance_id: r.boundaries for r in records}
        report = sampling_classifier(records, feats, "predicted", 3,
                                     predictions=preds)
        aligned = sampling_classifier(records, feats, "aligned", 3)
        assert report.top1_accuracy == aligned.top1_accuracy

    def test_unknown_scheme(self):
        records, feats = order_sensitive_dataset(seed=5, instances=8)
        with pytest.raises(InputError):
            sampling_classifier(records, feats, "stratified", 2)


def small_parsing_dataset(seed=0):
    cfg = SynthConfig(num_prototypes=3, feature_dim=8, num_actions=2,
                      instances_per_action=10, seg_len_range=(4, 8),
                      transition_width=1, noise_sigma=0.05, seed=seed)
    features, records, _ = generate_synthetic(cfg)
    labels = sorted({r.label for r in records})
    train_data, eval_data = [], []
    for f, r in zip(features, records):
        if r.split == "train":
            train_data.append((f, r.boundaries, labels.index(r.label)))
        else:
            eval_data.append((f, r.boundaries, r.length))
    return train_data, eval_data


class TestRunAblation:
    def test_single_cell_equals_direct_train_and_sweep(self):
        train_data, eval_data = small_parsing_dataset(seed=6)
        model_cfg = ModelConfig(feature_dim=8, pattern_dim=8, num_patterns=6,
                                attn_dim=4, value_dim=4, hidden_dim=12,
                                num_classes=2, num_units=2)
        loss_cfg = LossConfig(epochs=10, seed=3)
        rows = run_ablation(train_data, eval_data, model_cfg, loss_cfg,
                            grid=((2, True),))
        assert len(rows) == 1

        from tapkit.losses import train as train_fn
        model = TransParserModel.initialize(model_cfg, seed=3)
        train_fn(train_data, model, loss_cfg)
        triples = []
        for features, gt, length in eval_data:
            starts = extract_boundaries(forward(features, model).response)
            triples.append((starts, tuple(gt), length))
        recall, precision, f1 = sweep(triples).averages("abs")
        assert rows[0].avg_f1 == f1
        assert rows[0].avg_recall == recall
        assert rows[0].avg_precision == precision

    def test_default_grid_emits_three_labelled_rows(self):
        train_data, eval_data = small_parsing_dataset(seed=7)
        model_cfg = ModelConfig(feature_dim=8, pattern_dim=8, num_patterns=6,
                                attn_dim=4, value_dim=4, hidden_dim=12,
                                num_classes=2, num_units=2)
        rows = run_ablation(train_data, eval_data, model_cfg,
                            LossConfig(epochs=2))
        assert [(r.num_units, r.local_loss) for r in rows] == [
            (1, False), (1, True), (2, True)]
        assert [r.setting for r in rows] == ["x1", "x1+local", "x2+local"]

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            run_ablation([], [], ModelConfig(), LossConfig(), grid=())
