import numpy as np
import pytest

from tapkit.errors import InputError
from tapkit.parsing import (extract_boundaries, representatives_of, smooth_labels,
                            starts_from_labels)


def one_hot_rows(labels, width):
    out = np.zeros((len(labels), width))
    for t, lab in enumerate(labels):
        out[t, lab] = 1.0
    return out


class TestExtractBoundaries:
    def test_rule_trace(self):
        resp = one_hot_rows([1, 1, 2, 2, 2, 3], 4)
        assert representatives_of(resp).tolist() == [1, 1, 2, 2, 2, 3]
        assert extract_boundaries(resp) == (2, 5)

    def test_constant_representatives_yield_no_boundaries(self):
        resp = one_hot_rows([2, 2, 2, 2], 3)
        assert extract_boundaries(resp) == ()

    def test_alternating_without_smoothing(self):
        resp = one_hot_rows([1, 2, 1, 2], 3)
        assert extract_boundaries(resp) == (1, 2, 3)

    def test_alternating_with_window_3_matches_hand_trace(self):
        # window [1,2]: tie -> keep raw first label 1
        # window [1,2,1]: majority 1
        # window [2,1,2]: majority 2
        # window [1,2]: tie -> keep previous output 2
        resp = one_hot_rows([1, 2, 1, 2], 3)
        assert smooth_labels(representatives_of(resp), 3).tolist() == [1, 1, 2, 2]
        assert extract_boundaries(resp, smoothing_window=3) == (2,)

    def test_argmax_tie_goes_to_lowest_index(self):
        resp = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert representatives_of(resp).tolist() == [0, 0]
        assert extract_boundaries(resp) == ()

    def test_empty_responses_rejected(self):
        with pytest.raises(InputError):
            extract_boundaries(np.zeros((0, 3)))


class TestProperties:
    def test_boundary_count_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            resp = rng.uniform(size=(n, 5))
            assert len(extract_boundaries(resp)) <= n - 1

    def test_invariant_under_monotone_row_transform(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            resp = rng.uniform(0.05, 1.0, size=(12, 6))
            base = extract_boundaries(resp)
            cubed = extract_boundaries(resp ** 3)
            shifted = extract_boundaries(np.exp(2.0 * resp) + 1.0)
            assert base == cubed == shifted

    def test_window_one_is_identity(self):
        rng = np.random.default_rng(2)
        resp = rng.uniform(size=(15, 4))
        reps = representatives_of(resp)
        assert np.array_equal(smooth_labels(reps, 1), reps)
        assert extract_boundaries(resp, smoothing_window=1) == extract_boundaries(resp)

    def test_concatenation_unions_boundaries(self):
        rng = np.random.default_rng(3)
        a = one_hot_rows([0, 0, 1, 1], 4)
        b = one_hot_rows([2, 2, 3, 3], 4)
        left = extract_boundaries(a)
        right = extract_boundaries(b)
        joined = extract_boundaries(np.vstack([a, b]))
        # distinct representatives at the junction add exactly the junction
        assert joined == tuple(sorted(left + tuple(s + 4 for s in right) + (4,)))


class TestSmoothLabels:
    def test_requires_odd_window(self):
        with pytest.raises(InputError):
            smooth_labels(np.array([1, 2, 3]), 2)
        with pytest.raises(InputError):
            smooth_labels(np.array([1, 2, 3]), 0)

    def test_majority_suppresses_single_flicker(self):
        labels = np.array([1, 1, 2, 1, 1])
        assert smooth_labels(labels, 3).tolist() == [1, 1, 1, 1, 1]

    def test_starts_from_labels_rejects_empty(self):
        with pytest.raises(InputError):
            starts_from_labels(np.array([]))
