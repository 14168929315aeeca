import zlib

import numpy as np
import pytest

import tapkit.linalg as la
from tapkit.errors import DimensionError, InputError, NumericError


def naive_matmul(a, b):
    """Triple-loop product, the independent oracle for matmul."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


class TestMatmul:
    def test_identity(self):
        b = np.arange(12.0).reshape(3, 4)
        out = la.matmul(np.eye(3), b)
        assert np.array_equal(out.value, b)

    def test_hand_traced_2x2(self):
        out = la.matmul([[1.0, 2.0], [3.0, 4.0]], [[0.0], [1.0]])
        assert np.array_equal(out.value, [[2.0], [4.0]])

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        out = la.matmul(a, b)
        assert np.max(np.abs(out.value - naive_matmul(a, b))) < 1e-12

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 2\)"):
            la.matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_associativity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=(3, 4))
            b = rng.normal(size=(4, 5))
            c = rng.normal(size=(5, 2))
            left = la.matmul(la.matmul(a, b), c).value
            right = la.matmul(a, la.matmul(b, c)).value
            assert np.max(np.abs(left - right)) < 1e-9


class TestSoftmaxRows:
    def test_zero_row_is_uniform(self):
        out = la.softmax_rows(np.zeros((1, 4)))
        assert np.allclose(out.value, 0.25, atol=1e-15)

    def test_large_entry_does_not_overflow(self):
        out = la.softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out.value).all()
        assert out.value[0, 0] > 1.0 - 1e-12
        assert out.value[0, 1] < 1e-12

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 9)) * 5
        expected = np.exp(x - x.max()) / np.exp(x - x.max()).sum()
        assert np.max(np.abs(la.softmax_rows(x).value - expected)) < 1e-12

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.normal(size=(6, 5)) * rng.uniform(0.1, 100)
            s = la.softmax_rows(x).value
            assert np.all(s >= 0)
            assert np.max(np.abs(s.sum(axis=1) - 1.0)) < 1e-9

    def test_invariant_under_row_shift(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 6))
        shifted = x + rng.normal(size=(4, 1))
        assert np.allclose(la.softmax_rows(x).value, la.softmax_rows(shifted).value, atol=1e-12)


class TestGradCheck:
    def test_quadratic(self):
        theta = la.Node(np.array([[1.0, 2.0]]))

        def loss():
            return la.mean_all(la.mul(theta, theta))

        root = loss()
        la.backward(root)
        assert np.allclose(theta.grad, [[1.0, 2.0]], atol=1e-12)
        assert la.grad_check(loss, [theta], eps=1e-6) < 1e-8

    def test_constant_loss(self):
        theta = la.Node(np.array([[3.0]]))

        def loss():
            return la.scale(theta, 0.0)

        assert la.grad_check(loss, [theta], eps=1e-5) == 0.0

    def test_parameter_the_loss_does_not_reach(self):
        theta = la.Node([[1.0]])
        unused = la.Node([[2.0]])
        assert la.grad_check(lambda: la.scale(theta, 2.0), [theta, unused]) < 1e-8
        assert unused.grad is None

    def test_eps_must_be_positive(self):
        theta = la.Node([[1.0]])
        with pytest.raises(InputError):
            la.grad_check(lambda: theta, [theta], eps=0.0)

    def test_nonfinite_loss_raises(self):
        theta = la.Node([[1.0]])

        def loss():
            return la.Node([[np.inf]])

        with pytest.raises(NumericError):
            la.grad_check(loss, [theta])


def _glue_to_scalar(node):
    # deterministic scalar so every entry of `node` influences the loss
    rng = np.random.default_rng(99)
    w = rng.normal(size=node.shape)
    return la.mean_all(la.mul(node, la.Node(w)))


class TestOpGradients:
    """grad_check on each op over random small inputs (< 1e-6 relative)."""

    @pytest.mark.parametrize("case", [
        "matmul", "add", "add_bias", "sub", "mul", "div", "scale",
        "transpose", "relu", "sigmoid", "softmax", "hconcat", "gather",
        "row_norms", "mean_all", "mean_over_rows", "nll", "bce",
        "segment_distance_ratio",
    ])
    def test_each_op(self, case):
        # str hashes change between interpreter starts; crc32 does not
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        a = la.Node(rng.normal(size=(3, 4)))
        b = la.Node(rng.normal(size=(3, 4)))
        if case == "matmul":
            c = la.Node(rng.normal(size=(4, 2)))
            fn = lambda: _glue_to_scalar(la.matmul(a, c))
            params = [a, c]
        elif case == "add":
            fn = lambda: _glue_to_scalar(la.add(a, b))
            params = [a, b]
        elif case == "add_bias":
            bias = la.Node(rng.normal(size=(1, 4)))
            fn = lambda: _glue_to_scalar(la.add(a, bias))
            params = [a, bias]
        elif case == "sub":
            fn = lambda: _glue_to_scalar(la.sub(a, b))
            params = [a, b]
        elif case == "mul":
            fn = lambda: _glue_to_scalar(la.mul(a, b))
            params = [a, b]
        elif case == "div":
            denom = la.Node(rng.uniform(0.5, 2.0, size=(3, 4)))
            fn = lambda: _glue_to_scalar(la.div(a, denom))
            params = [a, denom]
        elif case == "scale":
            fn = lambda: _glue_to_scalar(la.scale(a, -2.5))
            params = [a]
        elif case == "transpose":
            fn = lambda: _glue_to_scalar(la.transpose(a))
            params = [a]
        elif case == "relu":
            fn = lambda: _glue_to_scalar(la.relu(a))
            params = [a]
        elif case == "sigmoid":
            fn = lambda: _glue_to_scalar(la.sigmoid(a))
            params = [a]
        elif case == "softmax":
            fn = lambda: _glue_to_scalar(la.softmax_rows(a))
            params = [a]
        elif case == "hconcat":
            fn = lambda: _glue_to_scalar(la.hconcat(a, b))
            params = [a, b]
        elif case == "gather":
            idx = np.array([2, 0, 2, 1])
            fn = lambda: _glue_to_scalar(la.gather_rows(a, idx))
            params = [a]
        elif case == "row_norms":
            fn = lambda: _glue_to_scalar(la.row_norms(a))
            params = [a]
        elif case == "mean_all":
            fn = lambda: la.mean_all(a)
            params = [a]
        elif case == "mean_over_rows":
            fn = lambda: _glue_to_scalar(la.mean_over_rows(a))
            params = [a]
        elif case == "nll":
            logits = la.Node(rng.normal(size=(1, 5)))
            fn = lambda: la.nll_from_logits(logits, 2)
            params = [logits]
        elif case == "bce":
            z = la.Node(rng.normal(size=(6, 1)))
            y = (rng.uniform(size=(6, 1)) > 0.5).astype(float)
            fn = lambda: la.weighted_bce_with_logits(z, y, pos_weight=3.0)
            params = [z]
        elif case == "segment_distance_ratio":
            x = la.Node(rng.normal(size=(7, 3)))
            fn = lambda: la.segment_distance_ratio(x, [2, 5], 0.5, 0.1)
            params = [x]
        assert la.grad_check(fn, params, eps=1e-6) < 1e-6


class TestMatmulConstants:
    """A plain-array matmul operand is a constant: no parent, no gradient matmul."""

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_array_operand_is_not_a_parent(self, side):
        const = np.random.default_rng(8).normal(size=(4, 3))
        grads = []
        for wrap in (la.Node, np.copy):
            w = la.Node(np.random.default_rng(9).normal(size=(3, 2) if side == "left" else (2, 4)))
            operand = wrap(const)
            out = la.matmul(operand, w) if side == "left" else la.matmul(w, operand)
            la.backward(_glue_to_scalar(out))
            grads.append((out.value.tobytes(), w.grad.tobytes()))
        assert out.parents == (w,)
        assert grads[0] == grads[1]

    def test_two_arrays_make_a_leaf(self):
        out = la.matmul(np.eye(2), np.ones((2, 3)))
        assert out.parents == () and out._push is None
        assert np.array_equal(out.value, np.ones((2, 3)))


class TestGatherScatter:
    """gather_rows' push must add in the same order as ``np.add.at``."""

    @pytest.mark.parametrize("idx", [[4, 0, 3, 1], [2, 2, 0, 2, 4, 0, 2] * 6, []],
                             ids=["unsorted", "repeated", "empty"])
    def test_push_bitwise_equals_add_at(self, idx):
        rng = np.random.default_rng(5)
        a = la.Node(rng.normal(size=(5, 3)))
        idx = np.asarray(idx, dtype=np.intp)
        # long runs into the same rows, so any reordering shows in the low bits
        g = rng.normal(size=(idx.size, 3))
        expected = np.zeros((5, 3))
        np.add.at(expected, idx, g)
        (got,) = la.gather_rows(a, idx)._push(g)
        assert got.shape == (5, 3)
        assert got.tobytes() == expected.tobytes()


class TestSegmentDistanceRatio:
    def test_hand_computed(self):
        a = [[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]]
        out = la.segment_distance_ratio(a, [2], 0.5, 0.25)
        # within pair (0, 1): 5; cross pairs (0, 2), (1, 2): 1 and sqrt(20)
        assert out.shape == (1, 1)
        assert abs(out.item() - 5.5 / ((1.0 + np.sqrt(20.0)) / 2.0 + 0.25)) < 1e-12

    def test_one_frame_is_constant(self):
        out = la.segment_distance_ratio(np.ones((1, 3)), [], 2.0, 0.5)
        assert out.item() == 4.0
        assert out.parents == ()

    @pytest.mark.parametrize("starts", [[0], [3], [2, 1], [1, 1]],
                             ids=["zero", "at_length", "decreasing", "duplicate"])
    def test_bad_starts_rejected(self, starts):
        with pytest.raises(InputError, match="not increasing"):
            la.segment_distance_ratio(np.zeros((3, 2)), starts, 1.0, 1e-8)


class TestBackward:
    def test_requires_scalar_root(self):
        with pytest.raises(InputError):
            la.backward(la.Node(np.zeros((2, 2))))

    def test_grad_set_only_by_backward(self):
        x = la.Node(np.ones((2, 3)))
        w = la.Node(np.full((3, 1), 0.5))
        assert x.grad is None and w.grad is None
        hidden = la.matmul(x, w)
        root = la.mean_all(la.relu(hidden))
        assert hidden.grad is None
        la.backward(root)
        for node in (x, w, hidden, root):
            assert node.grad is not None
            assert node.grad.shape == node.value.shape

    def test_contributions_summed_in_consumer_creation_order(self):
        # 1e16 + (-1e16) + 1 is 1 in ascending consumer order, but 0 in
        # descending order, where 1e16 absorbs the 1 first
        x = la.Node([[1.0]])
        big = la.scale(x, 1e16)
        neg = la.scale(x, -1e16)
        one = la.scale(x, 1.0)
        la.backward(la.add(la.add(big, neg), one))
        assert x.grad[0, 0] == 1.0

    def test_reused_operand_accumulates(self):
        x = la.Node([[3.0]])
        out = la.mul(x, x)  # x^2, both parents are the same node
        la.backward(out)
        assert np.allclose(x.grad, [[6.0]])


class TestNodeBasics:
    def test_scalar_and_vector_promotion(self):
        assert la.as_node(2.0).shape == (1, 1)
        assert la.as_node([1.0, 2.0, 3.0]).shape == (1, 3)

    def test_3d_rejected(self):
        with pytest.raises(DimensionError):
            la.Node(np.zeros((2, 2, 2)))

    def test_item_requires_scalar(self):
        with pytest.raises(DimensionError):
            la.Node(np.zeros((2, 2))).item()
