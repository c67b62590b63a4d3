import threading
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_rel_err, numeric_grad
from melt import tensor as T
from melt.tensor import (RowGrad, ShapeError, Tensor, backward, cross_entropy, dropout,
                         gather_bl, gather_positions, gather_rows, gelu,
                         layer_norm, mse_loss, no_grad, scatter_rows, segment_mean,
                         sigmoid, softmax, tape)


def rand(rng, *shape):
    return Tensor(rng.uniform(-2, 2, shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        a = np.random.default_rng(0).uniform(-2, 2, (3, 3))
        out = Tensor(a) @ Tensor(np.eye(3))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_product(self):
        out = Tensor([[1, 2], [3, 4]]) @ Tensor([[5, 6], [7, 8]])
        np.testing.assert_array_equal(out.data, [[19, 22], [43, 50]])

    def test_zero(self):
        out = Tensor([[1.0, 2.0]]) @ Tensor(np.zeros((2, 4)))
        assert not out.data.any()

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))

    def test_gradient_rules(self):
        rng = np.random.default_rng(1)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        backward((a @ b).sum())
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T, rtol=1e-6)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)), rtol=1e-6)

    @pytest.mark.parametrize("case", ["4d_a", "transposed_a", "constant_a"])
    def test_weight_product_matches_finite_differences(self, case):
        rng = np.random.default_rng(zlib.crc32(case.encode()))
        if case == "4d_a":
            a_data = rng.uniform(-2, 2, (2, 3, 4, 5))
        elif case == "transposed_a":
            a_data = rng.uniform(-2, 2, (2, 5, 4)).transpose(0, 2, 1)
            assert not a_data.flags.c_contiguous
        else:
            a_data = rng.uniform(-2, 2, (3, 4, 5))
        a = Tensor(a_data, requires_grad=case != "constant_a")
        b = Tensor(rng.uniform(-2, 2, (5, 3)), requires_grad=True)
        weights = Tensor(rng.uniform(0.2, 1, a_data.shape[:-1] + (3,)))

        def build():
            return T.mul(a @ b, weights).sum()

        backward(build())
        for x in (a, b) if a.requires_grad else (b,):
            numeric = numeric_grad(lambda: float(build().data), x.data)
            assert max_rel_err(x.grad, numeric) < 1e-4
        if not a.requires_grad:
            assert a.grad is None

    def test_weight_gradient_never_materialises_per_sequence_products(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.standard_normal((32, 8, 64)), requires_grad=True)
        b = Tensor(rng.standard_normal((64, 96)), requires_grad=True)
        loss = (a @ b).sum()
        tracemalloc.start()
        try:
            backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 64 * 96 * b.data.itemsize


class TestGatherRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_table_gradient_is_rows_bit_identical_to_dense_add_at(self, dtype):
        rng = np.random.default_rng(8)
        table = Tensor(rng.standard_normal((9, 4)).astype(dtype), requires_grad=True)
        idx = np.array([[7, 1, -2], [0, 7, 3]])  # -2 is row 7
        g = rng.standard_normal(idx.shape + (4,)).astype(dtype)
        g[0, 1, 2] = -0.0  # row 1 is gathered once: 0 + -0.0 is +0.0 in both forms
        backward(T.mul(gather_rows(table, idx), Tensor(g)).sum())
        dense = np.zeros_like(table.data)
        np.add.at(dense, idx, g)
        assert isinstance(table.grad, RowGrad)
        assert table.grad.rows.tolist() == [0, 1, 3, 7]
        assert np.asarray(table.grad).tobytes() == dense.tobytes()

    def test_second_contribution_densifies(self):
        rng = np.random.default_rng(9)
        table = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        loss = gather_rows(table, np.array([1, 1])).sum() + T.mul(table, table).sum()
        backward(loss)
        assert isinstance(table.grad, np.ndarray)
        want = 2.0 * table.data
        want[1] += 2.0
        np.testing.assert_allclose(table.grad, want, rtol=1e-12)


class TestSoftmax:
    def test_constant_input(self):
        out = softmax(Tensor([4.2, 4.2, 4.2]), axis=-1)
        np.testing.assert_allclose(out.data, [1 / 3] * 3, atol=1e-7)

    def test_derived_two_point(self):
        out = softmax(Tensor([0.0, np.log(3.0)]), axis=-1)
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-6)

    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=8),
           st.floats(-20, 20))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance_and_normalization(self, xs, c):
        base = softmax(Tensor(np.array(xs, dtype=np.float64)), axis=-1).data
        shifted = softmax(Tensor(np.array(xs, dtype=np.float64) + c), axis=-1).data
        assert abs(base.sum() - 1.0) < 1e-6
        assert np.abs(base - shifted).max() < 1e-6

    def test_extreme_inputs_stay_finite(self):
        out = softmax(Tensor([1e4, -1e4, 0.0]), axis=-1)
        assert np.isfinite(out.data).all()


class TestLayerNorm:
    def _gb(self, d, dtype=np.float64):
        return (Tensor(np.ones(d, dtype=dtype), requires_grad=True),
                Tensor(np.zeros(d, dtype=dtype), requires_grad=True))

    def test_constant_vector_maps_to_zero(self):
        g, b = self._gb(4)
        out = layer_norm(Tensor(np.full(4, 7.0)), g, b)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-4)

    def test_two_point_case(self):
        g, b = self._gb(2)
        out = layer_norm(Tensor(np.array([1.0, 3.0])), g, b, eps=1e-12)
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-5)

    def test_zero_gamma_collapses_to_beta(self):
        rng = np.random.default_rng(2)
        gamma = Tensor(np.zeros(6))
        beta = Tensor(rng.uniform(-1, 1, 6))
        out = layer_norm(Tensor(rng.uniform(-2, 2, (3, 6))), gamma, beta)
        np.testing.assert_allclose(out.data, np.broadcast_to(beta.data, (3, 6)), atol=1e-6)


class TestMseLoss:
    def test_identity(self):
        x = np.random.default_rng(0).uniform(-1, 1, (3, 3))
        assert mse_loss(Tensor(x), Tensor(x.copy())).item() == 0.0

    def test_hand_value(self):
        assert mse_loss(Tensor([0.0, 0.0]), Tensor([1.0, 3.0])).item() == pytest.approx(5.0)

    def test_gradient_is_two_diff_over_n(self):
        pred = Tensor(np.array([1.0, 2.0, 3.0, 4.0]), requires_grad=True)
        target = Tensor(np.array([0.0, 0.0, 0.0, 0.0]))
        backward(mse_loss(pred, target))
        np.testing.assert_allclose(pred.grad, 2 * pred.data / 4, rtol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestCrossEntropy:
    def test_uniform_logits(self):
        assert cross_entropy(Tensor([1.0, 1.0, 1.0]), 0).item() == pytest.approx(np.log(3))

    def test_confident_correct(self):
        assert cross_entropy(Tensor([10.0, -10.0, -10.0]), 0).item() < 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            logits = Tensor(rng.uniform(-5, 5, (4, 3)))
            labels = rng.integers(0, 3, 4)
            assert cross_entropy(logits, labels).item() >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(Tensor([0.0, 0.0]), 2)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((2, 3), dtype=np.float32))

    def test_mse_against_zero(self):
        x = Tensor([2.0], requires_grad=True)
        backward(mse_loss(x, Tensor([0.0])))
        np.testing.assert_allclose(x.grad, [4.0])

    def test_non_scalar_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(x + x)

    def test_fan_out_accumulates(self):
        # loss = x.x + c.x: grad = 2x + c, worked by hand
        x = Tensor(np.array([1.5, -0.5]), requires_grad=True)
        c = Tensor(np.array([2.0, 3.0]))
        backward((T.mul(x, x)).sum() + (T.mul(x, c)).sum())
        np.testing.assert_allclose(x.grad, 2 * x.data + c.data, rtol=1e-6)

    def test_unreachable_grads_untouched(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([2.0], requires_grad=True)
        y.grad = np.array([123.0], dtype=np.float32)
        backward((x * x).sum())
        np.testing.assert_array_equal(y.grad, [123.0])

    def test_fresh_gradients_per_call(self):
        x = Tensor([3.0], requires_grad=True)
        for _ in range(2):
            backward((x * x).sum())
        np.testing.assert_allclose(x.grad, [6.0])

    def test_tape_is_topological_and_unique(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * x
        z = y + x
        loss = z.sum()
        order = tape(loss)
        assert len(order) == len({id(t) for t in order})
        pos = {id(t): i for i, t in enumerate(order)}
        for node in order:
            for parent in node._parents:
                if parent.requires_grad:
                    assert pos[id(parent)] < pos[id(node)]


# ---------------------------------------------------------------------------
# finite-difference oracle over every differentiable op (64-bit, h=1e-3)
# ---------------------------------------------------------------------------

GRAD_CASES = {
    "add": (lambda a, b: (a + b).sum(), [(3, 4), (4,)]),
    "sub": (lambda a, b: (a - b).sum(), [(3, 4), (3, 4)]),
    "mul": (lambda a, b: T.mul(a, b).mean(), [(3, 4), (1, 4)]),
    "neg": (lambda a: (-a).sum(), [(5,)]),
    "matmul": (lambda a, b: (a @ b).sum(), [(3, 4), (4, 5)]),
    "batched_matmul": (lambda a, b: (a @ b).sum(), [(2, 3, 4), (2, 4, 5)]),
    "broadcast_matmul": (lambda a, b: (a @ b).sum(), [(2, 3, 4), (4, 5)]),
    "reshape_transpose": (
        lambda a: T.mul(T.transpose(T.reshape(a, (2, 2, 3)), (1, 0, 2)), _W["w223"]).sum(),
        [(4, 3)]),
    "mean_axis": (lambda a: T.mul(a.mean(axis=1), _W["w3"]).sum(), [(3, 5)]),
    "sum_axis": (lambda a: T.mul(a.sum(axis=0, keepdims=True), _W["w15"]).sum(), [(3, 5)]),
    "softmax": (lambda a: T.mul(softmax(a, axis=-1), _W["w34"]).sum(), [(3, 4)]),
    "layer_norm": (lambda x, g, b: T.mul(layer_norm(x, g, b), _W["w25"]).sum(),
                   [(2, 5), (5,), (5,)]),
    "gelu": (lambda a: gelu(a).sum(), [(4, 4)]),
    "sigmoid": (lambda a: sigmoid(a).mean(), [(4, 4)]),
    "mse": (lambda a, b: mse_loss(a, b), [(3, 4), (3, 4)]),
    "cross_entropy": (lambda a: cross_entropy(a, np.array([0, 2, 1])), [(3, 3)]),
    "gather_rows": (lambda a: T.mul(gather_rows(a, np.array([0, 1, 1, 2])), _W["w44"]).sum(),
                    [(3, 4)]),
    "gather_bl": (lambda a: gather_bl(a, np.array([0, 1]), np.array([1, 0])).sum(),
                  [(2, 3, 4)]),
    "gather_positions": (lambda a: gather_positions(a, np.array([2, 0])).sum(),
                         [(2, 3, 4)]),
    "segment_mean": (
        lambda a: T.mul(segment_mean(a, np.array([0, 0, 1, 2, 2]), 3), _W["w34"]).sum(),
        [(5, 4)]),
    "scatter_rows": (
        lambda r: T.mul(scatter_rows(r, np.array([0, 1]), np.array([2, 0]), 2, 3),
                        _W["w234"]).sum(),
        [(2, 4)]),
}

_wrng = np.random.default_rng(99)
_W = {
    "w3": Tensor(_wrng.uniform(0.2, 1, 3)),
    "w15": Tensor(_wrng.uniform(0.2, 1, (1, 5))),
    "w23": Tensor(_wrng.uniform(0.2, 1, (2, 3))),
    "w25": Tensor(_wrng.uniform(-1, 1, (2, 5))),
    "w34": Tensor(_wrng.uniform(0.2, 1, (3, 4))),
    "w44": Tensor(_wrng.uniform(0.2, 1, (4, 4))),
    "w223": Tensor(_wrng.uniform(0.2, 1, (2, 2, 3))),
    "w234": Tensor(_wrng.uniform(0.2, 1, (2, 3, 4))),
}


@pytest.mark.parametrize("name", sorted(GRAD_CASES))
def test_gradient_matches_finite_differences(name):
    build, shapes = GRAD_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    xs = [Tensor(rng.uniform(-2, 2, s), requires_grad=True) for s in shapes]
    backward(build(*xs))
    for x in xs:
        numeric = numeric_grad(lambda: float(build(*xs).data), x.data)
        assert max_rel_err(x.grad, numeric) < 1e-4


def test_forward_ops_stay_finite_on_finite_inputs():
    rng = np.random.default_rng(17)
    for name, (build, shapes) in GRAD_CASES.items():
        xs = [Tensor(rng.uniform(-2, 2, s), requires_grad=True) for s in shapes]
        out = build(*xs)
        assert np.isfinite(out.data).all(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_is_bit_identical_to_its_formula(dtype):
    from scipy.special import erf
    rng = np.random.default_rng(13)
    x = (rng.standard_normal((6, 50)) * 3).astype(dtype)
    g = rng.standard_normal((6, 50)).astype(dtype)
    cdf = 0.5 * (1.0 + erf(x * T._INV_SQRT2))
    pdf = np.exp(-0.5 * x * x) * T._INV_SQRT2PI
    t = Tensor(x, requires_grad=True)
    out = gelu(t)
    backward(T.mul(out, Tensor(g)).sum())
    assert out.data.tobytes() == (x * cdf).tobytes()
    assert t.grad.tobytes() == (g * (cdf + x * pdf)).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_mean_is_bit_identical_to_add_at(dtype):
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((60, 7)).astype(dtype)
    rows[3, 2] = -0.0
    seg = rng.permutation(np.repeat(np.arange(0, 18, 2), rng.integers(1, 12, 9))[:60])
    out = segment_mean(Tensor(rows), seg, 19).data
    sums = np.zeros((19, 7), dtype=dtype)
    np.add.at(sums, seg, rows)
    counts = np.maximum(np.bincount(seg, minlength=19).astype(dtype), 1.0)
    assert out.tobytes() == (sums / counts[:, None]).tobytes()
    assert not out[1::2].any()


def test_dropout_scaling_and_eval_identity():
    x = Tensor(np.ones(10000), requires_grad=True)
    out = dropout(x, 0.25, np.random.default_rng(0), train=True)
    kept = out.data[out.data > 0]
    np.testing.assert_allclose(kept, 1 / 0.75)
    assert abs(out.data.mean() - 1.0) < 0.02
    assert dropout(x, 0.25, None, train=False) is x
    with pytest.raises(ValueError):
        dropout(x, 1.0, np.random.default_rng(0), train=True)


def test_repeated_forward_backward_bit_identical():
    rng_data = np.random.default_rng(3)
    a_data = rng_data.uniform(-1, 1, (4, 4)).astype(np.float32)

    def once():
        a = Tensor(a_data.copy(), requires_grad=True)
        rng = np.random.default_rng(42)
        out = T.mul(softmax(a @ a, axis=-1), dropout(Tensor(np.ones((4, 4))), 0.2, rng, True))
        loss = mse_loss(out, Tensor(np.zeros((4, 4))))
        backward(loss)
        return loss.data.copy(), a.grad.copy()

    l1, g1 = once()
    l2, g2 = once()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


class TestNoGrad:
    @staticmethod
    def forward(w, g, b, x):
        return softmax(layer_norm(gelu(x @ w), g, b), axis=-1)

    @staticmethod
    def params(rng):
        return (rand(rng, 4, 6), rand(rng, 6), rand(rng, 6),
                Tensor(rng.uniform(-2, 2, (3, 5, 4)).astype(np.float32)))

    def test_same_values_and_no_graph(self):
        w, g, b, x = self.params(np.random.default_rng(0))
        recorded = self.forward(w, g, b, x)
        with no_grad():
            bare = self.forward(w, g, b, x)
        assert recorded.requires_grad and recorded._parents
        assert not bare.requires_grad
        assert bare._parents == () and bare._backward is None
        assert bare.data.tobytes() == recorded.data.tobytes()

    def test_recording_resumes_after_the_block_even_on_error(self):
        w, g, b, x = self.params(np.random.default_rng(1))
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        backward(self.forward(w, g, b, x).sum())
        assert w.grad is not None and np.abs(np.asarray(w.grad)).sum() > 0

    def test_switch_is_per_thread(self):
        w, g, b, x = self.params(np.random.default_rng(2))
        seen = []
        with no_grad():
            worker = threading.Thread(
                target=lambda: seen.append(self.forward(w, g, b, x).requires_grad))
            worker.start()
            worker.join()
            seen.append(self.forward(w, g, b, x).requires_grad)
        assert seen == [True, False]
