import hashlib
import math
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_rel_err, mean, numeric_grad, total
from melt import tensor as T
from melt.tensor import (ShapeError, Tensor, backward, cross_entropy, dropout,
                         feed_forward, gather_bl, gather_rows,
                         layer_norm, linear, mse_loss, no_grad, scatter_rows, segment_mean,
                         sigmoid, softmax, tape)


def rand(rng, *shape):
    return Tensor(rng.uniform(-2, 2, shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        a = np.random.default_rng(0).uniform(-2, 2, (3, 3))
        out = T.matmul(Tensor(a), Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_product(self):
        out = T.matmul(Tensor([[1, 2], [3, 4]]), Tensor([[5, 6], [7, 8]]))
        np.testing.assert_array_equal(out.data, [[19, 22], [43, 50]])

    def test_zero(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor(np.zeros((2, 4))))
        assert not out.data.any()

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_rules(self):
        rng = np.random.default_rng(1)
        a, b = rand(rng, 3, 4), rand(rng, 4, 2)
        backward(total(T.matmul(a, b)))
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
            return total(T.mul(T.matmul(a, b), weights))

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
        loss = total(T.matmul(a, b))
        tracemalloc.start()
        try:
            backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 64 * 96 * b.data.itemsize


class TestLinear:
    def test_float32_bytes_equal_matmul_then_add(self):
        rng = np.random.default_rng(11)
        data = [rng.standard_normal(s).astype(np.float32) for s in ((3, 5, 16), (16, 24), (24,))]
        weights = Tensor(rng.standard_normal((3, 5, 24)).astype(np.float32))
        runs = []
        for fused in (True, False):
            a, w, b = (Tensor(d.copy(), requires_grad=True) for d in data)
            out = T.linear(a, w, b) if fused else T.matmul(a, w) + b
            backward(total(T.mul(out, weights)))
            runs.append([out.data.tobytes()] + [t.grad.tobytes() for t in (a, w, b)])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("with_bias", [True, False])
    def test_matches_finite_differences(self, with_bias):
        rng = np.random.default_rng(12 + with_bias)
        a, w, b = (Tensor(rng.uniform(-2, 2, s), requires_grad=True)
                   for s in ((2, 3, 4), (4, 5), (5,)))
        weights = Tensor(rng.uniform(0.2, 1, (2, 3, 5)))
        xs = (a, w, b) if with_bias else (a, w)

        def build():
            return total(T.mul(T.linear(*xs), weights))

        backward(build())
        for x in xs:
            numeric = numeric_grad(lambda: float(build().data), x.data)
            assert max_rel_err(x.grad, numeric) < 1e-4
        if not with_bias:
            assert b.grad is None

    def test_bias_shape_checked(self):
        with pytest.raises(ShapeError, match=r"\(4,\)"):
            T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 5))), Tensor(np.zeros(4)))

    # cells (0, 2), (1, 0), (1, 1) of a (2, 3) layout
    CELLS = (np.array([0, 1, 1]), np.array([2, 0, 1]))

    @pytest.mark.parametrize("mode", ["take", "put"])
    def test_take_and_put_match_finite_differences(self, mode):
        rng = np.random.default_rng(14)
        # take reads (2, 3, 2, 2) rows flattened to k = 4; put writes (3, 4) rows
        a_shape, out_shape = ((2, 3, 2, 2), (3, 5)) if mode == "take" else ((3, 4), (2, 3, 5))
        a, w, b = (Tensor(rng.uniform(-2, 2, s), requires_grad=True)
                   for s in (a_shape, (4, 5), (5,)))
        weights = Tensor(rng.uniform(0.2, 1, out_shape))
        kw = {"take": self.CELLS} if mode == "take" else {"put": (self.CELLS, (2, 3))}

        def build():
            return total(T.mul(T.linear(a, w, b, **kw), weights))

        backward(build())
        for x in (a, w, b):
            numeric = numeric_grad(lambda: float(build().data), x.data)
            assert max_rel_err(x.grad, numeric) < 1e-4

    def test_take_and_put_values_are_the_plain_rows(self):
        rng = np.random.default_rng(15)
        a, w, b = (Tensor(rng.standard_normal(s)) for s in ((2, 3, 4), (4, 5), (5,)))
        plain = T.linear(a, w, b).data
        taken = T.linear(a, w, b, take=self.CELLS).data
        np.testing.assert_allclose(taken, plain[self.CELLS], rtol=0, atol=1e-14)
        put = T.linear(Tensor(a.data[self.CELLS]), w, b, put=(self.CELLS, (2, 3))).data
        want = np.zeros_like(plain)
        want[self.CELLS] = plain[self.CELLS]
        np.testing.assert_allclose(put, want, rtol=0, atol=1e-14)
        assert not put[0, :2].any()

    def test_take_keeps_its_rows_and_not_its_input(self):
        # the rule keeps the gathered quarter of the rows; the input goes when dropped
        rng = np.random.default_rng(16)
        src = Tensor(rng.standard_normal((64, 40, 128)), requires_grad=True)
        w = Tensor(rng.standard_normal((128, 8)), requires_grad=True)
        cells = np.nonzero(np.arange(40) % 4 == np.zeros((64, 1), dtype=int))
        tracemalloc.start()
        try:
            a = src * 2.0
            out = T.linear(a, w, take=cells)
            del a
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < src.data.nbytes // 3
        backward(total(out))
        np.testing.assert_allclose(w.grad, 2 * src.data[cells].sum(axis=0)[:, None]
                                   * np.ones((1, 8)), rtol=1e-10)
        want = np.zeros_like(src.data)
        want[cells] = 2 * w.data.sum(axis=1)
        np.testing.assert_allclose(src.grad, want, rtol=1e-12)


class TestGatherRows:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_table_gradient_is_rows_bit_identical_to_dense_add_at(self, dtype):
        rng = np.random.default_rng(8)
        table = Tensor(rng.standard_normal((9, 4)).astype(dtype), requires_grad=True)
        idx = np.array([[7, 1, -2], [0, 7, 3]])  # -2 is row 7
        g = rng.standard_normal(idx.shape + (4,)).astype(dtype)
        g[0, 1, 2] = -0.0  # row 1 is gathered once: 0 + -0.0 is +0.0 in both forms
        backward(total(T.mul(gather_rows(table, idx), Tensor(g))))
        dense = np.zeros_like(table.data)
        np.add.at(dense, idx, g)
        assert table.grad.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("b_idx,l_idx", [([0, 1, 1], [2, 0, 2])], ids=["distinct"])
    def test_gather_bl_gradient_equals_add_at(self, b_idx, l_idx):
        rng = np.random.default_rng(10)
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        b_idx, l_idx = np.array(b_idx), np.array(l_idx)
        g = rng.standard_normal(b_idx.shape + (4,))
        backward(total(T.mul(gather_bl(a, b_idx, l_idx), Tensor(g))))
        want = np.zeros_like(a.data)
        np.add.at(want, (b_idx, l_idx), g)
        assert a.grad.tobytes() == want.tobytes()

    def test_second_contribution_densifies(self):
        rng = np.random.default_rng(9)
        table = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        loss = total(gather_rows(table, np.array([1, 1]))) + total(T.mul(table, table))
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
        assert float(mse_loss(Tensor(x), Tensor(x.copy())).data) == 0.0

    def test_hand_value(self):
        assert float(mse_loss(Tensor([0.0, 0.0]), Tensor([1.0, 3.0])).data) == pytest.approx(5.0)

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
        assert float(cross_entropy(Tensor([1.0, 1.0, 1.0]), 0).data) == pytest.approx(np.log(3))

    def test_confident_correct(self):
        assert float(cross_entropy(Tensor([10.0, -10.0, -10.0]), 0).data) < 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            logits = Tensor(rng.uniform(-5, 5, (4, 3)))
            labels = rng.integers(0, 3, 4)
            assert float(cross_entropy(logits, labels).data) >= 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            cross_entropy(Tensor([0.0, 0.0]), 2)


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
        backward(total(x))
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
        backward(total(T.mul(x, x)) + total(T.mul(x, c)))
        np.testing.assert_allclose(x.grad, 2 * x.data + c.data, rtol=1e-6)

    def test_unreachable_grads_untouched(self):
        x = Tensor([1.0], requires_grad=True)
        y = Tensor([2.0], requires_grad=True)
        y.grad = np.array([123.0], dtype=np.float32)
        backward(total(x * x))
        np.testing.assert_array_equal(y.grad, [123.0])

    def test_fresh_gradients_per_call(self):
        x = Tensor([3.0], requires_grad=True)
        for _ in range(2):
            backward(total(x * x))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_second_backward_over_a_swept_graph_raises(self):
        x = Tensor([3.0], requires_grad=True)
        loss = total(x * x)
        backward(loss)
        with pytest.raises(RuntimeError, match="graph already swept"):
            backward(loss)

    def test_sweep_frees_non_leaf_grads_and_keeps_leaf_grads(self):
        x = Tensor(np.array([1.5, -0.5]), requires_grad=True)
        y = x * x
        loss = total(y + x)
        backward(loss)
        np.testing.assert_allclose(x.grad, 2 * x.data + 1, rtol=1e-6)
        for node in (y, loss):
            assert node.grad is None and node._node.grad is None and node._node.parents == ()

    def test_backward_peak_stays_near_two_intermediates(self):
        rng = np.random.default_rng(4)
        n = 1 << 18
        x = Tensor(rng.standard_normal(n), requires_grad=True)
        h = x
        for i in range(8):
            h = T.mul(h, Tensor(rng.uniform(0.5, 1.5, n)))
        loss = total(h)
        del h
        tracemalloc.start()
        try:
            backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * n * x.data.itemsize

    def test_forward_keeps_only_what_rules_read(self):
        # add keeps shapes, not arrays: each dropped sum goes as soon as it is read
        rng = np.random.default_rng(5)
        n = 1 << 16
        x = Tensor(rng.standard_normal(n), requires_grad=True)
        c = Tensor(rng.standard_normal(n))
        tracemalloc.start()
        try:
            h = x
            for _ in range(8):
                h = h + c
            loss = total(h)
            del h
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= 2 * x.data.nbytes
        backward(loss)
        np.testing.assert_array_equal(x.grad, np.ones(n))

    def test_tape_is_topological_and_unique(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * x
        z = y + x
        loss = total(z)
        order = tape(loss)
        assert len(order) == len({id(t) for t in order})
        pos = {id(t): i for i, t in enumerate(order)}
        for node in order:
            for parent in getattr(node, "parents", ()):  # a leaf has none
                if parent is not None:
                    assert pos[id(parent)] < pos[id(node)]


# ---------------------------------------------------------------------------
# finite-difference oracle over every differentiable op (64-bit, h=1e-3)
# ---------------------------------------------------------------------------

GRAD_CASES = {
    "add": (lambda a, b: total(a + b), [(3, 4), (4,)]),
    "mul": (lambda a, b: mean(T.mul(a, b)), [(3, 4), (1, 4)]),
    "matmul": (lambda a, b: total(T.matmul(a, b)), [(3, 4), (4, 5)]),
    "batched_matmul": (lambda a, b: total(T.matmul(a, b)), [(2, 3, 4), (2, 4, 5)]),
    "broadcast_matmul": (lambda a, b: total(T.matmul(a, b)), [(2, 3, 4), (4, 5)]),
    "reshape_transpose": (
        lambda a: total(T.mul(T.transpose(T.reshape(a, (2, 2, 3)), (1, 0, 2)), _W["w223"])),
        [(4, 3)]),
    "softmax": (lambda a: total(T.mul(softmax(a, axis=-1), _W["w34"])), [(3, 4)]),
    "layer_norm": (lambda x, g, b: total(T.mul(layer_norm(x, g, b), _W["w25"])),
                   [(2, 5), (5,), (5,)]),
    "feed_forward": (lambda *a: total(T.mul(feed_forward(*a), _W["w34"])),
                     [(3, 2), (2, 5), (5,), (5, 4), (4,)]),
    "sigmoid": (lambda a: mean(sigmoid(a)), [(4, 4)]),
    "mse": (lambda a, b: mse_loss(a, b), [(3, 4), (3, 4)]),
    "cross_entropy": (lambda a: cross_entropy(a, np.array([0, 2, 1])), [(3, 3)]),
    "gather_rows": (lambda a: total(T.mul(gather_rows(a, np.array([0, 1, 1, 2])), _W["w44"])),
                    [(3, 4)]),
    "gather_bl": (lambda a: total(gather_bl(a, np.array([0, 1]), np.array([1, 0]))),
                  [(2, 3, 4)]),
    "segment_mean": (
        lambda a: total(T.mul(segment_mean(a, np.array([0, 0, 1, 2, 2]), 3), _W["w34"])),
        [(5, 4)]),
    "scatter_rows": (
        lambda r: total(T.mul(scatter_rows(r, np.array([0, 1]), np.array([2, 0]), 2, 3),
                              _W["w234"])),
        [(2, 4)]),
}

_wrng = np.random.default_rng(99)
_wrng.random(3 + 5 + 6)  # the draws of three weights no case reads, so the rest keep their values
_W = {
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


@pytest.mark.parametrize("rows", [0, 1, 37])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_feed_forward_is_bit_identical_to_its_formula(dtype, rows):
    erf = pytest.importorskip("scipy.special").erf
    rng = np.random.default_rng(13)
    x, w1, b1, w2, b2, g = (rng.standard_normal(shape).astype(dtype) for shape in
                            ((rows, 6), (6, 50), (50,), (50, 5), (5,), (rows, 5)))
    u = x @ w1 + b1
    cdf = 0.5 * (1.0 + erf(u * T._INV_SQRT2))
    pdf = np.exp(-0.5 * u * u) * T._INV_SQRT2PI
    du = (g @ w2.T) * (cdf + u * pdf)
    ts = [Tensor(a, requires_grad=True) for a in (x, w1, b1, w2, b2)]
    out = feed_forward(*ts)
    backward(total(T.mul(out, Tensor(g))))
    assert out.data.tobytes() == ((u * cdf) @ w2 + b2).tobytes()
    for t, want in zip(ts, (du @ w1.T, x.T @ du, du.sum(axis=0), (u * cdf).T @ g, g.sum(axis=0))):
        assert t.grad.dtype == dtype and t.grad.tobytes() == want.tobytes()


def _gelu(x):
    """GELU as its own op, as it was before ``feed_forward``: the reference for its memory."""
    x_data = x.data
    cdf = x_data * T._INV_SQRT2
    T._erf(cdf, cdf)
    cdf += 1.0
    cdf *= 0.5

    def back(g):
        dx = x_data * -0.5
        dx *= x_data
        np.exp(dx, out=dx)
        dx *= T._INV_SQRT2PI
        dx *= x_data
        dx += cdf
        dx *= g
        return (dx,)

    return T._from_op(x_data * cdf, (x,), back)


def test_feed_forward_peaks_one_activation_below_the_three_ops():
    # ff >> d, so the (m, ff) arrays are nearly all of the memory either form takes; small
    # weights keep |u| <= 1, where _erf needs no per-value work beyond its block buffers
    m, d, ff = 512, 4, 1024
    rng = np.random.default_rng(8)
    arrays = [rng.standard_normal(shape) * 0.15 for shape in ((m, d), (d, ff), (ff,), (ff, d),
                                                              (d,))]

    def run(forward):
        ts = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        tracemalloc.start()
        try:
            backward(total(forward(*ts)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, [t.grad for t in ts]

    composed, want = run(lambda x, w1, b1, w2, b2: linear(_gelu(linear(x, w1, b1)), w2, b2))
    fused, grads = run(feed_forward)
    assert [g.tobytes() for g in grads] == [g.tobytes() for g in want]
    assert composed - fused >= m * ff * 8


def _erf_edges(dtype):
    """±0, ±inf, NaN, the smallest subnormal, and the neighbours of ±1, ±8 and ±sqrt(709.78)."""
    vals = [0.0, np.inf, np.finfo(dtype).smallest_subnormal]
    for kind in {np.float32, dtype}:
        for v in (1.0, 8.0, math.sqrt(709.78)):
            c = kind(v)
            vals += [np.nextafter(c, kind(0)), c, np.nextafter(c, kind(np.inf))]
    vals = np.array(vals, dtype=dtype)
    return np.concatenate([vals, -vals, np.array([np.nan], dtype=dtype)])


def _same_bits(a, b):
    """Equal bytes, sign of zero included, with NaN wherever the other has NaN."""
    nan = np.isnan(a)
    return (a.dtype == b.dtype and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


class TestErf:
    """``T._erf`` ports the cephes formulas scipy evaluates, so it must match scipy bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_values_match_scipy(self, dtype):
        erf = pytest.importorskip("scipy.special").erf
        x = _erf_edges(dtype)
        assert _same_bits(T._erf(x, np.empty_like(x)), erf(x))
        assert T._erf(x[:0], x[:0]).size == 0

    @pytest.mark.parametrize("dtype,n", [(np.float32, 1_000_000), (np.float64, 100_000)])
    def test_seeded_samples_match_scipy(self, dtype, n):
        erf = pytest.importorskip("scipy.special").erf
        x = (np.random.default_rng(29).standard_normal(n) * 3).astype(dtype)
        assert _same_bits(T._erf(x, np.empty_like(x)), erf(x))

    def test_digest_is_pinned_without_scipy(self):
        # sha256 of scipy.special.erf (1.17.1) over the same sample
        x = (np.random.default_rng(2718).standard_normal(1 << 18) * 3).astype(np.float32)
        assert hashlib.sha256(T._erf(x, np.empty_like(x)).tobytes()).hexdigest() == \
            "354f028fb3c1c26ae0ee697dac9ed6b88c089249ca8c6498457df813ee256b7f"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_equals_a_separate_out(self, dtype):
        x = (np.random.default_rng(3).standard_normal((300, 70)) * 3).astype(dtype)
        x[0, :3] = [np.inf, -9.0, np.nan]
        expected = T._erf(x, np.empty_like(x))
        assert _same_bits(T._erf(x, x), expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_segment_mean_is_bit_identical_to_add_at(dtype):
    rng = np.random.default_rng(5)
    rows = rng.standard_normal((60, 7)).astype(dtype)
    rows[3, 2] = -0.0
    seg = rng.permutation(np.repeat(np.arange(0, 18, 2), rng.integers(1, 12, 9))[:60])
    t = Tensor(rows, requires_grad=True)
    out = segment_mean(t, seg, 19)
    g = rng.standard_normal((19, 7)).astype(dtype)
    backward(total(T.mul(out, Tensor(g))))
    out = out.data
    sums = np.zeros((19, 7), dtype=dtype)
    np.add.at(sums, seg, rows)
    counts = np.maximum(np.bincount(seg, minlength=19).astype(dtype), 1.0)
    assert out.tobytes() == (sums / counts[:, None]).tobytes()
    assert not out[1::2].any()
    assert t.grad.tobytes() == (g[seg] / counts[seg][:, None]).tobytes()


class TestPoolSegments:
    """``pool_segments`` equals a per-message ``table[ids].mean(axis=0)``, byte for byte."""

    # 1, 2, 12 and 50 tokens, 59 words cut to 50 tokens, and an <empty> text
    TEXTS = [" ".join(f"w{i}" for i in range(n)) for n in (1, 2, 12, 50, 59)] + ["  "]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("count", [1, T._POOL_BLOCK - 1, T._POOL_BLOCK, T._POOL_BLOCK + 1,
                                       3 * T._POOL_BLOCK + 1])
    def test_equals_the_per_message_mean(self, count, dtype):
        from melt.wordenc import HashEmbeddingEncoder, tokenize
        enc = HashEmbeddingEncoder(dim=24, buckets=96, seed=2)
        table = enc.rows(range(96)).astype(dtype)
        rng = np.random.default_rng(count)
        texts = [self.TEXTS[i] for i in rng.permutation(np.arange(count) % len(self.TEXTS))]
        ids = [enc.token_ids(tokenize(text)) for text in texts]
        lengths = [len(i) for i in ids]
        assert count < len(self.TEXTS) or sorted(set(lengths)) == [1, 2, 12, 50]
        out = T.pool_segments(table, np.concatenate(ids), lengths)
        want = np.stack([table[i].mean(axis=0) for i in ids])
        assert out.dtype == dtype and out.tobytes() == want.tobytes()

    def test_a_segment_of_no_rows_is_zero(self):
        table = np.arange(12, dtype=np.float32).reshape(4, 3)
        out = T.pool_segments(table, np.array([3, 1, 2]), [2, 0, 1])
        assert out.tolist() == [[6.0, 7.0, 8.0], [0.0, 0.0, 0.0], [6.0, 7.0, 8.0]]


def test_dropout_scaling_and_eval_identity():
    x = Tensor(np.ones(10000), requires_grad=True)
    out = dropout(x, 0.25, np.random.default_rng(0), train=True)
    kept = out.data[out.data > 0]
    np.testing.assert_allclose(kept, 1 / 0.75)
    assert abs(out.data.mean() - 1.0) < 0.02
    assert dropout(x, 0.25, None, train=False) is x
    with pytest.raises(ValueError):
        dropout(x, 1.0, np.random.default_rng(0), train=True)


class TestKeptRowDropout:
    """A dropout over picked rows of a larger draw matches the full-draw formula bit for bit."""

    ROWS = (4, 7, 6)  # a (B, L, d) draw
    ROW_CASES = {
        "gaps": ((0, 0, 2, 3), (1, 5, 0, 6)),
        "adjacent": ((0, 0, 0, 1, 2, 2, 3), (2, 3, 4, 6, 0, 1, 6)),  # (1, 6), (2, 0) too
        "every-row": tuple(np.nonzero(np.ones((4, 7), dtype=bool))),
        "empty": ((), ()),
    }

    @staticmethod
    def generators(seed, pending):
        rngs = [np.random.default_rng(seed) for _ in range(2)]
        for rng in rngs:
            rng.random(3)
            if pending:
                rng.integers(10)  # leaves half a 64-bit output buffered
        return rngs

    def check(self, dtype, draw_shape, keep, pending):
        rng, ref_rng = self.generators(31, pending)
        shape = np.zeros(draw_shape)[keep].shape
        data = np.random.default_rng(32)
        x = Tensor(data.standard_normal(shape).astype(dtype), requires_grad=True)
        g = data.standard_normal(shape).astype(dtype)
        out = dropout(x, 0.3, rng, True, draw_shape, keep)
        backward(total(T.mul(out, Tensor(g))))
        mask = (ref_rng.random(draw_shape)[keep] >= 0.3).astype(dtype) / (1 - 0.3)
        assert out.data.dtype == dtype and x.grad.dtype == dtype
        assert out.data.tobytes() == (x.data * mask).tobytes()
        assert x.grad.tobytes() == (g * mask).tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.integers(1 << 40, size=3).tolist() == ref_rng.integers(1 << 40, size=3).tolist()
        return mask

    @pytest.mark.parametrize("pending", [False, True], ids=["aligned", "half-buffered"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("case", sorted(ROW_CASES))
    def test_rows_match_the_full_draw(self, case, dtype, pending):
        keep = tuple(np.array(i, dtype=np.intp) for i in self.ROW_CASES[case])
        mask = self.check(dtype, self.ROWS, keep, pending)
        if case != "empty":
            assert (mask == 0).any() and (mask != 0).any()
            assert np.signbit(dropout(Tensor(-np.ones_like(mask)), 0.3, self.generators(
                31, pending)[0], True, self.ROWS, keep).data[mask == 0]).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention_grid_with_repeated_filler_cells(self, dtype):
        grid = np.array([[3, 0, 0], [1, 4, 0], [2, 0, 4]])  # slot 0 fills unread cells
        keep = (np.arange(3)[:, None, None], np.arange(2)[None, :, None], grid[:, None, :])
        self.check(dtype, (3, 2, 5, 5), keep, pending=True)

    def test_rows_draw_only_what_they_keep(self):
        class Counting:
            def __init__(self, rng):
                self.rng, self.bit_generator, self.sizes = rng, rng.bit_generator, []

            def random(self, size=None):
                self.sizes.append(size)
                return self.rng.random(size)

        rng = Counting(np.random.default_rng(5))
        keep = tuple(np.array(i) for i in self.ROW_CASES["adjacent"])
        dropout(Tensor(np.ones((7, 6))), 0.3, rng, True, self.ROWS, keep)
        assert rng.sizes == [3 * 6, 3 * 6, 1 * 6]  # one call per run of adjacent rows


def test_repeated_forward_backward_bit_identical():
    rng_data = np.random.default_rng(3)
    a_data = rng_data.uniform(-1, 1, (4, 4)).astype(np.float32)

    def once():
        a = Tensor(a_data.copy(), requires_grad=True)
        rng = np.random.default_rng(42)
        out = T.mul(softmax(T.matmul(a, a), axis=-1), dropout(Tensor(np.ones((4, 4))), 0.2, rng, True))
        loss = mse_loss(out, Tensor(np.zeros((4, 4))))
        backward(loss)
        return loss.data.copy(), a.grad.copy()

    l1, g1 = once()
    l2, g2 = once()
    assert np.array_equal(l1, l2)
    assert np.array_equal(g1, g2)


class TestNoGrad:
    @staticmethod
    def forward(w1, b1, w2, b2, g, b, x):
        h = feed_forward(T.reshape(x, (15, 4)), w1, b1, w2, b2)
        return softmax(layer_norm(T.reshape(h, (3, 5, 6)), g, b), axis=-1)

    @staticmethod
    def params(rng):
        return (rand(rng, 4, 8), rand(rng, 8), rand(rng, 8, 6), rand(rng, 6), rand(rng, 6),
                rand(rng, 6), Tensor(rng.uniform(-2, 2, (3, 5, 4)).astype(np.float32)))

    def test_same_values_and_no_graph(self):
        params = self.params(np.random.default_rng(0))
        recorded = self.forward(*params)
        with no_grad():
            bare = self.forward(*params)
        assert recorded.requires_grad and recorded._node.parents
        assert not bare.requires_grad
        assert bare._node is None
        assert bare.data.tobytes() == recorded.data.tobytes()

    def test_recording_resumes_after_the_block_even_on_error(self):
        params = self.params(np.random.default_rng(1))
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("inside")
        backward(total(self.forward(*params)))
        for p in params[:6]:
            assert p.grad is not None and np.abs(np.asarray(p.grad)).sum() > 0
