import tracemalloc

import numpy as np
import pytest

from melt import optim
from melt.optim import AdamW, AdamWState, MissingGradError, adamw_step, warmup_lr
from melt.tensor import Tensor


def make_state(shape, **kw):
    return AdamWState(m=np.zeros(shape), v=np.zeros(shape), **kw)


class TestAdamwStep:
    def test_zero_grad_zero_decay_is_fixed_point(self):
        p = np.array([1.0, -2.0, 3.0])
        st = make_state(p.shape, weight_decay=0.0)
        adamw_step(p, np.zeros_like(p), st, lr=0.1)
        np.testing.assert_array_equal(p, [1.0, -2.0, 3.0])
        assert st.t == 1

    def test_first_step_bias_correction(self):
        # m-hat = g and v-hat = g^2 on step 1, so theta moves by exactly lr
        p = np.array([1.0])
        st = make_state(p.shape, weight_decay=0.0, eps=1e-8)
        adamw_step(p, np.array([0.5]), st, lr=0.1)
        np.testing.assert_allclose(p, [0.9], atol=1e-7)

    def test_decoupled_decay_only(self):
        p = np.array([1.0])
        st = make_state(p.shape, weight_decay=0.1)
        adamw_step(p, np.array([0.0]), st, lr=0.1)
        np.testing.assert_allclose(p, [0.99], rtol=1e-12)

    def test_missing_grad_names_parameter(self):
        p = np.array([1.0])
        with pytest.raises(MissingGradError, match="theta"):
            adamw_step(p, None, make_state(p.shape), lr=0.1, name="theta")

    def test_step_counter_strictly_increases(self):
        p = np.array([1.0])
        st = make_state(p.shape)
        for expected in (1, 2, 3):
            adamw_step(p, np.array([0.1]), st, lr=1e-3)
            assert st.t == expected


def _out_of_place_adamw(param, grad, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """The reference formula; the in-place update must reproduce it bit for bit."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * (grad * grad)
    m_hat = m / (1.0 - beta1 ** t)
    v_hat = v / (1.0 - beta2 ** t)
    if weight_decay != 0.0:
        param = param - lr * weight_decay * param
    param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    return param, m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_in_place_step_is_bit_identical_to_out_of_place_formula(dtype, weight_decay):
    rng = np.random.default_rng(12)
    param = rng.standard_normal((7, 5)).astype(dtype)
    st = AdamWState(m=np.zeros_like(param), v=np.zeros_like(param),
                    weight_decay=weight_decay)
    m_buf, v_buf = st.m, st.v
    ref_p, ref_m, ref_v = param.copy(), st.m.copy(), st.v.copy()
    for step in range(1, 9):
        grad = rng.standard_normal(param.shape).astype(dtype)
        grad_before = grad.copy()
        lr = warmup_lr(step, 4e-3, 4)
        adamw_step(param, grad, st, lr)
        ref_p, ref_m, ref_v = _out_of_place_adamw(
            ref_p, grad, ref_m, ref_v, step, lr, st.beta1, st.beta2, st.eps, weight_decay)
        assert grad.tobytes() == grad_before.tobytes()
        assert st.m is m_buf and st.v is v_buf
        assert param.tobytes() == ref_p.tobytes()
        assert st.m.tobytes() == ref_m.tobytes()
        assert st.v.tobytes() == ref_v.tobytes()


@pytest.mark.parametrize("shape", [(300, 700), (150_001,)])
def test_blocked_dense_step_is_bit_identical_to_formula(shape):
    # neither size is a multiple of the update's block: 93 rows of 700,
    # or 65536 values
    assert np.prod(shape) % optim._ADAM_BLOCK_VALUES != 0
    assert np.prod(shape) > 2 * optim._ADAM_BLOCK_VALUES
    rng = np.random.default_rng(14)
    param = rng.standard_normal(shape).astype(np.float32)
    st = AdamWState(m=np.zeros_like(param), v=np.zeros_like(param), weight_decay=0.1)
    ref_p, ref_m, ref_v = param.copy(), st.m.copy(), st.v.copy()
    for step in range(1, 6):
        grad = rng.standard_normal(shape).astype(np.float32)
        lr = warmup_lr(step, 4e-3, 3)
        adamw_step(param, grad, st, lr)
        ref_p, ref_m, ref_v = _out_of_place_adamw(
            ref_p, grad, ref_m, ref_v, step, lr, st.beta1, st.beta2, st.eps, 0.1)
        assert param.tobytes() == ref_p.tobytes()
        assert st.m.tobytes() == ref_m.tobytes()
        assert st.v.tobytes() == ref_v.tobytes()


def test_partition_invariance_with_zero_decay():
    rng = np.random.default_rng(0)
    values = rng.uniform(-1, 1, 4).astype(np.float32)
    grads = rng.uniform(-1, 1, 4).astype(np.float32)

    whole = Tensor(values.copy(), requires_grad=True)
    whole.grad = grads.copy()
    opt1 = AdamW([("w", whole)], base_lr=1e-2, weight_decay=0.0)
    opt1.step()

    left = Tensor(values[:2].copy(), requires_grad=True)
    right = Tensor(values[2:].copy(), requires_grad=True)
    left.grad, right.grad = grads[:2].copy(), grads[2:].copy()
    opt2 = AdamW([("l", left), ("r", right)], base_lr=1e-2, weight_decay=0.0)
    opt2.step()

    np.testing.assert_array_equal(whole.data, np.concatenate([left.data, right.data]))


def test_optimizer_skips_parameters_without_gradients():
    used = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
    unused = Tensor(np.array([5.0], dtype=np.float32), requires_grad=True)
    used.grad = np.array([1.0], dtype=np.float32)
    opt = AdamW([("used", used), ("unused", unused)], base_lr=0.1, weight_decay=0.0)
    opt.step()
    assert used.data[0] != 1.0
    assert unused.data[0] == 5.0
    assert used.grad is None  # consumed


def test_moments_are_made_at_a_parameters_first_update():
    big = Tensor(np.ones((256, 1024), dtype=np.float32), requires_grad=True)
    idle = Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        opt = AdamW([("big", big), ("idle", idle)], weight_decay=0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert opt.states == {} and peak < big.data.nbytes // 64
    big.grad = np.ones_like(big.data)
    opt.step()
    assert list(opt.states) == ["big"]
    state = opt.states["big"]
    assert (state.t, state.weight_decay, state.m.dtype, state.v.shape) == \
        (1, 0.05, np.float32, big.shape)


class TestWarmupLr:
    def test_step_zero(self):
        assert warmup_lr(0, 4e-3, 2000) == 0.0

    def test_linear_midpoint(self):
        assert warmup_lr(1000, 4e-3, 2000) == pytest.approx(2e-3)

    def test_constant_after_warmup(self):
        for step in (2000, 2001, 10000):
            assert warmup_lr(step, 4e-3, 2000) == 4e-3

    def test_exact_at_reference_steps(self):
        expected = {0: 0.0, 1: 4e-3 / 2000, 1000: 2e-3, 2000: 4e-3, 10000: 4e-3}
        for step, lr in expected.items():
            assert warmup_lr(step, 4e-3, 2000) == lr

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            warmup_lr(-1, 4e-3, 2000)
