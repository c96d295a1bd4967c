"""Optimizer and gradient-checker behavior against scalar references."""

import numpy as np
import pytest

from seqstack import tensor as T
from seqstack.errors import ContractError, NumericsError
from seqstack.gradcheck import finite_difference_check
from seqstack.optim import Adam, clip_global_norm

import tape_helpers as H
from tape_helpers import mean_all, mul, sub, sum_all


def adam_scalar_reference(grads, lr, beta1, beta2, eps, x0):
    """Hand-rolled scalar Adam recurrence for cross-checking the vectorized one."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        x -= lr * mhat / (np.sqrt(vhat) + eps)
    return x


class TestAdam:
    def test_matches_scalar_reference_over_ten_steps(self):
        rng = np.random.default_rng(0)
        grads = rng.standard_normal(10)
        p = T.parameter(np.array([0.7]))
        opt = Adam({"p": p}, lr=0.01)
        for g in grads:
            p.grad = np.array([g])
            opt.step()
        expected = adam_scalar_reference(grads, 0.01, 0.9, 0.999, 1e-8, 0.7)
        np.testing.assert_allclose(p.data, [expected], atol=1e-12)

    def test_first_step_is_roughly_signed_lr(self):
        p = T.parameter(np.array([1.0, 1.0]))
        opt = Adam({"p": p}, lr=0.05)
        p.grad = np.array([3.0, -0.001])
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.05, 1.0 + 0.05], atol=1e-3)

    def test_converges_on_quadratic(self):
        x = T.parameter(np.array([-4.0]))
        opt = Adam({"x": x}, lr=0.1)
        for _ in range(800):
            opt.zero_grad()
            with T.tape_scope():
                delta = sub(x, T.constant(np.array([3.0])))
                T.backward(sum_all(mul(delta, delta)))
            opt.step()
        np.testing.assert_allclose(x.data, [3.0], atol=1e-3)

    def test_params_without_grad_are_skipped(self):
        p = T.parameter(np.array([1.0]))
        q = T.parameter(np.array([2.0]))
        opt = Adam({"p": p, "q": q}, lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert q.data[0] == 2.0
        assert p.data[0] != 1.0

    def test_zero_grad_clears_buffers(self):
        p = T.parameter(np.array([1.0]))
        p.grad = np.array([5.0])
        Adam({"p": p}).zero_grad()
        assert p.grad is None

    def test_zero_learning_rate_is_a_valid_no_op(self):
        p = T.parameter(np.array([1.0, -2.0]))
        p.grad = np.array([0.5, 0.5])
        Adam({"p": p}, lr=0.0).step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])


class TestClipGlobalNorm:
    def test_norm_below_threshold_untouched(self):
        p = T.parameter(np.zeros(4))
        p.grad = np.array([0.3, 0.0, 0.4, 0.0])
        norm = clip_global_norm({"p": p}, max_norm=5.0)
        np.testing.assert_allclose(norm, 0.5, atol=1e-7)
        np.testing.assert_allclose(p.grad, [0.3, 0.0, 0.4, 0.0], atol=1e-7)

    def test_norm_above_threshold_rescaled_jointly(self):
        a = T.parameter(np.zeros(1))
        b = T.parameter(np.zeros(1))
        a.grad = np.array([30.0])
        b.grad = np.array([40.0])
        norm = clip_global_norm({"a": a, "b": b}, max_norm=5.0)
        np.testing.assert_allclose(norm, 50.0, atol=1e-5)
        np.testing.assert_allclose(a.grad, [3.0], atol=1e-6)
        np.testing.assert_allclose(b.grad, [4.0], atol=1e-6)
        total = np.sqrt(a.grad[0] ** 2 + b.grad[0] ** 2)
        np.testing.assert_allclose(total, 5.0, atol=1e-6)

    def test_float32_gradients_are_squared_and_summed_in_float64(self, rng):
        # 1 + 2^-12 squares to 1 + 2^-11 + 2^-24, which float32 cannot hold
        grads = [np.full(3, 1 + 2.0**-12, dtype=np.float32),
                 rng.standard_normal((7, 5)).astype(np.float32)]
        params = {}
        for i, g in enumerate(grads):
            params[str(i)] = T.parameter(np.zeros_like(g))
            params[str(i)].grad = g.copy()
        norm = clip_global_norm(params, max_norm=1e6)
        exact = sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads)
        assert norm == float(np.sqrt(exact))
        assert norm != float(np.sqrt(sum(float(np.sum(g * g, dtype=np.float64)) for g in grads)))

    def test_non_finite_norm_raises(self):
        p = T.parameter(np.zeros(2))
        p.grad = np.array([np.inf, 1.0])
        with pytest.raises(NumericsError):
            clip_global_norm({"p": p}, max_norm=5.0)


class TestFiniteDifferenceCheck:
    def _quadratic_setup(self):
        rng = np.random.default_rng(5)
        w = T.parameter(rng.standard_normal((3, 2)))
        x = T.constant(rng.standard_normal((4, 3)))

        def build():
            return mean_all(H.sigmoid(H.matmul(x, w)))

        return build, {"w": w}

    def test_correct_gradients_pass(self):
        build, params = self._quadratic_setup()
        report = finite_difference_check(build, params)
        assert report["w"] < 1e-7

    def test_detects_injected_backward_fault(self, monkeypatch):
        build, params = self._quadratic_setup()
        monkeypatch.setattr(H, "_sigmoid_grad", lambda out, g: g * out)
        report = finite_difference_check(build, params)
        assert report["w"] > 1e-2

    def test_requires_float64(self):
        w = T.parameter(np.zeros(2, dtype=np.float32))

        def build():
            return sum_all(mul(w, w))

        with pytest.raises(ContractError, match="float64"):
            finite_difference_check(build, {"w": w})

    def test_subset_sampling_needs_rng_and_works(self):
        build, params = self._quadratic_setup()
        with pytest.raises(ContractError):
            finite_difference_check(build, params, max_entries=2)
        report = finite_difference_check(
            build, params, max_entries=3, rng=np.random.default_rng(0)
        )
        assert report["w"] < 1e-7
