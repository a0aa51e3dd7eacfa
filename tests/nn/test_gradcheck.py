"""Property-based gradient checks: every autodiff op vs finite differences.

The quantum gradients are validated against the parameter-shift rule in
``tests/quantum``; this module gives the classical ops the same treatment
under randomized shapes and values.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nn import Tensor


def numeric_grad(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat_g, flat_x = grad.reshape(-1), x.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        hi = fn(x)
        flat_x[i] = orig - eps
        lo = fn(x)
        flat_x[i] = orig
        flat_g[i] = (hi - lo) / (2 * eps)
    return grad


def check(op, x0, atol=1e-5, weight=None):
    """Compare autodiff grad of sum(weight * op(x)) with finite differences."""
    weight = weight if weight is not None else np.ones(1)
    x = Tensor(x0.copy(), requires_grad=True)
    (op(x) * Tensor(weight)).sum().backward()
    fd = numeric_grad(lambda arr: (op(Tensor(arr)).data * weight).sum(),
                      x0.copy())
    np.testing.assert_allclose(x.grad, fd, atol=atol)


shapes = st.sampled_from([(3,), (2, 4), (3, 2, 2)])
seeds = st.integers(0, 10_000)


class TestUnaryOps:
    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_exp(self, shape, seed):
        x0 = np.random.default_rng(seed).uniform(-2, 2, shape)
        check(lambda t: t.exp(), x0)

    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_log(self, shape, seed):
        x0 = np.random.default_rng(seed).uniform(0.2, 3, shape)
        check(lambda t: t.log(), x0)

    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_sqrt(self, shape, seed):
        x0 = np.random.default_rng(seed).uniform(0.2, 3, shape)
        check(lambda t: t.sqrt(), x0)

    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_sigmoid(self, shape, seed):
        x0 = np.random.default_rng(seed).uniform(-3, 3, shape)
        check(lambda t: t.sigmoid(), x0)

    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_tanh(self, shape, seed):
        x0 = np.random.default_rng(seed).uniform(-3, 3, shape)
        check(lambda t: t.tanh(), x0)

    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_relu_away_from_kink(self, shape, seed):
        x0 = np.random.default_rng(seed).uniform(-3, 3, shape)
        x0[np.abs(x0) < 1e-3] = 0.5  # keep FD away from the kink
        check(lambda t: t.relu(), x0)

    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_pow(self, shape, seed):
        x0 = np.random.default_rng(seed).uniform(0.3, 2, shape)
        check(lambda t: t**3, x0)


class TestBinaryAndReduce:
    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_mul_with_random_cotangent(self, shape, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(-2, 2, shape)
        other = rng.uniform(-2, 2, shape)
        weight = rng.normal(size=shape)
        check(lambda t: t * Tensor(other), x0, weight=weight)

    @settings(max_examples=15, deadline=None)
    @given(shape=shapes, seed=seeds)
    def test_div(self, shape, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(0.5, 2, shape)
        other = rng.uniform(0.5, 2, shape)
        check(lambda t: t / Tensor(other), x0)

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_matmul_chain(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(3, 4))
        w = rng.normal(size=(4, 2))
        weight = rng.normal(size=(3, 2))
        check(lambda t: t @ Tensor(w), x0, weight=weight)

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds, axis=st.sampled_from([0, 1, None]))
    def test_sum_axes(self, seed, axis):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(3, 4))
        check(lambda t: t.sum(axis=axis), x0)

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_mean(self, seed):
        x0 = np.random.default_rng(seed).normal(size=(2, 5))
        check(lambda t: t.mean(axis=1), x0)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_broadcast_add(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(1, 4))
        other = rng.normal(size=(3, 4))
        check(lambda t: t + Tensor(other), x0)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_composite_expression(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(0.2, 1.5, (2, 3))

        def op(t):
            return ((t * 2.0 + 1.0).log() * t.sigmoid()).tanh()

        check(op, x0)

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_reshape_transpose_composite(self, seed):
        rng = np.random.default_rng(seed)
        x0 = rng.normal(size=(2, 6))

        def op(t):
            return (t.reshape(3, 4).T * Tensor(np.ones((4, 3)))).sum(axis=0)

        check(op, x0)
