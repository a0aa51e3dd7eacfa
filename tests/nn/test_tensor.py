"""Unit tests for the autodiff Tensor: ops, broadcasting, graph mechanics."""

import numpy as np
import pytest

from repro.nn import Tensor, no_grad


def finite_diff(fn, x, eps=1e-6):
    """Central finite-difference gradient of scalar fn at numpy point x."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = grad.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + eps
        hi = fn(x)
        xf[i] = orig - eps
        lo = fn(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2 * eps)
    return grad


class TestBasicOps:
    def test_add_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])
        np.testing.assert_allclose(b.grad, [1.0, 1.0])

    def test_mul_backward(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, [3.0, 4.0])
        np.testing.assert_allclose(b.grad, [1.0, 2.0])

    def test_sub_and_neg(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a - b).backward()
        np.testing.assert_allclose(a.grad, [1.0])
        np.testing.assert_allclose(b.grad, [-1.0])

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a / b).backward()
        np.testing.assert_allclose(a.grad, [1.0 / 3.0])
        np.testing.assert_allclose(b.grad, [-6.0 / 9.0])

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).backward()
        np.testing.assert_allclose(a.grad, [6.0])

    def test_rsub_rdiv(self):
        a = Tensor([2.0], requires_grad=True)
        (1.0 - a).backward()
        np.testing.assert_allclose(a.grad, [-1.0])
        a.zero_grad()
        (1.0 / a).backward()
        np.testing.assert_allclose(a.grad, [-0.25])

    def test_scalar_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        (a * 2.0 + 1.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))


class TestMatmul:
    def test_matmul_2d(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 5)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 5)))

    def test_matmul_matches_finite_diff(self):
        rng = np.random.default_rng(1)
        a0 = rng.normal(size=(2, 3))
        b0 = rng.normal(size=(3, 2))

        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        ((a @ b) ** 2).sum().backward()

        fd_a = finite_diff(lambda x: ((x @ b0) ** 2).sum(), a0.copy())
        fd_b = finite_diff(lambda x: ((a0 @ x) ** 2).sum(), b0.copy())
        np.testing.assert_allclose(a.grad, fd_a, atol=1e-5)
        np.testing.assert_allclose(b.grad, fd_b, atol=1e-5)

    def test_vector_matmul(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        m = Tensor([[1.0, 0.0], [0.0, 1.0]], requires_grad=True)
        (a @ m).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 1.0])


class TestElementwise:
    @pytest.mark.parametrize(
        "op,deriv",
        [
            ("exp", lambda x: np.exp(x)),
            ("log", lambda x: 1.0 / x),
            ("sqrt", lambda x: 0.5 / np.sqrt(x)),
            ("sigmoid", lambda x: (s := 1 / (1 + np.exp(-x))) * (1 - s)),
            ("tanh", lambda x: 1 - np.tanh(x) ** 2),
        ],
    )
    def test_unary_derivatives(self, op, deriv):
        x0 = np.array([0.5, 1.5, 2.5])
        x = Tensor(x0, requires_grad=True)
        getattr(x, op)().sum().backward()
        np.testing.assert_allclose(x.grad, deriv(x0), rtol=1e-10)

    def test_relu_gradient_masks_negatives(self):
        x = Tensor([-1.0, 0.5, 2.0], requires_grad=True)
        x.relu().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0])

    def test_abs(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        x.abs().sum().backward()
        np.testing.assert_allclose(x.grad, [-1.0, 1.0])

    def test_clip_gradient(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])


class TestReductions:
    def test_sum_axis(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        x.sum(axis=0).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 3)))

    def test_sum_keepdims(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        (x.sum(axis=1, keepdims=True) * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 2.0))

    def test_mean(self):
        x = Tensor(np.ones((4, 5)), requires_grad=True)
        x.mean().backward()
        np.testing.assert_allclose(x.grad, np.full((4, 5), 1.0 / 20))

    def test_mean_axis(self):
        x = Tensor(np.ones((4, 5)), requires_grad=True)
        x.mean(axis=1).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((4, 5), 1.0 / 5))

    def test_max(self):
        x = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_max_ties_split_gradient(self):
        x = Tensor([5.0, 5.0, 3.0], requires_grad=True)
        x.max().backward()
        np.testing.assert_allclose(x.grad, [0.5, 0.5, 0.0])


class TestShapes:
    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        np.testing.assert_allclose(x.grad, np.ones(6))

    def test_transpose(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = x.T
        assert y.shape == (3, 2)
        (y * Tensor(np.arange(6.0).reshape(3, 2))).sum().backward()
        np.testing.assert_allclose(x.grad, np.arange(6.0).reshape(3, 2).T)

    def test_getitem(self):
        x = Tensor(np.arange(10.0), requires_grad=True)
        x[2:5].sum().backward()
        expected = np.zeros(10)
        expected[2:5] = 1.0
        np.testing.assert_allclose(x.grad, expected)


class TestBroadcastGrads:
    def test_bias_broadcast(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, [4.0, 4.0, 4.0])

    def test_row_broadcast_mul(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        s = Tensor(np.full((1, 3), 2.0), requires_grad=True)
        (x * s).sum().backward()
        np.testing.assert_allclose(s.grad, np.full((1, 3), 4.0))
        np.testing.assert_allclose(x.grad, np.full((4, 3), 2.0))


class TestGraphMechanics:
    def test_grad_accumulates_on_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x  # x used twice
        y.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_no_grad_context(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_detach(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad

    def test_backward_requires_scalar(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_retain_graph_allows_double_backward(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        y.backward(retain_graph=True)
        y.backward(retain_graph=True)
        np.testing.assert_allclose(x.grad, [12.0])

    def test_diamond_graph(self):
        x = Tensor([1.0], requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        (a + b).backward()
        np.testing.assert_allclose(x.grad, [5.0])

    def test_deep_chain(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(100):
            y = y * 1.01
        y.backward()
        np.testing.assert_allclose(x.grad, [1.01**100], rtol=1e-10)
