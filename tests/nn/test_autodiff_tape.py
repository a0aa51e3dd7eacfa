"""Tape-core tests: the recording flag and the one backward walk.

The per-op gradients of :meth:`Tensor.backward` are covered by
``test_tensor.py`` and ``test_gradcheck.py``.  This file covers what the
tape adds: ``no_grad`` as a decorator, Tensor exponents, the walk's
semantics (retained and repeated walks, accumulation, released
cotangents, the seed left untouched, grad dtypes) against closed-form
values, whole graphs (op chains, random op soups, multi-consumer nodes,
views, broadcasting, indexing, matmul shapes, precision policies) against
central finite differences, and the public surface the walk left behind.
"""

import numpy as np
import pytest

import repro.nn
from repro.nn import Adam, Tensor, is_grad_enabled, no_grad
from repro.nn.functional import mse_loss
from repro.nn.modules import Linear, Sequential, Tanh
from repro.nn.precision import resolve_precision, use_precision


def numeric_grad(fn, x0, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    x0 = np.asarray(x0, dtype=np.float64)
    out = np.zeros_like(x0)
    flat_x, flat_g = x0.reshape(-1), out.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        hi = fn(x0)
        flat_x[i] = orig - eps
        lo = fn(x0)
        flat_x[i] = orig
        flat_g[i] = (hi - lo) / (2 * eps)
    return out


def assert_walk_matches_fd(fn, arrays, *, rtol=1e-6, atol=1e-6):
    """``fn(*leaves).backward()`` against central differences of ``fn``.

    The leaves hold ``arrays`` in their own dtype; the reference evaluates
    ``fn`` on float64 copies.  A leaf the root does not reach must keep
    ``.grad`` None, with a zero finite-difference gradient.  ``atol`` is
    relative to the largest reference entry when that exceeds 1.
    """
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    fn(*leaves).backward()
    ref = [np.asarray(a, dtype=np.float64) for a in arrays]
    for k, leaf in enumerate(leaves):

        def value(v, k=k):
            args = [Tensor(v if j == k else b) for j, b in enumerate(ref)]
            with no_grad():
                return fn(*args).item()

        expected = numeric_grad(value, ref[k].copy())
        scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
        if leaf.grad is None:
            np.testing.assert_allclose(expected, 0.0, atol=atol * scale)
            continue
        assert leaf.grad.shape == leaf.data.shape
        np.testing.assert_allclose(
            leaf.grad, expected, rtol=rtol, atol=atol * scale,
            err_msg=f"leaf {k}",
        )
    return leaves


class TestGradModeDecorators:
    def test_no_grad_decorator_with_parens(self):
        @no_grad()
        def fn(t):
            assert not is_grad_enabled()
            return t * 2.0

        x = Tensor([1.0], requires_grad=True)
        y = fn(x)
        assert not y.requires_grad
        assert is_grad_enabled()

    def test_no_grad_bare_decorator(self):
        @no_grad
        def fn(t):
            return t * 2.0

        x = Tensor([1.0], requires_grad=True)
        assert not fn(x).requires_grad

    def test_no_grad_still_a_context_manager(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert (x * 2.0).requires_grad

    def test_decorator_restores_flag_on_exception(self):
        @no_grad()
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            boom()
        assert is_grad_enabled()


class TestTensorExponent:
    def test_pow_tensor_exponent_grads(self):
        a0 = np.array([1.5, 2.0, 0.7])
        b0 = np.array([2.0, -1.0, 0.5])
        a = Tensor(a0.copy(), requires_grad=True)
        b = Tensor(b0.copy(), requires_grad=True)
        (a**b).sum().backward()
        np.testing.assert_allclose(
            a.grad, numeric_grad(lambda x: (x**b0).sum(), a0), atol=1e-6
        )
        np.testing.assert_allclose(
            b.grad, numeric_grad(lambda x: (a0**x).sum(), b0), atol=1e-6
        )

    def test_pow_tensor_exponent_broadcast(self):
        a = Tensor(np.full((3, 2), 2.0), requires_grad=True)
        b = Tensor([3.0], requires_grad=True)
        (a**b).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((3, 2), 3.0 * 4.0))
        np.testing.assert_allclose(b.grad, [6 * 8.0 * np.log(2.0)])

    def test_pow_rejects_non_scalar_non_tensor(self):
        a = Tensor([2.0], requires_grad=True)
        with pytest.raises(TypeError, match="scalar exponents and Tensor"):
            a ** np.array([1.0, 2.0])

    def test_scalar_pow_unchanged(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).backward()
        np.testing.assert_allclose(a.grad, [6.0])


class TestRepeatedBackward:
    def test_retain_graph_many_reruns(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * x * x).sum()
        for i in range(1, 4):
            y.backward(retain_graph=True)
            np.testing.assert_allclose(x.grad, [12.0 * i])
        y.backward()  # final run may drop the graph
        np.testing.assert_allclose(x.grad, [48.0])

    def test_accumulation_across_separate_graphs(self):
        x = Tensor([3.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0 + 6.0])

    def test_intermediate_grad_not_retained_between_runs(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        z = (y * y).sum()
        z.backward(retain_graph=True)
        z.backward(retain_graph=True)
        # Leaf accumulates across runs; intermediate cotangents are
        # released as soon as their node is consumed, so only leaves
        # carry a .grad after the walk.
        np.testing.assert_allclose(x.grad, [2 * 2 * 9 * 2.0])
        assert y.grad is None
        assert z.grad is None

    def test_backward_after_teardown_is_inert(self):
        x = Tensor([2.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        x.zero_grad()
        y.backward()  # graph gone: only the root's own grad is seeded
        assert x.grad is None


class TestWalkSemantics:
    """What the walk guarantees, checked against closed-form gradients."""

    def test_retain_graph_accumulation(self):
        v = np.random.default_rng(0).normal(size=(4,))
        x = Tensor(v.copy(), requires_grad=True)
        y = (x * x).tanh().sum()
        y.backward(retain_graph=True)
        y.backward(retain_graph=True)
        y.backward()
        # d/dx sum(tanh(x^2)) = 2x (1 - tanh(x^2)^2), accumulated 3 times.
        once = 2.0 * v * (1.0 - np.tanh(v * v) ** 2)
        np.testing.assert_allclose(x.grad, 3.0 * once, rtol=1e-12)

    def test_preexisting_grad_accumulates(self):
        v = np.random.default_rng(1).normal(size=(4,))
        x = Tensor(v.copy(), requires_grad=True)
        (x * 3.0).sum().backward()
        (x.tanh()).sum().backward()  # accumulates into the existing .grad
        np.testing.assert_allclose(
            x.grad, 3.0 + (1.0 - np.tanh(v) ** 2), rtol=1e-12
        )

    def test_intermediates_carry_no_grad_after_backward(self):
        # Cotangents are released once their node's VJPs have read them.
        v = np.arange(6.0).reshape(2, 3)
        x = Tensor(v.copy(), requires_grad=True)
        h = (x * 2.0).tanh()
        u = h * h
        z = u.sum()
        z.backward()
        t = np.tanh(2.0 * v)
        np.testing.assert_allclose(x.grad, 4.0 * t * (1.0 - t**2), rtol=1e-12)
        assert h.grad is None
        assert u.grad is None
        assert z.grad is None

    def test_seed_array_is_not_mutated(self):
        seed = np.full((3,), 2.0)
        keep = seed.copy()
        v = np.arange(3.0)
        x = Tensor(v.copy(), requires_grad=True)
        y = (x * x).tanh()
        y.backward(seed)
        assert np.array_equal(seed, keep)
        np.testing.assert_allclose(
            x.grad, 2.0 * 2.0 * v * (1.0 - np.tanh(v * v) ** 2), rtol=1e-12
        )

    def test_leaf_grads_not_shared_between_runs(self):
        """Two walks of the same structure must not share .grad storage."""
        def run():
            x = Tensor(np.arange(4.0), requires_grad=True)
            w = Tensor(np.ones(4), requires_grad=True)
            # Two contributions into w take the accumulation path.
            ((x * w).tanh() + w * 0.5).sum().backward()
            return x.grad, w.grad

        g1 = run()
        g2 = run()
        v = np.arange(4.0)
        sech2 = 1.0 - np.tanh(v) ** 2
        np.testing.assert_allclose(g1[0], sech2, rtol=1e-12)
        np.testing.assert_allclose(g1[1], v * sech2 + 0.5, rtol=1e-12)
        for a, b in zip(g1, g2):
            assert a is not b
            assert np.array_equal(a, b)
        g1[0][...] = -1.0  # mutating run 1's grads must not corrupt run 2's
        assert not np.array_equal(g1[0], g2[0])

    def test_cross_dtype_chain_keeps_each_leaf_dtype(self):
        """float32 and float64 leaves in one graph: each grad keeps its
        leaf's dtype, whatever dtype the contributions arrive in."""
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5,)).astype(np.float32)
        b = rng.normal(size=(5,))
        with use_precision("float32"):
            x32 = Tensor(a, requires_grad=True)
            x64 = Tensor(b, requires_grad=True)
            ((x32 * x64).tanh().exp() * x32).sum().backward()
        assert x32.grad.dtype == np.float32
        assert x64.grad.dtype == np.float64
        # f = sum(exp(tanh(ab)) a), evaluated in float64.
        a64 = a.astype(np.float64)
        t = np.tanh(a64 * b)
        inner = np.exp(t) * (1.0 - t**2)
        np.testing.assert_allclose(
            x32.grad, inner * b * a64 + np.exp(t), rtol=1e-5
        )
        np.testing.assert_allclose(x64.grad, inner * a64 * a64, rtol=1e-5)

    def test_leaf_root_takes_the_seed(self):
        seed = np.array([1.5, -2.0, 0.25])
        x = Tensor(np.arange(3.0), requires_grad=True)
        x.backward(seed)
        assert np.array_equal(x.grad, seed)
        seed[0] = 99.0  # the leaf's grad is its own copy
        assert x.grad[0] == 1.5

    def test_seed_gives_the_vector_jacobian_product(self):
        rng = np.random.default_rng(2)
        v, w = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
        seed = rng.normal(size=(3, 2))
        x = Tensor(v.copy(), requires_grad=True)
        (x @ Tensor(w)).backward(seed)
        np.testing.assert_allclose(x.grad, seed @ w.T, rtol=1e-12)

    def test_scalar_seed_broadcasts_over_the_root(self):
        v = np.arange(6.0).reshape(2, 3)
        x = Tensor(v.copy(), requires_grad=True)
        (x * x).backward(2.0)
        np.testing.assert_allclose(x.grad, 4.0 * v, rtol=1e-12)

    def test_unreachable_leaf_keeps_no_grad(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        z = Tensor(np.arange(3.0), requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 2.0 * np.arange(3.0))
        assert z.grad is None

    def test_frozen_leaf_gets_no_grad(self):
        v = np.arange(4.0)
        x = Tensor(v.copy(), requires_grad=True)
        w = Tensor(np.ones(4), requires_grad=True)
        w.requires_grad = False
        (x * w).tanh().sum().backward()
        assert w.grad is None
        np.testing.assert_allclose(x.grad, 1.0 - np.tanh(v) ** 2, rtol=1e-12)

    def test_no_grad_branch_carries_no_gradient(self):
        v = np.arange(4.0)
        x = Tensor(v.copy(), requires_grad=True)
        w = Tensor(np.ones(4), requires_grad=True)
        with no_grad():
            h = x * 2.0
        (h * w).tanh().sum().backward()
        assert x.grad is None
        np.testing.assert_allclose(
            w.grad, 2.0 * v * (1.0 - np.tanh(2.0 * v) ** 2), rtol=1e-12
        )

    def test_shape_change_between_walks(self):
        for n in (4, 5, 4):
            v = np.arange(float(n))
            x = Tensor(v.copy(), requires_grad=True)
            w = Tensor(np.full(n, 0.5), requires_grad=True)
            (x * w).tanh().sum().backward()
            sech2 = 1.0 - np.tanh(0.5 * v) ** 2
            np.testing.assert_allclose(x.grad, 0.5 * sech2, rtol=1e-12)
            np.testing.assert_allclose(w.grad, v * sech2, rtol=1e-12)

    def test_policy_change_between_walks(self):
        # Same structure and array dtypes; only the grad accumulation
        # width differs between the two policies.
        for policy, want in (("float32", np.float32), ("mixed32", np.float64),
                             ("float32", np.float32)):
            with use_precision(policy):
                x = Tensor(np.arange(4.0, dtype=np.float32), requires_grad=True)
                (x * x).sum().backward()
            assert x.grad.dtype == want
            np.testing.assert_array_equal(x.grad, 2.0 * np.arange(4.0))

    def test_sgd_loop_matches_closed_form(self):
        """Five gradient-descent steps through the walk land where the
        numpy gradient of the same loss takes them."""
        rng = np.random.default_rng(3)
        w0, xv = rng.normal(size=(4, 4)), rng.normal(size=(8, 4))
        w = Tensor(w0.copy(), requires_grad=True)
        ref = w0.copy()
        for _ in range(5):
            w.zero_grad()
            ((Tensor(xv) @ w).tanh() ** 2).sum().backward()
            w.data -= 0.05 * w.grad
            t = np.tanh(xv @ ref)
            ref = ref - 0.05 * xv.T @ (2.0 * t * (1.0 - t**2))
        np.testing.assert_allclose(w.data, ref, rtol=1e-12, atol=1e-14)


# Each op in isolation, then chained: the walk's gradient of a scalar
# loss must match central differences of the same loss.
SINGLE_OPS = {
    "mul_add": lambda x: (x * 3.0 + 1.0).sum(),
    "neg_sub": lambda x: (-x - 0.5).sum(),
    "exp": lambda x: (x * x).exp().sum(),
    "log": lambda x: (x.abs() + 1.0).log().sum(),
    "sqrt": lambda x: (x * x + 1.0).sqrt().sum(),
    "relu": lambda x: x.relu().sum(),
    "sigmoid": lambda x: x.sigmoid().sum(),
    "tanh": lambda x: x.tanh().sum(),
    "abs": lambda x: x.abs().sum(),
    "clip": lambda x: x.clip(-0.5, 0.5).sum(),
    "pow_int": lambda x: (x**3).sum(),
    "pow_frac": lambda x: ((x.abs() + 0.1) ** 2.5).sum(),
    "div": lambda x: (x / 1.7).sum(),
}


def _random_graph(seed):
    """A random op soup over leaves ``x`` (3, 4) and ``y`` (4,)."""
    unary = [
        lambda t: t.tanh(), lambda t: t.sigmoid(), lambda t: t.relu(),
        lambda t: (t * t + 1.0).sqrt(), lambda t: t.abs(),
        lambda t: t.clip(-2.0, 2.0), lambda t: (t * 0.3).exp(),
        lambda t: -t, lambda t: t ** 2,
    ]
    binary = [
        lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b,
        lambda a, b: a / (b * b + 1.0), lambda a, b: a * 0.5 + b,
    ]

    def fn(x, y):
        oprng = np.random.default_rng(100 + seed)
        live = [x, x * 1.0 + y, (x + y).tanh()]
        for _ in range(12):
            if oprng.random() < 0.5 or len(live) < 2:
                t = live[oprng.integers(len(live))]
                live.append(unary[oprng.integers(len(unary))](t))
            else:
                a = live[oprng.integers(len(live))]
                b = live[oprng.integers(len(live))]
                live.append(binary[oprng.integers(len(binary))](a, b))
        total = live[-1]
        for t in live[-4:-1]:
            total = total + t
        return total.sum()

    return fn


class TestElementwiseChains:
    @pytest.mark.parametrize("fn", SINGLE_OPS.values(), ids=SINGLE_OPS.keys())
    def test_single_op_chains(self, fn):
        x = np.random.default_rng(0).normal(size=(4, 5))
        assert_walk_matches_fd(fn, [x])

    def test_deep_chain(self):
        def fn(x):
            h = x
            for i in range(20):
                h = (h * 1.01).tanh() if i % 2 else (h + 0.1).sigmoid()
            return h.sum()

        assert_walk_matches_fd(fn, [np.random.default_rng(0).normal(size=(8, 16))])

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_graphs(self, seed):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(3, 4)), rng.normal(size=(4,))
        assert_walk_matches_fd(_random_graph(seed), [x, y])


class TestStructuralOps:
    def test_matmul_mlp(self):
        rng = np.random.default_rng(0)
        arrays = [
            rng.normal(size=(6, 5)), rng.normal(size=(5, 7)) * 0.3,
            rng.normal(size=(7,)) * 0.1, rng.normal(size=(7, 2)) * 0.3,
        ]

        def fn(x, w1, b1, w2):
            return (((x @ w1 + b1).tanh() @ w2) ** 2).sum()

        assert_walk_matches_fd(fn, arrays)

    def test_broadcasting_reductions_indexing(self):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=(4, 3)), rng.normal(size=(3,)),
                  rng.normal(size=(1, 3))]

        def fn(x, b, s):
            h = (x + b) * s
            u = h.sum(axis=0, keepdims=True) + h.max(axis=1, keepdims=True)
            v = u.reshape((-1,))[2:5]
            w = Tensor.concatenate([v, v * 2.0], axis=0)
            t = Tensor.stack([w, -w], axis=0)
            return (t.transpose((1, 0)) ** 2).sum()

        assert_walk_matches_fd(fn, arrays)

    def test_multi_consumer_accumulation(self):
        """One tensor feeding five consumers sums every contribution."""

        def fn(x):
            h = x.tanh()
            a = (h * 2.0).exp()
            b = (h + 1.0).sigmoid()
            c = h * h
            d = h / (c + 1.0)
            return (a * b + c * d).sum()

        assert_walk_matches_fd(fn, [np.random.default_rng(0).normal(size=(5, 5))])

    def test_astype_and_scalar_root(self):
        # Under the default float64 policy a float32 leaf accumulates in
        # float64 (grad_dtype promotion).
        v = np.random.default_rng(0).normal(size=(3,)).astype(np.float32)
        x = Tensor(v, requires_grad=True)
        y = x.astype(np.float64)
        ((y * y).sum() * 2.0).backward()
        assert x.grad.dtype == np.float64
        np.testing.assert_array_equal(x.grad, 4.0 * v.astype(np.float64))


class TestPrecisionPolicies:
    @pytest.mark.parametrize("policy", ["float64", "float32", "mixed32"])
    def test_policy_grads(self, policy):
        precision = resolve_precision(policy)
        rng = np.random.default_rng(0)
        xv = rng.normal(size=(4, 4)).astype(precision.real)
        wv = rng.normal(size=(4, 4)).astype(precision.real)

        def fn(x, w):
            return ((x @ w).relu().exp() * x.sigmoid()).sum()

        tol = 1e-6 if precision.real == np.float64 else 1e-4
        with use_precision(policy):
            x, w = assert_walk_matches_fd(fn, [xv, wv], rtol=tol, atol=tol)
        assert x.grad.dtype == precision.grad_real
        assert w.grad.dtype == precision.grad_real


VIEW_CHAINS = {
    "transpose": lambda x: (x.T * 2.0).tanh().sum(),
    "reshape": lambda x: (x.reshape(20) * 1.5).sigmoid().sum(),
    "transpose_reshape_mix":
        lambda x: ((x.T.reshape(20).reshape(5, 4).T * 0.7) ** 2).sum(),
    "astype": lambda x: (x.astype("float64") * 3.0).tanh().sum(),
}


class TestViewChains:
    """Transpose, reshape and astype VJPs hand back views of their
    cotangent; the views must reach the leaf with the right layout."""

    @pytest.mark.parametrize("fn", VIEW_CHAINS.values(), ids=VIEW_CHAINS.keys())
    def test_view_chains(self, fn):
        x = np.random.default_rng(0).normal(size=(4, 5)).astype(np.float32)
        (leaf,) = assert_walk_matches_fd(fn, [x], rtol=1e-4, atol=1e-5)
        assert leaf.grad.dtype == np.float64

    def test_same_base_consumed_through_two_views(self):
        def fn(x):
            return ((x.T * 2.0).tanh()
                    + x.reshape(16).sigmoid().reshape(4, 4)).sum()

        assert_walk_matches_fd(fn, [np.random.default_rng(0).normal(size=(4, 4))])

    def test_view_cotangent_meets_a_second_contribution(self):
        def fn(x):
            y = (x * 1.3).tanh()
            return y.T.sum() + (y * y).sum()

        assert_walk_matches_fd(fn, [np.random.default_rng(0).normal(size=(3, 7))])


MATMUL_SHAPES = {
    "vec_vec": ((5,), (5,)),
    "vec_mat": ((5,), (5, 3)),
    "mat_vec": ((4, 5), (5,)),
    "mat_mat": ((4, 5), (5, 3)),
    "batched": ((2, 4, 5), (2, 5, 3)),
    "batch_left": ((2, 4, 5), (5, 3)),
    "batch_right": ((4, 5), (2, 5, 3)),
}


class TestMatmul:
    @staticmethod
    def _mlp_closed_form(xv, w1v, w2v):
        """Gradients of sum(tanh(x w1) w2) w.r.t. w1 and w2."""
        h = np.tanh(xv @ w1v)
        gh = np.ones((xv.shape[0], w2v.shape[1])) @ w2v.T
        return xv.T @ (gh * (1.0 - h**2)), h.T @ np.ones((xv.shape[0], w2v.shape[1]))

    @pytest.mark.parametrize("shapes", MATMUL_SHAPES.values(),
                             ids=MATMUL_SHAPES.keys())
    def test_operand_shapes(self, shapes):
        rng = np.random.default_rng(0)
        a, b = (rng.normal(size=s) for s in shapes)
        cot = rng.normal(size=np.matmul(a, b).shape)
        leaves = assert_walk_matches_fd(
            lambda x, y: ((x @ y) * Tensor(cot)).sum(), [a, b]
        )
        assert [leaf.grad.shape for leaf in leaves] == list(shapes)

    def test_two_layer_mlp(self):
        rng = np.random.default_rng(0)
        xv = rng.normal(size=(6, 8))
        w1v, w2v = rng.normal(size=(8, 10)), rng.normal(size=(10, 4))
        w1 = Tensor(w1v.copy(), requires_grad=True)
        w2 = Tensor(w2v.copy(), requires_grad=True)
        ((Tensor(xv) @ w1).tanh() @ w2).sum().backward()
        g1, g2 = self._mlp_closed_form(xv, w1v, w2v)
        np.testing.assert_allclose(w1.grad, g1, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(w2.grad, g2, rtol=1e-12, atol=1e-13)

    def test_float32_mlp(self):
        rng = np.random.default_rng(0)
        xv = rng.normal(size=(6, 8)).astype(np.float32)
        arrays = [rng.normal(size=(8, 10)).astype(np.float32),
                  rng.normal(size=(10, 4)).astype(np.float32)]
        with use_precision("float32"):
            w1, w2 = assert_walk_matches_fd(
                lambda a, b: ((Tensor(xv) @ a).tanh() @ b).sum(), arrays,
                rtol=1e-4, atol=1e-4,
            )
        assert w1.grad.dtype == w2.grad.dtype == np.float32

    def test_mixed_dtype_matmul(self):
        """f32 @ f64 promotes; each leaf's grad keeps the policy's width
        for its own dtype."""
        rng = np.random.default_rng(0)
        av = rng.normal(size=(5, 6)).astype(np.float32)
        bv = rng.normal(size=(6, 3))
        a, b = assert_walk_matches_fd(
            lambda x, y: (x @ y).tanh().sum(), [av, bv], rtol=1e-5, atol=1e-6
        )
        assert a.grad.dtype == b.grad.dtype == np.float64

    def test_repeated_walks_track_new_values(self):
        """Three walks of one structure with the data changed in place
        between them: every walk sees the values of its own forward."""
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(6, 8)))
        w1 = Tensor(rng.normal(size=(8, 10)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(10, 4)), requires_grad=True)
        for _ in range(3):
            w1.grad = w2.grad = None
            ((x @ w1).tanh() @ w2).sum().backward()
            g1, g2 = self._mlp_closed_form(x.data, w1.data, w2.data)
            np.testing.assert_allclose(w1.grad, g1, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(w2.grad, g2, rtol=1e-12, atol=1e-13)
            w1.data += 0.1
            x.data *= 1.01


REDUCTIONS = {
    "sum_all": ("sum", None, False),
    "sum_axis0": ("sum", 0, False),
    "sum_last_keepdims": ("sum", -1, True),
    "mean_axes": ("mean", (0, 2), False),
    "mean_keepdims": ("mean", 1, True),
    "max_axis": ("max", 1, False),
}

INDEX_KEYS = {
    "int": 2,
    "slice": slice(1, 4),
    "negative_step": slice(None, None, -2),
    "column": (slice(None), 1),
    "repeated_rows": [0, 2, 2, 4],
    "repeated_pairs": ([0, 1, 1, 4], [3, 0, 0, 3]),
    "bool_mask": np.array([True, False, True, True, False]),
}


class TestReductionsAndIndexing:
    """Reduction, indexing, stacking and concatenation VJPs under a
    random cotangent, so every output entry carries its own weight."""

    @staticmethod
    def _weighted(out_fn, shape, seed=0):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        with no_grad():
            cot = rng.normal(size=out_fn(Tensor(x)).shape)
        return lambda t: (out_fn(t) * Tensor(cot)).sum(), x

    @pytest.mark.parametrize("spec", REDUCTIONS.values(), ids=REDUCTIONS.keys())
    def test_reductions(self, spec):
        op, axis, keepdims = spec
        fn, x = self._weighted(
            lambda t: getattr(t, op)(axis=axis, keepdims=keepdims), (3, 4, 5)
        )
        assert_walk_matches_fd(fn, [x])

    @pytest.mark.parametrize("key", INDEX_KEYS.values(), ids=INDEX_KEYS.keys())
    def test_getitem(self, key):
        fn, x = self._weighted(lambda t: t[key], (5, 4))
        assert_walk_matches_fd(fn, [x])

    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_stack_skips_constant_operands(self, axis):
        rng = np.random.default_rng(1)
        c = Tensor(rng.normal(size=(3, 4)))  # no grad: not in argnums
        cot = rng.normal(size=np.stack([c.data] * 3, axis=axis).shape)
        assert_walk_matches_fd(
            lambda x, y: (Tensor.stack([x, c, y], axis=axis)
                          * Tensor(cot)).sum(),
            [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))],
        )

    @pytest.mark.parametrize("axis", [0, 1])
    def test_concatenate(self, axis):
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        cot = rng.normal(size=np.concatenate([a, a, b], axis=axis).shape)
        assert_walk_matches_fd(
            lambda x, y: (Tensor.concatenate([x, x * 2.0, y], axis=axis)
                          * Tensor(cot)).sum(),
            [a, b],
        )


class TestStagedKernels:
    """tanh, sigmoid and a fractional power chained, in both dtypes."""

    @staticmethod
    def _chain(x):
        h = x
        for _ in range(4):
            h = (h.tanh() * 1.1).sigmoid() ** 2.5
        return h.sum()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_chain(self, dtype):
        x = (np.random.default_rng(0).random(size=(8, 9)) + 0.5).astype(dtype)
        tol = 1e-6 if dtype == np.float64 else 1e-4
        assert_walk_matches_fd(self._chain, [x], rtol=tol, atol=tol)

    def test_repeated_walks_track_new_values(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            assert_walk_matches_fd(
                lambda x: ((x * 0.9).tanh().sigmoid() ** 3).sum(),
                [rng.normal(size=(7, 7))],
            )


class TestOneWalkSurface:
    REMOVED = ("graph", "GraphPlan", "plan_cache_stats", "clear_plan_cache",
               "grad", "hvp", "enable_grad")

    def test_nn_exports_none_of_the_removed_names(self):
        for name in self.REMOVED:
            assert name not in repro.nn.__all__, name
            if name != "graph":  # a submodule import would set that one
                assert not hasattr(repro.nn, name), name

    def test_autodiff_keeps_only_the_walk(self):
        from repro.nn import autodiff

        for name in ("grad", "hvp", "enable_grad", "naive_backward_pass",
                     "is_tensor", "register_tensor_type"):
            assert not hasattr(autodiff, name), name
        assert "args" not in autodiff.Node.__slots__

    def test_plan_cache_stats_read_zero_after_a_training_step(self):
        from repro.nn.graph import plan_cache_stats

        rng = np.random.default_rng(0)
        model = Sequential(Linear(3, 4, rng=rng), Tanh(), Linear(4, 3, rng=rng))
        optimizer = Adam(model.parameters(), lr=0.01)
        x = Tensor(rng.normal(size=(5, 3)))
        for _ in range(2):
            optimizer.zero_grad()
            mse_loss(model(x), x).backward()
            optimizer.step()
        assert plan_cache_stats() == {"hits": 0, "misses": 0, "size": 0}


class TestModuleFreezing:
    def test_requires_grad_freezes_and_unfreezes(self):
        rng = np.random.default_rng(1)
        model = Sequential(Linear(3, 3, rng=rng), Tanh(), Linear(3, 1, rng=rng))
        x = Tensor(rng.normal(size=(2, 3)))
        model.requires_grad_(False)
        out = (model(x) ** 2).sum()
        assert not out.requires_grad
        model.requires_grad_(True)
        (model(x) ** 2).sum().backward()
        assert all(p.grad is not None for p in model.parameters())
