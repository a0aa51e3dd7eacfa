"""Compiled backward plans (repro.nn.graph) vs the reference tape walk.

The contract under test is strict: for any recorded tape, the compiled
program ``Tensor.backward`` runs must produce gradients **bit-identical**
(plain ``==``, no tolerance) to the interpreted reference walk
``repro.nn.autodiff.naive_backward_pass``, across precision policies,
broadcasting, multi-consumer graphs, and the hybrid quantum layers — and
plans must be cached on structure, recompiling on any structural change
and never re-lowering on steps 2+.
"""

import os
import subprocess
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, no_grad
from repro.nn import graph as G
from repro.nn import tensor as tensor_module
from repro.nn.autodiff import naive_backward_pass
from repro.nn.functional import mse_loss
from repro.nn.optim import SGD
from repro.nn.precision import use_precision

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def _fresh_cache():
    G.clear_plan_cache()
    yield
    G.clear_plan_cache()


@contextmanager
def reference_walk():
    """Route ``Tensor.backward`` through the interpreted reference walk.

    The library has no switch for this; the differential tests swap the
    walk function ``Tensor.backward`` calls for the scope of one build.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor_module, "backward_pass", naive_backward_pass)
        yield


def both_modes(build, n_grads=None):
    """Run ``build`` on the reference walk and on the plan; return both
    grad lists.

    ``build(rng)`` must construct a fresh graph, run a backward pass, and
    return a list of gradient arrays.
    """
    stats = G.plan_cache_stats()
    with reference_walk():
        ref = build(np.random.default_rng(0))
    assert G.plan_cache_stats() == stats, "the reference side ran a plan"
    com = build(np.random.default_rng(0))
    assert G.plan_cache_stats() != stats, "the compiled side ran no plan"
    assert len(ref) == len(com)
    if n_grads is not None:
        assert len(ref) == n_grads
    return ref, com


def assert_bitwise(ref, com):
    for i, (a, b) in enumerate(zip(ref, com)):
        assert (a is None) == (b is None), f"grad {i} presence differs"
        if a is None:
            continue
        assert a.dtype == b.dtype, f"grad {i}: {a.dtype} vs {b.dtype}"
        assert a.shape == b.shape, f"grad {i}: {a.shape} vs {b.shape}"
        assert np.array_equal(a, b), f"grad {i} not bit-identical"


class TestElementwiseChainEquivalence:
    """Every fusible primitive, alone and in long chains."""

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: (x * 3.0 + 1.0).sum(),
            lambda x: (-x - 0.5).sum(),
            lambda x: (x * x).exp().sum(),
            lambda x: (x.abs() + 1.0).log().sum(),
            lambda x: (x * x + 1.0).sqrt().sum(),
            lambda x: x.relu().sum(),
            lambda x: x.sigmoid().sum(),
            lambda x: x.tanh().sum(),
            lambda x: x.abs().sum(),
            lambda x: x.clip(-0.5, 0.5).sum(),
            lambda x: (x**3).sum(),
            lambda x: ((x.abs() + 0.1) ** 2.5).sum(),
            lambda x: (x / 1.7).sum(),
        ],
        ids=[
            "mul_add", "neg_sub", "exp", "log", "sqrt", "relu", "sigmoid",
            "tanh", "abs", "clip", "pow_int", "pow_frac", "div",
        ],
    )
    def test_single_op_chains(self, fn):
        def build(rng):
            x = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
            fn(x).backward()
            return [x.grad]

        assert_bitwise(*both_modes(build))

    def test_deep_chain_fuses_and_matches(self):
        def build(rng):
            x = Tensor(rng.normal(size=(8, 16)), requires_grad=True)
            h = x
            for i in range(20):
                h = (h * 1.01).tanh() if i % 2 else (h + 0.1).sigmoid()
            h.sum().backward()
            return [x.grad]

        ref, com = both_modes(build)
        assert_bitwise(ref, com)
        # The lowered plan must actually have fused the chain.
        plans = list(G._PLAN_CACHE.values())
        assert plans and any(p.n_fused_nodes >= 20 for p in plans)

    def test_randomized_graphs(self):
        """Random op soup over several seeds — the differential sweep."""
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
        for seed in range(8):
            def build(rng, seed=seed):
                oprng = np.random.default_rng(100 + seed)
                x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
                y = Tensor(rng.normal(size=(4,)), requires_grad=True)
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
                total.sum().backward()
                return [x.grad, y.grad]

            assert_bitwise(*both_modes(build))


class TestStructuralOpsEquivalence:
    def test_matmul_mlp(self):
        def build(rng):
            x = Tensor(rng.normal(size=(6, 5)), requires_grad=True)
            w1 = Tensor(rng.normal(size=(5, 7)) * 0.3, requires_grad=True)
            b1 = Tensor(rng.normal(size=(7,)) * 0.1, requires_grad=True)
            w2 = Tensor(rng.normal(size=(7, 2)) * 0.3, requires_grad=True)
            h = (x @ w1 + b1).tanh()
            ((h @ w2) ** 2).sum().backward()
            return [x.grad, w1.grad, b1.grad, w2.grad]

        assert_bitwise(*both_modes(build, n_grads=4))

    def test_broadcasting_reductions_indexing(self):
        def build(rng):
            x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
            b = Tensor(rng.normal(size=(3,)), requires_grad=True)
            s = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
            h = (x + b) * s
            u = h.sum(axis=0, keepdims=True) + h.max(axis=1, keepdims=True)
            v = u.reshape((-1,))[2:5]
            w = Tensor.concatenate([v, v * 2.0], axis=0)
            t = Tensor.stack([w, -w], axis=0)
            (t.transpose((1, 0)) ** 2).sum().backward()
            return [x.grad, b.grad, s.grad]

        assert_bitwise(*both_modes(build, n_grads=3))

    def test_multi_consumer_accumulation_order(self):
        """A tensor feeding many consumers exercises ordered accumulation."""

        def build(rng):
            x = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
            h = x.tanh()
            a = (h * 2.0).exp()
            b = (h + 1.0).sigmoid()
            c = h * h
            d = h / (c + 1.0)
            (a * b + c * d).sum().backward()
            return [x.grad]

        assert_bitwise(*both_modes(build))

    def test_astype_and_scalar_root(self):
        def build(rng):
            x = Tensor(rng.normal(size=(3,)).astype(np.float32),
                       requires_grad=True)
            y = x.astype(np.float64)
            ((y * y).sum() * 2.0).backward()
            return [x.grad]

        # Under the default float64 policy a float32 leaf accumulates in
        # float64 (grad_dtype promotion) — both modes must agree on that.
        ref, com = both_modes(build)
        assert_bitwise(ref, com)
        assert ref[0].dtype == np.float64


class TestPrecisionPolicies:
    @pytest.mark.parametrize("policy", ["float64", "float32", "mixed32"])
    def test_policy_equivalence(self, policy):
        def build(rng):
            with use_precision(policy):
                x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
                w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
                ((x @ w).relu().exp() * x.sigmoid()).sum().backward()
                return [x.grad, w.grad]

        assert_bitwise(*both_modes(build))

    def test_cross_dtype_chain(self):
        """float32 and float64 tensors in one graph: the compiled run must
        respect every want-dtype boundary the reference walk casts at."""

        def build(rng):
            with use_precision("float32"):
                x32 = Tensor(rng.normal(size=(5,)).astype(np.float32),
                             requires_grad=True)
                x64 = Tensor(rng.normal(size=(5,)), requires_grad=True)
                ((x32 * x64).tanh().exp() * x32).sum().backward()
                return [x32.grad, x64.grad]

        ref, com = both_modes(build)
        assert_bitwise(ref, com)
        assert ref[0].dtype == np.float32 and ref[1].dtype == np.float64


class TestBackwardSemantics:
    def test_retain_graph_accumulation(self):
        def build(rng):
            x = Tensor(rng.normal(size=(4,)), requires_grad=True)
            y = (x * x).tanh().sum()
            y.backward(retain_graph=True)
            y.backward(retain_graph=True)
            y.backward()
            return [x.grad]

        assert_bitwise(*both_modes(build))

    def test_preexisting_grad_accumulates(self):
        def build(rng):
            x = Tensor(rng.normal(size=(4,)), requires_grad=True)
            (x * 3.0).sum().backward()
            (x.tanh()).sum().backward()  # accumulates into existing .grad
            return [x.grad]

        assert_bitwise(*both_modes(build))

    def test_intermediates_carry_no_grad_after_backward(self):
        """Satellite regression: cotangents are released on consume."""
        for walk in (reference_walk, nullcontext):
            with walk():
                x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
                h = (x * 2.0).tanh()
                u = h * h
                z = u.sum()
                z.backward()
            assert x.grad is not None
            assert h.grad is None
            assert u.grad is None
            assert z.grad is None

    def test_seed_array_is_not_mutated(self):
        seed = np.full((3,), 2.0)
        keep = seed.copy()
        x = Tensor(np.arange(3.0), requires_grad=True)
        y = (x * x).tanh()
        y.backward(seed)
        assert np.array_equal(seed, keep)

    def test_plan_buffers_do_not_leak_into_leaf_grads(self):
        """Two runs of the same cached plan must not share .grad storage."""
        def run():
            x = Tensor(np.arange(4.0), requires_grad=True)
            w = Tensor(np.ones(4), requires_grad=True)
            # Two contributions into w force the accumulation buffer path.
            ((x * w).tanh() + w * 0.5).sum().backward()
            return x.grad, w.grad
        g1 = run()
        g2 = run()
        for a, b in zip(g1, g2):
            assert a is not b
            assert np.array_equal(a, b)
        g1[0][...] = -1.0  # mutating run 1's grads must not corrupt run 2's
        assert not np.array_equal(g1[0], g2[0])


class TestFunctionalGrad:
    def test_grad_allow_unused(self):
        x = Tensor(np.arange(3.0), requires_grad=True)
        z = Tensor(np.arange(3.0), requires_grad=True)
        y = (x * x).sum()
        gx, gz = nn.grad(y, (x, z), allow_unused=True)
        assert gz is None
        np.testing.assert_allclose(gx.data, 2 * np.arange(3.0))

    def test_grad_does_not_touch_grad_buffers(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        h = x.sigmoid()
        nn.grad((h * h).sum(), [x])
        assert x.grad is None and h.grad is None

    def test_grad_of_intermediate_target(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4,)),
                   requires_grad=True)
        h = x.tanh()
        y = (h * h).sum()
        gh, gx = nn.grad(y, (h, x), retain_graph=True)
        assert np.array_equal(gh.data, 2.0 * h.data)
        y.backward()
        assert np.array_equal(gx.data, x.grad)

    def test_grad_compiles_no_plan(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        nn.grad((x.tanh() * x).sum(), [x])
        assert G.plan_cache_stats() == {"hits": 0, "misses": 0, "size": 0}


class TestHybridEquivalence:
    def test_scalable_qae_train_step_bitwise(self):
        from repro.models import ScalableQuantumAE

        def build(rng):
            model = ScalableQuantumAE(
                input_dim=16, n_patches=2, n_layers=1,
                rng=np.random.default_rng(7),
            )
            x = Tensor(rng.normal(size=(3, 16)), requires_grad=True)
            loss = mse_loss(model(x).reconstruction, x)
            loss.backward()
            return [p.grad for p in model.parameters()] + [x.grad]

        assert_bitwise(*both_modes(build))

    def test_quantum_layer_bitwise(self):
        from repro.qnn import QuantumLayer
        from repro.quantum.circuit import Circuit

        def build(rng):
            circuit = Circuit(3)
            circuit.amplitude_embedding(8)
            circuit.strongly_entangling_layers(1)
            circuit.measure_expval()
            layer = QuantumLayer(circuit, rng=np.random.default_rng(5))
            x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
            (layer(x) ** 2).sum().backward()
            return [p.grad for p in layer.parameters()] + [x.grad]

        assert_bitwise(*both_modes(build))


class TestPlanCache:
    def _step(self, n=4, *, freeze=False, branch=False):
        x = Tensor(np.arange(float(n)), requires_grad=True)
        w = Tensor(np.ones(n), requires_grad=True)
        if freeze:
            w.requires_grad = False
        if branch:
            with no_grad():
                h = x * 2.0
            y = (h * w).tanh().sum()
        else:
            y = (x * w).tanh().sum()
        y.backward()

    def test_steps_2_plus_hit_the_cache(self):
        self._step()
        first = G.plan_cache_stats()
        for _ in range(5):
            self._step()
        after = G.plan_cache_stats()
        assert first["misses"] == 1 and first["hits"] == 0
        assert after["misses"] == 1  # never re-lowered
        assert after["hits"] == 5
        assert after["size"] == 1

    def test_shape_change_recompiles(self):
        self._step(4)
        self._step(5)
        stats = G.plan_cache_stats()
        assert stats["misses"] == 2 and stats["size"] == 2

    def test_dtype_policy_change_recompiles(self):
        def once():
            x = Tensor(np.arange(4.0, dtype=np.float32), requires_grad=True)
            (x * x).sum().backward()

        with use_precision("float32"):
            once()
        with use_precision("mixed32"):
            once()  # same array dtypes, different grad accumulation
        stats = G.plan_cache_stats()
        assert stats["misses"] == 2

    def test_requires_grad_flip_recompiles(self):
        self._step()
        self._step(freeze=True)
        stats = G.plan_cache_stats()
        assert stats["misses"] == 2

    def test_no_grad_branch_recompiles(self):
        self._step()
        self._step(branch=True)
        self._step(branch=True)
        stats = G.plan_cache_stats()
        assert stats["misses"] == 2 and stats["hits"] == 1

    def test_clear_plan_cache(self):
        self._step()
        G.clear_plan_cache()
        stats = G.plan_cache_stats()
        assert stats == {"hits": 0, "misses": 0, "size": 0}

    def test_backward_compiles_whatever_the_environment_says(self):
        # REPRO_TAPE_COMPILE once switched the plan off; a fresh
        # interpreter that still sets it must compile anyway.
        env = dict(os.environ, REPRO_TAPE_COMPILE="0", PYTHONPATH=str(SRC))
        code = (
            "import numpy as np\n"
            "from repro.nn import Tensor, plan_cache_stats\n"
            "x = Tensor(np.arange(3.0), requires_grad=True)\n"
            "(x * x).sum().backward()\n"
            "print(plan_cache_stats()['misses'])\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        ).stdout
        assert out.strip() == "1"


class TestZeroGradSetToNone:
    def _params(self):
        p = Tensor(np.arange(3.0), requires_grad=True)
        (p * p).sum().backward()
        return p

    def test_default_sets_none(self):
        p = self._params()
        SGD([p], lr=0.1).zero_grad()
        assert p.grad is None

    def test_set_to_none_false_zeroes_in_place(self):
        p = self._params()
        buf = p.grad
        SGD([p], lr=0.1).zero_grad(set_to_none=False)
        assert p.grad is buf
        assert np.array_equal(buf, np.zeros(3))

    def test_set_to_none_false_with_no_grad_is_noop(self):
        p = Tensor(np.arange(3.0), requires_grad=True)
        SGD([p], lr=0.1).zero_grad(set_to_none=False)
        assert p.grad is None

    def test_training_equivalence_across_modes(self):
        """A short SGD loop lands on identical parameters either way."""

        def train(reference):
            rng = np.random.default_rng(3)
            w = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            x = Tensor(rng.normal(size=(8, 4)))
            opt = SGD([w], lr=0.05)
            with reference_walk() if reference else nullcontext():
                for _ in range(5):
                    opt.zero_grad(set_to_none=True)
                    ((x @ w).tanh() ** 2).sum().backward()
                    opt.step()
            return w.data.copy()

        assert np.array_equal(train(True), train(False))


class TestViewFreshnessInheritance:
    """Transpose/reshape/astype VJPs return views of the incoming
    cotangent; the plan forwards the *incoming* ownership through them
    instead of pessimistically treating every view as alias."""

    @pytest.mark.parametrize(
        "fn",
        [
            lambda x: (x.T * 2.0).tanh().sum(),
            lambda x: (x.reshape(20) * 1.5).sigmoid().sum(),
            lambda x: (x.T.reshape(20).reshape(5, 4).T * 0.7).sum(),
            lambda x: (x.astype("float64") * 3.0).tanh().sum(),
        ],
        ids=["transpose", "reshape", "transpose_reshape_mix", "astype"],
    )
    def test_view_chains_bitwise(self, fn):
        def build(rng):
            x = Tensor(
                rng.normal(size=(4, 5)).astype(np.float32),
                requires_grad=True,
            )
            fn(x).backward()
            return [x.grad]

        assert_bitwise(*both_modes(build))

    def test_same_base_consumed_through_two_views(self):
        """Two view edges off one tensor must not double-claim a mutable
        cotangent buffer."""

        def build(rng):
            x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
            ((x.T * 2.0).tanh() + (x.reshape(16).sigmoid()
                                   .reshape(4, 4))).sum().backward()
            return [x.grad]

        assert_bitwise(*both_modes(build))

    def test_view_into_scratch_accumulation(self):
        """A view cotangent that lands on a multi-contribution slot goes
        through scratch accumulation without corrupting either source."""

        def build(rng):
            x = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
            y = (x * 1.3).tanh()
            (y.T.sum() + (y * y).sum()).backward()
            return [x.grad]

        assert_bitwise(*both_modes(build))


class TestMatmulOutEdges:
    """2-d matmul VJPs write into plan-owned edge buffers; the GEMM and
    the gradients must stay bit-identical, and reused buffers must never
    leak values between walks."""

    def _mlp_grads(self, rng, dtype=np.float64):
        x = Tensor(rng.normal(size=(6, 8)).astype(dtype))
        w1 = Tensor(
            rng.normal(size=(8, 10)).astype(dtype), requires_grad=True
        )
        w2 = Tensor(
            rng.normal(size=(10, 4)).astype(dtype), requires_grad=True
        )
        ((x @ w1).tanh() @ w2).sum().backward()
        return [w1.grad, w2.grad]

    def test_two_layer_mlp_bitwise(self):
        assert_bitwise(*both_modes(lambda rng: self._mlp_grads(rng)))

    def test_float32_mlp_bitwise(self):
        assert_bitwise(
            *both_modes(lambda rng: self._mlp_grads(rng, np.float32))
        )

    def test_mixed_dtype_matmul_falls_back_bitwise(self):
        """f32 @ f64 promotes: the natural GEMM dtype differs from one
        target's accumulation dtype, so lowering must skip the out= form
        there and stay bit-identical."""

        def build(rng):
            a = Tensor(
                rng.normal(size=(5, 6)).astype(np.float32),
                requires_grad=True,
            )
            b = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
            (a @ b).tanh().sum().backward()
            return [a.grad, b.grad]

        assert_bitwise(*both_modes(build))

    def test_edge_buffers_reused_not_stale(self):
        """Same plan, three walks with different data: each walk's
        gradients must match a fresh uncompiled walk (a stale edge buffer
        would poison walks 2+), and the plan must allocate its edge
        buffers exactly once."""
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(size=(6, 8)))
        w1 = Tensor(rng.normal(size=(8, 10)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(10, 4)), requires_grad=True)

        def loss():
            return ((x @ w1).tanh() @ w2).sum()

        buf_ids = None
        for _ in range(3):
            w1.grad = w2.grad = None
            loss().backward()
            got = [w1.grad.copy(), w2.grad.copy()]
            with reference_walk():
                w1.grad = w2.grad = None
                loss().backward()
            assert_bitwise([w1.grad, w2.grad], got)
            (plan,) = G._PLAN_CACHE.values()
            assert plan._edge_bufs, "expected matmul out= edges"
            ids = {k: id(v) for k, v in plan._edge_bufs.items()}
            assert buf_ids is None or ids == buf_ids
            buf_ids = ids
            w1.data += 0.1  # new values, same structure
            x.data *= 1.01

    def test_grad_results_untouched_by_edge_buffers(self):
        """Functional grad() results are user-visible; they must be
        fresh arrays, not plan scratch that a later walk overwrites."""
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(6, 8)))
        w = Tensor(rng.normal(size=(8, 4)), requires_grad=True)
        h = (x @ w).tanh()

        (g1,) = nn.grad((h * h).sum(), [w])
        keep = g1.data.copy()
        for _ in range(2):
            h2 = (x @ w).tanh()
            nn.grad((h2 * h2).sum(), [w])
            (h2 * h2).sum().backward()
        assert np.array_equal(g1.data, keep)


class TestKernelTempBuffers:
    """tanh/sigmoid/pow_const kernels stage their intermediate in a
    plan-owned temp; results must be bit-identical and stable across
    reuse."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_staged_kernels_bitwise(self, dtype):
        def build(rng):
            x = Tensor(
                (rng.random(size=(8, 9)) + 0.5).astype(dtype),
                requires_grad=True,
            )
            h = x
            for _ in range(4):
                h = (h.tanh() * 1.1).sigmoid() ** 2.5
            h.sum().backward()
            return [x.grad]

        assert_bitwise(*both_modes(build))

    def test_temp_reuse_across_walks_not_stale(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(7, 7)), requires_grad=True)

        def loss():
            return ((x * 0.9).tanh().sigmoid() ** 3).sum()

        for _ in range(3):
            x.grad = None
            loss().backward()
            got = [x.grad.copy()]
            with reference_walk():
                x.grad = None
                loss().backward()
            assert_bitwise([x.grad], got)
            plans = list(G._PLAN_CACHE.values())
            assert any(p._tmp_bufs for p in plans), (
                "expected a staged kernel temp buffer"
            )
            x.data = rng.normal(size=(7, 7))
