"""Property tests for the compiled execution engine.

A single circuit runs the stacked plan at ``p = 1`` (fused runs,
adjacent-wire 4x4 kron pairs, composed CNOT gathers, checkpointed
transition-matrix backward), and it must be *indistinguishable* from the
naive op-by-op interpreter: identical forward outputs and identical
adjoint gradients, to near machine precision, across randomized circuits
covering every gate (RY, RZ, CNOT), both embeddings, both measurement
kinds, and both shared and per-sample (batched) gate parameters.  Every
model's circuits lower to the same two instruction kinds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.quantum import (
    Circuit,
    Operation,
    StackedExecutionCache,
    StackedPlan,
    backward,
    compile_stacked,
    execute,
    naive_backward,
    naive_execute,
    stacked_plan,
)
from repro.models import build_model
from repro.qnn import QuantumLayer
from repro.quantum.engine import _SDense, _SPermutation


def _compare(circuit, inputs, weights, rng, atol=1e-10):
    out_c, cache_c = execute(circuit, inputs, weights)
    out_n, cache_n = naive_execute(circuit, inputs, weights)
    np.testing.assert_allclose(out_c, out_n, atol=atol)
    grad_outputs = rng.normal(size=out_c.shape)
    gi_c, gw_c = backward(cache_c, grad_outputs)
    gi_n, gw_n = naive_backward(cache_n, grad_outputs)
    np.testing.assert_allclose(gw_c, gw_n, atol=atol)
    if gi_n is None:
        assert gi_c is None
    else:
        np.testing.assert_allclose(gi_c, gi_n, atol=atol)
    return grad_outputs, gw_c


class TestCompiledMatchesNaive:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        n_wires=st.integers(min_value=1, max_value=4),
        n_ops=st.integers(min_value=0, max_value=25),
        embedding=st.sampled_from(["none", "amplitude", "angle"]),
        measurement=st.sampled_from(["expval", "probs"]),
        batch=st.integers(min_value=1, max_value=4),
        reupload=st.booleans(),
    )
    def test_random_circuits(
        self, random_circuit, seed, n_wires, n_ops, embedding, measurement,
        batch, reupload
    ):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(
            rng, n_wires, n_ops, embedding, measurement, reupload
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        if circuit.n_inputs:
            inputs = rng.uniform(0.1, 2.0, size=(batch, circuit.n_inputs))
        else:
            inputs = None
        _compare(circuit, inputs, weights, rng)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        n_wires=st.integers(min_value=2, max_value=4),
        n_layers=st.integers(min_value=1, max_value=3),
    )
    def test_sel_circuits_match_parameter_shift(
        self, gradcheck_shift, seed, n_wires, n_layers
    ):
        rng = np.random.default_rng(seed)
        circuit = (
            Circuit(n_wires)
            .amplitude_embedding(2**n_wires)
            .strongly_entangling_layers(n_layers)
            .measure_expval()
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = rng.uniform(0.1, 2.0, size=(3, 2**n_wires))
        grad_outputs, gw_c = _compare(circuit, inputs, weights, rng)
        gradcheck_shift(circuit, inputs, weights, grad_outputs, gw_c)

    def test_every_specialized_kernel(self):
        """One circuit hitting every lowering rule, batched and unbatched."""
        rng = np.random.default_rng(12)
        circuit = Circuit(3).angle_embedding(1)
        circuit.rz(0)            # lone RZ -> dense block
        circuit.ry(2)            # lone RY on the far wire
        circuit.ry(1).rz(1)      # fused run, merged with wire 0 into a pair
        circuit.rot(1)           # fused Rot triple
        circuit.cnot(0, 2)       # gather ...
        circuit.cnot(2, 1)       # ... composed with the next CNOT
        circuit.ops.append(Operation("RZ", (2,), ("input", 0)))
        circuit.ry(2)            # input-bound run: per-row matrices
        circuit.measure_probs()
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        _compare(circuit, rng.uniform(-1, 1, size=(3, 1)), weights, rng)

    def test_zero_fallback_rows_match(self):
        rng = np.random.default_rng(13)
        circuit = (
            Circuit(2)
            .amplitude_embedding(4, zero_fallback=True)
            .strongly_entangling_layers(2)
            .measure_expval()
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = rng.uniform(0.1, 1.0, size=(3, 4))
        inputs[1] = 0.0  # a zero row exercises the fallback gradient mask
        _compare(circuit, inputs, weights, rng)


class TestPlanLowering:
    def test_sel_rot_triples_fuse_into_pair_blocks(self):
        circuit = Circuit(4).strongly_entangling_layers(2).measure_expval()
        plan = compile_stacked(circuit)
        dense = [i for i in plan.instructions if isinstance(i, _SDense)]
        perms = [i for i in plan.instructions if isinstance(i, _SPermutation)]
        # 2 layers x 4 wires: each layer's Rot triples merge into two 4x4
        # kron pair blocks, and each CNOT ring composes into one gather.
        assert len(dense) == 4
        assert all(i.d == 4 for i in dense)
        assert all(len(slot[0]) == 3 for i in dense for slot in i.slots)
        assert len(perms) == 2
        assert plan.n_instructions == 6 < len(circuit.ops) == 32
        # All Rot runs share one signature -> one bulk-bound static group.
        assert len(plan.groups) == 1
        assert plan.groups[0].count == 8

    def test_commuting_gates_fuse_across_other_wires(self):
        # RY(0), CNOT(1,2), RY(0): the CNOT does not touch wire 0, so the
        # two RYs fuse into a single run.
        circuit = Circuit(3).ry(0).cnot(1, 2).ry(0).measure_expval()
        plan = compile_stacked(circuit)
        dense = [i for i in plan.instructions if isinstance(i, _SDense)]
        assert len(dense) == 1
        assert len(dense[0].slots[0][0]) == 2

    def test_two_qubit_gate_breaks_runs_on_its_wires(self):
        circuit = Circuit(2).ry(0).cnot(0, 1).ry(0).measure_expval()
        plan = compile_stacked(circuit)
        dense = [i for i in plan.instructions if isinstance(i, _SDense)]
        assert len(dense) == 2

    def test_lone_rotations_and_cnots_lower_to_the_two_kinds(self):
        circuit = Circuit(3).rz(0).ry(2).cnot(0, 1).cnot(1, 2).measure_probs()
        plan = compile_stacked(circuit)
        # A lone rotation is a one-member dense block, and the two CNOTs
        # compose into a single gather.
        kinds = [type(i).__name__ for i in plan.instructions]
        assert kinds == ["_SDense", "_SDense", "_SPermutation"]
        assert [len(i.slots[0][0]) for i in plan.instructions[:2]] == [1, 1]

    def test_bad_wires_rejected_at_compile(self):
        circuit = Circuit(2).ry(1).measure_expval()
        circuit.ops.append(Operation("CNOT", (0, 5)))
        with pytest.raises(ValueError):
            execute(circuit, None, np.zeros(1))
        circuit.ops[-1] = Operation("CNOT", (1, 1))
        with pytest.raises(ValueError):
            execute(circuit, None, np.zeros(1))


# Dense blocks and CNOT gathers over the plans of each quantum model's
# circuits (every patch counted) at the CLI's default depths, for 64 and
# 1,024 input features.
MODEL_PLANS = {
    "f-bq-ae": {64: (18, 6), 1024: (30, 6)},
    "f-bq-vae": {64: (18, 6), 1024: (30, 6)},
    "h-bq-ae": {64: (18, 6), 1024: (30, 6)},
    "h-bq-vae": {64: (18, 6), 1024: (30, 6)},
    "sq-ae": {64: (80, 40), 1024: (160, 40)},
    "sq-vae": {64: (80, 40), 1024: (160, 40)},
}


class TestModelPlans:
    """Every model's circuits compile to dense blocks and CNOT gathers."""

    @pytest.mark.parametrize("features", [64, 1024])
    @pytest.mark.parametrize("name", sorted(MODEL_PLANS))
    def test_plans_hold_only_dense_blocks_and_gathers(self, name, features):
        n_layers = 5 if name.startswith("sq") else 3
        model = build_model(name, input_dim=features, n_patches=4,
                            n_layers=n_layers, latent_dim=6, seed=0)
        # Each QuantumLayer once: a patched layer holds the same circuit as
        # its patches, so counting every module with a ``circuit`` would
        # count each patched circuit one extra time.
        instructions = [
            instr
            for module in model.modules() if isinstance(module, QuantumLayer)
            for instr in stacked_plan(module.circuit).instructions
        ]
        kinds = {type(instr) for instr in instructions}
        assert kinds == {_SDense, _SPermutation}
        dense = sum(isinstance(i, _SDense) for i in instructions)
        assert (dense, len(instructions) - dense) == MODEL_PLANS[name][features]


class TestUnifiedSubstrate:
    """A single circuit IS the stacked substrate at p = 1."""

    def test_execute_runs_the_stacked_plan(self):
        circuit = Circuit(3).strongly_entangling_layers(2).measure_expval()
        weights = np.linspace(-1, 1, circuit.n_weights)
        __, cache = execute(circuit, None, weights)
        assert isinstance(cache, StackedExecutionCache)
        assert cache.n_patches == 1
        assert isinstance(cache.plan, StackedPlan)
        assert cache.plan is stacked_plan(circuit)

    def test_backward_rejects_a_naive_cache(self):
        circuit = Circuit(2).strongly_entangling_layers(1).measure_expval()
        weights = np.linspace(-1, 1, circuit.n_weights)
        out, cache = naive_execute(circuit, None, weights)
        with pytest.raises(ValueError, match="naive_backward"):
            backward(cache, np.ones(out.shape))
        __, cache = execute(circuit, None, weights)
        with pytest.raises(ValueError, match="naive_execute"):
            naive_backward(cache, np.ones(out.shape))

    @pytest.mark.parametrize("embedding", ["amplitude", "angle"])
    def test_wide_inputs_read_the_leading_columns(self, embedding):
        rng = np.random.default_rng(32)
        circuit = Circuit(2)
        if embedding == "amplitude":
            circuit.amplitude_embedding(4)
        else:
            circuit.angle_embedding(2)
        circuit.strongly_entangling_layers(1).measure_expval()
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = rng.uniform(0.1, 1.0, size=(3, circuit.n_inputs))
        wide = np.concatenate([inputs, rng.normal(size=(3, 5))], axis=1)
        out, cache = execute(circuit, inputs, weights)
        out_w, cache_w = execute(circuit, wide, weights)
        np.testing.assert_array_equal(out_w, out)
        grad_outputs = rng.normal(size=out.shape)
        gi, gw = backward(cache, grad_outputs)
        gi_w, gw_w = backward(cache_w, grad_outputs)
        np.testing.assert_array_equal(gw_w, gw)
        np.testing.assert_array_equal(gi_w, gi)
        assert gi_w.shape == (3, circuit.n_inputs)

    def test_single_circuit_equals_p1_stack(self):
        from repro.quantum import backward_stacked, execute_stacked

        rng = np.random.default_rng(31)
        circuit = (
            Circuit(3)
            .amplitude_embedding(8)
            .strongly_entangling_layers(2)
            .measure_expval()
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = rng.uniform(0.1, 1.0, size=(4, 8))
        out_c, cache_c = execute(circuit, inputs, weights)
        out_s, cache_s = execute_stacked(circuit, inputs[None], weights[None])
        np.testing.assert_array_equal(out_c, out_s[0])
        grad_outputs = rng.normal(size=out_c.shape)
        gi_c, gw_c = backward(cache_c, grad_outputs)
        gi_s, gw_s = backward_stacked(cache_s, grad_outputs[None])
        np.testing.assert_array_equal(gw_c, gw_s[0])
        np.testing.assert_array_equal(gi_c, gi_s[0])


class TestPlanCaching:
    def test_plan_cached_on_circuit(self):
        circuit = Circuit(3).strongly_entangling_layers(1).measure_expval()
        assert stacked_plan(circuit) is stacked_plan(circuit)

    def test_mutation_invalidates_plan(self):
        circuit = Circuit(3).strongly_entangling_layers(1).measure_expval()
        plan = stacked_plan(circuit)
        circuit.ry(0)
        new_plan = stacked_plan(circuit)
        assert new_plan is not plan
        assert new_plan.n_instructions != plan.n_instructions

    def test_identical_structures_share_a_plan(self):
        def make():
            return Circuit(3).strongly_entangling_layers(2).measure_expval()

        assert stacked_plan(make()) is stacked_plan(make())

    def test_execute_reuses_plan(self):
        circuit = Circuit(2).strongly_entangling_layers(1).measure_expval()
        weights = np.linspace(-1, 1, circuit.n_weights)
        execute(circuit, None, weights, want_cache=False)
        plan = circuit._stacked_plan
        execute(circuit, None, weights, want_cache=False)
        assert circuit._stacked_plan is plan


class TestCacheCarriesEmbedding:
    def test_embedded_state_and_norms_cached(self):
        rng = np.random.default_rng(21)
        circuit = (
            Circuit(3)
            .amplitude_embedding(8)
            .strongly_entangling_layers(1)
            .measure_expval()
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = rng.uniform(0.1, 1.0, size=(4, 8))
        __, cache = execute(circuit, inputs, weights)
        assert cache.embedded is not None
        assert cache.norms.shape == (4,)
        np.testing.assert_allclose(
            np.linalg.norm(cache.embedded, axis=1), np.ones(4), atol=1e-12
        )
        np.testing.assert_allclose(cache.norms, np.linalg.norm(inputs, axis=1))
        # The cached embedding must be the pristine pre-circuit state, not
        # the final state (pure applies never touch it).
        assert cache.embedded is not cache.final_state
        np.testing.assert_allclose(
            np.linalg.norm(cache.embedded, axis=1), np.ones(4), atol=1e-12
        )

    def test_backward_twice_is_deterministic(self):
        rng = np.random.default_rng(22)
        circuit = (
            Circuit(2)
            .amplitude_embedding(4)
            .strongly_entangling_layers(2)
            .measure_probs()
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = rng.uniform(0.1, 1.0, size=(2, 4))
        outputs, cache = execute(circuit, inputs, weights)
        grad_outputs = rng.normal(size=outputs.shape)
        first = backward(cache, grad_outputs)
        second = backward(cache, grad_outputs)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])
