"""Randomized differential harness: compiled vs naive vs stacked engines.

The unification of the per-instance adjoint with the stacked substrate is
guarded here: for ≥50 seeded random circuits (drawn from the shared
``random_circuit`` fixture, spanning widths 1-4, all three gates, both
embeddings, both measurements, and re-uploaded inputs) the three execution
paths must agree on forward outputs *and* adjoint gradients —

* at float64, to near machine precision (the naive interpreter is an
  independent implementation);
* at float32/complex64, within calibrated single-precision tolerances;
* with plain ``==`` between ``execute``/``backward`` and a ``p = 1`` stack
  at both precisions, because the former is the latter's call.

Dedicated seed bands pin the two geometries most likely to regress:
1-qubit circuits (no two-qubit lowering, ``left == right == 1`` kernels)
and adjacent-wire-heavy bodies (maximal 4x4 kron pair merging).  A sparse
cross-check against the parameter-shift rule anchors the whole harness to
physics rather than to a shared bug.
"""

import numpy as np
import pytest

from repro.quantum import (
    backward,
    backward_stacked,
    execute,
    execute_stacked,
    naive_backward,
    naive_execute,
)

# Single-precision tolerances, calibrated as in test_engine_precision.py:
# outputs are bounded and the random bodies apply at most ~25 complex64
# gates, so forward error sits near 1e-6 and gradient error near 1e-5;
# the bounds leave an order of magnitude of headroom.
F32_FWD_ATOL = 1e-5
F32_GRAD_ATOL = 1e-3

N_SEEDS = 60


def _case_for_seed(seed, random_circuit):
    """Deterministically derive a circuit + data from one seed.

    Seed bands force the edge-case geometries: every 5th case is 1-qubit,
    every 5th (offset 1) is adjacent-wire-heavy on 3-4 wires.
    """
    rng = np.random.default_rng(10_000 + seed)
    if seed % 5 == 0:
        n_wires = 1
        adjacent = False
    elif seed % 5 == 1:
        n_wires = int(rng.integers(3, 5))
        adjacent = True
    else:
        n_wires = int(rng.integers(2, 5))
        adjacent = False
    n_ops = int(rng.integers(1, 26))
    embedding = ["none", "amplitude", "angle"][seed % 3]
    measurement = "expval" if seed % 2 else "probs"
    reupload = seed % 4 == 2
    circuit = random_circuit(
        rng, n_wires, n_ops, embedding, measurement,
        reupload=reupload, adjacent=adjacent,
    )
    batch = int(rng.integers(1, 4))
    weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
    inputs = (
        rng.uniform(0.1, 2.0, size=(batch, circuit.n_inputs))
        if circuit.n_inputs
        else None
    )
    return circuit, inputs, weights, batch, rng


class TestDifferentialRandomCircuits:
    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_engines_agree_across_precisions(self, seed, random_circuit):
        circuit, inputs, weights, batch, rng = _case_for_seed(
            seed, random_circuit
        )
        p = 1 + seed % 2  # alternate degenerate and true stacks

        def stack_agrees(stacked, single):
            # A p = 1 stack is the very call execute/backward make.
            if p == 1:
                np.testing.assert_array_equal(stacked, single)
            else:
                np.testing.assert_allclose(stacked, single, atol=1e-10)

        # --- float64: near machine-precision agreement -------------------
        out_c, cache_c = execute(circuit, inputs, weights)
        out_n, cache_n = naive_execute(circuit, inputs, weights)
        stacked_inputs = (
            None if inputs is None else np.broadcast_to(
                inputs, (p,) + inputs.shape
            ).copy()
        )
        out_s, cache_s = execute_stacked(
            circuit, stacked_inputs, np.tile(weights, (p, 1))
        )
        np.testing.assert_allclose(out_c, out_n, atol=1e-10)
        for k in range(p):
            stack_agrees(out_s[k], out_c)

        grad_outputs = rng.normal(size=out_c.shape)
        gi_c, gw_c = backward(cache_c, grad_outputs)
        gi_n, gw_n = naive_backward(cache_n, grad_outputs)
        gi_s, gw_s = backward_stacked(
            cache_s, np.broadcast_to(grad_outputs, (p,) + grad_outputs.shape)
        )
        np.testing.assert_allclose(gw_c, gw_n, atol=1e-10)
        for k in range(p):
            stack_agrees(gw_s[k], gw_c)
        if gi_n is None:
            assert gi_c is None and gi_s is None
        else:
            np.testing.assert_allclose(gi_c, gi_n, atol=1e-10)
            for k in range(p):
                stack_agrees(gi_s[k], gi_c)

        # --- float32: relaxed single-precision agreement -----------------
        out32_c, cache32_c = execute(circuit, inputs, weights, dtype="float32")
        out32_n, cache32_n = naive_execute(
            circuit, inputs, weights, dtype="float32"
        )
        out32_s, cache32_s = execute_stacked(
            circuit, stacked_inputs, np.tile(weights, (p, 1)), dtype="float32"
        )
        assert out32_c.dtype == np.float32
        np.testing.assert_allclose(out32_c, out_c, atol=F32_FWD_ATOL)
        np.testing.assert_allclose(out32_n, out_c, atol=F32_FWD_ATOL)
        np.testing.assert_allclose(out32_s[0], out_c, atol=F32_FWD_ATOL)
        if p == 1:
            np.testing.assert_array_equal(out32_s[0], out32_c)

        gi32_c, gw32_c = backward(cache32_c, grad_outputs)
        gi32_n, gw32_n = naive_backward(cache32_n, grad_outputs)
        gi32_s, gw32_s = backward_stacked(
            cache32_s, np.broadcast_to(grad_outputs, (p,) + grad_outputs.shape)
        )
        np.testing.assert_allclose(gw32_c, gw_c, atol=F32_GRAD_ATOL)
        np.testing.assert_allclose(gw32_n, gw_c, atol=F32_GRAD_ATOL)
        np.testing.assert_allclose(gw32_s[0], gw_c, atol=F32_GRAD_ATOL)
        if p == 1:
            np.testing.assert_array_equal(gw32_s[0], gw32_c)
        if gi_c is not None:
            np.testing.assert_allclose(gi32_c, gi_c, atol=F32_GRAD_ATOL)
            np.testing.assert_allclose(gi32_n, gi_c, atol=F32_GRAD_ATOL)
            np.testing.assert_allclose(gi32_s[0], gi_c, atol=F32_GRAD_ATOL)
            if p == 1:
                np.testing.assert_array_equal(gi32_s[0], gi32_c)

    @pytest.mark.parametrize("seed", range(0, N_SEEDS, 6))
    def test_sparse_parameter_shift_anchor(
        self, seed, random_circuit, gradcheck_shift
    ):
        # Anchor the differential harness to the shift rule so a bug shared
        # by all three adjoint implementations cannot hide.
        circuit, inputs, weights, __, rng = _case_for_seed(
            seed, random_circuit
        )
        out, cache = execute(circuit, inputs, weights)
        grad_outputs = rng.normal(size=out.shape)
        __, gw = backward(cache, grad_outputs)
        gradcheck_shift(circuit, inputs, weights, grad_outputs, gw)


class TestEngineParity:
    """The compiled and stacked engines must agree with the naive reference
    on the full randomized suite, to float64 tolerance, with every stack a
    true stack of 2 or 3 instances."""

    @pytest.mark.parametrize("seed", range(N_SEEDS))
    def test_compiled_and_stacked_match_naive_reference(
        self, seed, random_circuit
    ):
        circuit, inputs, weights, batch, rng = _case_for_seed(
            seed, random_circuit
        )
        p = 2 + seed % 2  # always a true stack (2 or 3 instances)

        out_n, cache_n = naive_execute(circuit, inputs, weights)
        grad_outputs = rng.normal(size=out_n.shape)
        gi_n, gw_n = naive_backward(cache_n, grad_outputs)

        out_c, cache_c = execute(circuit, inputs, weights)
        np.testing.assert_allclose(out_c, out_n, atol=1e-10)
        gi_c, gw_c = backward(cache_c, grad_outputs)
        np.testing.assert_allclose(gw_c, gw_n, atol=1e-10)

        stacked_inputs = (
            None if inputs is None else np.broadcast_to(
                inputs, (p,) + inputs.shape
            ).copy()
        )
        out_s, cache_s = execute_stacked(
            circuit, stacked_inputs, np.tile(weights, (p, 1))
        )
        gi_s, gw_s = backward_stacked(
            cache_s, np.broadcast_to(grad_outputs, (p,) + grad_outputs.shape)
        )
        for k in range(p):
            np.testing.assert_allclose(out_s[k], out_n, atol=1e-10)
            np.testing.assert_allclose(gw_s[k], gw_n, atol=1e-10)
        if gi_n is None:
            assert gi_c is None and gi_s is None
        else:
            np.testing.assert_allclose(gi_c, gi_n, atol=1e-10)
            for k in range(p):
                np.testing.assert_allclose(gi_s[k], gi_n, atol=1e-10)


class TestCotangentValidation:
    """Malformed cotangents must fail loudly at the backward entry point,
    naming the offending shape/dtype — not deep inside a kernel."""

    def _cached(self, dtype=None):
        from repro.quantum import Circuit

        rng = np.random.default_rng(0)
        circuit = (
            Circuit(2).amplitude_embedding(4).strongly_entangling_layers(1)
            .measure_expval()
        )
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        inputs = rng.uniform(0.1, 1.0, size=(3, 4))
        out, cache = execute(circuit, inputs, weights, dtype=dtype)
        return circuit, inputs, weights, out, cache

    def test_backward_rejects_wrong_shape(self):
        __, ___, ____, out, cache = self._cached()
        bad = np.ones((out.shape[0] + 1, out.shape[1]))
        with pytest.raises(ValueError, match=r"\(4, 2\).*\(3, 2\)"):
            backward(cache, bad)

    def test_backward_rejects_transposed_cotangent(self):
        __, ___, ____, out, cache = self._cached()
        with pytest.raises(ValueError, match="does not match"):
            backward(cache, np.ones(out.T.shape))

    def test_backward_rejects_complex_cotangent(self):
        __, ___, ____, out, cache = self._cached(dtype="float32")
        with pytest.raises(ValueError, match="complex64"):
            backward(cache, np.ones(out.shape, dtype=np.complex64))

    def test_naive_backward_rejects_wrong_shape(self):
        from repro.quantum import Circuit

        rng = np.random.default_rng(1)
        circuit = Circuit(2).strongly_entangling_layers(1).measure_expval()
        weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
        out, cache = naive_execute(circuit, None, weights)
        with pytest.raises(ValueError, match="does not match"):
            naive_backward(cache, np.ones((5, 2)))

    def test_backward_stacked_rejects_wrong_shape(self):
        from repro.quantum import Circuit

        rng = np.random.default_rng(2)
        circuit = (
            Circuit(2).amplitude_embedding(4).strongly_entangling_layers(1)
            .measure_expval()
        )
        weights = rng.uniform(-np.pi, np.pi, (2, circuit.n_weights))
        inputs = rng.uniform(0.1, 1.0, size=(2, 3, 4))
        out, cache = execute_stacked(circuit, inputs, weights)
        # A flat (p * batch, output_dim) cotangent silently reshaped before
        # the fix; it must now be rejected against (p, batch, output_dim).
        with pytest.raises(ValueError, match=r"\(6, 2\).*\(2, 3, 2\)"):
            backward_stacked(cache, np.ones((6, 2)))

    def test_backward_stacked_rejects_complex_cotangent(self):
        from repro.quantum import Circuit

        rng = np.random.default_rng(3)
        circuit = (
            Circuit(2).amplitude_embedding(4).strongly_entangling_layers(1)
            .measure_expval()
        )
        weights = rng.uniform(-np.pi, np.pi, (2, circuit.n_weights))
        inputs = rng.uniform(0.1, 1.0, size=(2, 3, 4))
        out, cache = execute_stacked(circuit, inputs, weights)
        with pytest.raises(ValueError, match="must be real"):
            backward_stacked(cache, np.ones(out.shape, dtype=np.complex128))

    def test_valid_cotangent_still_accepted(self):
        __, ___, ____, out, cache = self._cached()
        gi, gw = backward(cache, np.ones(out.shape))
        assert gw.shape == (cache.circuit.n_weights,)
        assert gi.shape == (3, 4)
