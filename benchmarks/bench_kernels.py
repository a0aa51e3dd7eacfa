"""Micro-benchmarks for the computational kernels under every experiment.

These are proper multi-round pytest benchmarks (unlike the one-shot
experiment reproductions): statevector gate application, full circuit
execution, adjoint backward, parameter-shift (for the cost comparison the
adjoint method wins), patched-layer forward, stacked-vs-per-patch patched
forward+backward training passes, and molecule scoring.
"""

import numpy as np

from repro.chem import random_molecules, score_molecules
from repro.models import ScalableQuantumAE
from repro.nn import Adam, Linear, ReLU, Sequential, Tensor, functional as F
from repro.qnn import PatchedQuantumLayer, amplitude_encoder_circuit, patch_qubits
from repro.quantum import (
    Circuit,
    backward,
    compile_stacked,
    execute,
    gates,
    naive_backward,
    naive_execute,
    parameter_shift_gradients,
    apply_gate,
    zero_state,
)


def bench_apply_single_qubit_gate_10q(benchmark):
    """One RY on a batch of 32 ten-qubit states (the SQ encoder regime)."""
    state = zero_state(10, batch=32)
    gate = gates.ry(0.3)
    result = benchmark(lambda: apply_gate(state, gate, (4,)))
    assert result.shape == (32, 1024)


def bench_apply_cnot_10q(benchmark):
    state = zero_state(10, batch=32)
    result = benchmark(lambda: apply_gate(state, gates.CNOT, (3, 7)))
    assert result.shape == (32, 1024)


def _sel_circuit(n_wires=8, layers=5):
    return (
        Circuit(n_wires)
        .amplitude_embedding(2**n_wires, zero_fallback=True)
        .strongly_entangling_layers(layers)
        .measure_expval()
    )


def bench_circuit_forward_8q_5layers(benchmark):
    """Forward pass of one SQ encoder patch (8 qubits, 5 SEL layers)."""
    circuit = _sel_circuit()
    rng = np.random.default_rng(0)
    weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
    inputs = np.abs(rng.normal(size=(32, 256))) + 0.01
    out, __ = benchmark(lambda: execute(circuit, inputs, weights, want_cache=False))
    assert out.shape == (32, 8)


def bench_circuit_forward_8q_5layers_naive(benchmark):
    """The same forward pass on the op-by-op reference interpreter.

    This is the pre-compilation baseline the compiled engine's speedup is
    measured against (see ``run_kernels.py``, which records the ratio).
    """
    circuit = _sel_circuit()
    rng = np.random.default_rng(0)
    weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
    inputs = np.abs(rng.normal(size=(32, 256))) + 0.01
    out, __ = benchmark(
        lambda: naive_execute(circuit, inputs, weights, want_cache=False)
    )
    assert out.shape == (32, 8)


def bench_adjoint_backward_8q_5layers(benchmark):
    """Adjoint gradient of one SQ encoder patch (vs. parameter-shift below)."""
    circuit = _sel_circuit()
    rng = np.random.default_rng(1)
    weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
    inputs = np.abs(rng.normal(size=(32, 256))) + 0.01
    outputs, cache = execute(circuit, inputs, weights)
    grad_out = rng.normal(size=outputs.shape)
    grad_in, grad_w = benchmark(lambda: backward(cache, grad_out))
    assert grad_w.shape == (circuit.n_weights,)


def bench_adjoint_backward_8q_5layers_naive(benchmark):
    """The same adjoint gradient on the op-by-op reference interpreter."""
    circuit = _sel_circuit()
    rng = np.random.default_rng(1)
    weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
    inputs = np.abs(rng.normal(size=(32, 256))) + 0.01
    outputs, cache = naive_execute(circuit, inputs, weights)
    grad_out = rng.normal(size=outputs.shape)
    grad_in, grad_w = benchmark(lambda: naive_backward(cache, grad_out))
    assert grad_w.shape == (circuit.n_weights,)


def bench_circuit_forward_8q_5layers_c64(benchmark):
    """The compiled forward pass at float32/complex64 — the precision
    policy's half-bandwidth mode (ratio vs. the complex128 bench above is
    recorded as a ``_c64`` speedup by ``run_kernels.py``)."""
    circuit = _sel_circuit()
    rng = np.random.default_rng(0)
    weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
    inputs = np.abs(rng.normal(size=(32, 256))) + 0.01
    out, __ = benchmark(
        lambda: execute(circuit, inputs, weights, want_cache=False,
                        dtype="float32")
    )
    assert out.shape == (32, 8)
    assert out.dtype == np.float32


def bench_adjoint_backward_8q_5layers_c64(benchmark):
    """The compiled adjoint backward at float32/complex64."""
    circuit = _sel_circuit()
    rng = np.random.default_rng(1)
    weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
    inputs = np.abs(rng.normal(size=(32, 256))) + 0.01
    outputs, cache = execute(circuit, inputs, weights, dtype="float32")
    grad_out = rng.normal(size=outputs.shape)
    grad_in, grad_w = benchmark(lambda: backward(cache, grad_out))
    assert grad_w.shape == (circuit.n_weights,)


def bench_compiled_adjoint_unified(benchmark):
    """Unified adjoint of a single circuit at n=8, 3 SEL layers (Rot+ring).

    A single circuit's backward is the p=1 call of the stacked adjoint:
    checkpointed cotangent-only walk, adjacent-wire
    4x4 kron pair blocks, and one transition-matrix contraction per fused
    block instead of one generator insertion per parameter.  Its speedup
    over the per-parameter generator baseline below is gated by
    ``run_kernels.py --check``.
    """
    circuit = _sel_circuit(8, 3)
    rng = np.random.default_rng(6)
    weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
    inputs = np.abs(rng.normal(size=(32, 256))) + 0.01
    outputs, cache = execute(circuit, inputs, weights)
    grad_out = rng.normal(size=outputs.shape)
    grad_in, grad_w = benchmark(lambda: backward(cache, grad_out))
    assert grad_w.shape == (circuit.n_weights,)


def bench_compiled_adjoint_unified_naive(benchmark):
    """The same adjoint on the per-parameter generator-insertion reference
    (``naive_backward``): one full-state generator apply + inner product
    per parameter, the pre-unification gradient strategy."""
    circuit = _sel_circuit(8, 3)
    rng = np.random.default_rng(6)
    weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
    inputs = np.abs(rng.normal(size=(32, 256))) + 0.01
    outputs, cache = naive_execute(circuit, inputs, weights)
    grad_out = rng.normal(size=outputs.shape)
    grad_in, grad_w = benchmark(lambda: naive_backward(cache, grad_out))
    assert grad_w.shape == (circuit.n_weights,)


def bench_compile_plan_8q_5layers(benchmark):
    """Cold-compile cost of the SQ encoder patch plan (paid once per shape)."""
    circuit = _sel_circuit()
    plan = benchmark(lambda: compile_stacked(circuit))
    assert plan.n_instructions < len(circuit.ops)


def bench_parameter_shift_4q_2layers(benchmark):
    """Parameter-shift on a small circuit — 2 executions per parameter.

    Kept small: at the SQ encoder's size this method would need 240
    executions per batch, which is exactly why training uses the adjoint.
    """
    circuit = (
        Circuit(4)
        .amplitude_embedding(16)
        .strongly_entangling_layers(2)
        .measure_expval()
    )
    rng = np.random.default_rng(2)
    weights = rng.uniform(-np.pi, np.pi, circuit.n_weights)
    inputs = np.abs(rng.normal(size=(8, 16))) + 0.01
    grad_out = rng.normal(size=(8, 4))
    grads = benchmark(
        lambda: parameter_shift_gradients(circuit, inputs, weights, grad_out)
    )
    assert grads.shape == (circuit.n_weights,)


def bench_patched_encoder_forward_1024(benchmark):
    """Full patched encoder (p=4) on a 1024-feature batch."""
    rng = np.random.default_rng(3)
    layer = PatchedQuantumLayer(
        amplitude_encoder_circuit(8, 256, 5, zero_fallback=True),
        n_patches=4,
        rng=rng,
    )
    x = Tensor(np.abs(rng.normal(size=(32, 1024))) + 0.01)
    out = benchmark(lambda: layer(x))
    assert out.shape == (32, 32)


def _patched_encoder(n_patches, batch=32, dtype=None):
    """A paper-scale patched encoder (1024 features, 5 SEL layers) + batch."""
    rng = np.random.default_rng(5)
    qubits = patch_qubits(1024, n_patches)
    layer = PatchedQuantumLayer(
        amplitude_encoder_circuit(qubits, 1024 // n_patches, 5, zero_fallback=True),
        n_patches=n_patches,
        rng=rng,
        dtype=dtype,
    )
    x = Tensor(
        np.abs(rng.normal(size=(batch, 1024))) + 0.01,
        requires_grad=True,
        dtype=None if dtype is None else layer.precision.real,
    )
    return layer, x


def _patched_step(layer, x):
    """One forward + backward through the layer's stacked pass."""

    def step():
        layer.zero_grad()
        x.zero_grad()
        out = layer(x)
        out.sum().backward()
        return out

    return step


def _per_patch_step(layer, x):
    """The same pass as one ``QuantumLayer`` call per patch slice: the
    ``p`` engine invocations the stacked pass replaces.  Returns the
    concatenated outputs."""
    width = layer.inputs_per_patch

    def step():
        layer.zero_grad()
        x.zero_grad()
        outs = [
            patch(x[:, k * width : (k + 1) * width])
            for k, patch in enumerate(layer.patches)
        ]
        total = outs[0].sum()
        for out in outs[1:]:
            total = total + out.sum()
        total.backward()
        return np.concatenate([out.data for out in outs], axis=1)

    return step


def bench_patched_fwd_bwd_p8(benchmark):
    """Stacked patched-encoder training pass (p=8): forward + backward in
    one engine invocation over a (8*32, 2**7) stacked state."""
    layer, x = _patched_encoder(8)
    out = benchmark(_patched_step(layer, x))
    assert out.shape == (32, 56)


def bench_patched_fwd_bwd_p8_naive(benchmark):
    """The same p=8 forward + backward as one ``QuantumLayer`` call per
    patch — the baseline the stacked speedup is measured against."""
    layer, x = _patched_encoder(8)
    out = benchmark(_per_patch_step(layer, x))
    assert out.shape == (32, 56)


def bench_patched_fwd_bwd_p16(benchmark):
    """Stacked patched-encoder training pass at the paper's largest patch
    count (p=16): one (16*32, 2**6) pass instead of 16 engine calls."""
    layer, x = _patched_encoder(16)
    out = benchmark(_patched_step(layer, x))
    assert out.shape == (32, 96)


def bench_patched_fwd_bwd_p16_naive(benchmark):
    """The same p=16 forward + backward, one call per patch."""
    layer, x = _patched_encoder(16)
    out = benchmark(_per_patch_step(layer, x))
    assert out.shape == (32, 96)


def bench_patched_fwd_bwd_p8_b8(benchmark):
    """Stacked p=8 training pass at minibatch 8 — the small-batch regime,
    where the per-patch loop is dominated by per-invocation overhead and
    stacking pays off the most."""
    layer, x = _patched_encoder(8, batch=8)
    out = benchmark(_patched_step(layer, x))
    assert out.shape == (8, 56)


def bench_patched_fwd_bwd_p8_b8_naive(benchmark):
    """The same p=8 minibatch-8 pass, one call per patch."""
    layer, x = _patched_encoder(8, batch=8)
    out = benchmark(_per_patch_step(layer, x))
    assert out.shape == (8, 56)


def bench_patched_fwd_bwd_p8_c64(benchmark):
    """Stacked p=8/batch=32 training pass at float32/complex64 — the
    bandwidth-bound large-batch regime where the per-patch statevector
    arrays saturate memory bandwidth at complex128; halving the bytes per
    kernel is the precision policy's headline win (ratio vs. the complex128
    ``bench_patched_fwd_bwd_p8`` is recorded as a ``_c64`` speedup)."""
    layer, x = _patched_encoder(8, dtype="float32")
    out = benchmark(_patched_step(layer, x))
    assert out.shape == (32, 56)
    assert out.data.dtype == np.float32


def bench_patched_fwd_bwd_p16_c64(benchmark):
    """Stacked p=16/batch=32 training pass at float32/complex64."""
    layer, x = _patched_encoder(16, dtype="float32")
    out = benchmark(_patched_step(layer, x))
    assert out.shape == (32, 96)
    assert out.data.dtype == np.float32


def bench_sq_ae_training_step(benchmark):
    """One full SQ-AE optimizer step at paper scale (p=4, L=5, batch 32)."""
    from repro.nn import heterogeneous_adam

    rng = np.random.default_rng(4)
    model = ScalableQuantumAE(input_dim=1024, n_patches=4, n_layers=5, rng=rng)
    optimizer = heterogeneous_adam(model, quantum_lr=0.03, classical_lr=0.01)
    batch = Tensor(np.abs(rng.normal(size=(32, 1024))) + 0.01)

    def step():
        optimizer.zero_grad()
        out = model(batch)
        loss = F.mse_loss(out.reconstruction, batch)
        loss.backward()
        optimizer.step()
        return loss.item()

    loss = benchmark(step)
    assert loss > 0


# Optimizer steps per timed call.  One Adam step takes ~3 ms, and on a
# shared host a round that short is often all noise; ten make each round
# ~30 ms (~100 ms for the Linear training steps).
_STEPS = 10


def _linear_with_gradients():
    """The weight (1024 x 256) and bias of one Linear layer after one
    backward: the weight's gradient arrives F-ordered, through the
    transpose VJP, as it does for every MLP layer in training, and the
    weight is F-ordered too, as ``Linear`` builds it."""
    rng = np.random.default_rng(5)
    layer = Linear(256, 1024, rng=rng)
    ((layer(Tensor(rng.normal(size=(32, 256)))) - 0.5) ** 2).mean().backward()
    grad = layer.weight.grad
    assert grad.shape == (1024, 256)
    assert grad.flags.f_contiguous and not grad.flags.c_contiguous
    return [layer.weight, layer.bias]


def bench_adam_step_1024x256(benchmark):
    """``_STEPS`` in-place Adam steps (chunked ``out=`` ufuncs) on a
    1024 x 256 weight and its bias."""
    params = _linear_with_gradients()
    optimizer = Adam(params, lr=0.01)
    weight = params[0].data

    def steps():
        for __ in range(_STEPS):
            optimizer.step()

    benchmark(steps)
    assert params[0].data is weight


def bench_adam_step_1024x256_naive(benchmark):
    """The same steps through the allocating expression ``Adam.step`` ran
    before it worked in place: 14 full-size temporaries per parameter."""
    params = _linear_with_gradients()
    lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
    moments = [[np.zeros_like(p.data), np.zeros_like(p.data)] for p in params]
    t = 0

    def step():
        nonlocal t
        t += 1
        for param, state in zip(params, moments):
            m = beta1 * state[0] + (1.0 - beta1) * param.grad
            v = beta2 * state[1] + (1.0 - beta2) * param.grad**2
            state[:] = m, v
            m_hat = m / (1.0 - beta1**t)
            v_hat = v / (1.0 - beta2**t)
            param.data = (
                param.data - lr * m_hat / (np.sqrt(v_hat) + eps)
            ).astype(param.data.dtype, copy=False)

    def steps():
        for __ in range(_STEPS):
            step()

    benchmark(steps)


def _linear_train_steps(c_order):
    """``_STEPS`` training steps of a 1024 -> 256 -> 1024 MLP at batch
    32: forward, MSE backward and an Adam step.  ``c_order`` copies the
    weights to C order first, the layout ``Linear`` had before."""
    rng = np.random.default_rng(8)
    model = Sequential(Linear(1024, 256, rng=rng), ReLU(),
                       Linear(256, 1024, rng=rng))
    if c_order:
        for layer in (model.layers[0], model.layers[2]):
            layer.weight.data = np.ascontiguousarray(layer.weight.data)
    optimizer = Adam(list(model.parameters()), lr=0.01)
    batch = Tensor(rng.normal(size=(32, 1024)))

    def steps():
        for __ in range(_STEPS):
            optimizer.zero_grad()
            loss = F.mse_loss(model(batch), batch)
            loss.backward()
            optimizer.step()
        return model

    return steps


def bench_linear_train_step(benchmark):
    """Training steps with the weights as built: F-ordered, so ``W.T`` is a
    view, and the gradient reaches ``Adam`` in the weight's own layout."""
    model = benchmark(_linear_train_steps(c_order=False))
    assert model.layers[0].weight.data.flags.f_contiguous


def bench_linear_train_step_naive(benchmark):
    """The same steps on C-ordered weights: every forward copies each
    weight into a contiguous ``W.T``, and every Adam step transposes each
    F-ordered gradient back to the weight's C order."""
    model = benchmark(_linear_train_steps(c_order=True))
    assert model.layers[0].weight.data.flags.c_contiguous


def bench_molecule_scoring(benchmark):
    """QED + logP + SA scoring of a 50-molecule set (Table II's hot loop)."""
    from repro.chem.sa import default_fragment_table

    molecules = random_molecules(50, seed=0)
    table = default_fragment_table()
    scores = benchmark(lambda: score_molecules(molecules, table=table))
    assert scores.n_scored == 50
