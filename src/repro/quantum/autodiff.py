"""Exact execution and reverse-mode differentiation of circuits.

The forward pass simulates the batched statevector; the backward pass uses
the adjoint method: it walks the circuit in reverse, un-applying each unitary
to both the state and the cotangent vector, and reads off parameter gradients
from the generator identity ``dU/dtheta = -i/2 G U``:

    dL/dtheta = Im( <lambda| G |psi> )

where ``|psi>`` is the state *after* the gate and ``<lambda|`` is the
cotangent ``dL/dpsi*`` at the same point.  This is exact (no sampling noise)
and costs O(#gates) state applications — the same trick PennyLane's
``adjoint`` differentiation uses, and it is property-tested against the
parameter-shift rule in :mod:`repro.quantum.shift`.

:func:`execute_stacked` / :func:`backward_stacked` run ``p``
weight-bindings of one circuit through its compiled plan
(:mod:`repro.quantum.engine`) as a single pass.  The forward pass records
post-block checkpoints (instructions are pure), and the backward walks only
the cotangent: per fused block, one transition-matrix contraction serves
every member parameter instead of one generator insertion per parameter.
A single circuit is the ``p = 1`` stack: :func:`execute` / :func:`backward`
validate their flat arguments and make exactly that call.  The original
op-by-op interpreter is kept as :func:`naive_execute` /
:func:`naive_backward` — it is the reference the compiled engine is
property-tested against, and the baseline the kernel benchmarks measure
speedups from.

These four entry points are also what the hybrid layers register as tape
VJPs: :mod:`repro.qnn.qlayer` and :mod:`repro.qnn.patched` record
executions as :class:`repro.nn.autodiff.Primitive` nodes whose first-order
backward is :func:`backward` / :func:`backward_stacked` on the returned
cache, making the quantum adjoint one more table entry in the classical
autodiff registry.

Both measurement types the paper uses are diagonal in the computational
basis (Pauli-Z expectations and basis probabilities), so the cotangent seed
is ``lambda = v * psi`` with ``v`` the gradient with respect to ``|psi_j|^2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.precision import Precision, real_dtype_for, resolve_precision
from . import gates as G
from .circuit import Circuit, Operation
from .engine import StackedGradContext, StackedPlan, stacked_plan
from .state import (
    apply_gate,
    expval_z,
    num_wires,
    probabilities,
    z_signs,
    zero_state,
)

__all__ = [
    "ExecutionCache",
    "StackedExecutionCache",
    "execute",
    "backward",
    "execute_stacked",
    "backward_stacked",
    "naive_execute",
    "naive_backward",
    "prepare_amplitude_state",
]


@dataclass
class ExecutionCache:
    """What :func:`naive_backward` needs from a :func:`naive_execute` run.

    ``gate_matrices`` are the bound gates the reference walk replays in
    reverse.  ``embedded``/``norms``/``zero_rows`` carry the
    amplitude-embedded initial state so the backward pass never recomputes
    the embedding.
    """

    circuit: Circuit
    final_state: np.ndarray  # (batch, 2**n)
    inputs: np.ndarray | None  # (batch, n_inputs)
    weights: np.ndarray  # (n_weights,)
    batch: int
    gate_matrices: list[np.ndarray]
    embedded: np.ndarray | None = None  # (batch, 2**n) amplitude-embedded state
    norms: np.ndarray | None = None  # (batch,) embedding norms
    zero_rows: np.ndarray | None = None  # (batch,) bool, zero-fallback rows


@dataclass
class StackedExecutionCache:
    """What the adjoint walk needs from an :func:`execute_stacked` run.

    The bound :class:`~repro.quantum.engine.StackedPlan`, its per-instruction
    checkpoints (the post-states the plan recorded by reference — the ket
    side of the adjoint walk), the flat ``(p * batch, 2**n)`` final state,
    the embedding carry-over, and the stack layout (``n_patches`` instances
    of ``batch`` samples each; 1 for a cache returned by :func:`execute`).
    """

    circuit: Circuit
    final_state: np.ndarray  # (p * batch, 2**n)
    weights: np.ndarray  # (p, n_weights)
    n_patches: int
    batch: int
    plan: StackedPlan | None = None
    bound: list | None = None
    checkpoints: list | None = None  # per-instruction post-states (or None)
    embedded: np.ndarray | None = None  # (p * batch, 2**n)
    norms: np.ndarray | None = None  # (p * batch,)
    zero_rows: np.ndarray | None = None  # (p * batch,) bool


def prepare_amplitude_state(
    features: np.ndarray,
    n_wires: int,
    zero_fallback: bool = False,
    dtype=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude-embed a ``(batch, d)`` feature block into ``(batch, 2**n)``.

    Features are zero-padded to the state dimension and L2-normalized per
    sample (PennyLane's ``AmplitudeEmbedding(pad_with=0, normalize=True)``).
    Returns the complex state and the per-sample norms (needed for input
    gradients).  All-zero samples raise unless ``zero_fallback`` is set, in
    which case they embed as |0...0> with zero gradient.  ``dtype`` selects
    the precision pair (None follows the active policy).
    """
    state, norms, _zero_rows = _prepare_amplitude(
        features, n_wires, zero_fallback, resolve_precision(dtype)
    )
    return state, norms


# Rows with norms below sqrt(tiny) are treated as zero: under that cutoff
# the squared feature values that build the norm are subnormal (or flushed
# to zero outright), so the computed norm has lost most of its mantissa and
# normalizing by it — or dividing gradients by it — is numerically
# meaningless.  The old 1e-300 guard let such rows through.
def _norm_eps(real_dtype) -> float:
    """The subnormal-norm cutoff at the embedding's real precision."""
    return float(np.sqrt(np.finfo(real_dtype).tiny))  # ~1.1e-19 for float32


_NORM_EPS = _norm_eps(np.float64)  # ~1.5e-154, the float64 cutoff


def _prepare_amplitude(
    features: np.ndarray,
    n_wires: int,
    zero_fallback: bool,
    prec: Precision | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Like :func:`prepare_amplitude_state` but also returns the zero mask."""
    if prec is None:
        prec = resolve_precision(None)
    batch, d = features.shape
    dim = 2**n_wires
    padded = np.zeros((batch, dim), dtype=prec.real)
    padded[:, :d] = features
    norms = np.linalg.norm(padded, axis=1)
    eps = _norm_eps(prec.real)
    zero_rows = norms < eps
    if np.any(zero_rows):
        if not zero_fallback:
            raise ValueError(
                "amplitude embedding requires feature vectors with norm >= "
                f"{eps:.3g} (rows below that cannot be normalized at "
                f"{prec.real} precision); pass zero_fallback=True to embed "
                "them as |0...0>"
            )
        padded[zero_rows, 0] = 1.0
        norms = np.where(zero_rows, prec.real.type(1.0), norms)
    state = (padded / norms[:, None]).astype(prec.complex)
    return state, norms, zero_rows


def _gate_matrix(
    op: Operation,
    inputs: np.ndarray | None,
    weights: np.ndarray,
    cdtype=np.complex128,
) -> np.ndarray:
    if op.source is None:
        return G.fixed_gate(op.name, cdtype)
    kind, index = op.source
    if kind == "weight":
        theta = weights[index]
    else:
        if inputs is None:
            raise ValueError(f"operation {op} needs inputs but none were given")
        theta = inputs[:, index]
    return G.PARAMETRIC_GATES[op.name](theta, cdtype)


def _validate(
    circuit: Circuit,
    inputs: np.ndarray | None,
    weights: np.ndarray,
    prec: Precision,
):
    """Single-circuit entry checks; returns (inputs, weights, batch).

    Inputs and weights are cast to the policy's real dtype.  Inputs may be
    wider than ``circuit.n_inputs``; the circuit reads the leading columns.
    """
    if circuit.measurement is None:
        raise ValueError("circuit has no measurement; call measure_* first")
    weights = np.asarray(weights, dtype=prec.real)
    if weights.shape != (circuit.n_weights,):
        raise ValueError(
            f"expected {circuit.n_weights} weights, got shape {weights.shape}"
        )
    if inputs is not None:
        inputs = np.asarray(inputs, dtype=prec.real)
        if inputs.ndim != 2 or inputs.shape[1] < circuit.n_inputs:
            raise ValueError(
                f"inputs must be (batch, >= {circuit.n_inputs}), got "
                f"{None if inputs is None else inputs.shape}"
            )
        batch = inputs.shape[0]
    else:
        if circuit.n_inputs:
            raise ValueError("circuit consumes inputs but none were given")
        batch = 1
    return inputs, weights, batch


def _validate_and_prepare(
    circuit: Circuit,
    inputs: np.ndarray | None,
    weights: np.ndarray,
    prec: Precision,
):
    """Entry checks plus the initial state, for the reference interpreter.

    Returns ``(inputs, weights, batch, state, embedding)``.  ``embedding``
    is ``(embedded, norms, zero_rows)`` for amplitude-prepared circuits and
    ``(None, None, None)`` otherwise; ``state`` is a fresh array at the
    policy's complex dtype (for amplitude prep it *is* ``embedded``, so
    cache holders must copy before mutating).
    """
    inputs, weights, batch = _validate(circuit, inputs, weights, prec)
    if circuit.state_prep is not None:
        __, n_features, zero_fallback = circuit.state_prep
        state, norms, zero_rows = _prepare_amplitude(
            inputs[:, :n_features], circuit.n_wires, zero_fallback, prec
        )
        embedding = (state, norms, zero_rows)
    else:
        state = zero_state(circuit.n_wires, batch, dtype=prec.complex)
        embedding = (None, None, None)
    return inputs, weights, batch, state, embedding


def _measure(circuit: Circuit, state: np.ndarray) -> np.ndarray:
    """Pauli-Z expectations or basis probabilities, as the circuit asks."""
    kind, wires = circuit.measurement
    if kind == "expval":
        return expval_z(state, wires)
    return probabilities(state)


def execute(
    circuit: Circuit,
    inputs: np.ndarray | None,
    weights: np.ndarray,
    want_cache: bool = True,
    dtype=None,
) -> tuple[np.ndarray, StackedExecutionCache | None]:
    """Run the circuit on a batch: the ``p = 1`` call of :func:`execute_stacked`.

    Parameters
    ----------
    circuit:
        A built :class:`~repro.quantum.circuit.Circuit` with a measurement.
        Its compiled plan is cached on the instance and reused across calls.
    inputs:
        ``(batch, >= n_inputs)`` features for embeddings (the circuit reads
        the leading ``n_inputs`` columns), or None for a pure weight circuit
        (then batch = 1).
    weights:
        Flat ``(n_weights,)`` trainable angles.
    dtype:
        Precision spec (:func:`repro.nn.precision.resolve_precision`):
        None follows the active policy (float64/complex128 by default);
        ``"float32"`` runs the whole pass at complex64.

    Returns
    -------
    outputs:
        ``(batch, output_dim)`` real measurement results in the policy's
        real dtype.
    cache:
        A one-instance :class:`StackedExecutionCache`; pass it to
        :func:`backward`.  None when ``want_cache=False``.
    """
    prec = resolve_precision(dtype)
    inputs, weights, __ = _validate(circuit, inputs, weights, prec)
    if inputs is not None:
        inputs = inputs[None, :, : circuit.n_inputs]
    outputs, cache = execute_stacked(
        circuit, inputs, weights[None], want_cache=want_cache, dtype=prec
    )
    return outputs[0], cache


def execute_stacked(
    circuit: Circuit,
    inputs: np.ndarray | None,
    weights: np.ndarray,
    want_cache: bool = True,
    dtype=None,
) -> tuple[np.ndarray, StackedExecutionCache | None]:
    """Run ``p`` weight-bindings of one circuit template as a single pass.

    The paper's patched layers execute ``p`` structurally identical
    sub-circuits that differ only in their weight vectors and input slices.
    This entry point stacks them through the circuit's
    :func:`~repro.quantum.engine.stacked_plan`: the whole ensemble is one
    ``(p * batch, 2**n)`` statevector pass — one engine invocation instead
    of ``p`` — with per-patch weight binding inside the plan's kernels.

    Parameters
    ----------
    circuit:
        The shared circuit template (with a measurement).
    inputs:
        ``(p, batch, n_inputs)`` per-instance features, or None when the
        circuit consumes no inputs (then ``batch = 1``).
    weights:
        ``(p, n_weights)`` per-instance trainable angles; ``p`` is taken
        from this argument.
    dtype:
        Precision spec (:func:`repro.nn.precision.resolve_precision`):
        None follows the active policy; ``"float32"`` runs the stacked
        pass at complex64 — halving the bytes every kernel moves, which is
        the lever on this bandwidth-bound path.

    Returns
    -------
    outputs:
        ``(p, batch, output_dim)`` real measurement results.
    cache:
        Pass to :func:`backward_stacked`, or None when ``want_cache=False``.
    """
    prec = resolve_precision(dtype)
    if circuit.measurement is None:
        raise ValueError("circuit has no measurement; call measure_* first")
    weights = np.asarray(weights, dtype=prec.real)
    if weights.ndim != 2 or weights.shape[1] != circuit.n_weights:
        raise ValueError(
            f"stacked weights must be (p, {circuit.n_weights}), "
            f"got shape {weights.shape}"
        )
    p = weights.shape[0]
    if p < 1:
        raise ValueError("stacked execution needs at least one instance")
    n_in = circuit.n_inputs
    if inputs is not None:
        inputs = np.asarray(inputs, dtype=prec.real)
        if inputs.ndim != 3 or inputs.shape[0] != p or inputs.shape[2] != n_in:
            raise ValueError(
                f"stacked inputs must be (p={p}, batch, {n_in}), "
                f"got shape {inputs.shape}"
            )
        batch = inputs.shape[1]
        flat_inputs = np.ascontiguousarray(inputs.reshape(p * batch, n_in))
    else:
        if n_in:
            raise ValueError("circuit consumes inputs but none were given")
        batch = 1
        flat_inputs = None

    if circuit.state_prep is not None:
        __, n_features, zero_fallback = circuit.state_prep
        state, norms, zero_rows = _prepare_amplitude(
            flat_inputs[:, :n_features], circuit.n_wires, zero_fallback, prec
        )
        embedded = state
    else:
        state = zero_state(circuit.n_wires, p * batch, dtype=prec.complex)
        embedded = norms = zero_rows = None

    plan = stacked_plan(circuit)
    bound = plan.bind(
        flat_inputs, weights, p, batch, with_grads=want_cache, cdtype=prec.complex
    )
    # Stacked applies are pure, so the embedded state survives the run
    # untouched and post-block states can be checkpointed by reference.
    record: list | None = [] if want_cache else None
    state = plan.run(state, bound, p, batch, record=record)
    outputs = _measure(circuit, state).reshape(p, batch, -1)
    if not want_cache:
        return outputs, None
    cache = StackedExecutionCache(
        circuit,
        state,
        weights,
        p,
        batch,
        plan=plan,
        bound=bound,
        checkpoints=record,
        embedded=embedded,
        norms=norms,
        zero_rows=zero_rows,
    )
    return outputs, cache


def backward_stacked(
    cache: StackedExecutionCache,
    grad_outputs: np.ndarray,
    want_inputs: bool = True,
) -> tuple[np.ndarray | None, np.ndarray]:
    """Per-instance vector-Jacobian product of a stacked execution.

    One adjoint walk over the stacked state serves every instance: weight
    gradients accumulate directly into per-patch rows (via the plan's
    transition-matrix kernels), input gradients come back per sample.

    Parameters
    ----------
    cache:
        Result of :func:`execute_stacked`.
    grad_outputs:
        ``(p, batch, output_dim)`` upstream gradient.
    want_inputs:
        When False, the amplitude-embedding input chain is skipped and
        ``grad_inputs`` is returned as None — the common encoder case where
        the data tensor needs no gradient.

    Returns
    -------
    grad_inputs:
        ``(p, batch, n_inputs)``, or None if the circuit takes no inputs or
        ``want_inputs`` is False.
    grad_weights:
        ``(p, n_weights)``, each row summed over that instance's batch.
    """
    circuit = cache.circuit
    p, batch = cache.n_patches, cache.batch
    grad_outputs = _check_cotangent(
        grad_outputs, (p, batch, circuit.output_dim), cache.final_state.dtype
    )
    lam = _seed_cotangent(cache, grad_outputs.reshape(p * batch, -1))
    # Gradients accumulate in float64 regardless of execution precision:
    # the buffers are tiny next to the statevector, and wide accumulation
    # keeps low-precision runs numerically stable.
    grad_weights = np.zeros((p, circuit.n_weights), dtype=np.float64)
    grad_inputs = (
        np.zeros((p * batch, circuit.n_inputs), dtype=np.float64)
        if circuit.n_inputs
        else None
    )
    ctx = StackedGradContext(
        p,
        batch,
        grad_weights,
        grad_inputs,
        cache.final_state.shape,
        dtype=cache.final_state.dtype,
    )
    lam = _adjoint_walk(cache.plan, cache.bound, cache.checkpoints, lam, ctx)
    if want_inputs:
        _amplitude_input_grads(cache, lam, grad_inputs)
    if grad_inputs is None or not want_inputs:
        return None, grad_weights
    return grad_inputs.reshape(p, batch, circuit.n_inputs), grad_weights


def naive_execute(
    circuit: Circuit,
    inputs: np.ndarray | None,
    weights: np.ndarray,
    want_cache: bool = True,
    dtype=None,
) -> tuple[np.ndarray, ExecutionCache | None]:
    """Reference interpreter: apply every op through the generic kernel.

    Kept as the ground truth the compiled engine is tested against and the
    baseline the kernel benchmarks report speedups from.  Same signature and
    semantics as :func:`execute`.
    """
    prec = resolve_precision(dtype)
    inputs, weights, batch, state, embedding = _validate_and_prepare(
        circuit, inputs, weights, prec
    )
    embedded, norms, zero_rows = embedding
    matrices: list[np.ndarray] = []
    for op in circuit.ops:
        gate = _gate_matrix(op, inputs, weights, prec.complex)
        state = apply_gate(state, gate, op.wires)
        if want_cache:
            matrices.append(gate)
    outputs = _measure(circuit, state)
    if not want_cache:
        return outputs, None
    cache = ExecutionCache(
        circuit,
        state,
        inputs,
        weights,
        batch,
        gate_matrices=matrices,
        embedded=embedded,
        norms=norms,
        zero_rows=zero_rows,
    )
    return outputs, cache


def _check_cotangent(
    grad_outputs, expected_shape: tuple, state_dtype
) -> np.ndarray:
    """Validate an upstream gradient before it enters an adjoint walk.

    A malformed cotangent used to surface as an opaque broadcast error deep
    inside a kernel (or, worse, silently broadcast); every backward entry
    point routes through this guard instead, naming the offending shape or
    dtype against what the cached execution expects.
    """
    grad_outputs = np.asarray(grad_outputs)
    if np.iscomplexobj(grad_outputs):
        raise ValueError(
            "grad_outputs must be real (the cotangent of a real "
            f"measurement), got complex dtype {grad_outputs.dtype} for a "
            f"plan bound at {np.dtype(state_dtype)}"
        )
    if grad_outputs.shape != expected_shape:
        raise ValueError(
            f"grad_outputs shape {grad_outputs.shape} does not match the "
            f"cached execution's output shape {expected_shape}"
        )
    return grad_outputs


def _adjoint_walk(plan, bound, checkpoints, lam, ctx) -> np.ndarray:
    """Walk a bound plan in reverse: one ``backward_step`` per instruction.

    Only the cotangent moves; the ket side is read from the forward
    checkpoints (pure applies make them safe to hold by reference).
    Gradients accumulate into ``ctx``; the returned array is the cotangent
    at the initial state.
    """
    for instr, data, checkpoint in zip(
        reversed(plan.instructions), reversed(bound), reversed(checkpoints)
    ):
        lam = instr.backward_step(lam, data, checkpoint, ctx)
    return lam


def _seed_cotangent(
    cache: ExecutionCache, grad_outputs: np.ndarray
) -> np.ndarray:
    """The cotangent ``dL/dpsi*`` at the final state."""
    circuit = cache.circuit
    # Seed at the execution's real precision so the cotangent matches the
    # state dtype (float32 * complex64 stays complex64).
    real = real_dtype_for(cache.final_state.dtype)
    grad_outputs = np.asarray(grad_outputs, dtype=real)
    kind, wires = circuit.measurement
    if kind == "expval":
        signs = z_signs(circuit.n_wires, dtype=real)
        v = grad_outputs @ signs[list(wires)]  # (batch, 2**n)
    else:
        v = grad_outputs
    return v * cache.final_state


def _amplitude_input_grads(
    cache: ExecutionCache, lam: np.ndarray, grad_inputs: np.ndarray | None
) -> None:
    """Chain the cotangent at the initial state through amplitude embedding."""
    circuit = cache.circuit
    if circuit.state_prep is None or grad_inputs is None:
        return
    __, n_features, zero_fallback = circuit.state_prep
    psi0 = cache.embedded.real  # amplitude-embedded states are real
    # dL/dx = (2 Re(lambda_0) - 2 Re(lambda_0 . psi_0) psi_0) / ||x||
    lam_real = 2.0 * np.real(lam)
    radial = np.einsum("bj,bj->b", lam_real, psi0)
    grad_full = (lam_real - radial[:, None] * psi0) / cache.norms[:, None]
    if zero_fallback:
        grad_full[cache.zero_rows] = 0.0
    grad_inputs[:, :n_features] += grad_full[:, :n_features]


def backward(
    cache: StackedExecutionCache, grad_outputs: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray]:
    """Vector-Jacobian product of an :func:`execute` run.

    The ``p = 1`` call of :func:`backward_stacked`: one reverse walk over
    the bound plan, cotangent-only, ket side from the forward checkpoints,
    one transition-matrix contraction per fused block.

    Parameters
    ----------
    cache:
        Result of :func:`execute` (:func:`naive_execute` caches go to
        :func:`naive_backward`).
    grad_outputs:
        ``(batch, output_dim)`` upstream gradient.

    Returns
    -------
    grad_inputs:
        ``(batch, n_inputs)`` or None if the circuit takes no inputs.
    grad_weights:
        ``(n_weights,)`` summed over the batch.
    """
    if not isinstance(cache, StackedExecutionCache):
        raise ValueError(
            "cache was not produced by execute; pass naive_execute caches "
            "to naive_backward"
        )
    grad_outputs = _check_cotangent(
        grad_outputs,
        (cache.batch, cache.circuit.output_dim),
        cache.final_state.dtype,
    )
    grad_inputs, grad_weights = backward_stacked(cache, grad_outputs[None])
    return (
        None if grad_inputs is None else grad_inputs[0],
        grad_weights[0],
    )


def naive_backward(
    cache: ExecutionCache, grad_outputs: np.ndarray
) -> tuple[np.ndarray | None, np.ndarray]:
    """Reference adjoint walk over a :func:`naive_execute` cache."""
    if not isinstance(cache, ExecutionCache):
        raise ValueError("cache was not produced by naive_execute")
    circuit = cache.circuit
    grad_outputs = _check_cotangent(
        grad_outputs, (cache.batch, circuit.output_dim), cache.final_state.dtype
    )
    lam = _seed_cotangent(cache, grad_outputs)
    n = num_wires(cache.final_state)

    grad_weights = np.zeros(circuit.n_weights, dtype=np.float64)
    grad_inputs = (
        np.zeros((cache.batch, circuit.n_inputs), dtype=np.float64)
        if circuit.n_inputs
        else None
    )

    psi = cache.final_state
    cdtype = cache.final_state.dtype
    for op, gate in zip(reversed(circuit.ops), reversed(cache.gate_matrices)):
        if op.source is not None:
            gen = G.generator(op.name, cdtype)
            gen_psi = apply_gate(psi, gen, op.wires)
            # dL/dtheta = Im(<lambda| G |psi>) per batch element.
            per_sample = np.einsum("bj,bj->b", np.conj(lam), gen_psi).imag
            source_kind, index = op.source
            if source_kind == "weight":
                grad_weights[index] += per_sample.sum()
            else:
                grad_inputs[:, index] += per_sample
        gate_dag = np.conj(np.swapaxes(gate, -1, -2))
        psi = apply_gate(psi, gate_dag, op.wires)
        lam = apply_gate(lam, gate_dag, op.wires)

    _amplitude_input_grads(cache, lam, grad_inputs)
    return grad_inputs, grad_weights
