"""Batched statevector quantum-circuit simulator with exact gradients.

This package replaces PennyLane for the reproduction.  Public surface::

    from repro.quantum import Circuit, execute, backward
    circuit = (Circuit(n_wires=6)
               .amplitude_embedding(64)
               .strongly_entangling_layers(3)
               .measure_expval())
    outputs, cache = execute(circuit, inputs, weights)
    grad_in, grad_w = backward(cache, grad_outputs)

Circuits are built from three gates, RY, RZ and CNOT: an amplitude or RY
angle embedding, strongly entangling layers (``Rot = RZ.RY.RZ`` on every
qubit, then the nearest-neighbour CNOT ring), and Pauli-Z expectations on
every wire or basis probabilities, as in the paper's Fig. 2b.

Execution is a compile/bind/run pipeline (:mod:`repro.quantum.engine`):

1. **Compile** — the circuit template is lowered once into a
   :class:`~repro.quantum.engine.StackedPlan` of two instruction kinds:
   runs of rotations on the same wire (adjacent modulo gates on disjoint
   wires, which commute) fuse into one dense 2x2 block — the SEL
   ``Rot = RZ.RY.RZ`` triple becomes a single fused gate — and every CNOT
   becomes a precomputed index gather.  The plan is cached on the
   :class:`~repro.quantum.circuit.Circuit` and reused until its structure
   changes, so hybrid layers pay compilation once, not per batch.
2. **Bind** — each :func:`execute` call resolves the plan against the current
   weights/inputs: fused 2x2 matrices are rebuilt (bulk-vectorized across all
   weight-only runs sharing a gate sequence), and — when a backward pass will
   follow — effective generators ``S G S^dagger`` are prepared so adjoint
   gradients stay exact through the fusion.
3. **Run** — kernels execute in order: dense blocks as batched GEMMs picked
   by wire geometry (:func:`~repro.quantum.engine.apply_dense`) and CNOTs
   as index gathers.  The adjoint :func:`backward` walks the same bound
   program in reverse with daggered kernels.  There is one kernel set, plain
   NumPy: the only parallelism inside a pass is the BLAS library's own
   threading.

The pre-compilation op-by-op interpreter survives as ``naive_execute`` /
``naive_backward``, the reference implementation that the compiled engine is
property-tested against and benchmarked from.

``p`` weight bindings of one circuit (the patched encoder's sub-circuits)
execute as one stacked ``(p * batch, 2**n)`` pass through the same plan via
:func:`~repro.quantum.autodiff.execute_stacked` /
:func:`~repro.quantum.autodiff.backward_stacked`: weight-sourced gates bind
per patch and broadcast along the outermost state axis, adjacent dense runs
merge into 4x4 kron blocks, consecutive permutations compose into single
gathers, and one adjoint walk — one transition-matrix contraction per dense
block — returns every instance's gradients.  A single circuit is the
``p = 1`` stack: :func:`execute` / :func:`backward` make exactly that call.
The hybrid layers of :mod:`repro.qnn` record one tape primitive around
``execute_stacked`` / ``backward_stacked``, at ``p = 1`` for a single
circuit.

The rest of the package is the exact statevector primitives the engine is
tested against (:mod:`~repro.quantum.state`, :mod:`~repro.quantum.gates`),
the parameter-shift rule (:mod:`~repro.quantum.shift`, an independent
gradient oracle for the adjoint) and the text drawer behind ``repro.cli
draw`` (:func:`draw`).  Simulation is exact and noiseless, as in the
paper: there is no shot sampling or noise channel.
"""

from . import gates
from .autodiff import (
    ExecutionCache,
    StackedExecutionCache,
    backward,
    backward_stacked,
    execute,
    execute_stacked,
    naive_backward,
    naive_execute,
    prepare_amplitude_state,
)
from .circuit import Circuit, Operation, sel_weight_count
from .drawer import draw
from .engine import StackedPlan, compile_stacked, stacked_plan
from .shift import parameter_shift_gradients, parameter_shift_jacobian
from .state import (
    apply_gate,
    expval_z,
    num_wires,
    probabilities,
    z_signs,
    zero_state,
)

__all__ = [
    "gates",
    "Circuit",
    "Operation",
    "sel_weight_count",
    "execute",
    "backward",
    "execute_stacked",
    "backward_stacked",
    "naive_execute",
    "naive_backward",
    "ExecutionCache",
    "StackedExecutionCache",
    "prepare_amplitude_state",
    "StackedPlan",
    "compile_stacked",
    "stacked_plan",
    "parameter_shift_gradients",
    "parameter_shift_jacobian",
    "apply_gate",
    "expval_z",
    "num_wires",
    "probabilities",
    "zero_state",
    "z_signs",
    "draw",
]
