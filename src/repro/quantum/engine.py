"""Compiled circuit execution engine: one lowered program, one plan class.

The generic interpreter in :mod:`repro.quantum.autodiff` applies every gate
through :func:`repro.quantum.state.apply_gate` — a reshape/moveaxis/einsum
round-trip that treats a CNOT the same as an arbitrary dense two-qubit
matrix.  This module lowers a :class:`~repro.quantum.circuit.Circuit` into a
reusable plan once, then executes the plan many times.

**Adjoint architecture.**  There is exactly one lowered representation — a
scheduled list of *stacked* instructions held by a :class:`StackedPlan` —
which runs ``p`` structurally identical weight-bindings of the circuit as a
single ``(p * batch, 2**n)`` statevector pass.  A single circuit is the
``p = 1`` stack: :func:`repro.quantum.autodiff.execute` / ``backward`` are
the ``p = 1`` calls of ``execute_stacked`` / ``backward_stacked``, so both
run the same instructions, kernels and backward.  :func:`stacked_plan`
caches the program on the circuit and in a structural cache shared by every
circuit of the same shape.

The plan's machinery:

* **Fusion + scheduling.**  Every circuit is RY/RZ rotations plus CNOTs.
  Runs of rotations on one wire collapse into a 2x2 matrix (the SEL
  ``Rot = RZ.RY.RZ`` triple becomes one instruction); a commutation-aware
  peephole pass merges dense runs on adjacent wires into 4x4 kron blocks
  and composes each CNOT ring into a single index gather.
* **Two instruction kinds.**  Dense blocks (:class:`_SDense`) dispatch by
  wire geometry to batched GEMMs, with short strides (``right`` in {2, 4,
  8}) lowered onto ``kron(mat, I_right)`` GEMMs over the flattened tail
  (:func:`apply_dense`, :func:`transition_matrix`); CNOTs are index
  gathers (:class:`_SPermutation`).  Each instruction's ``apply`` is its
  NumPy kernel; ``backward_step`` runs the same kernel with the inverse
  gate (daggered matrix, inverse gather).
* **Checkpointed, transition-matrix backward.**  Instructions are *pure*
  (never mutate their input state), so the forward pass records every
  post-block state by reference; the adjoint backward walks only the
  cotangent and reads the ket side from the checkpoints.  Per dense block
  the backward computes one *transition matrix*
  ``M[a, c] = sum conj(lambda)_a psi_c`` and contracts every member's
  effective generator ``G_eff = S G S^dagger`` against it — one contraction
  per fused block instead of one generator insertion per parameter.  From
  ``dU/dtheta = S (-i/2 G) P = -i/2 (S G S^dagger) U`` the adjoint identity
  ``dL/dtheta = Im(<lambda| G_eff |psi>)`` holds at the post-block state,
  so fusion preserves exact gradients.
* **Bulk binding.**  Weight-only fused runs sharing a gate sequence bind
  through one vectorized gate construction and one batched-matmul sweep
  per sequence (:class:`_SStaticGroup`).

The op-by-op interpreter (``naive_execute`` / ``naive_backward``) remains
the reference the plan is property-tested against.
"""

from __future__ import annotations

import numpy as np

from . import gates as G
from .circuit import Circuit, Operation

__all__ = [
    "StackedPlan",
    "circuit_signature",
    "compile_stacked",
    "stacked_plan",
]


def _dagger(mat: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(mat, -1, -2))


def circuit_signature(circuit: Circuit) -> tuple:
    """A structural fingerprint; plans are reused while it is unchanged."""
    return (
        circuit.n_wires,
        tuple(circuit.ops),
        circuit.state_prep,
        circuit.measurement,
        circuit.n_weights,
        circuit.n_inputs,
    )


def _validate_wires(op: Operation, n_wires: int) -> None:
    if len(set(op.wires)) != len(op.wires):
        raise ValueError(f"duplicate wires in {op.wires}")
    if any(not 0 <= w < n_wires for w in op.wires):
        raise ValueError(f"wires {op.wires} out of range for {n_wires}-qubit state")


# ---------------------------------------------------------------------------
# Dense-block kernels
# ---------------------------------------------------------------------------
#
# The state is logically (p, batch, dim) with the patch axis outermost (p = 1
# for a single circuit); weight-bound gate matrices are (p, d, d) and
# broadcast along that axis, so every patch sees its own angles while each
# numpy operation still covers the whole stack.  Input-bound matrices stay
# per-row, (p * batch, d, d).


def _kron_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of ``(..., 2, 2)`` stacks -> ``(..., 4, 4)``."""
    out = np.einsum("...ab,...cd->...acbd", a, b)
    return out.reshape(out.shape[:-4] + (4, 4))


# Wire-axis strides below this run through the kron-GEMM kernel; at or
# above it the batched (d, d) @ (d, right) matmul wins (the kron padding's
# FLOP overhead outgrows its layout win).
_LONG_STRIDE = 16


def _kron_eye(mat: np.ndarray, right: int) -> np.ndarray:
    """``kron(mat, I_right)``: ``(..., d, d)`` -> ``(..., d*right, d*right)``.

    Lets a block acting on a non-innermost wire axis run as one GEMM over
    the flattened ``(d, right)`` tail (see ``apply_dense``): the identity
    factor absorbs the ``right`` stride.  The ``right``-fold FLOP overhead
    of the block-sparse zeros is far cheaper than the strided broadcast
    arithmetic it replaces for the small ``right`` this is used at.
    """
    d = mat.shape[-1]
    out = np.zeros(mat.shape[:-2] + (d, right, d, right), dtype=mat.dtype)
    idx = np.arange(right)
    # out[..., a, r, c, r] = mat[..., a, c]; the advanced indices land in
    # front, so the target view is (right, ..., d, d) and mat broadcasts.
    out[..., :, idx, :, idx] = mat
    return out.reshape(mat.shape[:-2] + (d * right, d * right))


def apply_dense(state, mat, p, batch, left, d, right, per_patch, out=None):
    """Apply a ``d x d`` block to the stacked ``(p * batch, 2**n)`` state.

    ``mat`` is ``(p, d, d)`` when ``per_patch`` (broadcast along the
    outermost axis of the ``(p, batch, ...)`` view) or ``(p * batch, d,
    d)`` otherwise.  Three kernels, picked by geometry: a wire axis that
    sits innermost (``right == 1``) dispatches to one batched GEMM per
    matrix, long slices (``right >= 16``) to batched ``(d, d) @ (d,
    right)`` matmuls, and the short strides in between (``right`` in {2,
    4, 8} — wire axes are powers of two) to a GEMM over the flattened
    ``(d * right)`` tail against ``kron(mat, I_right)``; the identity
    padding costs ``right``-fold FLOPs on a tiny matrix but replaces
    strided broadcast arithmetic that ran up to 10x slower and starved
    SIMD at complex64.

    ``out`` must be C-contiguous (the reshapes below must be views — a
    silently-copying reshape would discard the writes), which the
    explicit ``np.empty`` here guarantees for the allocating path.
    """
    if out is None:
        out = np.empty(state.shape, dtype=state.dtype)
    if right == 1:
        # Wire axis innermost: (..., K, d) @ (d, d)^T is GEMM-shaped.
        if per_patch:
            psi = state.reshape(p, batch * left, d)
            res = out.reshape(p, batch * left, d)
        else:
            psi = state.reshape(p * batch, left, d)
            res = out.reshape(p * batch, left, d)
        np.matmul(psi, mat.swapaxes(-1, -2), out=res)
        return out
    if right >= _LONG_STRIDE:
        # Long slices: batched (d, d) @ (d, right) GEMMs beat
        # broadcasting.
        if per_patch:
            psi = state.reshape(p, batch, left, d, right)
            res = out.reshape(p, batch, left, d, right)
            np.matmul(mat[:, None, None], psi, out=res)
        else:
            psi = state.reshape(p * batch, left, d, right)
            res = out.reshape(p * batch, left, d, right)
            np.matmul(mat[:, None], psi, out=res)
        return out
    # Short strides: flatten the (d, right) tail and GEMM against
    # kron(mat, I_right), exactly as in the right == 1 kernel.
    dr = d * right
    big = _kron_eye(mat, right)
    if per_patch:
        psi = state.reshape(p, batch * left, dr)
        res = out.reshape(p, batch * left, dr)
    else:
        psi = state.reshape(p * batch, left, dr)
        res = out.reshape(p * batch, left, dr)
    np.matmul(psi, big.swapaxes(-1, -2), out=res)
    return out


def transition_matrix(psi, lam, p, batch, left, d, right, per_patch):
    """``M[a, c] = sum conj(lam)[..., a, ...] psi[..., c, ...]``.

    Reduced over every axis except the block's wire axis — and, when
    ``per_patch``, over the batch too: returns ``(p, d, d)`` when
    ``per_patch``, ``(p * batch, d, d)`` otherwise.  When the wire axis
    is innermost (``right == 1``) the views are GEMM-ready and a batched
    matmul does the whole contraction.  Short strides (``right`` in {2,
    4, 8}) contract the flattened ``(d * right)`` tail with the same GEMM
    into a ``(d*right, d*right)`` matrix whose paired-``right`` diagonal
    is then traced down to ``(d, d)`` — the GEMM does the heavy reduction
    and the trace touches only a tiny array.  Long slices (``right >=
    16``) keep the in-place einsum, where the kron padding would outgrow
    its win.
    """
    if right == 1:
        if per_patch:
            psi_v = psi.reshape(p, batch * left, d)
            lam_v = lam.reshape(p, batch * left, d)
        else:
            psi_v = psi.reshape(p * batch, left, d)
            lam_v = lam.reshape(p * batch, left, d)
        return np.matmul(np.conj(lam_v.swapaxes(-1, -2)), psi_v)
    if right < _LONG_STRIDE:
        dr = d * right
        if per_patch:
            psi_v = psi.reshape(p, batch * left, dr)
            lam_v = lam.reshape(p, batch * left, dr)
        else:
            psi_v = psi.reshape(p * batch, left, dr)
            lam_v = lam.reshape(p * batch, left, dr)
        full = np.matmul(np.conj(lam_v.swapaxes(-1, -2)), psi_v)
        blocks = full.reshape(full.shape[0], d, right, d, right)
        return np.einsum("...arcr->...ac", blocks)
    lam_c = np.conj(lam)
    if per_patch:
        return np.einsum(
            "pblar,pblcr->pac",
            lam_c.reshape(p, batch, left, d, right),
            psi.reshape(p, batch, left, d, right),
        )
    return np.einsum(
        "blar,blcr->bac",
        lam_c.reshape(p * batch, left, d, right),
        psi.reshape(p * batch, left, d, right),
    )


class StackedGradContext:
    """Accumulators and scratch threaded through an adjoint walk.

    The cotangent ping-pongs between two preallocated buffers: each
    backward step reads the current ``lam`` array and writes its successor
    into the buffer ``lam`` does not occupy, so the walk allocates no
    full-state arrays after setup.
    """

    __slots__ = ("p", "batch", "grad_weights", "grad_inputs", "_scratch")

    def __init__(self, p, batch, grad_weights, grad_inputs, state_shape,
                 dtype=np.complex128):
        self.p = p
        self.batch = batch
        self.grad_weights = grad_weights  # (p, n_weights)
        self.grad_inputs = grad_inputs  # (p * batch, n_inputs) or None
        self._scratch = (
            np.empty(state_shape, dtype=dtype),
            np.empty(state_shape, dtype=dtype),
        )

    def out_for(self, lam):
        """The scratch buffer ``lam`` does not currently occupy."""
        return self._scratch[1] if lam is self._scratch[0] else self._scratch[0]


# ---------------------------------------------------------------------------
# Instructions
# ---------------------------------------------------------------------------
#
# Every ``apply(state, data, p, batch, out=None)`` is *pure*: it never
# mutates ``state`` and writes its result to ``out`` (a fresh array when
# None).  Purity is what lets the forward pass checkpoint post-block states
# by reference and the adjoint walk ping-pong between two scratch buffers;
# ``out``, when given, is C-contiguous and never aliases the input.


class _SDense:
    """A dense block: one fused run, or two merged on adjacent wires.

    ``slots`` holds one entry per wire of the block (1 or 2): the member
    operations of that wire's fused run plus its static-group coordinates
    (or None for dynamic runs, bound per instruction).  A pair block applies
    the kron of its two fused 2x2s as a single 4x4 pass; per-member
    gradients contract the member's 2x2 effective generator against the
    partial trace of the block's 4x4 transition matrix, so merging never
    changes any gradient.
    """

    __slots__ = ("wires", "left", "right", "d", "slots", "touched")

    def __init__(self, wires, left, right, slots):
        self.wires = wires
        self.left = left
        self.right = right
        self.d = 2 ** len(wires)
        self.slots = slots  # tuple of (members, group, row) per wire
        self.touched = frozenset(wires)

    def _bind_slot(
        self, slot, inputs, weights, batch, with_grads, group_data, cdtype
    ):
        members, group, row = slot
        if group is not None:
            fused, geffs = group_data[group]
            grads = ()
            if with_grads:
                grads = tuple(
                    (op.source, geffs[j][:, row])
                    for j, op in enumerate(members)
                )
            return fused[:, row], grads, True
        # Dynamic run: at least one member is input-sourced -> per-row mats.
        layers = []
        for op in members:
            kind, index = op.source
            if kind == "weight":
                theta = np.repeat(weights[:, index], batch)
            else:
                theta = inputs[:, index]
            layers.append(G.PARAMETRIC_GATES[op.name](theta, cdtype))
        fused, geffs = _fuse(layers, members, with_grads, cdtype)
        grads = ()
        if with_grads:
            grads = tuple((op.source, geffs[j]) for j, op in enumerate(members))
        return fused, grads, False

    def bind(self, inputs, weights, p, batch, with_grads, group_data, cdtype):
        bound = [
            self._bind_slot(
                slot, inputs, weights, batch, with_grads, group_data, cdtype
            )
            for slot in self.slots
        ]
        if len(bound) == 1:
            matrix, grads, per_patch = bound[0]
            grads = tuple((source, 0, geff) for source, geff in grads)
            return matrix, grads, per_patch
        (m1, g1, pp1), (m2, g2, pp2) = bound
        if pp1 != pp2:  # mixed static/dynamic pair: expand static to per-row
            if pp1:
                m1 = np.repeat(m1, batch, axis=0)
                g1 = tuple((s, np.repeat(g, batch, axis=0)) for s, g in g1)
            else:
                m2 = np.repeat(m2, batch, axis=0)
                g2 = tuple((s, np.repeat(g, batch, axis=0)) for s, g in g2)
        matrix = _kron_rows(m1, m2)
        grads = tuple((source, 0, geff) for source, geff in g1) + tuple(
            (source, 1, geff) for source, geff in g2
        )
        return matrix, grads, pp1 and pp2

    def apply(self, state, data, p, batch, out=None):
        matrix, __, per_patch = data
        return apply_dense(
            state, matrix, p, batch, self.left, self.d, self.right, per_patch,
            out=out,
        )

    def needs_state(self, data):
        return bool(data[1])

    def backward_step(self, lam, data, checkpoint, ctx):
        matrix, grads, per_patch = data
        p, batch = ctx.p, ctx.batch
        if grads:
            # One transition matrix per block serves every member gradient;
            # it stays per-patch unless some member needs per-sample values
            # (input-sourced params scatter into per-row input gradients).
            # The ket side comes straight from the forward checkpoint.
            need_rows = not per_patch or any(
                source[0] == "input" for source, __, ___ in grads
            )
            m_block = transition_matrix(
                checkpoint, lam, p, batch, self.left, self.d, self.right,
                per_patch=not need_rows,
            )
            if self.d == 4:
                m5 = m_block.reshape(m_block.shape[0], 2, 2, 2, 2)
                traces = (
                    np.einsum("paece->pac", m5),
                    np.einsum("paeaf->pef", m5),
                )
            else:
                traces = (m_block,)
            for source, slot, geff in grads:
                kind, index = source
                per = np.einsum("pac,pac->p", geff, traces[slot]).imag
                if kind == "weight":
                    if need_rows:
                        per = per.reshape(p, batch).sum(axis=1)
                    ctx.grad_weights[:, index] += per
                else:
                    ctx.grad_inputs[:, index] += per
        return apply_dense(
            lam, _dagger(matrix), p, batch, self.left, self.d, self.right,
            per_patch, out=ctx.out_for(lam),
        )


class _SPermutation:
    """Basis-index gather (a CNOT); consecutive permutations are composed
    at compile time, so it carries an explicit inverse for the backward
    walk."""

    __slots__ = ("perm", "inv", "touched")

    def __init__(self, perm, wires):
        self.perm = perm
        self.inv = np.argsort(perm)
        self.touched = frozenset(wires)

    def compose(self, later: "_SPermutation") -> "_SPermutation":
        """This permutation followed by ``later`` as one gather."""
        return _SPermutation(
            self.perm[later.perm], self.touched | later.touched
        )

    def bind(self, inputs, weights, p, batch, with_grads, group_data, cdtype):
        return None

    def apply(self, state, data, p, batch, out=None):
        # np.take, not state[:, perm]: fancy indexing along axis 1 yields
        # an F-ordered array, which would poison downstream reshape-view
        # kernels.
        return np.take(state, self.perm, axis=1, out=out)

    def needs_state(self, data):
        return False

    def backward_step(self, lam, data, checkpoint, ctx):
        return np.take(lam, self.inv, axis=1, out=ctx.out_for(lam))


def _fuse(layers, members, with_grads, cdtype):
    """Product of a run's gate stacks and each member's effective generator.

    ``layers[j]`` is the ``(..., 2, 2)`` stack of ``members[j]``; the fused
    matrix is ``layers[-1] @ ... @ layers[0]``.  With ``with_grads`` the
    member at ``j`` gets ``S G S^dagger``, where ``S`` is the product of
    the members after it (``G`` itself for the last one), so adjoint
    gradients stay exact through the fusion.
    """
    suffix = None
    geffs: list[np.ndarray | None] = [None] * len(layers)
    for j in range(len(layers) - 1, -1, -1):
        if with_grads:
            gen = G.generator(members[j].name, cdtype)
            if suffix is None:
                geffs[j] = np.broadcast_to(gen, layers[j].shape)
            else:
                geffs[j] = suffix @ gen @ _dagger(suffix)
        suffix = layers[j] if suffix is None else np.matmul(suffix, layers[j])
    return suffix, geffs


class _SStaticGroup:
    """Bulk binding of weight-only fused runs against ``(p, n_weights)``.

    One vectorized gate construction per member position over a
    ``(p, count)`` angle table, one batched-matmul sweep for fused matrices
    and effective generators — all ``(p, count, 2, 2)``.
    """

    __slots__ = ("members", "widx", "count")

    def __init__(self, runs):
        self.count = len(runs)
        self.members = runs[0]
        self.widx = [
            np.array([run[j].source[1] for run in runs], dtype=np.intp)
            for j in range(len(self.members))
        ]

    def bind(self, weights, with_grads, cdtype):
        layers = [
            G.PARAMETRIC_GATES[op.name](weights[:, widx], cdtype)
            for op, widx in zip(self.members, self.widx)
        ]
        return _fuse(layers, self.members, with_grads, cdtype)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


class StackedPlan:
    """A lowered multi-bind program: p instances of one circuit per pass."""

    __slots__ = ("n_wires", "signature", "instructions", "groups")

    def __init__(self, n_wires, signature, instructions, groups):
        self.n_wires = n_wires
        self.signature = signature
        self.instructions = instructions
        self.groups = groups

    @property
    def n_instructions(self) -> int:
        return len(self.instructions)

    def bind(self, inputs, weights, p, batch, with_grads,
             cdtype=np.complex128) -> list:
        """Resolve against ``(p, n_weights)`` weights (and flat inputs).

        ``cdtype`` is the complex dtype of every bound matrix — it
        must match the stacked state the plan will run on.
        """
        cdtype = np.dtype(cdtype)
        group_data = [g.bind(weights, with_grads, cdtype) for g in self.groups]
        return [
            instr.bind(inputs, weights, p, batch, with_grads, group_data, cdtype)
            for instr in self.instructions
        ]

    def run(self, state, bound: list, p: int, batch: int, record=None):
        """Execute the bound program on a ``(p * batch, 2**n)`` state.

        Instructions are *pure* — each apply returns a fresh array and
        never mutates its input.  When ``record`` is a list, the
        post-instruction state is appended (by reference, no copies) for
        every instruction whose backward needs it; the adjoint walk then
        reads the ket side from these checkpoints instead of un-applying
        it, halving the dense work of the backward pass.
        """
        for instr, data in zip(self.instructions, bound):
            state = instr.apply(state, data, p, batch)
            if record is not None:
                record.append(state if instr.needs_state(data) else None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"{type(self).__name__}(wires={self.n_wires}, "
            f"instructions={len(self.instructions)}, groups={len(self.groups)})"
        )


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _schedule_stacked(instructions: list) -> list:
    """Commutation-aware peephole pass over the lowered instruction list.

    Instructions on disjoint wires commute, which licenses three rewrites
    that shrink the SEL hot loop (where Rot runs interleave with the CNOT
    ring) without changing any output or gradient:

    * a single-wire dense block merges with an earlier adjacent-wire single
      reachable across disjoint instructions, forming one 4x4 kron block;
    * an unmerged dense block slides before a trailing stretch of
      disjoint-wire permutations, clustering the permutations together;
    * consecutive permutations compose into a single index gather (one
      gather per CNOT ring instead of one per CNOT).
    """
    out: list = []

    def merge_pair(target: int, instr: _SDense) -> None:
        prev = out[target]
        low, high = sorted((prev, instr), key=lambda s: s.wires[0])
        out[target] = _SDense(
            (low.wires[0], high.wires[0]),
            low.left,
            high.right,
            (low.slots[0], high.slots[0]),
        )

    for instr in instructions:
        if isinstance(instr, _SDense) and len(instr.wires) == 1:
            wire = instr.wires[0]
            target = None
            for j in range(len(out) - 1, -1, -1):
                prev = out[j]
                if (
                    isinstance(prev, _SDense)
                    and len(prev.wires) == 1
                    and abs(prev.wires[0] - wire) == 1
                ):
                    target = j
                    break
                if wire in prev.touched:
                    break
            if target is not None:
                merge_pair(target, instr)
                continue
            # No partner: slide before trailing disjoint permutations so the
            # ring gathers end up adjacent (and later singles can reach us).
            insert_at = len(out)
            while (
                insert_at > 0
                and isinstance(out[insert_at - 1], _SPermutation)
                and wire not in out[insert_at - 1].touched
            ):
                insert_at -= 1
            out.insert(insert_at, instr)
            continue
        if isinstance(instr, _SPermutation) and out and isinstance(
            out[-1], _SPermutation
        ):
            out[-1] = out[-1].compose(instr)
            continue
        out.append(instr)
    return out


def _lower_cnot(op: Operation, n_wires: int) -> _SPermutation:
    """The CNOT as a gather: flip the target bit where the control bit is set."""
    control, target = (n_wires - 1 - w for w in op.wires)
    indices = np.arange(2**n_wires)
    return _SPermutation(
        indices ^ (((indices >> control) & 1) << target), op.wires
    )


def compile_stacked(circuit: Circuit) -> StackedPlan:
    """Lower a circuit into a :class:`StackedPlan` (no caching)."""
    n = circuit.n_wires
    instructions: list = []
    open_runs: dict[int, list[Operation]] = {}
    group_index: dict[tuple, int] = {}
    group_runs: list[list[tuple[Operation, ...]]] = []

    def flush(wire: int) -> None:
        members = open_runs.pop(wire, None)
        if not members:
            return
        members = tuple(members)
        group = row = None
        if all(op.source[0] == "weight" for op in members):
            sig = tuple(op.name for op in members)
            group = group_index.setdefault(sig, len(group_runs))
            if group == len(group_runs):
                group_runs.append([])
            row = len(group_runs[group])
            group_runs[group].append(members)
        left, right = 2**wire, 2 ** (n - 1 - wire)
        instructions.append(
            _SDense((wire,), left, right, ((members, group, row),))
        )

    for op in circuit.ops:
        _validate_wires(op, n)
        if op.name == "CNOT":
            for wire in op.wires:
                flush(wire)
            instructions.append(_lower_cnot(op, n))
        else:
            open_runs.setdefault(op.wires[0], []).append(op)
    for wire in sorted(open_runs):
        flush(wire)

    instructions = _schedule_stacked(instructions)
    groups = [_SStaticGroup(runs) for runs in group_runs]
    return StackedPlan(n, circuit_signature(circuit), instructions, groups)


# Structural plan cache: patched layers build p identical sub-circuits,
# which all share one lowered program.  Keyed by the full signature, so it
# can never hand back a stale program; bounded in practice by the handful
# of circuit shapes a model uses.
_SPLAN_CACHE: dict[tuple, StackedPlan] = {}


def stacked_plan(circuit: Circuit) -> StackedPlan:
    """The circuit's cached stacked plan, recompiled when structure changes."""
    cached = getattr(circuit, "_stacked_plan", None)
    signature = circuit_signature(circuit)
    if cached is not None and cached.signature == signature:
        return cached
    plan = _SPLAN_CACHE.get(signature)
    if plan is None:
        plan = compile_stacked(circuit)
        _SPLAN_CACHE[signature] = plan
    circuit._stacked_plan = plan
    return plan
