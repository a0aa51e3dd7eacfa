"""Compiled backward plans: lower a recorded tape once, run it many times.

Every training step re-records a structurally identical tape, yet the
generic walk in :mod:`repro.nn.autodiff` re-derives the same dispatch
decisions per step: which VJP to call for each node, which parents
receive gradients, whether a contribution is the first into a buffer.
This module gives the classical tape the same lower-once/run-many
treatment the quantum engine gives circuits (``stacked_plan``):

* :func:`tape_signature` fingerprints a tape structurally — primitive
  sequence, operand shapes/dtypes, parent wiring, and the current
  requires-grad mask — exactly like ``circuit_signature`` keys circuit
  plans.  Any structural change (a shape, a dtype or precision-policy
  switch, a ``requires_grad_`` flip, a ``no_grad`` branch taken the other
  way) produces a different signature and transparently recompiles.
* :class:`GraphPlan` lowers the tape into a flat backward program:
  per-node dispatch is resolved at compile time (no registry lookups, no
  ``parents`` re-tupling, no per-edge requires-grad checks), and runs of
  single-consumer elementwise nodes (``mul``/``add``/``exp``/``tanh``/
  ``relu``/…) fuse into one composite VJP evaluated in a single pass —
  the classical analogue of the engine's fused single-qubit runs.
* Cotangent accumulation buffers are preallocated on the plan and reused
  across steps, with in-place accumulation wherever an ownership analysis
  proves it safe (see ``_OWN_*`` below); gradients stay bit-identical to
  the uncompiled walk because every fused kernel performs the exact same
  numpy operations in the exact same order, merely in place.
* Two further buffer families kill the remaining per-step allocations:
  2-d matmul VJP edges whose reference form is a bare GEMM write
  straight into plan-owned edge buffers (``out=`` runs the identical
  dgemm), and fused runs carry one staging temp so
  ``tanh``/``sigmoid``/``pow_const`` kernels stop allocating their
  shape-of-gradient intermediate.  View-shaped VJPs
  (transpose/reshape/astype return a view of the incoming cotangent)
  *inherit* the incoming ownership instead of pessimistically aliasing,
  so elementwise work keeps running in place across layout changes.

Plans are cached globally on their signature; :func:`plan_cache_stats`
exposes hit/miss/compile counters so tests can assert that steps 2+ of a
training loop never re-lower.  ``Tensor.backward`` always runs the cached
plan; the interpreted walk
(:func:`repro.nn.autodiff.naive_backward_pass`) is the reference it is
differentially tested against, and nothing in the library selects it.
The functional :func:`repro.nn.autodiff.grad` does not use plans.

Ownership levels
----------------
Bit-identical in-place execution hinges on knowing which arrays the walk
is allowed to mutate:

* ``_OWN_ALIAS`` (0) — the array may alias forward-graph state, a user
  seed, or a returned cotangent: never mutated.
* ``_OWN_SCRATCH`` (1) — a plan-owned persistent buffer: mutable this
  walk, but never handed out as a leaf ``.grad`` (it will be reused next
  step).
* ``_OWN_FRESH`` (2) — freshly allocated by a VJP this walk and
  referenced nowhere else: mutable *and* adoptable, so a leaf can take it
  as its ``.grad`` without the defensive copy the uncompiled walk pays.
"""

from __future__ import annotations

import numpy as np

from .precision import default_precision, grad_dtype

__all__ = [
    "GraphPlan",
    "tape_signature",
    "plan_for_backward",
    "plan_cache_stats",
    "clear_plan_cache",
]

_OWN_ALIAS = 0
_OWN_SCRATCH = 1
_OWN_FRESH = 2
# Edge-freshness marker, never a runtime ownership level: the VJP returns
# a bijective view of the incoming cotangent (transpose/reshape/astype),
# so its ownership is whatever the incoming cotangent's ownership is,
# resolved at execution time.  Bijectivity matters: every element of the
# view maps to exactly one element of the base, so in-place accumulation
# through the view is sound, which is not true of broadcast views.
_OWN_INHERIT = 3

# ----------------------------------------------------------------------
# Structural signature
# ----------------------------------------------------------------------
# Section separator inside the flat signature stream.  It equals only
# itself, so the variable-length parent/operand sections of consecutive
# nodes can never shift into alignment between two different structures.
_SEP = object()


def tape_signature(order) -> tuple:
    """Structural fingerprint of a recorded tape (and its slot index map).

    The signature is a single flat tuple — this function runs once per
    ``backward()`` even on cache hits, so it avoids per-node nested-tuple
    construction.  Leaves contribute ``None, shape, dtype, requires_grad``;
    recorded nodes contribute the primitive (hashed by identity —
    primitives are module singletons), the output shape/dtype, the parent
    wiring as ``argnum, slot, requires_grad`` triples, and every operand's
    shape/dtype, with the two variable-length sections ``_SEP``-terminated
    so the stream parses back to exactly one structure.  Returns
    ``(signature, index)`` where ``index`` maps ``id(tensor) -> slot``.
    """
    parts: list = []
    ap = parts.append
    index: dict[int, int] = {}
    i = 0
    for t in order:
        index[id(t)] = i
        i += 1
        node = t._node
        data = t.data
        if node is None:
            ap(None)
            ap(data.shape)
            ap(data.dtype.num)
            ap(t.requires_grad)
        else:
            ap(node.prim)
            ap(data.shape)
            ap(data.dtype.num)
            for a, p in node.parents:
                ap(a)
                ap(index[id(p)])
                ap(p.requires_grad)
            ap(_SEP)
            for v in node.vals:
                ap(v.shape)
                ap(v.dtype.num)
            ap(_SEP)
    return tuple(parts), index


# ----------------------------------------------------------------------
# Freshness analysis: which registered VJPs return arrays that alias
# nothing (safe to adopt as a leaf .grad, safe to mutate downstream)?
# Keyed by (primitive name, argnum); values are True (always a fresh
# allocation), False (may alias the upstream cotangent or a view of it),
# "unb" (fresh exactly when unbroadcasting actually reduces), or "view"
# (a bijective view of the cotangent — inherits its ownership at run
# time, so a fresh matmul gradient flowing through e.g. ``transpose``
# stays adoptable by the leaf on the far side).
# ----------------------------------------------------------------------
_VJP_FRESHNESS: dict[tuple[str, int], object] = {
    ("add", 0): "unb", ("add", 1): "unb",
    ("sub", 0): "unb", ("sub", 1): True,   # -g allocates
    ("neg", 0): True,
    ("mul", 0): True, ("mul", 1): True,
    ("div", 0): True, ("div", 1): True,
    ("pow_const", 0): True,
    ("pow", 0): True, ("pow", 1): True,
    ("matmul", 0): True, ("matmul", 1): True,
    ("exp", 0): True, ("log", 0): True, ("sqrt", 0): True,
    ("relu", 0): True, ("sigmoid", 0): True, ("tanh", 0): True,
    ("abs", 0): True, ("clip", 0): True,
    ("sum", 0): False,            # broadcast_to view of g
    ("max", 0): True,
    ("reshape", 0): "view", ("transpose", 0): "view",
    ("astype", 0): "view",        # astype(copy=False) may return g itself
    ("broadcast_to", 0): "unb",
    ("getitem", 0): True,         # np.add.at into a zeros buffer
}


def _edge_freshness(prim_name: str, argnum: int, parent_shape, out_shape) -> int:
    rule = _VJP_FRESHNESS.get((prim_name, argnum), False)
    if rule == "unb":
        return _OWN_FRESH if parent_shape != out_shape else _OWN_ALIAS
    if rule == "view":
        return _OWN_INHERIT
    return _OWN_FRESH if rule is True else _OWN_ALIAS


# ----------------------------------------------------------------------
# Fused elementwise kernels.  Each mirrors the registered VJP expression
# operation for operation (same ufuncs, same association order) so the
# result is bit-identical — the only difference is writing into ``g`` in
# place when the ownership level allows, instead of allocating per node.
# Each kernel takes ``(g, own, ans, vals, params, tmp)`` and returns the
# updated ``(g, own)``.  ``tmp`` is an optional plan-owned staging buffer
# (the run's shape, the plan's grad dtype): kernels that need a
# shape-of-``g`` intermediate even when they own ``g`` (tanh, sigmoid,
# pow_const) stage it there instead of allocating — guarded by exact
# shape/dtype match so a mismatch silently falls back to the allocating
# expression and numeric promotion never changes.
# ----------------------------------------------------------------------
def _k_identity(g, own, ans, vals, params, tmp=None):
    return g, own


def _k_neg(g, own, ans, vals, params, tmp=None):
    if own:
        return np.negative(g, out=g), own
    return -g, _OWN_FRESH


def _make_mul_by(operand_index):
    def kernel(g, own, ans, vals, params, tmp=None):
        v = vals[operand_index]
        if own:
            return np.multiply(g, v, out=g), own
        return g * v, _OWN_FRESH

    return kernel


_k_mul0 = _make_mul_by(1)
_k_mul1 = _make_mul_by(0)


def _k_div0(g, own, ans, vals, params, tmp=None):
    v = vals[1]
    if own:
        return np.divide(g, v, out=g), own
    return g / v, _OWN_FRESH


def _k_exp(g, own, ans, vals, params, tmp=None):
    if own:
        return np.multiply(g, ans, out=g), own
    return g * ans, _OWN_FRESH


def _k_log(g, own, ans, vals, params, tmp=None):
    if own:
        return np.divide(g, vals[0], out=g), own
    return g / vals[0], _OWN_FRESH


def _k_sqrt(g, own, ans, vals, params, tmp=None):
    # g * 0.5 / ans, left to right.
    if own:
        np.multiply(g, 0.5, out=g)
        return np.divide(g, ans, out=g), own
    return g * 0.5 / ans, _OWN_FRESH


def _k_relu(g, own, ans, vals, params, tmp=None):
    mask = params["mask"]
    if own:
        return np.multiply(g, mask, out=g), own
    return g * mask, _OWN_FRESH


def _k_sigmoid(g, own, ans, vals, params, tmp=None):
    # g * ans * (1.0 - ans), left to right.
    if tmp is not None and tmp.shape == ans.shape and tmp.dtype == ans.dtype:
        s = np.subtract(1.0, ans, out=tmp)
    else:
        s = 1.0 - ans
    if own:
        np.multiply(g, ans, out=g)
    else:
        g = g * ans
        own = _OWN_FRESH
    return np.multiply(g, s, out=g), own


def _k_tanh(g, own, ans, vals, params, tmp=None):
    # g * (1.0 - ans**2); numpy lowers ``ans**2`` to square.
    if tmp is not None and tmp.shape == ans.shape and tmp.dtype == ans.dtype:
        s = np.square(ans, out=tmp)
    else:
        s = np.square(ans)
    np.subtract(1.0, s, out=s)
    if own:
        return np.multiply(g, s, out=g), own
    return g * s, _OWN_FRESH


def _k_abs(g, own, ans, vals, params, tmp=None):
    sign = params["sign"]
    if own and sign.dtype == g.dtype:
        return np.multiply(g, sign, out=g), own
    return g * sign, _OWN_FRESH


def _k_clip(g, own, ans, vals, params, tmp=None):
    mask = params["mask"]
    if own:
        return np.multiply(g, mask, out=g), own
    return g * mask, _OWN_FRESH


def _k_pow_const(g, own, ans, vals, params, tmp=None):
    # g * c * x**(c - 1), left to right; the exponent stays a Python
    # scalar so ``x ** (c - 1)`` takes the exact code path of the VJP.
    c = params["c"]
    x = vals[0]
    if (
        tmp is not None
        and not isinstance(c, complex)
        and tmp.shape == x.shape
        and tmp.dtype == x.dtype
    ):
        p = np.power(x, c - 1, out=tmp)
    else:
        p = x ** (c - 1)
    if not own:
        g = g * c
        own = _OWN_FRESH
    else:
        np.multiply(g, c, out=g)
    return np.multiply(g, p, out=g), own


# Kernels that profit from a staging buffer: a run containing any of
# these gets one plan-owned temp registered at lowering.
_TMP_KERNELS = frozenset((_k_sigmoid, _k_tanh, _k_pow_const))


# ``(prim name, argnum) -> kernel`` for chainable elementwise VJPs.  An
# edge qualifies only when the cotangent shape is preserved (checked at
# lowering), so no unbroadcast step is ever skipped.
_CHAIN_KERNELS: dict[tuple[str, int], object] = {
    ("add", 0): _k_identity, ("add", 1): _k_identity,
    ("sub", 0): _k_identity, ("sub", 1): _k_neg,
    ("neg", 0): _k_neg,
    ("mul", 0): _k_mul0, ("mul", 1): _k_mul1,
    ("div", 0): _k_div0,
    ("exp", 0): _k_exp, ("log", 0): _k_log, ("sqrt", 0): _k_sqrt,
    ("relu", 0): _k_relu, ("sigmoid", 0): _k_sigmoid, ("tanh", 0): _k_tanh,
    ("abs", 0): _k_abs, ("clip", 0): _k_clip,
    ("pow_const", 0): _k_pow_const,
}


def _chain_kernel(node, t, parent):
    """Kernel for ``node``'s single gradient edge, or None if not fusible."""
    if len(node.parents) != 1:
        return None
    argnum, p = node.parents[0]
    kernel = _CHAIN_KERNELS.get((node.prim.name, argnum))
    if kernel is None:
        return None
    out_shape = t.data.shape
    if out_shape == ():
        return None  # 0-d cotangents are numpy scalars — no out= kernels
    if p.data.shape != out_shape:
        return None  # an unbroadcast is involved — leave it to the VJP
    # Multiplicative kernels read the co-operand; it must broadcast
    # without changing the cotangent's shape.
    for v in node.vals:
        if v.shape not in ((), out_shape):
            return None
    return kernel


def _matmul_out_vjp(plan, key, argnum):
    """Backward-mode matmul VJP writing into a plan-owned edge buffer.

    Only installed when lowering has proven the reference VJP reduces to
    a single 2-d ``matmul`` whose natural result dtype equals the
    target's accumulation dtype (no unbroadcast, no reshape, no cast) —
    then ``out=`` runs the very same GEMM into a reusable buffer and the
    result is bit-identical.  The buffer is handed to the accumulator at
    ``_OWN_SCRATCH``: mutable during the walk, never adopted as a leaf
    ``.grad``, fully overwritten on the next walk.
    """
    if argnum == 0:
        def vjp(g, ans, vals, params):
            return np.matmul(
                g, vals[1].swapaxes(-1, -2), out=plan._edge_buf(key)
            )
    else:
        def vjp(g, ans, vals, params):
            return np.matmul(
                vals[0].swapaxes(-1, -2), g, out=plan._edge_buf(key)
            )
    return vjp


# Step kinds in the lowered program.
_STEP_RUN = 0      # fused elementwise run
_STEP_VJPS = 1     # per-argnum VJP dispatch, flattened at compile time
_STEP_VJP_ALL = 2  # fused multi-operand VJP (stack/concat/quantum)


class GraphPlan:
    """One lowered backward program for one tape structure.

    ``steps`` is the flat reverse program; each step carries its node's
    slot so execution can bind the *fresh* tape's arrays and params at run
    time — the plan never bakes in data, only structure.  Accumulation
    targets are ``(slot, want_dtype, is_leaf)`` triples resolved at
    compile time.  ``_bufs`` holds the per-slot cotangent accumulation
    buffers reused across executions.
    """

    __slots__ = (
        "signature", "n_slots", "steps", "root_slot", "root_want",
        "leaf_slots", "n_fused_nodes", "_bufs", "_buf_spec", "_edge_bufs",
        "_edge_spec", "_tmp_bufs", "_tmp_spec",
    )

    def __init__(self, order, signature):
        self.signature = signature
        self.n_slots = len(order)
        self.root_slot = self.n_slots - 1
        root = order[self.root_slot]
        self.root_want = grad_dtype(root.data.dtype)
        self.leaf_slots = tuple(
            i for i, t in enumerate(order) if t._node is None
        )
        self._bufs: dict[int, np.ndarray] = {}
        self._buf_spec: dict[int, tuple] = {}
        # Per-edge matmul output buffers and per-run kernel temp buffers;
        # like ``_bufs`` they are allocated lazily and reused across walks — nothing written to them ever escapes
        # the walk, so reuse is invisible.
        self._edge_bufs: dict[tuple, np.ndarray] = {}
        self._edge_spec: dict[tuple, tuple] = {}
        self._tmp_bufs: dict[int, np.ndarray] = {}
        self._tmp_spec: dict[int, tuple] = {}
        self.steps, self.n_fused_nodes = self._lower(order)

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def _lower(self, order):
        index = {id(t): i for i, t in enumerate(order)}
        # Contribution in-degree per slot: how many gradient edges feed it.
        indeg = [0] * len(order)
        for t in order:
            node = t._node
            if node is None:
                continue
            for argnum, p in node.parents:
                if p.requires_grad:
                    indeg[index[id(p)]] += 1

        def accum_for(slot):
            t = order[slot]
            want = grad_dtype(t.data.dtype)
            is_leaf = t._node is None
            if not is_leaf:
                self._buf_spec.setdefault(slot, (t.data.shape, want))
            return (slot, want, is_leaf)

        # The program visits nodes in exactly the reference walk's order
        # (reversed topological); leaves are never visited.
        node_slots = [
            slot for slot in range(len(order) - 1, -1, -1)
            if order[slot]._node is not None
        ]

        steps: list[tuple] = []
        fused_nodes = 0
        run_kernels: list[tuple] = []
        run_entry = -1
        run_expect = -1

        def close_run():
            nonlocal run_kernels, run_entry, run_expect
            if run_kernels:
                # Register one staging buffer for the run when a kernel
                # can use it (tanh/sigmoid/pow_const stage an
                # intermediate there instead of allocating).  The spec is
                # taken from the first eligible node; kernels re-check
                # shape/dtype at execution and fall back to allocating on
                # any mismatch, so a shared buffer is purely advisory.
                if run_entry not in self._tmp_spec:
                    for kernel, kslot in run_kernels:
                        if kernel not in _TMP_KERNELS:
                            continue
                        kt = order[kslot]
                        src = (
                            kt._node.vals[0]
                            if kernel is _k_pow_const
                            else kt.data
                        )
                        if np.issubdtype(src.dtype, np.inexact):
                            self._tmp_spec[run_entry] = (
                                src.shape, src.dtype
                            )
                            break
                steps.append((
                    _STEP_RUN,
                    run_entry,
                    tuple(run_kernels),
                    accum_for(run_expect),
                ))
            run_kernels = []
            run_entry = -1
            run_expect = -1

        for pos, slot in enumerate(node_slots):
            t = order[slot]
            node = t._node
            parent = node.parents[0][1] if node.parents else None
            kernel = (
                _chain_kernel(node, t, parent)
                if parent is not None and parent.requires_grad
                else None
            )
            if kernel is None:
                # If a run is open here its expected slot is this one
                # (guaranteed by the flow check below), so closing it now
                # stores this node's cotangent before the generic step
                # reads it.
                close_run()
                prim = node.prim
                if prim.vjp_all is not None:
                    argnums = tuple(a for a, __ in node.parents)
                    targets = tuple(
                        accum_for(index[id(p)]) if p.requires_grad else None
                        for __, p in node.parents
                    )
                    steps.append((_STEP_VJP_ALL, slot, prim.vjp_all,
                                  argnums, targets))
                else:
                    edges = []
                    for argnum, p in node.parents:
                        if not p.requires_grad:
                            continue
                        target = accum_for(index[id(p)])
                        vjp = prim.vjps[argnum]
                        fresh = _edge_freshness(
                            prim.name, argnum, p.data.shape, t.data.shape
                        )
                        # A 2-d matmul edge whose reference VJP is a bare
                        # GEMM (no unbroadcast/reshape) and whose natural
                        # result dtype equals the target's accumulation
                        # dtype can write straight into a plan-owned
                        # buffer.  The cotangent dtype is known here
                        # because the walk maintains
                        # ``cot[slot].dtype == want(slot)``.  Leaf
                        # targets are excluded: adoption needs a fresh
                        # array, so a scratch result would force a copy.
                        if (
                            prim.name == "matmul"
                            and not target[2]
                            and t.data.ndim == 2
                            and node.vals[0].ndim == 2
                            and node.vals[1].ndim == 2
                            and np.result_type(
                                grad_dtype(t.data.dtype),
                                node.vals[1 - argnum].dtype,
                            ) == target[1]
                        ):
                            key = (slot, argnum)
                            self._edge_spec[key] = (p.data.shape, target[1])
                            vjp = _matmul_out_vjp(self, key, argnum)
                            fresh = _OWN_SCRATCH
                        edges.append((vjp, target, fresh))
                    if edges:
                        steps.append((_STEP_VJPS, slot, tuple(edges)))
                continue
            # Fusible node: start a run or extend the one flowing into it.
            parent_slot = index[id(parent)]
            if not run_kernels:
                run_entry = slot
            run_kernels.append((kernel, slot))
            run_expect = parent_slot
            fused_nodes += 1
            # The run may keep flowing only if the parent is processed
            # immediately next (preserving the reference walk's
            # accumulation order), receives no other contribution, and
            # shares the run's accumulation dtype: the reference walk
            # casts each slot's cotangent to its ``want`` dtype, so
            # flowing across a want boundary would skip a cast the
            # reference performs.
            next_slot = node_slots[pos + 1] if pos + 1 < len(node_slots) else -1
            if (
                parent_slot != next_slot
                or indeg[parent_slot] != 1
                or grad_dtype(parent.data.dtype) != grad_dtype(t.data.dtype)
            ):
                close_run()
        close_run()
        return tuple(steps), fused_nodes

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _scratch(self, slot):
        buf = self._bufs.get(slot)
        if buf is None:
            shape, want = self._buf_spec[slot]
            buf = np.empty(shape, dtype=want)
            self._bufs[slot] = buf
        return buf

    def _edge_buf(self, key):
        buf = self._edge_bufs.get(key)
        if buf is None:
            shape, dtype = self._edge_spec[key]
            buf = np.empty(shape, dtype=dtype)
            self._edge_bufs[key] = buf
        return buf

    def _tmp(self, entry_slot):
        spec = self._tmp_spec.get(entry_slot)
        if spec is None:
            return None
        buf = self._tmp_bufs.get(entry_slot)
        if buf is None:
            buf = np.empty(spec[0], dtype=spec[1])
            self._tmp_bufs[entry_slot] = buf
        return buf

    def run_backward(self, order, seed) -> None:
        """Execute the program: leaf ``.grad`` semantics, bit-identical to
        the reference walk :func:`repro.nn.autodiff.naive_backward_pass`."""
        n = self.n_slots
        cot: list = [None] * n
        own: list = [0] * n
        mine: list = [False] * n  # leaf .grad buffers we created this walk

        def acc(target, pg, pg_own):
            slot, want, is_leaf = target
            # VJPs of 0-d tensors return numpy *scalars*; they carry no
            # adoptable/mutable buffer, so strip any ownership claim.
            if pg.__class__ is not np.ndarray:
                pg_own = _OWN_ALIAS
            if is_leaf:
                t = order[slot]
                cur = t.grad
                if cur is None:
                    if pg_own == _OWN_FRESH and pg.dtype == want:
                        t.grad = pg
                    else:
                        t.grad = np.array(pg, dtype=want, copy=True)
                    mine[slot] = True
                elif mine[slot]:
                    np.add(cur, pg, out=cur)
                else:
                    t._accumulate(pg)
                return
            prev = cot[slot]
            if prev is None:
                if pg.dtype == want:
                    cot[slot] = pg
                    own[slot] = pg_own
                else:
                    buf = self._scratch(slot)
                    np.copyto(buf, pg)
                    cot[slot] = buf
                    own[slot] = _OWN_SCRATCH
            elif own[slot]:
                np.add(prev, pg, out=prev)
            else:
                buf = self._scratch(slot)
                np.add(prev, pg, out=buf)
                cot[slot] = buf
                own[slot] = _OWN_SCRATCH

        # Seed the root exactly like root._accumulate would.
        root_slot = self.root_slot
        if seed.dtype == self.root_want:
            cot[root_slot] = seed
        else:
            cot[root_slot] = np.array(seed, dtype=self.root_want, copy=True)
            own[root_slot] = _OWN_FRESH

        for step in self.steps:
            kind = step[0]
            if kind == _STEP_RUN:
                g = cot[step[1]]
                if g is None:
                    continue
                g_own = own[step[1]]
                tmp = self._tmp(step[1])
                for kernel, slot in step[2]:
                    t = order[slot]
                    node = t._node
                    g, g_own = kernel(
                        g, g_own, t.data, node.vals, node.params, tmp
                    )
                acc(step[3], g, g_own)
            elif kind == _STEP_VJPS:
                slot = step[1]
                g = cot[slot]
                if g is None:
                    continue
                t = order[slot]
                node = t._node
                ans, vals, params = t.data, node.vals, node.params
                g_own = own[slot]
                for vjp, target, fresh in step[2]:
                    acc(target, vjp(g, ans, vals, params),
                        g_own if fresh == _OWN_INHERIT else fresh)
            else:  # _STEP_VJP_ALL
                slot = step[1]
                g = cot[slot]
                if g is None:
                    continue
                t = order[slot]
                node = t._node
                grads = step[2](g, t.data, node.vals, node.params, step[3])
                for target, pg in zip(step[4], grads):
                    if target is not None and pg is not None:
                        acc(target, pg, _OWN_ALIAS)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"GraphPlan(slots={self.n_slots}, steps={len(self.steps)}, "
            f"fused_nodes={self.n_fused_nodes})"
        )


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
_PLAN_CACHE: dict[tuple, GraphPlan] = {}
_STATS = {"hits": 0, "misses": 0}


def plan_cache_stats() -> dict:
    """Cache counters: ``hits``, ``misses`` (== compiles), and ``size``."""
    return {
        "hits": _STATS["hits"],
        "misses": _STATS["misses"],
        "size": len(_PLAN_CACHE),
    }


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters."""
    _PLAN_CACHE.clear()
    _STATS["hits"] = 0
    _STATS["misses"] = 0


def plan_for_backward(order) -> GraphPlan:
    """The cached plan for ``Tensor.backward``'s ``.grad`` semantics."""
    signature, __ = tape_signature(order)
    key = (default_precision().grad_real.num, signature)
    plan = _PLAN_CACHE.get(key)
    if plan is None:
        _STATS["misses"] += 1
        plan = GraphPlan(order, signature)
        _PLAN_CACHE[key] = plan
    else:
        _STATS["hits"] += 1
    return plan
