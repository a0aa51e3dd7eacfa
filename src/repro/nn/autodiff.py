"""Recorded-tape reverse-mode autodiff: Node, VJP registry, backward walk.

This module is the graph substrate under :class:`repro.nn.tensor.Tensor`,
built after autograd's record-then-LIFO core.  It replaces the original
per-op backward-closure design (every operation captured its operands in a
bespoke ``_backward`` closure) with three small pieces:

* a :class:`Primitive` per differentiable operation, whose VJPs
  (vector-Jacobian products) live in a registry filled by :func:`defvjp` /
  :func:`defvjp_all` — one table entry per primitive instead of one closure
  per call;
* a :class:`Node` recorded on each output tensor: the primitive, the
  operands' raw arrays, and the non-differentiable parameters — everything
  a VJP needs, with no per-call closure allocation;
* one backward walk, :func:`backward_pass`, shared by every op, classical
  or quantum: the tape recorded during the forward pass, walked in reverse
  topological order, each node's registered VJPs applied to its cotangent.

VJPs take and return raw numpy arrays.  There is no compile step and no
plan cache, and nothing records the backward computation itself, so the
tape supports first-order gradients only — all the paper's Adam training
needs.

The recording flag (``no_grad`` / ``is_grad_enabled``) lives here too.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "Primitive",
    "Node",
    "defvjp",
    "defvjp_all",
    "no_grad",
    "is_grad_enabled",
    "topo_order",
    "backward_pass",
]

# Single mutable cell so every module sees flag flips immediately.
_GRAD_ENABLED = [True]


def is_grad_enabled() -> bool:
    """Return whether new ops will be recorded on the autodiff tape."""
    return _GRAD_ENABLED[0]


class no_grad:
    """Disable gradient recording — context manager *and* decorator.

    ``with no_grad(): ...`` scopes the flag like ``torch.no_grad``;
    ``@no_grad()`` (or bare ``@no_grad``) wraps a whole function so every
    call runs untracked.
    """

    def __new__(cls, func=None):
        if func is None:
            return super().__new__(cls)
        # Bare ``@no_grad`` decoration (no parentheses).
        return cls()(func)

    def __enter__(self):
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = False
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_ENABLED[0] = self._prev

    def __call__(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        return wrapper


# ----------------------------------------------------------------------
# Primitive registry
# ----------------------------------------------------------------------
class Primitive:
    """A named differentiable operation with registered VJPs.

    ``vjps`` is a per-argnum tuple of functions ``vjp(g, ans, operands,
    params) -> grad``; ``vjp_all`` (exclusive with ``vjps``) computes every
    requested argnum in one call — used where one engine invocation serves
    all operands (the quantum adjoint).  ``g``, ``ans`` and ``operands``
    are raw arrays.
    """

    __slots__ = ("name", "vjps", "vjp_all")

    def __init__(self, name: str):
        self.name = name
        self.vjps: tuple | None = None
        self.vjp_all = None

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Primitive({self.name!r})"


def defvjp(prim: Primitive, *vjps) -> Primitive:
    """Register one VJP per positional operand of ``prim``."""
    prim.vjps = vjps
    return prim


def defvjp_all(prim: Primitive, vjp_all) -> Primitive:
    """Register a fused VJP computing every requested operand gradient.

    ``vjp_all(g, ans, operands, params, argnums)`` must return one gradient
    per entry of ``argnums`` (in order); entries may be None to skip.
    """
    prim.vjp_all = vjp_all
    return prim


class Node:
    """One recorded tape entry: which primitive produced a tensor, from what.

    ``vals`` holds the operands' raw arrays (extracted once at record
    time), ``params`` the non-differentiable parameters, and ``parents``
    the ``(argnum, tensor)`` pairs that require gradients — the edges the
    backward walk follows.
    """

    __slots__ = ("prim", "vals", "params", "parents")

    def __init__(self, prim, vals, params, parents):
        self.prim = prim
        self.vals = vals
        self.params = params
        self.parents = parents


# ----------------------------------------------------------------------
# Backward walk
# ----------------------------------------------------------------------
def topo_order(root) -> list:
    """Post-order of the graph reachable from ``root`` through parents."""
    order: list = []
    visited: set[int] = set()
    stack: list[tuple] = [(root, False)]
    pop = stack.pop
    push = stack.append
    seen = visited.__contains__
    mark = visited.add
    emit = order.append
    while stack:
        t, processed = pop()
        if processed:
            emit(t)
            continue
        ti = id(t)
        if seen(ti):
            continue
        mark(ti)
        node = t._node
        if node is None:
            # Leaves have no parents: emit directly, skipping the
            # re-push/re-pop round-trip of the generic case.
            emit(t)
            continue
        push((t, True))
        for __, parent in node.parents:
            if not seen(id(parent)):
                push((parent, False))
    return order


def backward_pass(root, seed: np.ndarray, retain_graph: bool = False) -> None:
    """Propagate ``seed`` from ``root`` into every leaf's ``.grad`` buffer.

    This is the walk behind :meth:`Tensor.backward`: one registered VJP
    call per edge, applied in reverse topological order, with every
    contribution going through ``Tensor._accumulate`` (which owns the
    precision policy's grad dtype).  Intermediate (non-leaf) gradients are
    cleared up front so ``retain_graph`` reruns are correct (torch
    semantics), and each cotangent is released the moment its node's VJPs
    have read it, so peak memory is bounded by the graph *frontier*, not
    the whole tape, and only leaves carry a ``.grad`` after the walk.  The
    graph is torn down afterwards unless ``retain_graph`` is set.
    """
    if root._node is None:
        # Leaf root: no graph to walk, the seed is the gradient.
        root._accumulate(seed)
        return
    order = topo_order(root)
    for t in order:
        if t._node is not None:
            t.grad = None
    root._accumulate(seed)
    for t in reversed(order):
        node = t._node
        if node is None or t.grad is None:
            continue
        g = t.grad
        t.grad = None
        prim = node.prim
        if prim.vjp_all is not None:
            argnums = tuple(a for a, __ in node.parents)
            grads = prim.vjp_all(g, t.data, node.vals, node.params, argnums)
            for (__, parent), pg in zip(node.parents, grads):
                if pg is not None and parent.requires_grad:
                    parent._accumulate(pg)
        else:
            vjps = prim.vjps
            for argnum, parent in node.parents:
                if parent.requires_grad:
                    parent._accumulate(
                        vjps[argnum](g, t.data, node.vals, node.params)
                    )
    if not retain_graph:
        for t in order:
            t._node = None
