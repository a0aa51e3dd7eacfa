"""Recorded-tape reverse-mode autodiff: Node, VJP registry, backward walk.

This module is the graph substrate under :class:`repro.nn.tensor.Tensor`.
It replaces the original per-op backward-closure design (every operation
captured its operands in a bespoke ``_backward`` closure) with three small
pieces:

* a :class:`Primitive` per differentiable operation, whose VJPs
  (vector-Jacobian products) live in a registry filled by :func:`defvjp` /
  :func:`defvjp_all` — one table entry per primitive instead of one closure
  per call;
* a :class:`Node` recorded on each output tensor: the primitive, the
  operand tensors, their raw arrays, and the non-differentiable parameters
  — everything a VJP needs, with no per-call closure allocation;
* one backward walk per interface, shared by every op, classical or
  quantum (:func:`backward_pass` for ``Tensor.backward``'s ``.grad``
  semantics, :func:`grad` for the functional interface).

``Tensor.backward`` runs through a *compile layer* (:mod:`repro.nn.graph`):
since training steps re-record structurally identical tapes,
:func:`backward_pass` looks the tape up in a plan cache keyed on its
structural signature.  Step 1 lowers the tape into a flat backward
program (flattened VJP dispatch, fused elementwise chains, reusable
cotangent buffers); steps 2+ run the cached program.  The interpreted
loop it replaced stays as :func:`naive_backward_pass`, the reference
semantics the program is bit-identical to by construction and by
differential test; nothing in the library calls it.  :func:`grad` always
runs the interpreted :func:`_cotangent_walk`: its ``create_graph`` mode
re-records VJPs onto a fresh tape, so each run is structurally new work
by design, and no workload trains through it.

VJPs are *dual-mode*: the registry functions receive raw numpy arrays
during an ordinary first-order backward (no wrapper overhead on the hot
path) and :class:`~repro.nn.tensor.Tensor` operands when the walk runs
with ``create_graph=True`` — then every VJP is itself built from recorded
primitives, so the gradient of a gradient is just another tape walk.
:func:`hvp` packages the resulting Hessian-vector products.

The recording flag (``no_grad`` / ``enable_grad`` / ``is_grad_enabled``)
lives here too, because the graph-mode walk must be able to force
recording on while it replays VJPs.
"""

from __future__ import annotations

import functools

import numpy as np

from . import graph as _graph

__all__ = [
    "Primitive",
    "Node",
    "defvjp",
    "defvjp_all",
    "no_grad",
    "enable_grad",
    "is_grad_enabled",
    "topo_order",
    "backward_pass",
    "naive_backward_pass",
    "grad",
    "hvp",
    "register_tensor_type",
    "is_tensor",
]

# Single mutable cell so every module sees flag flips immediately.
_GRAD_ENABLED = [True]


def is_grad_enabled() -> bool:
    """Return whether new ops will be recorded on the autodiff tape."""
    return _GRAD_ENABLED[0]


class _GradMode:
    """Shared context-manager/decorator machinery for the recording flag."""

    _mode: bool = True

    def __new__(cls, func=None):
        if func is None:
            return super().__new__(cls)
        # Bare ``@no_grad`` / ``@enable_grad`` decoration (no parentheses).
        return cls()(func)

    def __enter__(self):
        self._prev = _GRAD_ENABLED[0]
        _GRAD_ENABLED[0] = self._mode
        return self

    def __exit__(self, *exc) -> None:
        _GRAD_ENABLED[0] = self._prev

    def __call__(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with type(self)():
                return fn(*args, **kwargs)

        return wrapper


class no_grad(_GradMode):
    """Disable gradient recording — context manager *and* decorator.

    ``with no_grad(): ...`` scopes the flag like ``torch.no_grad``;
    ``@no_grad()`` (or bare ``@no_grad``) wraps a whole function so every
    call runs untracked.
    """

    _mode = False


class enable_grad(_GradMode):
    """Force recording on inside a ``no_grad`` scope (manager/decorator).

    The graph-mode backward walk uses this so VJPs land on the tape even
    when a caller differentiates from inside a ``no_grad`` region.
    """

    _mode = True


# ----------------------------------------------------------------------
# Primitive registry
# ----------------------------------------------------------------------
class Primitive:
    """A named differentiable operation with registered VJPs.

    ``vjps`` is a per-argnum tuple of functions ``vjp(g, ans, operands,
    params) -> grad``; ``vjp_all`` (exclusive with ``vjps``) computes every
    requested argnum in one call — used where one engine invocation serves
    all operands (quantum adjoints) or where shared work should happen once
    (stack/concatenate).  ``operands`` are raw arrays in the fast walk and
    Tensors in the ``create_graph`` walk; VJP bodies are written to accept
    both.
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

    ``args`` holds the operand tensors (graph-mode VJP inputs), ``vals``
    their raw arrays (fast-walk VJP inputs, extracted once at record time),
    ``params`` the non-differentiable parameters, and ``parents`` the
    ``(argnum, tensor)`` pairs that require gradients — the edges the
    backward walk follows.
    """

    __slots__ = ("prim", "args", "vals", "params", "parents")

    def __init__(self, prim, args, vals, params, parents):
        self.prim = prim
        self.args = args
        self.vals = vals
        self.params = params
        self.parents = parents


# ----------------------------------------------------------------------
# Tensor-type registration (avoids a circular import with tensor.py)
# ----------------------------------------------------------------------
_TENSOR_TYPES: tuple[type, ...] = ()


def register_tensor_type(cls) -> type:
    """Tell the walk which class carries ``_node``/``grad`` (Tensor)."""
    global _TENSOR_TYPES
    if cls not in _TENSOR_TYPES:
        _TENSOR_TYPES = _TENSOR_TYPES + (cls,)
    return cls


def is_tensor(x) -> bool:
    """Whether ``x`` is a registered tape tensor (vs a raw array/scalar)."""
    return isinstance(x, _TENSOR_TYPES)


def _tensor_cls() -> type:
    if not _TENSOR_TYPES:  # pragma: no cover - import-order guard
        raise RuntimeError("no tensor type registered with the tape")
    return _TENSOR_TYPES[0]


# ----------------------------------------------------------------------
# Topological walk
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


def _walk_tape(root, seed, retain_graph, walk) -> None:
    """Shared frame of the two ``.grad`` walks.

    Intermediate (non-leaf) gradients are cleared up front so
    ``retain_graph`` reruns are correct (torch semantics), ``walk(root,
    order, seed)`` propagates, and the graph is torn down afterwards unless
    ``retain_graph`` is set.
    """
    if root._node is None:
        # Leaf root: no graph to walk, the seed is the gradient.
        root._accumulate(seed)
        return
    order = topo_order(root)
    for t in order:
        if t._node is not None:
            t.grad = None
    walk(root, order, seed)
    if not retain_graph:
        for t in order:
            t._node = None


def _run_plan(root, order, seed) -> None:
    _graph.plan_for_backward(order).run_backward(order, seed)


def _interpret(root, order, seed) -> None:
    root._accumulate(seed)
    for t in reversed(order):
        node = t._node
        if node is None or t.grad is None:
            continue
        g = t.grad
        # Release on consume: this node's cotangent is dead once its VJPs
        # have read ``g``.
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


def backward_pass(root, seed: np.ndarray, retain_graph: bool = False) -> None:
    """Propagate ``seed`` from ``root`` into every leaf's ``.grad`` buffer.

    This is the walk behind :meth:`Tensor.backward`: intermediate (non-leaf)
    gradients are cleared up front so ``retain_graph`` reruns are correct,
    leaf accumulation follows ``Tensor._accumulate`` (which owns the
    precision policy's grad dtype), and the graph is torn down afterwards
    unless ``retain_graph`` is set.  The walk body is the cached
    :class:`~repro.nn.graph.GraphPlan` lowered from the tape's structure;
    intermediate cotangents live in the plan, so only leaves carry a
    ``.grad`` after the walk.
    """
    _walk_tape(root, seed, retain_graph, _run_plan)


def naive_backward_pass(
    root, seed: np.ndarray, retain_graph: bool = False
) -> None:
    """Reference for :func:`backward_pass`: the interpreted tape walk.

    Same semantics, one registered VJP call per edge and every
    contribution through ``Tensor._accumulate``.  Intermediate cotangents
    are released the moment their node's VJPs have consumed them, so peak
    memory is bounded by the graph *frontier*, not the whole tape.  The
    compiled plan is bit-identical to this walk; tests and the autodiff
    benchmark compare against it.
    """
    _walk_tape(root, seed, retain_graph, _interpret)


def _node_grad_pairs(node, g, ans, operands):
    """Yield ``((argnum, parent), grad)`` for one node in either mode."""
    prim = node.prim
    if prim.vjp_all is not None:
        argnums = tuple(a for a, __ in node.parents)
        grads = prim.vjp_all(g, ans, operands, node.params, argnums)
        return zip(node.parents, grads)
    return (
        ((argnum, parent), prim.vjps[argnum](g, ans, operands, node.params))
        for argnum, parent in node.parents
    )


def _cotangent_walk(root, seed, order, create_graph: bool) -> dict:
    """Shared dict-based walk for the functional interface.

    Fast mode keeps cotangents as raw arrays; graph mode keeps them as
    Tensors and replays every VJP through recorded primitives (with
    recording forced on), so the returned gradients are themselves
    differentiable.
    """
    cot: dict[int, object] = {id(root): seed}
    if create_graph:
        with enable_grad():
            for t in reversed(order):
                node = t._node
                g = cot.get(id(t))
                if node is None or g is None:
                    continue
                for (__, parent), pg in _node_grad_pairs(node, g, t, node.args):
                    if pg is None:
                        continue
                    prev = cot.get(id(parent))
                    cot[id(parent)] = pg if prev is None else prev + pg
    else:
        for t in reversed(order):
            node = t._node
            g = cot.get(id(t))
            if node is None or g is None:
                continue
            for (__, parent), pg in _node_grad_pairs(node, g, t.data, node.vals):
                if pg is None:
                    continue
                prev = cot.get(id(parent))
                cot[id(parent)] = pg if prev is None else prev + pg
    return cot


# ----------------------------------------------------------------------
# Functional interface
# ----------------------------------------------------------------------
def grad(
    output,
    inputs,
    grad_output=None,
    retain_graph: bool | None = None,
    create_graph: bool = False,
    allow_unused: bool = False,
):
    """Gradients of ``output`` with respect to ``inputs`` (torch-style).

    Unlike :meth:`Tensor.backward` this does not touch any ``.grad``
    buffer: gradients come back as Tensors, one per input.  With
    ``create_graph=True`` the returned gradients carry their own tape, so
    they can be differentiated again — the entry point for Hessian-vector
    products and any grad-of-grad computation.

    Parameters
    ----------
    output:
        The tensor to differentiate (scalar unless ``grad_output`` is
        given).
    inputs:
        A tensor or sequence of tensors to differentiate with respect to
        (leaves or intermediates).
    grad_output:
        Upstream cotangent; defaults to 1 for scalar outputs.
    retain_graph:
        Keep the graph alive for another walk.  Defaults to
        ``create_graph``.
    create_graph:
        Record the backward computation itself, enabling higher-order
        gradients.
    allow_unused:
        Return None (instead of raising) for inputs the output does not
        depend on.
    """
    single = is_tensor(inputs)
    targets = (inputs,) if single else tuple(inputs)
    retain = create_graph if retain_graph is None else retain_graph
    if grad_output is None:
        if output.size != 1:
            raise ValueError(
                "grad() without an explicit grad_output requires a scalar "
                f"output, got shape {output.shape}"
            )
        seed = np.ones_like(output.data)
    else:
        seed = grad_output.data if is_tensor(grad_output) else grad_output
        seed = np.asarray(seed, dtype=output.dtype)
        if seed.shape != output.shape:
            seed = np.broadcast_to(seed, output.shape).copy()
    order = topo_order(output)
    tensor_cls = _tensor_cls()
    if create_graph:
        seed = tensor_cls(seed)
    cot = _cotangent_walk(output, seed, order, create_graph)
    if not retain:
        for t in order:
            t._node = None
    results = []
    for t in targets:
        g = cot.get(id(t))
        if g is None:
            if not allow_unused:
                raise ValueError(
                    "one of the differentiation targets is not reachable "
                    "from the output (pass allow_unused=True to get None)"
                )
            results.append(None)
        else:
            results.append(g if is_tensor(g) else tensor_cls(g))
    return results[0] if single else tuple(results)


def hvp(output, inputs, vectors, retain_graph: bool = False):
    """Hessian-vector products of a scalar ``output``: ``H @ v`` per input.

    Computed as the gradient of ``sum_i <grad_i, v_i>`` — one
    ``create_graph`` walk followed by one ordinary walk, never forming the
    Hessian.  Inputs the gradient does not depend on (linear parameters)
    get exact zero vectors back.
    """
    single = is_tensor(inputs)
    targets = (inputs,) if single else tuple(inputs)
    vecs = (vectors,) if single else tuple(vectors)
    if len(vecs) != len(targets):
        raise ValueError(
            f"expected {len(targets)} vectors, got {len(vecs)}"
        )
    grads = grad(output, targets, create_graph=True)
    dot = None
    for gi, vi in zip(grads, vecs):
        term = (gi * (vi.data if is_tensor(vi) else vi)).sum()
        dot = term if dot is None else dot + term
    products = grad(
        dot, targets, retain_graph=retain_graph, allow_unused=True
    )
    tensor_cls = _tensor_cls()
    results = tuple(
        tensor_cls(np.zeros_like(t.data)) if p is None else p
        for t, p in zip(targets, products)
    )
    return results[0] if single else results
