"""Reverse-mode automatic differentiation on numpy arrays.

This module is the substrate that replaces PyTorch's autograd for the
reproduction.  A :class:`Tensor` wraps a floating-point numpy array
together with an optional gradient buffer and — when gradients are being
recorded — a :class:`repro.nn.autodiff.Node` naming the primitive that
produced it.  Calling :meth:`Tensor.backward` on a scalar result
propagates gradients to every leaf tensor created with
``requires_grad=True``.

Design notes
------------
* **Tape + VJP registry, not per-op closures.**  Every operation is a
  registered :class:`~repro.nn.autodiff.Primitive` whose vector-Jacobian
  products live in a module-level table (``defvjp`` /``defvjp_all``) —
  one entry per op instead of a closure allocated per call.  Forward
  methods compute the result array (plus any forward-time constants such
  as activation masks or concat offsets) and record a single ``Node``;
  one generic topological walk in :mod:`repro.nn.autodiff` drives every
  backward, classical or quantum.  Quantum layers join the same tape by
  recording their engine adjoints as custom VJPs (``tape_record``).
* **One backward walk.**  ``Tensor.backward`` walks the recorded tape in
  reverse and applies each node's VJPs to raw numpy arrays — no compile
  step, no plan cache and no wrapper overhead on the hot path.  VJP math
  is kept expression-for-expression identical to the original per-op
  closures, so gradients are bit-identical to that design.  Gradients are
  first order only: nothing records the backward computation itself.
* Gradients follow numpy broadcasting: every op's VJP sums the upstream
  gradient back down to the operand's shape via :func:`_unbroadcast`.
* The graph is dynamic (define-by-run) and torn down after ``backward``
  unless ``retain_graph=True`` is passed.  Intermediate cotangents are
  released as soon as their node is consumed — after ``backward`` only
  leaves carry a ``.grad``, and peak backward memory is bounded by the
  graph frontier rather than the whole tape.
* Tensors are dtype-parameterized over the real dtypes of
  :mod:`repro.nn.precision` (``float32`` / ``float64``).  Explicit arrays
  keep their dtype; non-array data follows the active precision policy
  (``float64`` by default, so parameter-shift gradient cross-checks stay
  exact to machine precision).  Ops propagate their operands' dtype —
  scalar operands are coerced to the tensor's dtype so float32 chains
  never silently widen — and gradient buffers accumulate in
  :func:`repro.nn.precision.grad_dtype`, which the ``mixed32`` policy
  widens to float64 for mixed-precision stability.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .autodiff import (
    Node,
    Primitive,
    backward_pass,
    defvjp,
    defvjp_all,
    is_grad_enabled,
    no_grad,
)
from .autodiff import _GRAD_ENABLED as _GRAD_CELL
from .precision import default_precision, grad_dtype

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "tape_record",
]

# Dtypes a Tensor may hold; everything else is cast to the policy default.
_REAL_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _validated_dtype(dtype) -> np.dtype:
    dtype = np.dtype(dtype)
    if dtype not in _REAL_DTYPES:
        raise TypeError(f"Tensor dtype must be float32 or float64, got {dtype}")
    return dtype


def _as_array(value, dtype=None) -> np.ndarray:
    """Coerce to a supported floating array.

    With an explicit ``dtype`` the value is cast to it; otherwise arrays
    already holding a supported real dtype are kept as-is (dtype
    propagation) and everything else follows the active precision policy.
    """
    if dtype is not None:
        return np.asarray(value, dtype=_validated_dtype(dtype))
    if isinstance(value, (np.ndarray, np.generic)) and value.dtype in _REAL_DTYPES:
        return np.asarray(value)
    return np.asarray(value, dtype=default_precision().real)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` reversing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum along axes that were 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
_EMPTY: dict = {}


def _record(prim: Primitive, data, args: tuple, params: dict = _EMPTY) -> "Tensor":
    """Wrap ``data`` in a Tensor, recording a tape node when tracking.

    Builds the output via ``__new__`` rather than ``Tensor(data)``: every
    caller hands in the freshly-computed numpy result of the forward
    expression, so the full ``_as_array`` coercion ladder is skipped on the
    per-op hot path (only a dtype guard for numpy scalars/odd dtypes stays).
    The one- and two-operand cases — every arithmetic dunder and
    elementwise method — build their parent/operand tuples directly
    instead of through ``enumerate`` comprehensions.
    """
    out = Tensor.__new__(Tensor)
    if data.__class__ is not np.ndarray or data.dtype not in _REAL_DTYPES:
        data = _as_array(data)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out._node = None
    out.name = ""
    if _GRAD_CELL[0]:
        n = len(args)
        if n == 1:
            a0 = args[0]
            if a0.requires_grad:
                out.requires_grad = True
                out._node = Node(prim, (a0.data,), params, ((0, a0),))
        elif n == 2:
            a0, a1 = args
            r0 = a0.requires_grad
            r1 = a1.requires_grad
            if r0 | r1:
                out.requires_grad = True
                out._node = Node(
                    prim, (a0.data, a1.data), params,
                    ((0, a0), (1, a1)) if r0 & r1
                    else (((0, a0),) if r0 else ((1, a1),)),
                )
        else:
            parents = [(i, a) for i, a in enumerate(args) if a.requires_grad]
            if parents:
                out.requires_grad = True
                out._node = Node(
                    prim, tuple([a.data for a in args]), params,
                    tuple(parents),
                )
    return out


def tape_record(prim: Primitive, data, args: tuple, params: dict | None = None):
    """Public recording hook for custom primitives (quantum layers).

    ``args`` must be Tensors; ``params`` carries whatever the registered
    VJPs need (adjoint caches, circuit handles, geometry).  Returns the
    output Tensor, wired into the tape iff recording is enabled and some
    operand requires gradients.
    """
    return _record(prim, data, tuple(args), _EMPTY if params is None else params)


# ----------------------------------------------------------------------
# Primitive definitions.  VJP math is kept expression-for-expression
# identical to the original per-op closures so gradients are bit-identical.
# ----------------------------------------------------------------------
_add_p = Primitive("add")
defvjp(
    _add_p,
    lambda g, ans, operands, params: _unbroadcast(g, operands[0].shape),
    lambda g, ans, operands, params: _unbroadcast(g, operands[1].shape),
)

_neg_p = Primitive("neg")
defvjp(_neg_p, lambda g, ans, operands, params: -g)

_sub_p = Primitive("sub")
defvjp(
    _sub_p,
    lambda g, ans, operands, params: _unbroadcast(g, operands[0].shape),
    lambda g, ans, operands, params: _unbroadcast(-g, operands[1].shape),
)

_mul_p = Primitive("mul")
defvjp(
    _mul_p,
    lambda g, ans, operands, params: _unbroadcast(g * operands[1], operands[0].shape),
    lambda g, ans, operands, params: _unbroadcast(g * operands[0], operands[1].shape),
)

_div_p = Primitive("div")
defvjp(
    _div_p,
    lambda g, ans, operands, params: _unbroadcast(g / operands[1], operands[0].shape),
    lambda g, ans, operands, params: _unbroadcast(
        -g * operands[0] / operands[1] ** 2, operands[1].shape
    ),
)

# Scalar exponent: the historical fast path (exponent lives in params).
_pow_const_p = Primitive("pow_const")
defvjp(
    _pow_const_p,
    lambda g, ans, operands, params: g
    * params["c"]
    * operands[0] ** (params["c"] - 1),
)

# Tensor exponent: log-based VJP (d/db a**b = a**b * log a).
_pow_p = Primitive("pow")
defvjp(
    _pow_p,
    lambda g, ans, operands, params: _unbroadcast(
        g * operands[1] * operands[0] ** (operands[1] - 1.0), operands[0].shape
    ),
    lambda g, ans, operands, params: _unbroadcast(
        g * ans * np.log(operands[0]), operands[1].shape
    ),
)


def _matmul_vjp_a(g, ans, operands, params):
    a, b = operands
    if b.ndim == 1:
        ga = np.outer(g, b) if a.ndim == 2 else g * b
    else:
        ga = g @ np.swapaxes(b, -1, -2)
        if a.ndim != 1:
            ga = _unbroadcast(ga, a.shape)
    return ga.reshape(a.shape)


def _matmul_vjp_b(g, ans, operands, params):
    a, b = operands
    if a.ndim == 1:
        gb = g * a if b.ndim == 1 else np.outer(a, g)
    else:
        gb = np.swapaxes(a, -1, -2) @ g
        if b.ndim != 1:
            gb = _unbroadcast(gb, b.shape)
    return gb.reshape(b.shape)


_matmul_p = Primitive("matmul")
defvjp(_matmul_p, _matmul_vjp_a, _matmul_vjp_b)

_exp_p = Primitive("exp")
defvjp(_exp_p, lambda g, ans, operands, params: g * ans)

_log_p = Primitive("log")
defvjp(_log_p, lambda g, ans, operands, params: g / operands[0])

_sqrt_p = Primitive("sqrt")
defvjp(_sqrt_p, lambda g, ans, operands, params: g * 0.5 / ans)

_relu_p = Primitive("relu")
defvjp(_relu_p, lambda g, ans, operands, params: g * params["mask"])

_sigmoid_p = Primitive("sigmoid")
defvjp(_sigmoid_p, lambda g, ans, operands, params: g * ans * (1.0 - ans))

_tanh_p = Primitive("tanh")
defvjp(_tanh_p, lambda g, ans, operands, params: g * (1.0 - ans**2))

_abs_p = Primitive("abs")
defvjp(_abs_p, lambda g, ans, operands, params: g * params["sign"])

_clip_p = Primitive("clip")
defvjp(_clip_p, lambda g, ans, operands, params: g * params["mask"])


def _reduced_grad_shape(g, params):
    """Reshape ``g`` so it broadcasts against the pre-reduction shape."""
    axis, keepdims, shape = params["axis"], params["keepdims"], params["shape"]
    if axis is not None and not keepdims:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % len(shape) for a in axes)
        gshape = tuple(1 if i in axes else dim for i, dim in enumerate(shape))
        g = g.reshape(gshape)
    return g


def _sum_vjp(g, ans, operands, params):
    return np.broadcast_to(_reduced_grad_shape(g, params), params["shape"])


_sum_p = Primitive("sum")
defvjp(_sum_p, _sum_vjp)


def _max_vjp(g, ans, operands, params):
    g = _reduced_grad_shape(g, params)
    return (
        np.broadcast_to(g, params["shape"]) * params["mask"] / params["counts"]
    )


_max_p = Primitive("max")
defvjp(_max_p, _max_vjp)

_reshape_prim = Primitive("reshape")
defvjp(
    _reshape_prim, lambda g, ans, operands, params: g.reshape(params["shape"])
)

_transpose_p = Primitive("transpose")
defvjp(
    _transpose_p,
    lambda g, ans, operands, params: g.transpose(params["inverse"]),
)

_astype_p = Primitive("astype")
defvjp(
    _astype_p,
    lambda g, ans, operands, params: g.astype(params["source"]),
)


def _getitem_vjp(g, ans, operands, params):
    key, shape, dtype = params["key"], params["shape"], params["dtype"]
    buf = np.zeros(shape, dtype=dtype)
    np.add.at(buf, key, g)
    return buf


_getitem_p = Primitive("getitem")
defvjp(_getitem_p, _getitem_vjp)


def _concat_vjp_all(g, ans, operands, params, argnums):
    axis, offsets = params["axis"], params["offsets"]
    nd = g.ndim
    grads = []
    for k in argnums:
        index = [slice(None)] * nd
        index[axis] = slice(offsets[k], offsets[k + 1])
        grads.append(g[tuple(index)])
    return grads


_concat_p = Primitive("concatenate")
defvjp_all(_concat_p, _concat_vjp_all)


def _stack_vjp_all(g, ans, operands, params, argnums):
    moved = np.moveaxis(g, params["axis"], 0)
    return [moved[k] for k in argnums]


_stack_p = Primitive("stack")
defvjp_all(_stack_p, _stack_vjp_all)


class Tensor:
    """A numpy-backed tensor that records operations for reverse-mode AD."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "name")

    # Make ``ndarray <op> Tensor`` defer to the Tensor's reflected methods
    # instead of numpy trying (and failing) to coerce the Tensor itself.
    __array_priority__ = 1000

    def __init__(
        self, data, requires_grad: bool = False, name: str = "", dtype=None
    ):
        self.data = _as_array(data, dtype=dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self._node: Node | None = None
        self.name = name

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        dtype = (
            _validated_dtype(dtype) if dtype is not None
            else default_precision().real
        )
        return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False, dtype=None) -> "Tensor":
        dtype = (
            _validated_dtype(dtype) if dtype is not None
            else default_precision().real
        )
        return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)

    @staticmethod
    def from_numpy(array: np.ndarray, requires_grad: bool = False) -> "Tensor":
        return Tensor(array, requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast; the gradient is cast back on backward."""
        dtype = _validated_dtype(dtype)
        return _record(
            _astype_p,
            self.data.astype(dtype, copy=False),
            (self,),
            {"source": self.data.dtype},
        )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _accumulate(self, grad) -> None:
        if self.grad is None:
            want = grad_dtype(self.data.dtype)
            if grad.dtype == want and self._node is not None:
                # Intermediate tensors: the buffer is only ever read (a
                # second contribution rebinds it to a fresh sum), so the
                # VJP output can be adopted directly — no defensive copy,
                # and stride-0 broadcast cotangents stay unmaterialized.
                # Leaves keep the copy so .grad never aliases graph state.
                self.grad = grad
                return
            self.grad = np.array(grad, dtype=want, copy=True)
        else:
            # Keep the buffer dtype stable: a float64 contribution must not
            # silently widen a float32 accumulator mid-backward.
            self.grad = (self.grad + grad).astype(self.grad.dtype, copy=False)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad=None, retain_graph: bool = False) -> None:
        """Backpropagate from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to 1 for scalar tensors.
        retain_graph:
            Keep the recorded graph alive so ``backward`` can run again.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()
        backward_pass(self, grad, retain_graph=retain_graph)

    def _coerce(self, other) -> "Tensor":
        """Wrap a non-Tensor operand; scalars adopt this tensor's dtype so
        ``float32_tensor * 2.0`` stays float32 regardless of policy."""
        if isinstance(other, Tensor):
            return other
        arr = np.asarray(other)
        if arr.ndim == 0:
            # Scalar fast path: one allocating cast (same values as the
            # ``astype`` it replaces) and a bare ``__new__`` — this runs
            # once per ``tensor <op> constant``, so the full ``Tensor()``
            # ladder is measurable overhead.
            out = Tensor.__new__(Tensor)
            out.data = np.array(arr, dtype=self.data.dtype)
            out.grad = None
            out.requires_grad = False
            out._node = None
            out.name = ""
            return out
        return Tensor(arr)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        return _record(_add_p, self.data + other.data, (self, other))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _record(_neg_p, -self.data, (self,))

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        return _record(_sub_p, self.data - other.data, (self, other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        return _record(_mul_p, self.data * other.data, (self, other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        return _record(_div_p, self.data / other.data, (self, other))

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent) -> "Tensor":
        if isinstance(exponent, Tensor):
            return _record(
                _pow_p, self.data**exponent.data, (self, exponent)
            )
        if not isinstance(exponent, (int, float)):
            raise TypeError(
                "Tensor ** supports scalar exponents and Tensor exponents, "
                f"got {type(exponent).__name__}"
            )
        return _record(
            _pow_const_p, self.data**exponent, (self,), {"c": exponent}
        )

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        return _record(_matmul_p, self.data @ other.data, (self, other))

    def __rmatmul__(self, other) -> "Tensor":
        return self._coerce(other) @ self

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return _record(_exp_p, np.exp(self.data), (self,))

    def log(self) -> "Tensor":
        return _record(_log_p, np.log(self.data), (self,))

    def sqrt(self) -> "Tensor":
        return _record(_sqrt_p, np.sqrt(self.data), (self,))

    def relu(self) -> "Tensor":
        mask = self.data > 0
        return _record(_relu_p, self.data * mask, (self,), {"mask": mask})

    def sigmoid(self) -> "Tensor":
        return _record(_sigmoid_p, 1.0 / (1.0 + np.exp(-self.data)), (self,))

    def tanh(self) -> "Tensor":
        return _record(_tanh_p, np.tanh(self.data), (self,))

    def abs(self) -> "Tensor":
        return _record(
            _abs_p, np.abs(self.data), (self,), {"sign": np.sign(self.data)}
        )

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        return _record(
            _clip_p, np.clip(self.data, low, high), (self,), {"mask": mask}
        )

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _record(
            _sum_p,
            self.data.sum(axis=axis, keepdims=keepdims),
            (self,),
            {"axis": axis, "keepdims": keepdims, "shape": self.data.shape},
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a % self.data.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.max(axis=axis, keepdims=keepdims)
        full = self.data.max(axis=axis, keepdims=True)
        mask = self.data == full
        return _record(
            _max_p,
            value,
            (self,),
            {
                "axis": axis,
                "keepdims": keepdims,
                "shape": self.data.shape,
                "mask": mask,
                "counts": mask.sum(axis=axis, keepdims=True),
            },
        )

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _record(
            _reshape_prim,
            self.data.reshape(shape),
            (self,),
            {"shape": self.data.shape},
        )

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(int(i) for i in np.argsort(axes))
        # Materialize contiguously: BLAS picks different (1-ulp different)
        # GEMM kernels for strided operands depending on the *other*
        # operand's row count, so ``x @ W.T`` on a transposed view is not
        # row-count-independent.  Serving stacks requests into one pass
        # and must return bit-identical rows to per-request execution.
        # A general tensor pays a copy here; a ``Linear`` weight is stored
        # F-ordered, so its transpose already is C-contiguous and passes
        # through as a view of the weight.
        return _record(
            _transpose_p,
            np.ascontiguousarray(self.data.transpose(axes)),
            (self,),
            {"inverse": inverse},
        )

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        return _record(
            _getitem_p,
            self.data[key],
            (self,),
            {"key": key, "shape": self.data.shape, "dtype": self.data.dtype},
        )

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = tuple(tensors)
        datas = [t.data for t in tensors]
        offsets = [0]
        for d in datas:
            offsets.append(offsets[-1] + d.shape[axis])
        return _record(
            _concat_p,
            np.concatenate(datas, axis=axis),
            tensors,
            {"axis": axis, "offsets": offsets},
        )

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = tuple(tensors)
        return _record(
            _stack_p,
            np.stack([t.data for t in tensors], axis=axis),
            tensors,
            {"axis": axis},
        )

    # ------------------------------------------------------------------
    # Comparisons (no gradient; returned as plain numpy arrays)
    # ------------------------------------------------------------------
    def __gt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other):
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other

