"""Precision policy: paired real/complex dtypes threaded through the stack.

Training-quality gradients do not need full double precision, and the
simulator's hot paths (the stacked ``(p * batch, 2**n)`` statevector passes)
are memory-bandwidth-bound — halving the bytes moved per kernel is the
single biggest lever left on them.  This module is the one place that
decides *which* floating-point width the stack runs at:

* a :class:`Precision` names a paired real/complex dtype family —
  ``float64/complex128`` (:data:`FLOAT64`, the default) or
  ``float32/complex64`` (:data:`FLOAT32`), plus :data:`MIXED32` which
  computes in single precision but accumulates gradients in ``float64``
  for mixed-precision stability;
* a process-wide *default policy* consulted by every constructor that is
  not given an explicit ``dtype=`` — :class:`~repro.nn.tensor.Tensor`
  creation from non-array data, layer parameter initialization, and the
  quantum execution entry points;
* :func:`use_precision`, a context manager that scopes a policy change:
  building a model (or running a training loop) inside
  ``with use_precision("float32"):`` threads single precision through every
  layer without touching any call site.

``float64`` stays the global default so parameter-shift gradient
cross-checks remain exact to machine precision; single precision is always
an explicit opt-in, per layer (``dtype="float32"``) or per scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Precision",
    "FLOAT64",
    "FLOAT32",
    "MIXED32",
    "default_precision",
    "set_default_precision",
    "use_precision",
    "resolve_precision",
    "grad_dtype",
    "real_dtype_for",
    "complex_dtype_for",
]


@dataclass(frozen=True)
class Precision:
    """A paired real/complex dtype family plus its grad-accumulation width.

    ``real`` is the dtype of parameters, activations, and measurement
    outputs; ``complex`` the dtype of statevectors and gate matrices
    (always the complex counterpart of ``real``); ``grad_real`` the dtype
    gradient buffers accumulate in — equal to ``real`` except for the
    mixed policy, which keeps ``float64`` accumulators under ``float32``
    compute.
    """

    name: str
    real: np.dtype
    complex: np.dtype
    grad_real: np.dtype

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Precision({self.name!r})"


FLOAT64 = Precision(
    "float64", np.dtype(np.float64), np.dtype(np.complex128), np.dtype(np.float64)
)
FLOAT32 = Precision(
    "float32", np.dtype(np.float32), np.dtype(np.complex64), np.dtype(np.float32)
)
# float32 compute with float64 gradient accumulation (mixed-precision
# training stability: many small per-batch contributions summed into wide
# buffers lose no mantissa to the accumulation order).
MIXED32 = Precision(
    "mixed32", np.dtype(np.float32), np.dtype(np.complex64), np.dtype(np.float64)
)

_BY_NAME = {p.name: p for p in (FLOAT64, FLOAT32, MIXED32)}
_BY_DTYPE = {
    np.dtype(np.float64): FLOAT64,
    np.dtype(np.complex128): FLOAT64,
    np.dtype(np.float32): FLOAT32,
    np.dtype(np.complex64): FLOAT32,
}

_REAL_TO_COMPLEX = {
    np.dtype(np.float64): np.dtype(np.complex128),
    np.dtype(np.float32): np.dtype(np.complex64),
}
_COMPLEX_TO_REAL = {v: k for k, v in _REAL_TO_COMPLEX.items()}

# A stack so nested ``use_precision`` scopes restore correctly.
_DEFAULT: list[Precision] = [FLOAT64]


def default_precision() -> Precision:
    """The policy consulted wherever no explicit ``dtype=`` was given."""
    return _DEFAULT[-1]


def set_default_precision(spec) -> Precision:
    """Replace the process-wide default policy; returns the previous one."""
    previous = _DEFAULT[-1]
    _DEFAULT[-1] = resolve_precision(spec)
    return previous


@contextmanager
def use_precision(spec):
    """Scope the default policy: ``with use_precision("float32"): ...``."""
    _DEFAULT.append(resolve_precision(spec))
    try:
        yield _DEFAULT[-1]
    finally:
        _DEFAULT.pop()


def resolve_precision(spec=None) -> Precision:
    """Normalize a dtype-ish spec to a :class:`Precision`.

    Accepts None (the active default), a :class:`Precision`, a policy name
    (``"float64"``, ``"float32"``, ``"mixed32"``), or any real/complex
    numpy dtype of a supported pair (``np.float32`` -> :data:`FLOAT32`,
    ``np.complex128`` -> :data:`FLOAT64`, ...).
    """
    if spec is None:
        return default_precision()
    if isinstance(spec, Precision):
        return spec
    if isinstance(spec, str) and spec in _BY_NAME:
        return _BY_NAME[spec]
    try:
        dtype = np.dtype(spec)
    except TypeError:
        dtype = None
    if dtype is not None and dtype in _BY_DTYPE:
        return _BY_DTYPE[dtype]
    raise ValueError(
        f"unsupported precision spec {spec!r}; expected one of "
        f"{sorted(_BY_NAME)} or a float32/float64/complex64/complex128 dtype"
    )


def grad_dtype(data_dtype) -> np.dtype:
    """Dtype a gradient buffer for ``data_dtype`` data accumulates in.

    The data dtype promoted with the active policy's ``grad_real``: under
    the default ``float64`` policy every buffer is float64 (the historical
    behavior); under ``float32`` a float32 tensor accumulates in float32;
    under ``mixed32`` accumulation is widened back to float64.

    ``Tensor._accumulate`` applies this on the *first* write into a grad
    buffer; the tape's backward walk (:mod:`repro.nn.autodiff`) routes
    every VJP — classical and quantum alike — through that one accumulation
    point, so the policy governs the whole graph uniformly.
    """
    return np.promote_types(np.dtype(data_dtype), default_precision().grad_real)


def real_dtype_for(dtype) -> np.dtype:
    """The real member of the pair containing ``dtype`` (real or complex)."""
    dtype = np.dtype(dtype)
    if dtype in _COMPLEX_TO_REAL:
        return _COMPLEX_TO_REAL[dtype]
    if dtype in _REAL_TO_COMPLEX:
        return dtype
    raise ValueError(f"no paired real dtype for {dtype}")


def complex_dtype_for(dtype) -> np.dtype:
    """The complex member of the pair containing ``dtype`` (real or complex)."""
    dtype = np.dtype(dtype)
    if dtype in _REAL_TO_COMPLEX:
        return _REAL_TO_COMPLEX[dtype]
    if dtype in _COMPLEX_TO_REAL:
        return dtype
    raise ValueError(f"no paired complex dtype for {dtype}")
