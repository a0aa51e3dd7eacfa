"""Pluggable kernel backends for the compiled engine.

The lowered programs in :mod:`repro.quantum.engine` are backend-shaped: a
:class:`~repro.quantum.engine.StackedPlan` is a schedule of *what* to apply
(fused dense blocks, diagonal phases, composed ring gathers), while the
arithmetic that applies it — the kernel set — is a small, closed vocabulary.
This module names that vocabulary as :class:`KernelBackend` and lets the
same plan dispatch onto interchangeable kernel sets at run time, exactly
like the dtype policy: plans stay backend-agnostic and shared, and the
backend is chosen per execution (``execute(..., backend=...)``), per scope
(:func:`use_backend`), or process-wide (:func:`set_default_backend`, seeded
from the ``REPRO_BACKEND`` environment variable).

Two backends ship:

* :class:`NumpyBackend` — the engine's original single-threaded NumPy
  kernels, extracted verbatim.  The default; bit-for-bit identical to the
  pre-backend engine.
* :class:`ThreadedBackend` — shards the stacked ``(p * batch, 2**n)`` row
  dimension across a persistent thread pool for the bandwidth-bound
  kernels (dense applies, transition matrices, diagonal phases, gathers,
  measurement contractions).  NumPy releases the GIL inside the sharded
  ``matmul``/ufunc calls, so shards run on real cores.  Small states fall
  through to the NumPy kernels (sharding overhead would dominate), as does
  a pool resolved to a single worker.

The kernel vocabulary (one method per engine kernel):

=====================  ====================================================
``apply_dense``        fused dense block apply — dispatches by wire
                       geometry onto the dense-1q GEMM (``right == 1``),
                       the kron-GEMM short-stride kernel (``right`` in
                       {2, 4, 8}), and the long-slice batched matmul;
                       covers 2x2 fused runs and adjacent-wire 4x4 blocks
``transition_matrix``  the adjoint's per-block ``M[a, c] = sum
                       conj(lam)_a psi_c`` contraction
``diag_phase``         full-row diagonal phase multiply (lone RZ)
``crz_phase``          phase multiply on the |10> / |11> index sets (CRZ)
``diag_sign``          sign flip on a precomputed index set (Z, CZ)
``gather``             basis-index gather (composed CNOT rings, X, SWAP)
``probabilities``      |amplitude|^2 over the state rows
``expvals``            probability-weighted Pauli-Z sign contraction
``row_norms``          per-row L2 norms (amplitude embedding)
=====================  ====================================================

Adding a backend (a C-extension kernel set, an accelerator) means
subclassing :class:`KernelBackend`, implementing the vocabulary, and
calling :func:`register_backend` — nothing in ``qnn/`` or ``models/``
changes.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "ThreadedBackend",
    "register_backend",
    "available_backends",
    "default_backend",
    "set_default_backend",
    "use_backend",
    "resolve_backend",
]

# Wire-axis strides below this run through the kron-GEMM kernel; at or
# above it the batched (d, d) @ (d, right) matmul wins (the kron padding's
# FLOP overhead outgrows its layout win).  Mirrors the pre-backend engine.
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


class KernelBackend:
    """The engine's kernel vocabulary; subclass to supply an implementation.

    Every method takes the stacked ``(p * batch, 2**n)`` state layout the
    plans run on (``p = 1`` for the per-instance view).  Kernels with an
    ``out`` parameter must be *pure* with respect to their inputs: the
    input state is never mutated and the result lands in ``out`` (a fresh
    array when None) — purity is what lets the forward pass checkpoint
    post-block states by reference and the adjoint walk ping-pong between
    two scratch buffers.  ``out``, when given, is C-contiguous and never
    aliases the input.
    """

    name = "abstract"

    # -- dense blocks ---------------------------------------------------
    def apply_dense(self, state, mat, p, batch, left, d, right, per_patch,
                    out=None):
        """Apply a ``d x d`` block to the stacked state.

        ``mat`` is ``(p, d, d)`` when ``per_patch`` (broadcast along the
        outermost axis of the ``(p, batch, ...)`` view) or
        ``(p * batch, d, d)`` otherwise.
        """
        raise NotImplementedError

    def transition_matrix(self, psi, lam, p, batch, left, d, right,
                          per_patch):
        """``M[a, c] = sum conj(lam)[..., a, ...] psi[..., c, ...]``.

        Reduced over every axis except the block's wire axis — and, when
        ``per_patch``, over the batch too.  Returns ``(p, d, d)`` when
        ``per_patch``, ``(p * batch, d, d)`` otherwise.
        """
        raise NotImplementedError

    # -- diagonal / permutation kernels ---------------------------------
    def diag_phase(self, state, phases, p, batch, out=None):
        """Multiply rows by a diagonal phase vector.

        ``phases`` is ``(p * batch, dim)`` per-row or ``(p, dim)``
        per-patch (broadcast over the batch).
        """
        raise NotImplementedError

    def crz_phase(self, state, idx10, idx11, phase, out=None):
        """Multiply the |10> index set by ``phase`` and the |11> set by its
        conjugate; ``phase`` is ``(p * batch, 1)``."""
        raise NotImplementedError

    def diag_sign(self, state, idx, out=None):
        """Flip the sign of the columns in ``idx`` (self-inverse)."""
        raise NotImplementedError

    def gather(self, state, perm, out=None):
        """Permute basis indices: ``out[:, i] = state[:, perm[i]]``."""
        raise NotImplementedError

    # -- measurement / embedding contractions ---------------------------
    def probabilities(self, state):
        """``|amplitude|^2`` per basis state: real ``(rows, dim)``."""
        raise NotImplementedError

    def expvals(self, state, signs):
        """Pauli-Z expectations: ``probabilities(state) @ signs.T`` for a
        ``(n_measured, dim)`` sign table."""
        raise NotImplementedError

    def row_norms(self, rows):
        """Per-row L2 norms of a real ``(rows, d)`` feature block."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"{type(self).__name__}()"


class NumpyBackend(KernelBackend):
    """The original single-threaded NumPy kernel set (the default).

    These are the pre-backend engine kernels extracted verbatim: results
    are bit-for-bit identical to the engine before backends existed.
    """

    name = "numpy"

    def apply_dense(self, state, mat, p, batch, left, d, right, per_patch,
                    out=None):
        """Three kernels, picked by geometry: a wire axis that sits
        innermost (``right == 1``) dispatches to one batched GEMM per
        matrix, long slices (``right >= 16``) to batched ``(d, d) @
        (d, right)`` matmuls, and the short strides in between (``right``
        in {2, 4, 8} — wire axes are powers of two) to a GEMM over the
        flattened ``(d * right)`` tail against ``kron(mat, I_right)``; the
        identity padding costs ``right``-fold FLOPs on a tiny matrix but
        replaces strided broadcast arithmetic that ran up to 10x slower
        and starved SIMD at complex64.

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

    def transition_matrix(self, psi, lam, p, batch, left, d, right,
                          per_patch):
        """When the wire axis is innermost (``right == 1``) the views are
        GEMM-ready and a batched matmul does the whole contraction.  Short
        strides (``right`` in {2, 4, 8}) contract the flattened
        ``(d * right)`` tail with the same GEMM into a ``(d*right,
        d*right)`` matrix whose paired-``right`` diagonal is then traced
        down to ``(d, d)`` — the GEMM does the heavy reduction and the
        trace touches only a tiny array.  Long slices (``right >= 16``)
        keep the in-place einsum, where the kron padding would outgrow its
        win.
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

    def diag_phase(self, state, phases, p, batch, out=None):
        if phases.shape[0] == state.shape[0]:
            if out is None:
                return state * phases
            np.multiply(state, phases, out=out)
            return out
        view = state.reshape(p, batch, -1)
        if out is None:
            return (view * phases[:, None, :]).reshape(state.shape)
        np.multiply(view, phases[:, None, :], out=out.reshape(p, batch, -1))
        return out

    def crz_phase(self, state, idx10, idx11, phase, out=None):
        if out is None:
            out = state.copy()
        else:
            np.copyto(out, state)
        out[:, idx10] *= phase
        out[:, idx11] *= np.conj(phase)
        return out

    def diag_sign(self, state, idx, out=None):
        if out is None:
            out = state.copy()
        else:
            np.copyto(out, state)
        out[:, idx] *= -1.0
        return out

    def gather(self, state, perm, out=None):
        # np.take, not state[:, perm]: fancy indexing along axis 1 yields
        # an F-ordered array, which would poison downstream reshape-view
        # kernels.
        if out is None:
            return np.take(state, perm, axis=1)
        np.take(state, perm, axis=1, out=out)
        return out

    def probabilities(self, state):
        return state.real**2 + state.imag**2

    def expvals(self, state, signs):
        return self.probabilities(state) @ signs.T

    def row_norms(self, rows):
        return np.linalg.norm(rows, axis=1)


class ThreadedBackend(NumpyBackend):
    """Shard the stacked row dimension across a persistent thread pool.

    The stacked kernels are memory-bandwidth-bound: each touches every row
    of the ``(p * batch, 2**n)`` state once with modest arithmetic per
    element, and the rows are independent.  Sharding them across threads
    scales with cores because NumPy releases the GIL inside the ``matmul``
    and ufunc calls that do the work.

    Row shards respect the stack layout: per-patch-bound kernels shard on
    whole patches (each patch's rows are contiguous and see one matrix);
    per-row kernels shard the flat row axis directly.  Gradient shards
    never overlap, so no locks are needed — dense shards write disjoint
    row ranges of ``out`` and transition-matrix shards are reduced by the
    caller thread.

    Parameters
    ----------
    max_workers:
        Worker count; None resolves ``REPRO_BACKEND_WORKERS`` and falls
        back to ``os.cpu_count()``.  A pool of one worker degrades to the
        plain NumPy kernels (zero dispatch overhead).
    min_shard_elements:
        Kernels touching fewer state elements than this per prospective
        shard run unsharded — below it, pool handoff costs more than the
        kernel.  None resolves ``REPRO_BACKEND_MIN_SHARD`` and falls back
        to 8192; the CI threaded matrix leg sets the env var to 1 so the
        whole tier-1 suite exercises the sharded code paths, not the
        fallthrough.
    """

    name = "threaded"

    def __init__(self, max_workers: int | None = None,
                 min_shard_elements: int | None = None):
        if max_workers is None:
            env = os.environ.get("REPRO_BACKEND_WORKERS")
            max_workers = int(env) if env else (os.cpu_count() or 1)
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if min_shard_elements is None:
            env = os.environ.get("REPRO_BACKEND_MIN_SHARD")
            min_shard_elements = int(env) if env else 1 << 13
        self.max_workers = int(max_workers)
        self.min_shard_elements = int(min_shard_elements)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"ThreadedBackend(max_workers={self.max_workers})"

    # -- pool / shard plumbing ------------------------------------------
    def _executor(self) -> ThreadPoolExecutor:
        # Double-checked under a lock: backend instances are shared (the
        # registry holds one per name), and two threads racing the lazy
        # construction must not orphan a pool full of live workers.
        pool = self._pool
        if pool is None:
            with self._pool_lock:
                pool = self._pool
                if pool is None:
                    pool = ThreadPoolExecutor(
                        max_workers=self.max_workers,
                        thread_name_prefix="repro-kernel",
                    )
                    self._pool = pool
        return pool

    def close(self) -> None:
        """Shut the worker pool down (it is recreated on next use)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def _shards(self, total: int, elements_per_unit: int) -> list[tuple[int, int]] | None:
        """Split ``total`` shardable units into worker ranges.

        Returns None when parallelism cannot pay — one worker, one unit,
        or shards that would fall under the element floor
        (``elements_per_unit`` state elements per unit) — signalling the
        caller to fall through to the unsharded NumPy kernel.
        """
        n = min(self.max_workers, total)
        if n > 1 and total * elements_per_unit < n * self.min_shard_elements:
            n = int(max(1, (total * elements_per_unit) // self.min_shard_elements))
        if n <= 1:
            return None
        step, extra = divmod(total, n)
        shards = []
        lo = 0
        for i in range(n):
            hi = lo + step + (1 if i < extra else 0)
            shards.append((lo, hi))
            lo = hi
        return shards

    def _run(self, fn, shards):
        """Fan ``fn(lo, hi)`` out over the pool; the calling thread takes
        the last shard itself, so ``n`` shards cost ``n - 1`` handoffs and
        the caller's core does real work instead of blocking."""
        futures = [
            self._executor().submit(fn, lo, hi) for lo, hi in shards[:-1]
        ]
        tail = fn(*shards[-1])
        results = [future.result() for future in futures]
        results.append(tail)
        return results

    # -- dense blocks ---------------------------------------------------
    def apply_dense(self, state, mat, p, batch, left, d, right, per_patch,
                    out=None):
        dim = state.shape[1]
        base = super().apply_dense
        if per_patch and p > 1:
            # Patch-sharded: each shard's rows are contiguous and bind the
            # matching slice of the (p, d, d) matrices.
            shards = self._shards(p, batch * dim)
            if shards is None:
                return base(state, mat, p, batch, left, d, right, True,
                            out=out)
            if out is None:
                out = np.empty(state.shape, dtype=state.dtype)

            def run(lo, hi):
                rows = slice(lo * batch, hi * batch)
                base(state[rows], mat[lo:hi], hi - lo, batch, left, d,
                     right, True, out=out[rows])

        else:
            # Per-row matrices — or a p = 1 broadcast, where any row range
            # is its own smaller batch against the same matrix.
            shards = self._shards(state.shape[0], dim)
            if shards is None:
                return base(state, mat, p, batch, left, d, right,
                            per_patch, out=out)
            if out is None:
                out = np.empty(state.shape, dtype=state.dtype)

            def run(lo, hi):
                m = mat if per_patch else mat[lo:hi]
                base(state[lo:hi], m, 1, hi - lo, left, d, right,
                     per_patch, out=out[lo:hi])

        self._run(run, shards)
        return out

    def transition_matrix(self, psi, lam, p, batch, left, d, right,
                          per_patch):
        dim = psi.shape[1]
        base = super().transition_matrix
        if per_patch and p > 1:
            shards = self._shards(p, batch * dim)
            if shards is None:
                return base(psi, lam, p, batch, left, d, right, True)

            def run(lo, hi):
                rows = slice(lo * batch, hi * batch)
                return base(psi[rows], lam[rows], hi - lo, batch, left, d,
                            right, True)

            return np.concatenate(self._run(run, shards), axis=0)
        shards = self._shards(psi.shape[0], dim)
        if shards is None:
            return base(psi, lam, p, batch, left, d, right, per_patch)

        def run(lo, hi):
            return base(psi[lo:hi], lam[lo:hi], 1, hi - lo, left, d, right,
                        per_patch)

        parts = self._run(run, shards)
        if per_patch:
            # p = 1 reduces over the batch: sum the per-shard reductions.
            return sum(parts)
        return np.concatenate(parts, axis=0)

    # -- diagonal / permutation kernels ---------------------------------
    def diag_phase(self, state, phases, p, batch, out=None):
        dim = state.shape[1]
        base = super().diag_phase
        if phases.shape[0] == state.shape[0]:
            shards = self._shards(state.shape[0], dim)
            if shards is None:
                return base(state, phases, p, batch, out=out)
            if out is None:
                out = np.empty(state.shape, dtype=state.dtype)

            def run(lo, hi):
                base(state[lo:hi], phases[lo:hi], 1, hi - lo,
                     out=out[lo:hi])

        elif p > 1:
            shards = self._shards(p, batch * dim)
            if shards is None:
                return base(state, phases, p, batch, out=out)
            if out is None:
                out = np.empty(state.shape, dtype=state.dtype)

            def run(lo, hi):
                rows = slice(lo * batch, hi * batch)
                base(state[rows], phases[lo:hi], hi - lo, batch,
                     out=out[rows])

        else:
            # p = 1 broadcast: any row range is its own smaller batch
            # against the same (1, dim) phase row (as in apply_dense).
            shards = self._shards(state.shape[0], dim)
            if shards is None:
                return base(state, phases, p, batch, out=out)
            if out is None:
                out = np.empty(state.shape, dtype=state.dtype)

            def run(lo, hi):
                base(state[lo:hi], phases, 1, hi - lo, out=out[lo:hi])

        self._run(run, shards)
        return out

    def _row_sharded(self, state, direct, kernel, out):
        """Shard a per-row kernel, or run ``direct`` when sharding can't pay."""
        shards = self._shards(state.shape[0], state.shape[1])
        if shards is None:
            return direct(out)
        if out is None:
            out = np.empty(state.shape, dtype=state.dtype)
        self._run(lambda lo, hi: kernel(lo, hi, out), shards)
        return out

    def crz_phase(self, state, idx10, idx11, phase, out=None):
        base = super().crz_phase
        return self._row_sharded(
            state,
            lambda res: base(state, idx10, idx11, phase, out=res),
            lambda lo, hi, res: base(state[lo:hi], idx10, idx11,
                                     phase[lo:hi], out=res[lo:hi]),
            out,
        )

    def diag_sign(self, state, idx, out=None):
        base = super().diag_sign
        return self._row_sharded(
            state,
            lambda res: base(state, idx, out=res),
            lambda lo, hi, res: base(state[lo:hi], idx, out=res[lo:hi]),
            out,
        )

    def gather(self, state, perm, out=None):
        base = super().gather
        return self._row_sharded(
            state,
            lambda res: base(state, perm, out=res),
            lambda lo, hi, res: base(state[lo:hi], perm, out=res[lo:hi]),
            out,
        )

    # -- measurement contractions ---------------------------------------
    def probabilities(self, state):
        shards = self._shards(state.shape[0], state.shape[1])
        if shards is None:
            return super().probabilities(state)
        out = np.empty(state.shape, dtype=state.real.dtype)

        def run(lo, hi):
            chunk = state[lo:hi]
            np.add(chunk.real**2, chunk.imag**2, out=out[lo:hi])

        self._run(run, shards)
        return out

    # expvals is inherited: it dispatches through self.probabilities, so
    # the sharded kernel above already serves it.


# ---------------------------------------------------------------------------
# Registry and the active-backend policy (mirrors repro.nn.precision)
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend, name: str | None = None) -> None:
    """Make a backend resolvable by name (``resolve_backend("name")``)."""
    key = name or backend.name
    if not key or key == KernelBackend.name:
        raise ValueError("backend needs a concrete name to register under")
    _REGISTRY[key] = backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, in registration order."""
    return tuple(_REGISTRY)


register_backend(NumpyBackend())
register_backend(ThreadedBackend())


def resolve_backend(spec=None) -> KernelBackend:
    """Normalize a backend spec to a :class:`KernelBackend`.

    Accepts None (the active default), a backend instance, or a registered
    name (``"numpy"``, ``"threaded"``).
    """
    if spec is None:
        return default_backend()
    if isinstance(spec, KernelBackend):
        return spec
    if isinstance(spec, str):
        backend = _REGISTRY.get(spec)
        if backend is not None:
            return backend
    raise ValueError(
        f"unknown kernel backend {spec!r}; expected a KernelBackend or one "
        f"of {sorted(_REGISTRY)}"
    )


def _initial_backend() -> KernelBackend:
    """The process default: ``REPRO_BACKEND`` when set, else NumPy.

    An unknown name fails loudly — a CI matrix entry that silently fell
    back to the default backend would test nothing.
    """
    env = os.environ.get("REPRO_BACKEND")
    if not env:
        return _REGISTRY["numpy"]
    return resolve_backend(env)


# A stack so nested ``use_backend`` scopes restore correctly.
_DEFAULT: list[KernelBackend] = [_initial_backend()]


def default_backend() -> KernelBackend:
    """The backend consulted wherever no explicit ``backend=`` was given."""
    return _DEFAULT[-1]


def set_default_backend(spec) -> KernelBackend:
    """Replace the process-wide default backend; returns the previous one."""
    previous = _DEFAULT[-1]
    _DEFAULT[-1] = resolve_backend(spec)
    return previous


@contextmanager
def use_backend(spec):
    """Scope the default backend: ``with use_backend("threaded"): ...``."""
    _DEFAULT.append(resolve_backend(spec))
    try:
        yield _DEFAULT[-1]
    finally:
        _DEFAULT.pop()
