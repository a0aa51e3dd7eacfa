"""Patched quantum circuits — the paper's key scaling contribution.

Section III-C: *"we partition the entire feature vector into multiple
equal-sized sub-vectors, and each sub-vector is fed into a quantum
sub-circuit"*.  Compared with the patch-GAN of Huang et al. (which feeds all
features to every sub-circuit), this uses fewer qubits per patch and widens
the output: with ``p`` patches over 1024 features each patch amplitude-embeds
``1024/p`` features into ``log2(1024/p)`` qubits, and the concatenated
per-qubit expectations give a latent space of ``p * log2(1024/p)`` dimensions
(18/32/56/96 for p = 2/4/8/16 — Section IV-D).

Stacked execution contract
--------------------------
The ``p`` sub-circuits are independent and (when built from one factory)
structurally identical, so :class:`PatchedQuantumLayer` does not loop over
them: it stacks the per-patch input slices into ``(p, batch, in)``, the
per-patch weight vectors into a ``(p, n_weights)`` Tensor, and records
**one** tape primitive around :func:`repro.quantum.autodiff
.execute_stacked` — a single ``(p * batch, 2**n)`` statevector pass
through one compiled plan, whose registered VJP is one adjoint walk
returning every patch's weight and input gradients
(:func:`repro.quantum.autodiff.backward_stacked`).  The ``Tensor.stack``
node routes the ``(p, n_weights)`` gradient back to the individual patch
``Parameter``s.  Only patches whose circuits are *not* structurally
identical run the sequential per-patch loop, which is also the reference
the stacked path is property-tested against.
"""

from __future__ import annotations

import numpy as np

from ..nn.autodiff import Primitive, defvjp_all
from ..nn.init import fresh_rng
from ..nn.modules import Module, ModuleList
from ..nn.precision import resolve_precision
from ..nn.tensor import Tensor, is_grad_enabled, tape_record
from ..quantum.autodiff import backward_stacked, execute_stacked
from ..quantum.circuit import Circuit
from ..quantum.engine import circuit_signature, stacked_plan
from .qlayer import QuantumLayer

__all__ = ["PatchedQuantumLayer", "patched_latent_dim", "patch_qubits"]


def patch_qubits(n_features: int, n_patches: int) -> int:
    """Qubits per patch for amplitude-embedded patches: log2(features/p)."""
    if n_features % n_patches:
        raise ValueError(
            f"{n_features} features do not split into {n_patches} equal patches"
        )
    per_patch = n_features // n_patches
    if per_patch < 2:
        raise ValueError(
            f"{n_features} features over {n_patches} patches leaves "
            f"{per_patch} feature(s) per patch — a 0-qubit sub-circuit; "
            "use fewer patches"
        )
    n_qubits = int(per_patch).bit_length() - 1
    if 2**n_qubits != per_patch:
        raise ValueError(f"patch size {per_patch} is not a power of two")
    return n_qubits


def patched_latent_dim(n_features: int, n_patches: int) -> int:
    """Latent dimension of a patched amplitude encoder: p * log2(features/p)."""
    return n_patches * patch_qubits(n_features, n_patches)


def _stacked_vjp_all(g, ans, operands, params, argnums):
    p, per_out = params["n_patches"], params["per_out"]
    batch, input_dim = params["batch"], params["input_dim"]
    grad_out = np.ascontiguousarray(
        g.reshape(batch, p, per_out).transpose(1, 0, 2)
    )
    grad_inputs, grad_weights = backward_stacked(
        params["cache"], grad_out, want_inputs=1 in argnums
    )
    grads = []
    for argnum in argnums:
        if argnum == 0:
            grads.append(grad_weights)
        else:
            grads.append(
                np.ascontiguousarray(
                    grad_inputs.transpose(1, 0, 2)
                ).reshape(batch, input_dim)
            )
    return grads


_QSTACKED = Primitive("quantum_execute_stacked")
defvjp_all(_QSTACKED, _stacked_vjp_all)


def quantum_execute_stacked(
    template: Circuit,
    weights: Tensor,
    x: Tensor,
    n_patches: int,
    precision=None,
) -> Tensor:
    """Run ``p`` independent patch circuits as one recorded tape primitive.

    ``weights`` is the stacked ``(p, n_weights)`` Tensor, ``x`` the flat
    ``(batch, p * inputs_per_patch)`` feature Tensor.  Returns the
    concatenated ``(batch, p * per_out)`` outputs with the stacked adjoint
    registered as the primitive's VJP.
    """
    precision = resolve_precision(precision)
    batch = x.shape[0]
    per_in = x.shape[1] // n_patches
    inputs = np.ascontiguousarray(
        np.asarray(x.data, dtype=precision.real)
        .reshape(batch, n_patches, per_in)
        .transpose(1, 0, 2)
    )
    track = is_grad_enabled() and (weights.requires_grad or x.requires_grad)
    stacked_out, cache = execute_stacked(
        template, inputs, weights.data, want_cache=track, dtype=precision
    )
    per_out = stacked_out.shape[2]
    data = np.ascontiguousarray(stacked_out.transpose(1, 0, 2)).reshape(
        batch, n_patches * per_out
    )
    if not track:
        return Tensor(data)
    return tape_record(
        _QSTACKED,
        data,
        (weights, x),
        {
            "cache": cache,
            "n_patches": n_patches,
            "per_out": per_out,
            "batch": batch,
            "input_dim": x.shape[1],
        },
    )


class PatchedQuantumLayer(Module):
    """Split features across ``p`` independent sub-circuits, concat outputs.

    Parameters
    ----------
    circuit_factory:
        Called once per patch as ``circuit_factory(patch_index)`` and must
        return a built :class:`~repro.quantum.circuit.Circuit`.  All patches
        must consume the same number of inputs.
    n_patches:
        Number of sub-circuits ``p``.
    rng:
        Seeded generator; each patch gets independently initialized weights.
    dtype:
        Precision spec resolved at construction and shared by every patch:
        weights live in its real dtype, the stacked pass runs at its paired
        complex dtype.  None follows the active precision policy.
    """

    def __init__(
        self,
        circuit_factory,
        n_patches: int,
        rng: np.random.Generator | None = None,
        init_scale: float = np.pi,
        dtype=None,
    ):
        super().__init__()
        if n_patches < 1:
            raise ValueError("need at least one patch")
        rng = fresh_rng(rng)
        self.n_patches = n_patches
        self.precision = resolve_precision(dtype)
        # Each QuantumLayer compiles its circuit at construction; structurally
        # identical patch circuits (the common case: one factory with
        # per-patch weights) dedupe to a single shared plan in the engine's
        # structural cache, so p patches pay compilation once.
        self.patches = ModuleList(
            QuantumLayer(
                circuit_factory(i),
                rng=rng,
                init_scale=init_scale,
                dtype=self.precision,
            )
            for i in range(n_patches)
        )
        in_dims = {patch.circuit.n_inputs for patch in self.patches}
        if len(in_dims) != 1:
            raise ValueError(f"patches disagree on input dim: {sorted(in_dims)}")
        self.inputs_per_patch = in_dims.pop()
        self.output_dim = sum(patch.output_dim for patch in self.patches)
        signatures = {circuit_signature(patch.circuit) for patch in self.patches}
        self._template: Circuit | None = (
            self.patches[0].circuit if len(signatures) == 1 else None
        )
        if self._template is not None:
            stacked_plan(self._template)  # pay template compilation up front

    @property
    def stacked(self) -> bool:
        """Whether every patch runs in one stacked pass (patch circuits
        share one structural signature)."""
        return self._template is not None

    @property
    def input_dim(self) -> int:
        return self.inputs_per_patch * self.n_patches

    def forward(self, x: Tensor) -> Tensor:
        """Map ``(batch, p * inputs_per_patch)`` to concatenated patch outputs."""
        if x.shape[-1] != self.input_dim:
            raise ValueError(
                f"expected {self.input_dim} features "
                f"({self.n_patches} patches x {self.inputs_per_patch}), "
                f"got {x.shape[-1]}"
            )
        if self._template is None:
            return self._forward_sequential(x)
        return self._forward_stacked(x)

    def _forward_sequential(self, x: Tensor) -> Tensor:
        """One engine invocation per patch: the path for structurally
        different patches, and the reference the stacked pass is tested
        against."""
        outputs = []
        for index, patch in enumerate(self.patches):
            start = index * self.inputs_per_patch
            chunk = x[:, start : start + self.inputs_per_patch]
            outputs.append(patch(chunk))
        return Tensor.concatenate(outputs, axis=1)

    def _forward_stacked(self, x: Tensor) -> Tensor:
        """Fast path: all p patches as one stacked statevector pass."""
        weights = Tensor.stack([patch.weights for patch in self.patches])
        return quantum_execute_stacked(
            self._template,
            weights,
            x,
            self.n_patches,
            precision=self.precision,
        )

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"PatchedQuantumLayer(patches={self.n_patches}, "
            f"in={self.input_dim}, out={self.output_dim}"
            f"{', stacked' if self.stacked else ', per-patch'})"
        )
