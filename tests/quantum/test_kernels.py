"""Direct tests of the engine's NumPy kernels and the instruction contract.

The circuit-level suites compare whole plans against the naive
interpreter.  These pin each kernel on its own: ``apply_dense`` and
``transition_matrix`` against a dense ``kron(I_left, mat, I_right)``
reference on every wire geometry they dispatch on (``right == 1``, the
kron-GEMM short strides, the long-slice matmuls), and the purity contract
the adjoint walk relies on — ``apply`` never mutates its input, and
writing into ``out`` gives bit for bit the array a fresh call returns.
"""

import numpy as np
import pytest

from repro.quantum.engine import (
    _SDense,
    _SPermutation,
    _kron_eye,
    apply_dense,
    transition_matrix,
)

P, BATCH, LEFT = 3, 2, 2


def _complex(rng, shape, dtype=np.complex128):
    return (rng.normal(size=shape) + 1j * rng.normal(size=shape)).astype(dtype)


def _matrices(rng, d, per_patch):
    return _complex(rng, (P if per_patch else P * BATCH, d, d))


def _row_operator(mats, per_patch, right):
    """The full ``(dim, dim)`` operator acting on each stacked row."""
    rows = range(P * BATCH)
    return [
        np.kron(np.kron(np.eye(LEFT), mats[r // BATCH if per_patch else r]),
                np.eye(right))
        for r in rows
    ]


class TestDenseKernels:
    def test_kron_eye_matches_numpy_kron(self):
        rng = np.random.default_rng(3)
        for right in (2, 4, 8):
            mat = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
            expected = np.stack([np.kron(m, np.eye(right)) for m in mat])
            np.testing.assert_allclose(_kron_eye(mat, right), expected)

    @pytest.mark.parametrize("right", [1, 2, 4, 8, 16, 32])
    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("per_patch", [True, False])
    def test_apply_dense_matches_kron_operator(self, right, d, per_patch):
        rng = np.random.default_rng(right * 10 + d)
        state = _complex(rng, (P * BATCH, LEFT * d * right))
        mats = _matrices(rng, d, per_patch)
        got = apply_dense(state, mats, P, BATCH, LEFT, d, right, per_patch)
        expected = np.stack([
            op @ row for op, row in zip(_row_operator(mats, per_patch, right),
                                        state)
        ])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("right", [1, 2, 4, 8, 16, 32])
    @pytest.mark.parametrize("d", [2, 4])
    @pytest.mark.parametrize("per_patch", [True, False])
    def test_transition_matrix_matches_einsum(self, right, d, per_patch):
        rng = np.random.default_rng(right * 10 + d + 1)
        dim = LEFT * d * right
        psi = _complex(rng, (P * BATCH, dim))
        lam = _complex(rng, (P * BATCH, dim))
        got = transition_matrix(psi, lam, P, BATCH, LEFT, d, right,
                                per_patch)
        shape = (P, BATCH, LEFT, d, right)
        expected = np.einsum("pblar,pblcr->pbac",
                             np.conj(lam).reshape(shape), psi.reshape(shape))
        expected = (expected.sum(axis=1) if per_patch
                    else expected.reshape(P * BATCH, d, d))
        np.testing.assert_allclose(got, expected, atol=1e-11)


def _instruction_case(kind, dtype, rng):
    """One instruction, its bound data and a stacked state to run it on."""
    n = 5
    dim = 2**n
    if kind.startswith("dense"):
        wires = {
            "dense-innermost": (4,),  # right == 1
            "dense-short-stride": (2,),  # right == 4, kron-GEMM
            "dense-long-stride": (0,),  # right == 16, batched matmul
            "dense-pair": (1, 2),  # 4x4 block, right == 4
        }[kind]
        d = 2 ** len(wires)
        per_patch = kind != "dense-short-stride"
        instr = _SDense(wires, 2 ** wires[0], 2 ** (n - 1 - wires[-1]),
                        slots=())
        mats = _complex(rng, (P if per_patch else P * BATCH, d, d), dtype)
        data = (mats, (), per_patch)
    else:
        instr = _SPermutation(rng.permutation(dim), tuple(range(n)))
        data = None
    return instr, data, _complex(rng, (P * BATCH, dim), dtype)


KINDS = ["dense-innermost", "dense-short-stride", "dense-long-stride",
         "dense-pair", "permutation"]


class TestInstructionPurity:
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("kind", KINDS)
    def test_apply_is_pure_and_out_matches_fresh(self, kind, dtype):
        rng = np.random.default_rng(KINDS.index(kind))
        instr, data, state = _instruction_case(kind, dtype, rng)
        before = state.copy()
        fresh = instr.apply(state, data, P, BATCH)
        np.testing.assert_array_equal(state, before)
        assert fresh.dtype == dtype
        assert fresh.flags.c_contiguous  # later reshape-views rely on it
        out = np.empty_like(state)
        written = instr.apply(state, data, P, BATCH, out=out)
        assert written is out
        np.testing.assert_array_equal(written, fresh)
        np.testing.assert_array_equal(state, before)
