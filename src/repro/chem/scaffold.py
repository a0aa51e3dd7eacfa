"""Canonical molecule signatures.

Morgan-style iterative refinement gives a string invariant under atom
renumbering; set-level uniqueness in :mod:`repro.chem.metrics` and
:func:`repro.chem.batch.unique_fraction` rely on it.
"""

from __future__ import annotations

import hashlib

from .molecule import Molecule

__all__ = ["canonical_signature"]


def canonical_signature(mol: Molecule, rounds: int | None = None) -> str:
    """Renumbering-invariant identifier via Morgan-style refinement.

    Atom invariants start from (symbol, degree, hydrogens) and are
    iteratively hashed with sorted neighbor (bond order, invariant) pairs;
    the final sorted multiset of invariants plus sorted canonical edges is
    hashed into a hex digest.
    """
    n = mol.num_atoms
    if n == 0:
        return "empty"
    rounds = rounds if rounds is not None else max(2, n)
    invariants = [
        _stable_hash(
            f"{mol.symbols[i]}|{mol.degree(i)}|{mol.implicit_hydrogens(i)}"
        )
        for i in range(n)
    ]
    for _ in range(rounds):
        updated = []
        for i in range(n):
            neighbor_part = sorted(
                (mol.bond_order(i, j), invariants[j]) for j in mol.neighbors(i)
            )
            updated.append(_stable_hash(f"{invariants[i]}|{neighbor_part}"))
        if updated == invariants:
            break
        invariants = updated
    edges = sorted(
        tuple(sorted((invariants[i], invariants[j]))) + (order,)
        for i, j, order in mol.bonds()
    )
    payload = f"{sorted(invariants)}|{edges}"
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def _stable_hash(payload: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(payload.encode(), digest_size=8).digest(), "big"
    )
