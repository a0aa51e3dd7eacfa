"""Murcko scaffolds and canonical molecule signatures.

Scaffold extraction (Bemis & Murcko, 1996) reduces a molecule to its ring
systems plus the linkers connecting them — the standard way to ask whether
a generative model invents new chemotypes or reshuffles one backbone.

Canonical signatures implement Morgan-style iterative refinement to give a
string invariant under atom renumbering; :func:`same_molecule` and
set-level uniqueness in :mod:`repro.chem.metrics` rely on it.
"""

from __future__ import annotations

import hashlib

from .molecule import Molecule

__all__ = [
    "murcko_scaffold",
    "canonical_signature",
    "same_molecule",
    "scaffold_diversity",
]


def murcko_scaffold(mol: Molecule) -> Molecule:
    """Ring systems plus linkers; empty molecule when there are no rings.

    Computed by iteratively deleting terminal (degree <= 1) atoms that are
    not in any ring until a fixpoint, which leaves exactly the rings and
    the shortest paths connecting them.
    """
    if not mol.rings():
        return Molecule()
    work = mol.copy()
    while True:
        ring_atoms = work.atoms_in_rings()
        terminals = [
            index
            for index in range(work.num_atoms)
            if work.degree(index) <= 1 and index not in ring_atoms
        ]
        if not terminals:
            return work
        keep = set(range(work.num_atoms)) - set(terminals)
        work = work.subgraph(keep)


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


def same_molecule(a: Molecule, b: Molecule) -> bool:
    """Graph-identity check up to atom renumbering.

    Uses canonical signatures; Morgan refinement distinguishes everything
    our generators produce (highly symmetric counterexamples would need a
    full graph-isomorphism check).
    """
    return canonical_signature(a) == canonical_signature(b)


def scaffold_diversity(molecules: list[Molecule]) -> float:
    """Distinct Murcko scaffolds per molecule (0 when the set is empty).

    Acyclic molecules share the 'empty' scaffold bucket.
    """
    if not molecules:
        return 0.0
    signatures = {canonical_signature(murcko_scaffold(m)) for m in molecules}
    return len(signatures) / len(molecules)


def _stable_hash(payload: str) -> int:
    return int.from_bytes(
        hashlib.blake2b(payload.encode(), digest_size=8).digest(), "big"
    )
