"""Tests for canonical molecule signatures (:mod:`repro.chem.scaffold`)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.chem import (
    AROMATIC,
    Molecule,
    MoleculeSpec,
    canonical_signature,
    from_smiles,
    random_molecule,
)


def benzene():
    return Molecule.from_atoms_and_bonds(
        ["C"] * 6, [(i, (i + 1) % 6, AROMATIC) for i in range(6)]
    )


class TestCanonicalSignature:
    def test_invariant_under_renumbering(self):
        a = from_smiles("CCO")
        b = from_smiles("OCC")
        assert canonical_signature(a) == canonical_signature(b)

    def test_distinguishes_constitutional_isomers(self):
        butane = from_smiles("CCCC")
        isobutane = from_smiles("CC(C)C")
        assert canonical_signature(butane) != canonical_signature(isobutane)

    def test_distinguishes_bond_orders(self):
        assert canonical_signature(from_smiles("CC")) != canonical_signature(
            from_smiles("C=C")
        )

    def test_distinguishes_elements(self):
        assert canonical_signature(from_smiles("CCO")) != canonical_signature(
            from_smiles("CCN")
        )

    def test_empty_molecule(self):
        assert canonical_signature(Molecule()) == "empty"

    def test_same_molecule_predicate(self):
        assert canonical_signature(benzene()) == canonical_signature(benzene())
        assert canonical_signature(benzene()) != canonical_signature(
            from_smiles("C1CCCCC1")
        )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 50_000))
    def test_invariant_under_random_permutation(self, seed):
        rng = np.random.default_rng(seed)
        mol = random_molecule(rng, MoleculeSpec(min_atoms=4, max_atoms=12))
        permutation = rng.permutation(mol.num_atoms)
        remapped = Molecule()
        inverse = np.empty_like(permutation)
        inverse[permutation] = np.arange(mol.num_atoms)
        for new_index in range(mol.num_atoms):
            remapped.add_atom(mol.symbols[permutation[new_index]])
        for i, j, order in mol.bonds():
            remapped.add_bond(int(inverse[i]), int(inverse[j]), order)
        assert canonical_signature(mol) == canonical_signature(remapped)
