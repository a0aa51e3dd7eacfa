"""Tests for the molecular graph and periodic data."""

import numpy as np
import pytest

from repro.chem import AROMATIC, Molecule, element, from_smiles


def ethanol():
    # CCO
    return Molecule.from_atoms_and_bonds(
        ["C", "C", "O"], [(0, 1, 1.0), (1, 2, 1.0)]
    )


def benzene():
    bonds = [(i, (i + 1) % 6, AROMATIC) for i in range(6)]
    return Molecule.from_atoms_and_bonds(["C"] * 6, bonds)


class TestPeriodic:
    def test_known_elements(self):
        assert element("C").max_valence == 4
        assert element("N").max_valence == 3
        assert element("O").max_valence == 2
        assert element("F").max_valence == 1
        assert element("S").max_valence == 6

    def test_unknown_element(self):
        with pytest.raises(KeyError):
            element("Xx")


class TestConstruction:
    def test_add_atoms_and_bonds(self):
        mol = ethanol()
        assert mol.num_atoms == 3
        assert mol.num_bonds == 2
        assert mol.bond_order(0, 1) == 1.0
        assert mol.bond_order(0, 2) == 0.0

    def test_self_bond_rejected(self):
        mol = Molecule()
        mol.add_atom("C")
        with pytest.raises(ValueError):
            mol.add_bond(0, 0)

    def test_duplicate_bond_rejected(self):
        mol = ethanol()
        with pytest.raises(ValueError):
            mol.add_bond(1, 0)

    def test_invalid_order_rejected(self):
        mol = ethanol()
        with pytest.raises(ValueError):
            mol.add_bond(0, 2, 2.5)

    def test_bad_atom_index(self):
        mol = ethanol()
        with pytest.raises(IndexError):
            mol.add_bond(0, 7)

    def test_remove_bond(self):
        mol = ethanol()
        mol.remove_bond(1, 2)
        assert mol.bond_order(1, 2) == 0.0
        with pytest.raises(KeyError):
            mol.remove_bond(1, 2)

    def test_set_bond_order(self):
        mol = ethanol()
        mol.set_bond_order(0, 1, 2.0)
        assert mol.bond_order(0, 1) == 2.0

    def test_copy_is_independent(self):
        mol = ethanol()
        clone = mol.copy()
        clone.set_bond_order(0, 1, 3.0)
        assert mol.bond_order(0, 1) == 1.0


class TestValenceAndHydrogens:
    def test_implicit_hydrogens_methane_like(self):
        mol = Molecule()
        mol.add_atom("C")
        assert mol.implicit_hydrogens(0) == 4

    def test_implicit_hydrogens_ethanol(self):
        mol = ethanol()
        assert mol.implicit_hydrogens(0) == 3  # CH3
        assert mol.implicit_hydrogens(1) == 2  # CH2
        assert mol.implicit_hydrogens(2) == 1  # OH
        assert mol.total_hydrogens() == 6

    def test_aromatic_carbon_hydrogens(self):
        mol = benzene()
        # Each aromatic CH: 2 x 1.5 used -> 1 hydrogen.
        assert all(mol.implicit_hydrogens(i) == 1 for i in range(6))

    def test_molecular_weight_ethanol(self):
        np.testing.assert_allclose(ethanol().molecular_weight(), 46.069, atol=0.01)

    def test_molecular_weight_benzene(self):
        np.testing.assert_allclose(benzene().molecular_weight(), 78.114, atol=0.01)

    def test_molecular_formula(self):
        assert ethanol().molecular_formula() == "C2H6O"
        assert benzene().molecular_formula() == "C6H6"

    def test_valence_used_with_double_bond(self):
        mol = Molecule.from_atoms_and_bonds(["C", "O"], [(0, 1, 2.0)])
        assert mol.valence_used(0) == 2.0
        assert mol.implicit_hydrogens(1) == 0


class TestGraphQueries:
    def test_neighbors_and_degree(self):
        mol = ethanol()
        assert mol.neighbors(1) == {0, 2}
        assert mol.degree(1) == 2

    def test_connected(self):
        mol = ethanol()
        assert mol.is_connected()
        mol.remove_bond(1, 2)
        assert not mol.is_connected()
        assert len(mol.connected_components()) == 2

    def test_empty_molecule_not_connected(self):
        assert not Molecule().is_connected()

    def test_rings_benzene(self):
        rings = benzene().rings()
        assert len(rings) == 1
        assert len(rings[0]) == 6

    def test_ring_bonds(self):
        mol = benzene()
        mol.add_atom("C")
        mol.add_bond(0, 6, 1.0)  # exocyclic methyl
        ring = mol.ring_bonds()
        assert len(ring) == 6
        assert (0, 6) not in ring

    def test_subgraph_reindexes(self):
        mol = ethanol()
        sub = mol.subgraph({1, 2})
        assert sub.num_atoms == 2
        assert sub.symbols == ["C", "O"]
        assert sub.bond_order(0, 1) == 1.0

    def test_equality(self):
        assert ethanol() == ethanol()
        other = ethanol()
        other.set_bond_order(0, 1, 2.0)
        assert ethanol() != other

    def test_from_smiles_equivalent(self):
        assert from_smiles("CCO") == ethanol()
