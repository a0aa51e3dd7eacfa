"""Tests for SMILES I/O, descriptors, logP, QED, SA, and set metrics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chem import (
    AROMATIC,
    Molecule,
    MoleculeSpec,
    aromatic_ring_count,
    crippen_logp,
    default_fragment_table,
    from_smiles,
    hydrogen_bond_acceptors,
    hydrogen_bond_donors,
    normalized_logp,
    normalized_sa,
    qed,
    qed_properties,
    random_molecule,
    random_molecules,
    rotatable_bonds,
    sa_score,
    score_matrices,
    score_molecules,
    structural_alerts,
    to_smiles,
    tpsa,
    uniqueness,
)
from repro.chem.qed import ADS_PARAMS, ads


def mol_from(smiles):
    return from_smiles(smiles)


def _benzene():
    bonds = [(i, (i + 1) % 6, AROMATIC) for i in range(6)]
    return Molecule.from_atoms_and_bonds(["C"] * 6, bonds)


class TestSmiles:
    def test_write_ethanol(self):
        assert to_smiles(mol_from("CCO")) == "CCO"

    def test_roundtrip_branches(self):
        smiles = "CC(C)(C)O"
        assert to_smiles(mol_from(smiles)) == smiles

    def test_roundtrip_double_bond(self):
        assert to_smiles(mol_from("C=CC#N")) == "C=CC#N"

    def test_roundtrip_ring(self):
        mol = mol_from("C1CCCCC1")
        again = from_smiles(to_smiles(mol))
        assert again.num_atoms == 6
        assert len(again.rings()) == 1

    def test_roundtrip_aromatic_ring(self):
        bonds = [(i, (i + 1) % 6, AROMATIC) for i in range(6)]
        benzene = Molecule.from_atoms_and_bonds(["C"] * 6, bonds)
        again = from_smiles(to_smiles(benzene))
        assert aromatic_ring_count(again) == 1

    def test_parse_explicit_single(self):
        assert from_smiles("C-C") == from_smiles("CC")

    def test_parse_two_char_element(self):
        mol = from_smiles("CCl")
        assert mol.symbols == ["C", "Cl"]

    def test_unbalanced_paren(self):
        with pytest.raises(ValueError):
            from_smiles("C(C")

    def test_unclosed_ring(self):
        with pytest.raises(ValueError):
            from_smiles("C1CC")

    def test_disconnected_write_raises(self):
        mol = Molecule.from_atoms_and_bonds(["C", "C"], [])
        with pytest.raises(ValueError):
            to_smiles(mol)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_random_molecule_smiles_roundtrip_preserves_counts(self, seed):
        rng = np.random.default_rng(seed)
        mol = random_molecule(rng, MoleculeSpec(max_atoms=12))
        again = from_smiles(to_smiles(mol))
        assert sorted(again.symbols) == sorted(mol.symbols)
        assert again.num_bonds == mol.num_bonds
        assert again.molecular_formula() == mol.molecular_formula()


class TestDescriptors:
    def test_hba_hbd_ethanol(self):
        mol = mol_from("CCO")
        assert hydrogen_bond_acceptors(mol) == 1
        assert hydrogen_bond_donors(mol) == 1

    def test_hbd_requires_hydrogen(self):
        ether = mol_from("COC")
        assert hydrogen_bond_acceptors(ether) == 1
        assert hydrogen_bond_donors(ether) == 0

    def test_rotatable_bonds_butane(self):
        assert rotatable_bonds(mol_from("CCCC")) == 1

    def test_rotatable_bonds_exclude_ring(self):
        assert rotatable_bonds(mol_from("C1CCCCC1")) == 0

    def test_rotatable_bonds_exclude_double(self):
        assert rotatable_bonds(mol_from("C=CC=C")) == 1

    def test_aromatic_ring_count(self):
        benzene = _benzene()
        assert aromatic_ring_count(benzene) == 1
        assert aromatic_ring_count(mol_from("C1CCCCC1")) == 0

    def test_tpsa_zero_for_hydrocarbon(self):
        assert tpsa(mol_from("CCCC")) == 0.0

    def test_tpsa_hydroxyl(self):
        np.testing.assert_allclose(tpsa(mol_from("CCO")), 20.23)

    def test_tpsa_ether_smaller_than_hydroxyl(self):
        assert tpsa(mol_from("COC")) < tpsa(mol_from("CCO"))

    def test_tpsa_carbonyl(self):
        np.testing.assert_allclose(tpsa(mol_from("CC=O")), 17.07)

    def test_alerts_clean_molecule(self):
        assert structural_alerts(mol_from("CCO")) == 0

    def test_alert_peroxide(self):
        assert structural_alerts(mol_from("COOC")) >= 1

    def test_alert_aldehyde(self):
        assert structural_alerts(mol_from("CC=O")) >= 1

    def test_alert_thiocarbonyl(self):
        assert structural_alerts(mol_from("CC(=S)C")) >= 1

    def test_alert_cumulated(self):
        assert structural_alerts(mol_from("C=C=C")) >= 1

    def test_alert_hydrazine_and_azo(self):
        assert structural_alerts(mol_from("CNNC")) >= 1
        assert structural_alerts(mol_from("CN=NC")) >= 1


class TestCrippenLogP:
    def test_alkane_positive(self):
        assert crippen_logp(mol_from("CCCCCC")) > 1.0

    def test_polar_lower_than_alkane(self):
        assert crippen_logp(mol_from("OCCO")) < crippen_logp(mol_from("CCCC"))

    def test_longer_chain_higher(self):
        assert crippen_logp(mol_from("CCCCCCCC")) > crippen_logp(mol_from("CCC"))

    def test_aromatic_contribution(self):
        np.testing.assert_allclose(
            crippen_logp(_benzene()), 6 * 0.2940 + 6 * 0.1230, atol=1e-9
        )

    def test_normalized_logp_in_unit_interval(self):
        for smiles in ["C", "CCCCCCCCCCCC", "OCC(O)C(O)CO"]:
            value = normalized_logp(mol_from(smiles))
            assert 0.0 <= value <= 1.0


class TestQED:
    def test_ads_positive_normalized(self):
        for name, params in ADS_PARAMS.items():
            for x in [0.0, 1.0, 10.0, 100.0, 500.0]:
                value = ads(x, params)
                assert 0.0 < value <= 1.0 + 1e-9, (name, x, value)

    def test_ads_mw_peak_location(self):
        # MW desirability should peak near ~300 Da and fall at extremes.
        params = ADS_PARAMS["MW"]
        assert ads(305, params) > ads(30, params)
        assert ads(305, params) > ads(700, params)

    def test_qed_in_unit_interval(self):
        for smiles in ["CCO", "CCCCCCCCCC", "C1CCCCC1"]:
            assert 0.0 <= qed(mol_from(smiles)) <= 1.0

    def test_qed_empty_molecule(self):
        assert qed(Molecule()) == 0.0

    def test_qed_druglike_beats_pathological(self):
        druglike = from_smiles("CC(C)CC1:C:C:C:C:C1")  # isobutylbenzene-ish
        pathological = mol_from("C" * 40)  # C40 chain
        assert qed(druglike) > qed(pathological)

    def test_qed_alerts_hurt(self):
        clean = mol_from("CCCCO")
        alerty = mol_from("CCCOO")  # peroxide
        assert qed(clean) > qed(alerty)

    def test_qed_properties_keys(self):
        props = qed_properties(mol_from("CCO"))
        assert set(props) == {
            "MW", "ALOGP", "HBA", "HBD", "PSA", "ROTB", "AROM", "ALERTS",
        }


class TestSAScore:
    def test_range(self):
        table = default_fragment_table()
        for smiles in ["CCO", "CCCCCC", "C1CCCCC1"]:
            value = sa_score(mol_from(smiles), table)
            assert 1.0 <= value <= 10.0

    def test_simple_easier_than_weird(self):
        table = default_fragment_table()
        simple = mol_from("CCCCO")
        weird = from_smiles("FC1(F)C(F)(F)C1(F)F")  # strained perfluoro ring
        assert sa_score(simple, table) < sa_score(weird, table)

    def test_macrocycle_harder_than_chain(self):
        table = default_fragment_table()
        n = 12
        chain = mol_from("C" * n)
        ring_bonds = [(i, (i + 1) % n, 1.0) for i in range(n)]
        macrocycle = Molecule.from_atoms_and_bonds(["C"] * n, ring_bonds)
        assert sa_score(chain, table) < sa_score(macrocycle, table)

    def test_empty_molecule_hard(self):
        assert sa_score(Molecule()) == 10.0

    def test_normalized_sa_unit_interval(self):
        assert 0.0 <= normalized_sa(mol_from("CCO")) <= 1.0


class TestSetMetrics:
    def test_score_generator_molecules(self):
        mols = random_molecules(30, seed=7)
        scores = score_molecules(mols)
        assert scores.n_total == 30
        assert scores.n_scored == 30
        assert scores.validity == 1.0  # generator output is strictly valid
        assert 0.0 <= scores.qed <= 1.0
        assert 0.0 <= scores.logp <= 1.0
        assert 0.0 <= scores.sa <= 1.0

    def test_score_random_matrices_runs(self):
        rng = np.random.default_rng(0)
        matrices = rng.normal(loc=0.3, scale=1.2, size=(20, 10, 10))
        scores = score_matrices(matrices)
        assert scores.n_total == 20
        assert 0.0 <= scores.validity <= 1.0

    def test_strict_mode_skips_invalid(self):
        mol = Molecule.from_atoms_and_bonds(["C", "C"], [])  # disconnected
        scores = score_molecules([mol], correct=False)
        assert scores.n_scored == 0

    def test_uniqueness(self):
        a = mol_from("CCO")
        b = mol_from("CCO")
        c = mol_from("CCC")
        assert uniqueness([a, b, c]) == pytest.approx(2 / 3)

    def test_empty_set(self):
        scores = score_molecules([])
        assert scores.n_total == 0
        assert scores.qed == 0.0
