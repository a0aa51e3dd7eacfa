"""Golden-equivalence suite: every batched scorer matches its per-molecule
reference bit-for-bit.

The batched pipeline in :mod:`repro.chem.batch` is a pure performance
rewrite — the per-molecule scalar functions remain the semantic source of
truth.  These tests compare the two over seeded randomized molecule sets
(plain == on floats, no tolerance), including the hostile shapes the
pipeline must survive: empty sets, molecules that sanitize down to zero
atoms, and disconnected multi-fragment decodes from noisy matrices.
"""

import math

import numpy as np
import pytest

from repro.chem import (
    MoleculeSpec,
    crippen_logp,
    decode_molecule,
    default_fragment_table,
    hydrogen_bond_acceptors,
    hydrogen_bond_donors,
    is_valid,
    normalized_logp,
    normalized_sa,
    qed,
    random_molecules,
    sa_score,
    sanitize_lenient,
    structural_alerts,
    tpsa,
    uniqueness,
)
from repro.chem.batch import (
    MoleculeBatch,
    crippen_logp_batch,
    hydrogen_bond_acceptors_batch,
    hydrogen_bond_donors_batch,
    molecular_weight_batch,
    qed_batch,
    sa_score_batch,
    sanitize_batch,
    structural_alerts_batch,
    tpsa_batch,
    unique_fraction,
    valid_mask,
)
from repro.chem.metrics import (
    normalized_logp_batch,
    normalized_sa_batch,
    score_matrices,
    score_matrices_reference,
    score_molecules,
    score_molecules_reference,
)
from repro.chem.molecule import Molecule
from repro.data import load_pdbbind_ligands, load_qm9

RICH_SPEC = MoleculeSpec(
    min_atoms=6,
    max_atoms=24,
    hetero_weights={"N": 0.12, "O": 0.14, "F": 0.03, "S": 0.05, "P": 0.01,
                    "Cl": 0.02},
    ring_closure_prob=0.5,
    max_ring_closures=3,
    double_bond_prob=0.25,
    triple_bond_prob=0.04,
    aromatize_prob=0.6,
)


def seeded_molecules(seed=11, n=60):
    """Randomized workload: small + hetero-rich molecules, plus empties."""
    mols = random_molecules(n // 2, seed)
    mols += random_molecules(n - n // 2, seed + 1, RICH_SPEC)
    mols.insert(0, Molecule())
    mols.insert(len(mols) // 2, Molecule())
    return mols


def noisy_stack(seed=404, n=48, sigma=0.45):
    """Noisy ligand matrices — decode to a mix of valid molecules,
    repairables, disconnected fragments, and zero-atom wrecks.  The last
    matrix is forced to all-empty slots so the stack always contains a
    decode-to-nothing case."""
    raw = load_pdbbind_ligands(n, seed=2019).raw.astype(np.float64)
    rng = np.random.default_rng(seed)
    noisy = raw + rng.normal(0.0, sigma, size=raw.shape)
    noisy[-1] = -np.abs(noisy[-1])
    return noisy


def assert_same_graph(a, b):
    assert a.symbols == b.symbols
    assert a._bonds == b._bonds
    assert list(a._bonds) == list(b._bonds)  # insertion order too
    assert a._adjacency == b._adjacency
    assert a._valence == b._valence


class TestPackedDecode:
    def test_from_matrices_matches_scalar_decode(self):
        from repro.chem import discretize

        stack = noisy_stack()
        batch = MoleculeBatch.from_matrices(stack)
        assert len(batch) == stack.shape[0]
        for matrix, packed in zip(stack, batch.molecules):
            assert_same_graph(decode_molecule(discretize(matrix)), packed)

    def test_workload_is_hostile(self):
        # The noisy stack must actually exercise the edge cases the suite
        # claims to cover, or the equivalence tests prove less than stated.
        mols = MoleculeBatch.from_matrices(noisy_stack()).molecules
        assert any(not m.is_connected() and m.num_atoms for m in mols)
        assert any(not is_valid(m) for m in mols)
        assert any(m.num_atoms == 0 for m in mols)

    def test_empty_stack(self):
        batch = MoleculeBatch.from_matrices(np.zeros((0, 8, 8)))
        assert len(batch) == 0
        assert qed_batch(batch).shape == (0,)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            MoleculeBatch.from_matrices(np.zeros((2, 4, 5)))

    def test_roundtrip_from_molecules(self):
        mols = seeded_molecules()
        batch = MoleculeBatch.from_molecules(mols)
        for original, packed in zip(mols, batch.molecules):
            assert_same_graph(original, packed)


class TestScorerEquivalence:
    """Exact == against the scalar reference, molecule by molecule."""

    def batches(self):
        yield seeded_molecules()
        yield MoleculeBatch.from_matrices(noisy_stack()).molecules
        yield []

    def check(self, batch_fn, scalar_fn):
        for mols in self.batches():
            got = batch_fn(mols)
            expected = [scalar_fn(m) for m in mols]
            assert got.tolist() == expected

    def test_molecular_weight(self):
        self.check(molecular_weight_batch, lambda m: m.molecular_weight())

    def test_crippen_logp(self):
        self.check(crippen_logp_batch, crippen_logp)

    def test_crippen_rejects_hydrogen_like_reference(self):
        hmol = Molecule.from_atoms_and_bonds(["C", "H"], [(0, 1, 1.0)])
        with pytest.raises(ValueError):
            crippen_logp(hmol)
        with pytest.raises(ValueError):
            crippen_logp_batch([hmol])

    def test_tpsa(self):
        self.check(tpsa_batch, tpsa)

    def test_hydrogen_bond_counts(self):
        self.check(hydrogen_bond_acceptors_batch, hydrogen_bond_acceptors)
        self.check(hydrogen_bond_donors_batch, hydrogen_bond_donors)

    def test_structural_alerts(self):
        self.check(structural_alerts_batch, structural_alerts)

    def test_qed(self):
        self.check(qed_batch, qed)

    def test_sa_score(self):
        table = default_fragment_table()
        self.check(lambda m: sa_score_batch(m, table),
                   lambda m: sa_score(m, table))

    def test_normalized_metrics(self):
        table = default_fragment_table()
        self.check(normalized_logp_batch, normalized_logp)
        self.check(lambda m: normalized_sa_batch(m, table),
                   lambda m: normalized_sa(m, table))

    def test_valid_mask(self):
        for mols in self.batches():
            assert valid_mask(MoleculeBatch.from_molecules(mols)).tolist() \
                == [is_valid(m) for m in mols]

    def test_sanitize_batch(self):
        for mols in self.batches():
            got = sanitize_batch(MoleculeBatch.from_molecules(mols))
            assert len(got) == len(mols)
            for cleaned, m in zip(got, mols):
                assert_same_graph(cleaned, sanitize_lenient(m))

    def test_unique_fraction(self):
        for mols in self.batches():
            if not mols:
                continue
            assert unique_fraction(MoleculeBatch.from_molecules(mols)) \
                == uniqueness(mols)


class TestSetScoring:
    def test_score_molecules_matches_reference(self):
        table = default_fragment_table()
        for mols in (seeded_molecules(),
                     MoleculeBatch.from_matrices(noisy_stack()).molecules,
                     []):
            for correct in (True, False):
                assert score_molecules(mols, table=table, correct=correct) \
                    == score_molecules_reference(
                        mols, table=table, correct=correct
                    )

    def test_score_matrices_matches_reference(self):
        table = default_fragment_table()
        stack = noisy_stack(seed=505, n=32)
        for correct in (True, False):
            assert score_matrices(stack, table=table, correct=correct) \
                == score_matrices_reference(
                    stack, table=table, correct=correct
                )

    def test_score_matrices_empty(self):
        assert score_matrices(np.asarray([])) \
            == score_matrices_reference(np.asarray([]))
        empty_stack = np.zeros((0, 8, 8))
        assert score_matrices(empty_stack) \
            == score_matrices_reference(empty_stack)

    def test_all_molecules_sanitize_to_nothing(self):
        # A stack whose every decode repairs down to zero atoms must hit
        # the empty-scored branch identically in both implementations.
        stack = np.zeros((4, 8, 8))
        assert score_matrices(stack) == score_matrices_reference(stack)
        scores = score_matrices(stack)
        assert scores.n_scored == 0 and scores.qed == 0.0
