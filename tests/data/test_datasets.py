"""Tests for dataset generators and loading utilities."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chem import decode_molecule, is_valid, is_well_formed
from repro.data import (
    ArrayDataset,
    DataLoader,
    DIGIT_SIZE,
    PDBBIND_MATRIX_SIZE,
    digit_template,
    l1_normalize,
    ligand_passes_filter,
    load_cifar_gray,
    load_digits,
    load_pdbbind_ligands,
    load_qm9,
    synth_image,
    train_test_split,
)
from repro.chem.generation import MoleculeSpec, random_molecule


class TestArrayDataset:
    def test_basic(self):
        data = ArrayDataset(np.zeros((10, 4)))
        assert len(data) == 10
        assert data.n_features == 4

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((10, 4, 4)))

    def test_raw_length_mismatch(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((10, 4)), raw=np.zeros((9, 2, 2)))

    def test_subset_keeps_raw(self):
        data = ArrayDataset(np.arange(20.0).reshape(10, 2), raw=np.arange(10))
        sub = data.subset(np.array([1, 3]))
        np.testing.assert_allclose(sub.raw, [1, 3])

    def test_normalized(self):
        data = ArrayDataset(np.array([[1.0, 3.0], [2.0, 2.0]]))
        norm = data.normalized()
        np.testing.assert_allclose(norm.features.sum(axis=1), [1.0, 1.0])

    def test_l1_normalize_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            l1_normalize(np.zeros((2, 3)))


class TestSplitAndLoader:
    def test_split_fractions(self):
        data = ArrayDataset(np.zeros((100, 2)))
        train, test = train_test_split(data, test_fraction=0.15, seed=1)
        assert len(test) == 15
        assert len(train) == 85

    def test_split_is_partition(self):
        data = ArrayDataset(np.arange(50.0).reshape(50, 1))
        train, test = train_test_split(data, seed=2)
        merged = np.sort(
            np.concatenate([train.features.ravel(), test.features.ravel()])
        )
        np.testing.assert_allclose(merged, np.arange(50.0))

    def test_split_bad_fraction(self):
        with pytest.raises(ValueError):
            train_test_split(ArrayDataset(np.zeros((10, 1))), test_fraction=1.5)

    def test_loader_covers_all_samples(self):
        data = ArrayDataset(np.arange(10.0).reshape(10, 1))
        loader = DataLoader(data, batch_size=3, shuffle=False)
        batches = list(loader)
        assert [len(b) for b in batches] == [3, 3, 3, 1]
        np.testing.assert_allclose(
            np.concatenate(batches).ravel(), np.arange(10.0)
        )

    def test_loader_drop_last(self):
        data = ArrayDataset(np.zeros((10, 1)))
        loader = DataLoader(data, batch_size=3, drop_last=True)
        assert len(loader) == 3
        assert sum(len(b) for b in loader) == 9

    def test_loader_shuffles_deterministically(self):
        data = ArrayDataset(np.arange(10.0).reshape(10, 1))
        a = np.concatenate(list(DataLoader(data, batch_size=4, seed=5))).ravel()
        b = np.concatenate(list(DataLoader(data, batch_size=4, seed=5))).ravel()
        np.testing.assert_allclose(a, b)
        assert not np.allclose(a, np.arange(10.0))
        # One permutation per epoch: every row exactly once across batches.
        np.testing.assert_array_equal(np.sort(a), np.arange(10.0))

    def test_loader_len_matches_iteration(self):
        data = ArrayDataset(np.zeros((7, 1)))
        loader = DataLoader(data, batch_size=2)
        assert len(loader) == len(list(loader))


class TestQM9:
    def test_shapes(self):
        data = load_qm9(n_samples=32, seed=0)
        assert data.features.shape == (32, 64)
        assert data.raw.shape == (32, 8, 8)

    def test_matrices_well_formed_and_valid(self):
        data = load_qm9(n_samples=16, seed=1)
        for matrix in data.raw:
            assert is_well_formed(matrix)
            assert is_valid(decode_molecule(matrix))

    def test_deterministic(self):
        a = load_qm9(n_samples=8, seed=3)
        b = load_qm9(n_samples=8, seed=3)
        np.testing.assert_array_equal(a.raw, b.raw)

    def test_different_seeds_differ(self):
        a = load_qm9(n_samples=8, seed=3)
        b = load_qm9(n_samples=8, seed=4)
        assert not np.array_equal(a.raw, b.raw)

    def test_element_palette(self):
        data = load_qm9(n_samples=64, seed=5)
        codes = {int(c) for matrix in data.raw for c in np.diag(matrix) if c}
        assert codes <= {1, 2, 3, 4}  # C/N/O/F only, never S


class TestPDBbind:
    def test_shapes(self):
        data = load_pdbbind_ligands(n_samples=24, seed=0)
        assert data.features.shape == (24, 1024)
        assert data.raw.shape == (24, 32, 32)

    def test_all_ligands_valid(self):
        data = load_pdbbind_ligands(n_samples=16, seed=1)
        for matrix in data.raw:
            mol = decode_molecule(matrix)
            assert is_valid(mol)
            assert mol.num_atoms <= PDBBIND_MATRIX_SIZE

    def test_filter_rejects_oversize(self):
        rng = np.random.default_rng(0)
        spec = MoleculeSpec(min_atoms=40, max_atoms=45)
        big = random_molecule(rng, spec)
        assert not ligand_passes_filter(big)

    def test_filter_rejects_foreign_elements(self):
        from repro.chem import Molecule

        mol = Molecule.from_atoms_and_bonds(["C", "Cl"], [(0, 1, 1.0)])
        assert not ligand_passes_filter(mol)

    def test_deterministic(self):
        a = load_pdbbind_ligands(n_samples=8, seed=7)
        b = load_pdbbind_ligands(n_samples=8, seed=7)
        np.testing.assert_array_equal(a.raw, b.raw)


class TestDigits:
    def test_shapes_and_range(self):
        data = load_digits(n_samples=50, seed=0)
        assert data.features.shape == (50, 64)
        assert data.features.min() >= 0.0
        assert data.features.max() <= 16.0

    def test_templates_distinct(self):
        flat = [digit_template(d).ravel() for d in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                assert not np.allclose(flat[i], flat[j])

    def test_positive_l1_norm(self):
        data = load_digits(n_samples=100, seed=1)
        assert (data.features.sum(axis=1) > 0).all()

    def test_labels_cycle(self):
        # Sample i is a shifted/noised copy of template (i % 10): matching
        # against all +-1 shifts of every template should recover the class.
        data = load_digits(n_samples=20, seed=2)
        shifted_templates = []  # (digit, normalized shifted template)
        for digit in range(10):
            glyph = digit_template(digit)
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    t = np.roll(np.roll(glyph, dy, axis=0), dx, axis=1).ravel()
                    t = t - t.mean()
                    shifted_templates.append((digit, t / np.linalg.norm(t)))
        hits = 0
        for index in range(20):
            img = data.features[index] - data.features[index].mean()
            img /= np.linalg.norm(img)
            best = max(shifted_templates, key=lambda dt: dt[1] @ img)
            hits += int(best[0] == index % 10)
        assert hits >= 16

    def test_deterministic(self):
        np.testing.assert_array_equal(
            load_digits(12, seed=9).features, load_digits(12, seed=9).features
        )


class TestCifar:
    def test_shapes_and_range(self):
        data = load_cifar_gray(n_samples=10, seed=0)
        assert data.features.shape == (10, 1024)
        assert data.features.min() >= 0.0
        assert data.features.max() <= 1.0

    def test_images_not_flat(self):
        data = load_cifar_gray(n_samples=10, seed=1)
        assert (data.features.std(axis=1) > 0.05).all()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_synth_image_normalized(self, seed):
        rng = np.random.default_rng(seed)
        image = synth_image(rng)
        assert image.shape == (32, 32)
        assert image.min() >= 0.0
        assert image.max() <= 1.0

    def test_deterministic(self):
        np.testing.assert_allclose(
            load_cifar_gray(5, seed=3).features, load_cifar_gray(5, seed=3).features
        )
