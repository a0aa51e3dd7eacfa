"""Tests for descriptor-distribution comparison of molecule sets."""

import numpy as np
import pytest

from repro.chem import MoleculeSpec, random_molecules
from repro.evaluation import (
    DESCRIPTOR_NAMES,
    descriptor_matrix,
    distribution_report,
)
from repro.evaluation.distribution import wasserstein_distance


def small_set(seed, spec=None, n=25):
    return random_molecules(n, seed=seed, spec=spec)


class TestDescriptorMatrix:
    def test_shape(self):
        mols = small_set(0, n=10)
        matrix = descriptor_matrix(mols)
        assert matrix.shape == (10, len(DESCRIPTOR_NAMES))

    def test_empty_set(self):
        assert descriptor_matrix([]).shape == (0, len(DESCRIPTOR_NAMES))

    def test_columns_meaningful(self):
        mols = small_set(1, n=10)
        matrix = descriptor_matrix(mols)
        heavy = matrix[:, DESCRIPTOR_NAMES.index("heavy_atoms")]
        assert all(h == m.num_atoms for h, m in zip(heavy, mols))
        qed_column = matrix[:, DESCRIPTOR_NAMES.index("qed")]
        assert np.all((0 <= qed_column) & (qed_column <= 1))


class TestDistributionReport:
    def test_identical_sets_near_zero(self):
        mols = small_set(2)
        report = distribution_report(mols, mols)
        assert report.mean_normalized_distance == pytest.approx(0.0, abs=1e-12)

    def test_same_distribution_small_distance(self):
        a = small_set(3)
        b = small_set(4)
        report = distribution_report(a, b)
        assert report.mean_normalized_distance < 1.0

    def test_shifted_distribution_larger_distance(self):
        small_spec = MoleculeSpec(min_atoms=4, max_atoms=6)
        big_spec = MoleculeSpec(min_atoms=18, max_atoms=24)
        near = distribution_report(small_set(5, small_spec),
                                   small_set(6, small_spec))
        far = distribution_report(small_set(5, small_spec),
                                  small_set(7, big_spec))
        assert far.mean_normalized_distance > near.mean_normalized_distance

    def test_all_descriptors_reported(self):
        report = distribution_report(small_set(8), small_set(9))
        assert set(report.distances) == set(DESCRIPTOR_NAMES)

    def test_empty_sets_rejected(self):
        with pytest.raises(ValueError):
            distribution_report([], small_set(0))

    def test_format_table(self):
        report = distribution_report(small_set(10), small_set(11))
        text = report.format_table()
        assert "MEAN" in text and "qed" in text

    def test_equals_scipy_per_descriptor(self):
        stats = pytest.importorskip("scipy.stats")
        a, b = small_set(12), small_set(13)
        report = distribution_report(a, b)
        ref, gen = descriptor_matrix(a), descriptor_matrix(b)
        for column, name in enumerate(DESCRIPTOR_NAMES):
            scale = max(float(ref[:, column].std()), 1e-9)
            expected = stats.wasserstein_distance(ref[:, column], gen[:, column])
            assert report.distances[name] == float(expected / scale)


class TestWassersteinDistance:
    # Inputs whose CDF steps and gaps are dyadic, so the exact answer is
    # also the floating-point one.
    def test_point_masses(self):
        assert wasserstein_distance([1.0, 1.0, 1.0], [4.0, 4.0]) == 3.0

    def test_single_samples(self):
        assert wasserstein_distance([3.0], [-1.0]) == 4.0

    def test_shift(self):
        u = np.array([0.0, 1.0, 3.0, 4.0])
        assert wasserstein_distance(u, u + 2.0) == 2.0

    def test_ties(self):
        # Half of u but a quarter of v sits at 0, so the CDFs differ by
        # 1/4 across [0, 1).
        assert wasserstein_distance([0.0, 0.0, 1.0, 1.0],
                                    [0.0, 1.0, 1.0, 1.0]) == 0.25

    def test_identical_and_symmetric(self):
        rng = np.random.default_rng(0)
        u, v = rng.normal(size=17), rng.normal(size=5)
        assert wasserstein_distance(u, u) == 0.0
        assert wasserstein_distance(u, v) == wasserstein_distance(v, u)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_distance([], [1.0])

    def test_equals_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        for __ in range(1000):
            n, m = rng.integers(1, 30, size=2)
            # Coarse grids force ties within and across the samples.
            u = rng.integers(0, 5, size=n) * 0.3
            if rng.random() < 0.3:
                v = rng.normal(size=m)
            else:
                v = rng.integers(0, 5, size=m) * 0.3 + 0.1
            assert wasserstein_distance(u, v) == stats.wasserstein_distance(u, v)
