"""Coverage for smaller utilities: tables, functional extras, smiles edges."""

import numpy as np
import pytest

from repro.experiments.tables import format_series, format_table
from repro.nn import Tensor, functional as F


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["A", "Bee"], [[1, 2.5], [30, 4.0]])
        lines = text.splitlines()
        assert lines[0].startswith("A")
        assert "2.5000" in text
        assert "30" in text

    def test_format_table_with_title(self):
        text = format_table(["x"], [[1]], title="My Title")
        assert text.splitlines()[0] == "My Title"

    def test_format_table_empty_rows(self):
        text = format_table(["x", "y"], [])
        assert "x" in text

    def test_format_series(self):
        text = format_series("curve", [1.0, 0.5])
        assert text == "curve: [1.0000, 0.5000]"


class TestFunctionalExtras:
    def test_log_softmax_matches_log_of_softmax(self):
        x = Tensor(np.random.default_rng(0).normal(size=(3, 5)))
        np.testing.assert_allclose(
            F.log_softmax(x).data, np.log(F.softmax(x).data), atol=1e-12
        )

    def test_log_softmax_stable_for_large_inputs(self):
        x = Tensor(np.array([[1000.0, 1000.0, 999.0]]))
        out = F.log_softmax(x).data
        assert np.isfinite(out).all()

    def test_bce_reduction_modes(self):
        pred = Tensor(np.full((2, 2), 0.5))
        target = Tensor(np.ones((2, 2)))
        total = F.bce_loss(pred, target, reduction="sum").item()
        mean = F.bce_loss(pred, target, reduction="mean").item()
        assert total == pytest.approx(mean * 4)

    def test_unknown_reduction(self):
        with pytest.raises(ValueError):
            F.mse_loss(Tensor([1.0]), Tensor([0.0]), reduction="bogus")

    def test_l1_none_reduction_shape(self):
        out = F.l1_loss(Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 3))),
                        reduction="none")
        assert out.shape == (2, 3)

    def test_gaussian_kl_sum_reduction(self):
        mu = Tensor(np.ones((4, 2)))
        logvar = Tensor(np.zeros((4, 2)))
        total = F.gaussian_kl(mu, logvar, reduction="sum").item()
        mean = F.gaussian_kl(mu, logvar, reduction="mean").item()
        assert total == pytest.approx(mean * 4)


class TestSmilesEdges:
    def test_two_digit_ring_closure_roundtrip(self):
        from repro.chem import Molecule, from_smiles, to_smiles

        # Build a molecule with >9 simultaneous ring closures is unwieldy;
        # instead check %nn parsing directly.
        mol = from_smiles("C%10CCCC%10")
        assert mol.num_atoms == 5
        assert len(mol.rings()) == 1

    def test_empty_smiles(self):
        from repro.chem import Molecule, to_smiles

        assert to_smiles(Molecule()) == ""

    def test_single_atom(self):
        from repro.chem import from_smiles, to_smiles

        assert to_smiles(from_smiles("S")) == "S"

    def test_nested_branches(self):
        from repro.chem import from_smiles

        mol = from_smiles("CC(C(C)(C)C)C")
        assert mol.num_atoms == 7
        assert mol.degree(2) == 4


class TestVisualizeEdges:
    def test_ascii_custom_ramp(self):
        from repro.evaluation import ascii_image

        art = ascii_image(np.array([[0.0, 1.0]]), ramp="ab")
        assert art == "aabb"

    def test_render_unknown_codes(self):
        from repro.evaluation import render_molecule_matrix

        matrix = np.zeros((2, 2), dtype=int)
        matrix[0, 0] = 7  # out-of-range atom code renders as '?'
        assert "?" in render_molecule_matrix(matrix)
