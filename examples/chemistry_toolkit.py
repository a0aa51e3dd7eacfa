#!/usr/bin/env python3
"""Tour of the cheminformatics substrate (the RDKit stand-in).

Walks one molecule through everything the Table II evaluation uses:
matrix encoding/decoding, SMILES, descriptors, QED / logP / SA scoring,
and the set-level metrics on a generated library.

Run:
    python examples/chemistry_toolkit.py
"""

from __future__ import annotations

from repro.chem import (
    crippen_logp,
    default_fragment_table,
    encode_molecule,
    from_smiles,
    qed,
    qed_properties,
    random_molecules,
    sa_score,
    score_molecules,
    to_smiles,
)
from repro.evaluation import render_molecule_matrix


def main() -> None:
    # One molecule through the pipeline: ibuprofen.  (In this SMILES
    # dialect ring-closure bonds are written explicitly, hence ":1".)
    mol = from_smiles("CC(C)CC:1:C:C:C(C(C)C(O)=O):C:C:1")
    print(f"molecule: {to_smiles(mol)}")
    print(f"formula:  {mol.molecular_formula()}  "
          f"(MW {mol.molecular_weight():.1f})")

    print("\nmolecule matrix (paper Fig. 3 encoding):")
    print(render_molecule_matrix(encode_molecule(mol, mol.num_atoms)))

    print("\nQED descriptor breakdown:")
    for name, value in qed_properties(mol).items():
        print(f"  {name:>7}: {value:8.2f}")
    table = default_fragment_table()
    print(f"QED  = {qed(mol):.3f}   logP = {crippen_logp(mol):.2f}   "
          f"SA = {sa_score(mol, table):.2f}")

    # Set-level metrics on a generated library (the Table II machinery).
    print("\n-- generated library analysis --")
    library = random_molecules(60, seed=2)
    scores = score_molecules(library, table=table)
    print(f"validity {scores.validity:.2f}  QED {scores.qed:.3f}  "
          f"logP {scores.logp:.3f}  SA {scores.sa:.3f}  "
          f"unique {scores.uniqueness:.2f}")


if __name__ == "__main__":
    main()
