"""Cheminformatics substrate replacing RDKit for the reproduction.

Molecule graphs, the molecule-matrix codec from the paper's Fig. 3, valence
sanitization with lenient repair, SMILES I/O, and the three Table II
property metrics: QED, Crippen logP, and the Ertl-style SA score.
"""

from .batch import (
    MoleculeBatch,
    crippen_logp_batch,
    qed_batch,
    sa_score_batch,
    sanitize_batch,
    unique_fraction,
    valid_mask,
)
from .crippen import crippen_logp
from .descriptors import (
    aromatic_ring_count,
    hydrogen_bond_acceptors,
    hydrogen_bond_donors,
    rotatable_bonds,
    structural_alerts,
    tpsa,
)
from .generation import MoleculeSpec, random_molecule, random_molecules
from .scaffold import canonical_signature
from .matrix import (
    ATOM_CODES,
    BOND_CODES,
    decode_molecule,
    discretize,
    encode_molecule,
    is_well_formed,
    symmetrize,
)
from .metrics import (
    LOGP_RANGE,
    MoleculeSetScores,
    normalized_logp,
    normalized_logp_batch,
    normalized_sa,
    normalized_sa_batch,
    score_matrices,
    score_matrices_reference,
    score_molecules,
    score_molecules_reference,
    uniqueness,
)
from .molecule import AROMATIC, Molecule
from .periodic import ELEMENTS, Element, element
from .qed import qed, qed_properties
from .sa import FragmentTable, default_fragment_table, sa_score
from .smiles import from_smiles, to_smiles
from .valence import (
    ValenceReport,
    check_valence,
    is_valid,
    largest_fragment,
    sanitize_lenient,
)

__all__ = [
    "AROMATIC",
    "Molecule",
    "Element",
    "ELEMENTS",
    "element",
    "ATOM_CODES",
    "BOND_CODES",
    "encode_molecule",
    "decode_molecule",
    "discretize",
    "symmetrize",
    "is_well_formed",
    "check_valence",
    "is_valid",
    "largest_fragment",
    "sanitize_lenient",
    "ValenceReport",
    "MoleculeSpec",
    "random_molecule",
    "random_molecules",
    "to_smiles",
    "from_smiles",
    "crippen_logp",
    "qed",
    "qed_properties",
    "sa_score",
    "FragmentTable",
    "default_fragment_table",
    "tpsa",
    "hydrogen_bond_acceptors",
    "hydrogen_bond_donors",
    "rotatable_bonds",
    "aromatic_ring_count",
    "structural_alerts",
    "LOGP_RANGE",
    "normalized_logp",
    "normalized_sa",
    "score_molecules",
    "score_matrices",
    "uniqueness",
    "MoleculeSetScores",
    "canonical_signature",
    "MoleculeBatch",
    "qed_batch",
    "crippen_logp_batch",
    "sa_score_batch",
    "sanitize_batch",
    "valid_mask",
    "unique_fraction",
    "normalized_logp_batch",
    "normalized_sa_batch",
    "score_molecules_reference",
    "score_matrices_reference",
]
