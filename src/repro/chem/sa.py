"""Synthetic accessibility score (Ertl & Schuffenhauer, 2009 style).

SA = fragment score (how common the molecule's atom environments are in a
reference corpus) minus complexity penalties (size, ring bridges/spiro,
macrocycles), rescaled to [1, 10] where 1 = easy to synthesize.

Substitution note: Ertl's published fragment contribution table is derived
from ~1M PubChem molecules, which are not available offline.  We compute
the same statistic over a seeded reference corpus drawn from this package's
drug-like molecule generator: each atom's radius-2 environment is hashed,
frequencies are counted, and contributions are the centered log-probability
exactly as in the original method.  Rare/strained environments therefore
still score as hard to synthesize, which is the behaviour Table II's
normalized SA column measures.

The corpus counts ship as data, ``sa_fragments.json`` beside this module,
one environment per line in the order the corpus first produces it, so no
process regenerates the corpus.  :func:`corpus_fragment_counts` recomputes
them and a test checks the file against it with ``==``.  After any change
to :func:`environment_key`, the molecule generator or the corpus constants
below, rewrite the file from the repository root with::

    PYTHONPATH=src python -c "from repro.chem.sa import write_fragment_counts; write_fragment_counts()"
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from .generation import MoleculeSpec, random_molecules
from .molecule import Molecule

__all__ = [
    "environment_key",
    "FragmentTable",
    "corpus_fragment_counts",
    "default_fragment_table",
    "sa_score",
    "write_fragment_counts",
]

_CORPUS_SIZE = 600
_CORPUS_SEED = 20220318
_CORPUS_SPEC = MoleculeSpec(
    min_atoms=6,
    max_atoms=28,
    hetero_weights={"N": 0.10, "O": 0.12, "F": 0.02, "S": 0.03},
    ring_closure_prob=0.5,
    max_ring_closures=3,
)
FRAGMENTS_FILE = Path(__file__).with_name("sa_fragments.json")


def environment_key(mol: Molecule, index: int, radius: int = 2) -> str:
    """Canonical string for an atom's neighborhood out to ``radius`` bonds.

    A light-weight Morgan-environment stand-in: concentric shells of
    (bond order, element, degree, hydrogens) tuples, each shell sorted so
    the key is invariant to atom numbering.
    """
    shells: list[str] = []
    frontier = {index}
    seen = {index}
    center = (
        f"{mol.symbols[index]}d{mol.degree(index)}h{mol.implicit_hydrogens(index)}"
    )
    shells.append(center)
    for _ in range(radius):
        entries: list[str] = []
        next_frontier: set[int] = set()
        for atom in frontier:
            for nbr in mol.neighbors(atom):
                order = mol.bond_order(atom, nbr)
                entries.append(
                    f"{order:g}{mol.symbols[nbr]}d{mol.degree(nbr)}"
                    f"h{mol.implicit_hydrogens(nbr)}"
                )
                if nbr not in seen:
                    next_frontier.add(nbr)
                    seen.add(nbr)
        shells.append("|".join(sorted(entries)))
        frontier = next_frontier
        if not frontier:
            break
    return ";".join(shells)


class FragmentTable:
    """Log-frequency contributions of atom environments in a corpus.

    ``counts`` maps each environment key to its number of atoms in the
    corpus.  The contributions depend on its iteration order in the last
    bits (the centre is a float sum in that order), so a table rebuilt from
    the same counts in the same order is ``==`` to the original.
    """

    def __init__(self, counts: dict[str, int], radius: int = 2):
        if not counts:
            raise ValueError("fragment table needs a non-empty corpus")
        self.radius = radius
        # Ertl: contribution = log10(count) - log10(median-ish scale);
        # center on the corpus mean so common fragments score ~0.
        self._log_counts = {k: math.log10(v) for k, v in counts.items()}
        self._center = sum(self._log_counts.values()) / len(self._log_counts)
        # Unseen environments get one log-decade below the rarest seen one.
        self._floor = min(self._log_counts.values()) - 1.0

    def contribution(self, key: str) -> float:
        return self._log_counts.get(key, self._floor) - self._center

    def bulk_contributions(self, keys: list[str]) -> np.ndarray:
        """Vectorized table lookup: ``contribution`` for every key at once.

        Each element equals ``self.contribution(key)`` exactly (same dict
        lookup and subtraction); the batched SA scorer feeds one combined
        environment-key pass through this instead of per-atom calls.
        """
        log_counts = self._log_counts
        floor = self._floor
        center = self._center
        return np.fromiter(
            (log_counts.get(key, floor) - center for key in keys),
            dtype=np.float64,
            count=len(keys),
        )

    def fragment_score(self, mol: Molecule) -> float:
        """Mean environment contribution over the molecule's atoms."""
        if mol.num_atoms == 0:
            return self._floor - self._center
        return sum(
            self.contribution(environment_key(mol, i, self.radius))
            for i in range(mol.num_atoms)
        ) / mol.num_atoms


def corpus_fragment_counts() -> dict[str, int]:
    """Environment counts of the seeded reference corpus, in first-seen order.

    This regenerates the corpus; ``sa_fragments.json`` ships its result.
    """
    counts: dict[str, int] = {}
    for mol in random_molecules(_CORPUS_SIZE, _CORPUS_SEED, _CORPUS_SPEC):
        for index in range(mol.num_atoms):
            key = environment_key(mol, index)
            counts[key] = counts.get(key, 0) + 1
    return counts


def write_fragment_counts(path: str | Path = FRAGMENTS_FILE) -> None:
    """Rewrite the shipped counts from the corpus, one key per line."""
    text = json.dumps(corpus_fragment_counts(), indent=0)
    Path(path).write_text(text + "\n", encoding="utf-8")


@lru_cache(maxsize=1)
def default_fragment_table() -> FragmentTable:
    """Reference table loaded from the shipped corpus counts (cached)."""
    with open(FRAGMENTS_FILE, encoding="utf-8") as handle:
        return FragmentTable(json.load(handle))


def _complexity_penalty(mol: Molecule) -> float:
    n = mol.num_atoms
    size_penalty = n**1.005 - n

    rings = mol.rings()
    ring_atoms = [set(r) for r in rings]
    # Spiro atoms: belong to two rings sharing only that atom.
    spiro = 0
    bridge = 0
    for i in range(len(ring_atoms)):
        for j in range(i + 1, len(ring_atoms)):
            shared = ring_atoms[i] & ring_atoms[j]
            if len(shared) == 1:
                spiro += 1
            elif len(shared) > 2:
                bridge += len(shared) - 2
    ring_complexity = math.log10(bridge + 1) + math.log10(spiro + 1)
    macrocycle = math.log10(2) if any(len(r) > 8 for r in rings) else 0.0
    return size_penalty + ring_complexity + macrocycle


def sa_score(mol: Molecule, table: FragmentTable | None = None) -> float:
    """Synthetic accessibility in [1, 10]; lower = easier to make."""
    if mol.num_atoms == 0:
        return 10.0
    table = table if table is not None else default_fragment_table()
    score = table.fragment_score(mol) - _complexity_penalty(mol)
    # Map the raw score onto [1, 10] with the same affine+log squash Ertl
    # uses (raw ~ [-4, 2.5] covers the corpus; rarer/larger -> higher SA).
    smin, smax = -4.0, 2.5
    raw = 11.0 - (score - smin) / (smax - smin) * 9.0
    if raw > 8.0:  # soften the tail exactly like the reference script
        raw = 8.0 + math.log(raw + 1.0 - 9.0)
    return float(min(10.0, max(1.0, raw)))
