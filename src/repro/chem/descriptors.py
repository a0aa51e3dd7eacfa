"""Molecular descriptors for druglikeness scoring.

These are graph-level re-implementations of the eight QED inputs (Bickerton
et al. 2012): molecular weight, Crippen logP (see :mod:`repro.chem.crippen`),
H-bond acceptors/donors, topological polar surface area, rotatable bonds,
aromatic ring count, and structural-alert count.  TPSA uses a condensed
Ertl contribution table restricted to the N/O/S environments our element set
can produce; ALERTS uses a small Brenk-style pattern set expressible as
graph queries.  Both are documented substitutions for RDKit's versions and
preserve orderings (more polar -> higher TPSA, more reactive -> more alerts).
"""

from __future__ import annotations

from .molecule import AROMATIC, Molecule

__all__ = [
    "hydrogen_bond_acceptors",
    "hydrogen_bond_donors",
    "rotatable_bonds",
    "aromatic_ring_count",
    "tpsa",
    "structural_alerts",
    "ALERT_NAMES",
]


def hydrogen_bond_acceptors(mol: Molecule) -> int:
    """Lipinski-style HBA: count of N and O atoms."""
    return sum(1 for s in mol.symbols if s in ("N", "O"))


def hydrogen_bond_donors(mol: Molecule) -> int:
    """Lipinski-style HBD: N/O atoms carrying at least one hydrogen."""
    return sum(
        1
        for i, s in enumerate(mol.symbols)
        if s in ("N", "O") and mol.implicit_hydrogens(i) > 0
    )


def rotatable_bonds(mol: Molecule) -> int:
    """Single, non-ring bonds between two non-terminal heavy atoms."""
    ring = mol.ring_bonds()
    count = 0
    for i, j, order in mol.bonds():
        if order != 1.0 or (i, j) in ring:
            continue
        if mol.degree(i) >= 2 and mol.degree(j) >= 2:
            count += 1
    return count


def aromatic_ring_count(mol: Molecule) -> int:
    """Rings whose every internal bond is aromatic."""
    count = 0
    for ring in mol.rings():
        ring_set = set(ring)
        edges = [
            (i, j, order)
            for i, j, order in mol.bonds()
            if i in ring_set and j in ring_set
        ]
        if len(edges) == len(ring) and all(order == AROMATIC for *_ij, order in edges):
            count += 1
    return count


# Condensed Ertl TPSA contributions (A^2).  Keys: (symbol, environment).
_TPSA_TABLE = {
    ("N", "NH2"): 26.02,  # primary amine
    ("N", "NH"): 12.03,  # secondary amine
    ("N", "N"): 3.24,  # tertiary amine
    ("N", "N="): 12.36,  # imine-type N
    ("N", "N#"): 23.79,  # nitrile N
    ("N", "n"): 12.89,  # aromatic N
    ("N", "nH"): 15.79,  # aromatic NH (pyrrole)
    ("O", "OH"): 20.23,  # hydroxyl
    ("O", "O"): 9.23,  # ether
    ("O", "O="): 17.07,  # carbonyl O
    ("O", "o"): 13.14,  # aromatic O
    ("S", "SH"): 38.80,  # thiol
    ("S", "S"): 25.30,  # thioether
    ("S", "S="): 32.09,  # thione S
    ("S", "s"): 28.24,  # aromatic S
}


def tpsa(mol: Molecule) -> float:
    """Topological polar surface area from N/O/S environment contributions."""
    total = 0.0
    for index, symbol in enumerate(mol.symbols):
        if symbol not in ("N", "O", "S"):
            continue
        env = _environment(mol, index, symbol)
        total += _TPSA_TABLE.get((symbol, env), 0.0)
    return total


def _environment(mol: Molecule, index: int, symbol: str) -> str:
    orders = [mol.bond_order(index, nbr) for nbr in mol.neighbors(index)]
    hydrogens = mol.implicit_hydrogens(index)
    aromatic = any(order == AROMATIC for order in orders)
    if aromatic:
        key = symbol.lower()
        return key + ("H" if hydrogens else "")
    if any(order == 3.0 for order in orders):
        return symbol + "#"
    if any(order == 2.0 for order in orders):
        return symbol + "="
    if hydrogens >= 2:
        return symbol + "H2"
    if hydrogens == 1:
        return symbol + "H"
    return symbol


# ----------------------------------------------------------------------
# Structural alerts (Brenk-style subset expressible as graph patterns)
# ----------------------------------------------------------------------
ALERT_NAMES = [
    "peroxide (O-O)",
    "disulfide/polysulfide (S-S)",
    "hydrazine (N-N single)",
    "azo (N=N)",
    "three-membered heteroring",
    "aldehyde",
    "thiocarbonyl (C=S)",
    "acyl fluoride",
    "cumulated double bonds",
    "macrocycle (>8-ring)",
]


def structural_alerts(mol: Molecule) -> int:
    """Count distinct alert patterns present (each pattern counted once)."""
    found = 0
    pairs = {("O", "O"): False, ("S", "S"): False}
    nn_single = nn_double = False
    for i, j, order in mol.bonds():
        si, sj = mol.symbols[i], mol.symbols[j]
        key = tuple(sorted((si, sj)))
        if key == ("O", "O"):
            pairs[("O", "O")] = True
        if key == ("S", "S"):
            pairs[("S", "S")] = True
        if key == ("N", "N"):
            if order == 1.0:
                nn_single = True
            elif order == 2.0:
                nn_double = True
    found += pairs[("O", "O")] + pairs[("S", "S")] + nn_single + nn_double
    found += int(_has_three_membered_heteroring(mol))
    found += int(_has_aldehyde(mol))
    found += int(_has_thiocarbonyl(mol))
    found += int(_has_acyl_fluoride(mol))
    found += int(_has_cumulated_double_bonds(mol))
    found += int(any(len(ring) > 8 for ring in mol.rings()))
    return found


def _has_three_membered_heteroring(mol: Molecule) -> bool:
    return any(
        len(ring) == 3 and any(mol.symbols[a] != "C" for a in ring)
        for ring in mol.rings()
    )


def _carbonyl_carbons(mol: Molecule) -> list[int]:
    carbons = []
    for i, j, order in mol.bonds():
        if order != 2.0:
            continue
        si, sj = mol.symbols[i], mol.symbols[j]
        if si == "C" and sj == "O":
            carbons.append(i)
        elif sj == "C" and si == "O":
            carbons.append(j)
    return carbons


def _has_aldehyde(mol: Molecule) -> bool:
    return any(mol.implicit_hydrogens(c) >= 1 for c in _carbonyl_carbons(mol))


def _has_thiocarbonyl(mol: Molecule) -> bool:
    for i, j, order in mol.bonds():
        if order == 2.0 and {mol.symbols[i], mol.symbols[j]} == {"C", "S"}:
            return True
    return False


def _has_acyl_fluoride(mol: Molecule) -> bool:
    for carbon in _carbonyl_carbons(mol):
        if any(mol.symbols[nbr] == "F" for nbr in mol.neighbors(carbon)):
            return True
    return False


def _has_cumulated_double_bonds(mol: Molecule) -> bool:
    for index in range(mol.num_atoms):
        doubles = sum(
            1 for nbr in mol.neighbors(index) if mol.bond_order(index, nbr) == 2.0
        )
        if doubles >= 2:
            return True
    return False
