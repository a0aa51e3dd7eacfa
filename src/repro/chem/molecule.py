"""Molecular graph with implicit hydrogens.

A :class:`Molecule` stores heavy atoms (element symbols) and bonds with
orders 1 (single), 2 (double), 3 (triple) or the sentinel
:data:`AROMATIC` = 1.5.  Implicit hydrogen counts are derived from unused
valence, matching how the paper's molecule matrices omit hydrogens.
"""

from __future__ import annotations

from typing import Iterator

from . import graphs
from .periodic import HYDROGEN_WEIGHT, element

__all__ = ["AROMATIC", "Molecule", "BondOrder"]

AROMATIC = 1.5
BondOrder = float

_VALID_ORDERS = {1.0, 2.0, 3.0, AROMATIC}


class Molecule:
    """An editable heavy-atom molecular graph."""

    def __init__(self) -> None:
        self.symbols: list[str] = []
        self._bonds: dict[tuple[int, int], float] = {}
        self._adjacency: dict[int, set[int]] = {}
        # Sum of bond orders per atom, updated by every bond edit.  Orders
        # are multiples of 0.5, so the running sums are exact and equal a
        # re-summation bit for bit.
        self._valence: list[float] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_atoms_and_bonds(
        cls, symbols: list[str], bonds: list[tuple[int, int, float]]
    ) -> "Molecule":
        mol = cls()
        for symbol in symbols:
            mol.add_atom(symbol)
        for i, j, order in bonds:
            mol.add_bond(i, j, order)
        return mol

    def add_atom(self, symbol: str) -> int:
        element(symbol)  # validate
        index = len(self.symbols)
        self.symbols.append(symbol)
        self._adjacency[index] = set()
        self._valence.append(0.0)
        return index

    def add_bond(self, i: int, j: int, order: float = 1.0) -> None:
        order = float(order)
        if order not in _VALID_ORDERS:
            raise ValueError(f"invalid bond order {order}")
        if i == j:
            raise ValueError("self-bonds are not allowed")
        self._check_atom(i)
        self._check_atom(j)
        key = (min(i, j), max(i, j))
        if key in self._bonds:
            raise ValueError(f"bond {key} already exists")
        self._bonds[key] = order
        self._adjacency[i].add(j)
        self._adjacency[j].add(i)
        self._valence[i] += order
        self._valence[j] += order

    def remove_bond(self, i: int, j: int) -> None:
        key = (min(i, j), max(i, j))
        if key not in self._bonds:
            raise KeyError(f"no bond {key}")
        order = self._bonds.pop(key)
        self._adjacency[i].discard(j)
        self._adjacency[j].discard(i)
        self._valence[i] -= order
        self._valence[j] -= order

    def set_bond_order(self, i: int, j: int, order: float) -> None:
        if float(order) not in _VALID_ORDERS:
            raise ValueError(f"invalid bond order {order}")
        key = (min(i, j), max(i, j))
        if key not in self._bonds:
            raise KeyError(f"no bond {key}")
        order = float(order)
        change = order - self._bonds[key]
        self._bonds[key] = order
        self._valence[i] += change
        self._valence[j] += change

    def copy(self) -> "Molecule":
        mol = Molecule()
        mol.symbols = list(self.symbols)
        mol._bonds = dict(self._bonds)
        mol._adjacency = {k: set(v) for k, v in self._adjacency.items()}
        mol._valence = list(self._valence)
        return mol

    def _check_atom(self, index: int) -> None:
        if not 0 <= index < len(self.symbols):
            raise IndexError(f"atom index {index} out of range")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_atoms(self) -> int:
        return len(self.symbols)

    @property
    def num_bonds(self) -> int:
        return len(self._bonds)

    def bonds(self) -> Iterator[tuple[int, int, float]]:
        """Yield (i, j, order) with i < j."""
        for (i, j), order in self._bonds.items():
            yield i, j, order

    def bond_order(self, i: int, j: int) -> float:
        """Bond order between two atoms, 0.0 if not bonded."""
        return self._bonds.get((min(i, j), max(i, j)), 0.0)

    def neighbors(self, index: int) -> set[int]:
        self._check_atom(index)
        return set(self._adjacency[index])

    def degree(self, index: int) -> int:
        """Number of heavy-atom neighbors."""
        return len(self._adjacency[index])

    def valence_used(self, index: int) -> float:
        """Sum of bond orders at an atom (aromatic counts 1.5)."""
        return self._valence[index]

    def implicit_hydrogens(self, index: int) -> int:
        """Hydrogens implied by unused valence (never negative).

        Aromatic valence is rounded down: an aromatic carbon with two ring
        bonds (2 x 1.5 = 3.0) carries one hydrogen.
        """
        free = element(self.symbols[index]).max_valence - self.valence_used(index)
        return max(0, int(free + 1e-9))

    def total_hydrogens(self) -> int:
        return sum(self.implicit_hydrogens(i) for i in range(self.num_atoms))

    def molecular_weight(self) -> float:
        """Heavy atoms plus implicit hydrogens."""
        heavy = sum(element(s).atomic_weight for s in self.symbols)
        return heavy + HYDROGEN_WEIGHT * self.total_hydrogens()

    def molecular_formula(self) -> str:
        """Hill-order formula (C first, then H, then alphabetical)."""
        counts: dict[str, int] = {}
        for symbol in self.symbols:
            counts[symbol] = counts.get(symbol, 0) + 1
        h = self.total_hydrogens()
        parts = []
        if "C" in counts:
            c = counts.pop("C")
            parts.append("C" if c == 1 else f"C{c}")
        if h:
            parts.append("H" if h == 1 else f"H{h}")
        for symbol in sorted(counts):
            count = counts[symbol]
            parts.append(symbol if count == 1 else f"{symbol}{count}")
        return "".join(parts)

    # ------------------------------------------------------------------
    # Graph views (algorithms in repro.chem.graphs)
    # ------------------------------------------------------------------
    def connected_components(self) -> list[set[int]]:
        return graphs.connected_components(self)

    def is_connected(self) -> bool:
        if self.num_atoms == 0:
            return False
        return len(self.connected_components()) == 1

    def rings(self) -> list[list[int]]:
        """SSSR-like ring perception (stand-in for RDKit's GetSSSR).

        The smallest ring through every ring bond, then a greedy
        GF(2)-independent selection up to the cyclomatic number; see
        :func:`repro.chem.graphs.rings`.
        """
        return graphs.rings(self)

    def ring_bonds(self) -> set[tuple[int, int]]:
        """All bonds that participate in at least one ring.

        An edge lies on a cycle if and only if it is not a bridge of its
        connected component, so ring bonds = bonds minus bridges.
        """
        return graphs.ring_bonds(self)

    def subgraph(self, atoms: set[int]) -> "Molecule":
        """Induced submolecule with atoms re-indexed contiguously."""
        ordered = sorted(atoms)
        remap = {old: new for new, old in enumerate(ordered)}
        mol = Molecule()
        for old in ordered:
            mol.add_atom(self.symbols[old])
        for i, j, order in self.bonds():
            if i in atoms and j in atoms:
                mol.add_bond(remap[i], remap[j], order)
        return mol

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Molecule({self.molecular_formula()}, bonds={self.num_bonds})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Molecule):
            return NotImplemented
        return self.symbols == other.symbols and self._bonds == other._bonds

    def __hash__(self):  # molecules are mutable; identity hash
        return id(self)
