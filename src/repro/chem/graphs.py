"""Graph algorithms on :class:`~repro.chem.molecule.Molecule`.

This is the package's graph library.  It reads only a molecule's bond dict
and adjacency sets and needs nothing outside the standard library.
``Molecule``'s graph queries delegate here, and the batched scorers in
:mod:`repro.chem.batch` call the same functions once per molecule through
a cached context instead of once per descriptor.

* :func:`connected_components` — union-find, components ordered by their
  lowest atom index;
* :func:`bridges` — iterative Tarjan DFS;
* :func:`ring_bonds` — the bonds that are not bridges;
* :func:`rings` — SSSR-like ring perception: the smallest cycle through
  every ring bond, then a greedy GF(2)-independent basis up to the
  cyclomatic number.

Ordering contract: ring perception breaks ties by the iteration order of
the ring-bond set and of the adjacency sets.  :func:`ring_bonds` builds its
set as a comprehension over the bond dict, so that order depends only on
the molecule's bond insertion order, never on how the bridges were found.
Every caller, scalar or batched, therefore perceives the same rings, which
is what keeps the batched scorers bit-for-bit equal to the scalar ones.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # molecule.py imports this module
    from .molecule import Molecule

__all__ = [
    "connected_components",
    "bridges",
    "ring_bonds",
    "rings",
]


def connected_components(mol: Molecule) -> list[set[int]]:
    """Connected atom sets via union-find, ordered by lowest atom index."""
    n = mol.num_atoms
    parent = list(range(n))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for (i, j) in mol._bonds:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    groups: dict[int, set[int]] = {}
    for atom in range(n):
        groups.setdefault(find(atom), set()).add(atom)
    return list(groups.values())


def bridges(mol: Molecule) -> set[tuple[int, int]]:
    """All bridge edges as ``(min, max)`` tuples (iterative Tarjan DFS).

    An edge is a bridge iff no back-edge spans it.  The bridge set of a
    graph is unique, so the DFS order does not affect the result.
    Parallel edges cannot occur (``Molecule`` stores one order per pair).
    """
    n = mol.num_atoms
    adjacency = mol._adjacency
    disc = [-1] * n  # discovery times
    low = [0] * n
    out: set[tuple[int, int]] = set()
    time = 0
    for start in range(n):
        if disc[start] != -1:
            continue
        # Stack frames: (node, parent, iterator over neighbors).
        stack = [(start, -1, iter(adjacency[start]))]
        disc[start] = low[start] = time
        time += 1
        while stack:
            node, parent, neighbors = stack[-1]
            advanced = False
            for nbr in neighbors:
                if disc[nbr] == -1:
                    disc[nbr] = low[nbr] = time
                    time += 1
                    stack.append((nbr, node, iter(adjacency[nbr])))
                    advanced = True
                    break
                if nbr != parent:
                    low[node] = min(low[node], disc[nbr])
            if advanced:
                continue
            stack.pop()
            if stack:
                parent_node = stack[-1][0]
                low[parent_node] = min(low[parent_node], low[node])
                if low[node] > disc[parent_node]:
                    out.add((min(parent_node, node), max(parent_node, node)))
    return out


def ring_bonds(mol: Molecule, bridge_set: set[tuple[int, int]] | None = None
               ) -> set[tuple[int, int]]:
    """Bonds on at least one cycle: the molecule's bonds minus its bridges.

    An edge lies on a cycle iff it is not a bridge of its component.  The
    set is built by a comprehension over the bond dict, so its iteration
    order (which ring perception's tie-breaking observes) depends only on
    bond insertion order.
    """
    if bridge_set is None:
        bridge_set = bridges(mol)
    return {key for key in mol._bonds if key not in bridge_set}


def rings(
    mol: Molecule,
    ring_bond_set: set[tuple[int, int]] | None = None,
    n_components: int | None = None,
) -> list[list[int]]:
    """SSSR-like ring perception (stand-in for RDKit's ``GetSSSR``).

    For every ring bond, find the smallest ring through it (BFS between
    its endpoints with the bond removed), then greedily keep the shortest
    rings that are linearly independent over GF(2) of the edge space, up
    to the cyclomatic number.  ``ring_bond_set`` and ``n_components`` may
    be passed in from a cache; otherwise they are computed here.
    """
    if n_components is None:
        n_components = len(connected_components(mol))
    target = mol.num_bonds - mol.num_atoms + n_components
    if target <= 0:
        return []
    if ring_bond_set is None:
        ring_bond_set = ring_bonds(mol)
    candidates: dict[frozenset, list[int]] = {}
    for u, v in ring_bond_set:
        path = _shortest_path_avoiding_edge(mol, u, v)
        if path is None:  # pragma: no cover - ring bonds always close
            continue
        edges = frozenset(
            (min(a, b), max(a, b)) for a, b in zip(path, path[1:] + path[:1])
        )
        if edges not in candidates:
            candidates[edges] = path
    ordered = sorted(candidates.values(), key=len)
    edge_index = {key: i for i, key in enumerate(mol._bonds)}
    pivots: dict[int, int] = {}
    chosen: list[list[int]] = []
    for cycle in ordered:
        vec = 0
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            vec |= 1 << edge_index[(min(a, b), max(a, b))]
        while vec:
            high = vec.bit_length() - 1
            if high not in pivots:
                pivots[high] = vec
                chosen.append(cycle)
                break
            vec ^= pivots[high]
        if len(chosen) == target:
            break
    return chosen


def _shortest_path_avoiding_edge(mol: Molecule, u: int, v: int
                                 ) -> list[int] | None:
    """Shortest path from u to v not using the direct (u, v) bond.

    Neighbours are visited in the molecule's adjacency-set order, which
    decides between equally short paths.
    """
    adjacency = mol._adjacency
    prev: dict[int, int | None] = {u: None}
    queue = deque([u])
    while queue:
        node = queue.popleft()
        if node == v:
            break
        for nbr in adjacency[node]:
            if {node, nbr} == {u, v}:
                continue
            if nbr not in prev:
                prev[nbr] = node
                queue.append(nbr)
    if v not in prev:
        return None
    path = [v]
    while path[-1] != u:
        path.append(prev[path[-1]])
    return path
