"""The graph library and ``Molecule``'s running valence sums.

``Molecule.valence_used`` reads a per-atom sum that every bond edit keeps
current.  The properties below compare it with a fresh re-summation of the
bond orders after random edit sequences and after the packed batch decode,
the one place that writes molecule internals directly.  Where networkx is
installed it is the oracle for components and bridges.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chem import (
    AROMATIC,
    Molecule,
    MoleculeSpec,
    random_molecules,
    sanitize_lenient,
)
from repro.chem import graphs
from repro.chem.batch import MoleculeBatch

edit_steps = st.lists(
    st.tuples(
        st.sampled_from(("atom", "bond", "remove", "order", "copy", "subgraph")),
        st.integers(0, 31),
        st.integers(0, 31),
        st.sampled_from((1.0, 2.0, 3.0, AROMATIC)),
    ),
    max_size=80,
)


def assert_valence_resums(mol):
    for index in range(mol.num_atoms):
        resummed = sum(order for i, j, order in mol.bonds() if index in (i, j))
        assert mol.valence_used(index) == resummed


def noisy_stack(seed, n=6, size=12):
    """Noisy matrices: overloaded, often fragmented decodes."""
    rng = np.random.default_rng(seed)
    return rng.normal(loc=0.4, scale=1.5, size=(n, size, size))


class TestRunningValence:
    @settings(max_examples=80, deadline=None)
    @given(steps=edit_steps)
    def test_matches_resummation_after_edits(self, steps):
        mol = Molecule()
        mol.add_atom("C")
        made = [mol]
        for edit, a, b, order in steps:
            n = mol.num_atoms
            i, j = a % n, b % n
            bonded = mol.bond_order(i, j) > 0
            if edit == "atom":
                mol.add_atom("N")
            elif edit == "bond" and i != j and not bonded:
                mol.add_bond(i, j, order)
            elif edit == "remove" and bonded:
                mol.remove_bond(i, j)
            elif edit == "order" and bonded:
                mol.set_bond_order(i, j, order)
            elif edit == "copy":
                mol = mol.copy()
                made.append(mol)
            elif edit == "subgraph":
                mol = mol.subgraph(set(range(min(i, j), n)))
                made.append(mol)
        # Earlier molecules are checked too: a copy or subgraph must not
        # share its bookkeeping with its source.
        for each in made:
            assert_valence_resums(each)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_matches_resummation_after_packed_decode(self, seed):
        for mol in MoleculeBatch.from_matrices(noisy_stack(seed)).molecules:
            assert_valence_resums(mol)
            assert_valence_resums(sanitize_lenient(mol))


def disjoint_union(a, b):
    mol = a.copy()
    offset = mol.num_atoms
    for symbol in b.symbols:
        mol.add_atom(symbol)
    for i, j, order in b.bonds():
        mol.add_bond(i + offset, j + offset, order)
    return mol


def fragmented_molecules(seed):
    """Generated molecules, some joined to another one or to a lone atom,
    plus noisy decodes."""
    spec = MoleculeSpec(min_atoms=3, max_atoms=18, ring_closure_prob=0.6,
                        max_ring_closures=3)
    mols = random_molecules(9, seed, spec)
    for index in range(1, len(mols), 3):
        mols[index] = disjoint_union(mols[index], mols[index - 1])
    for index in range(2, len(mols), 3):
        mols[index].add_atom("O")
    return mols + MoleculeBatch.from_matrices(noisy_stack(seed)).molecules


class TestNetworkxOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_components_and_bridges(self, seed):
        nx = pytest.importorskip("networkx")
        mols = fragmented_molecules(seed)
        assert any(len(m.connected_components()) > 1 for m in mols)
        for mol in mols:
            graph = nx.Graph()
            graph.add_nodes_from(range(mol.num_atoms))
            graph.add_edges_from((i, j) for i, j, __ in mol.bonds())
            # Same sets in the same order: lowest atom index first.
            assert mol.connected_components() == [
                set(c) for c in nx.connected_components(graph)
            ]
            bridges = {(min(a, b), max(a, b)) for a, b in nx.bridges(graph)}
            assert graphs.bridges(mol) == bridges
            assert mol.ring_bonds() == set(mol._bonds) - bridges
