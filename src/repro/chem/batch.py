"""Packed molecule-set representation and vectorized set-level scorers.

The Table II evaluation path — decode -> sanitize -> QED/logP/SA ->
uniqueness — was written one molecule at a time; at generation-service
throughput those Python loops dominate wall-clock (see ROADMAP, "Scale the
data/eval pipeline").  This module packs a molecule set into padded arrays

* ``codes``  — ``(n, A)`` atomic numbers, atoms compacted to the leading
  slots, 0-padded;
* ``orders`` — ``(n, A, A)`` symmetric bond-order tensor (1 / 2 / 3 / 1.5);
* ``counts`` — ``(n,)`` heavy-atom counts,

and computes every array-friendly descriptor (Crippen logP, molecular
weight, TPSA, H-bond donors/acceptors, valences, implicit hydrogens,
validity screens) as whole-set array ops.  Ring-dependent descriptors reuse
one cached graph context per molecule (components / bridges / ring bonds /
ring perception, via :mod:`repro.chem.graphs`) instead of the scalar path's
~6 recomputations.

Exactness contract: every scorer here is **bit-for-bit equal** to looping
the scalar reference functions (:func:`repro.chem.qed.qed`,
:func:`repro.chem.crippen.crippen_logp`, :func:`repro.chem.sa.sa_score`,
...) over the set.  Floating-point accumulations replay the scalar
summation order (sequential over atoms, via column-wise accumulation over
the padded axis — adding the 0.0 padding terms is exact), final
sigmoid/log/exp transforms go through :mod:`math` per molecule exactly as
the reference does, and graph tie-breaking is aligned as documented in
:mod:`repro.chem.graphs`.  The randomized differential suite in
``tests/chem/test_batch_equivalence.py`` enforces this.
"""

from __future__ import annotations

import math

import numpy as np

from .matrix import CODE_TO_SYMBOL, MAX_ATOM_CODE, MAX_BOND_CODE
from .molecule import AROMATIC, Molecule
from .periodic import ELEMENTS, HYDROGEN_WEIGHT
from .qed import ADS_PARAMS, QED_WEIGHTS, ads
from .scaffold import canonical_signature
from .valence import sanitize_lenient
from . import graphs

__all__ = [
    "MoleculeBatch",
    "qed_batch",
    "crippen_logp_batch",
    "sa_score_batch",
    "sanitize_batch",
    "valid_mask",
    "unique_fraction",
]

# ----------------------------------------------------------------------
# Element lookup tables, indexed by atomic number.
# ----------------------------------------------------------------------
_MAX_Z = max(e.atomic_number for e in ELEMENTS.values())
_SYMBOL_BY_Z = [""] * (_MAX_Z + 1)
_MAX_VALENCE = np.zeros(_MAX_Z + 1, dtype=np.int64)
_ATOMIC_WEIGHT = np.zeros(_MAX_Z + 1, dtype=np.float64)
for _element in ELEMENTS.values():
    _SYMBOL_BY_Z[_element.atomic_number] = _element.symbol
    _MAX_VALENCE[_element.atomic_number] = _element.max_valence
    _ATOMIC_WEIGHT[_element.atomic_number] = _element.atomic_weight
_Z_BY_SYMBOL = {s: e.atomic_number for s, e in ELEMENTS.items()}

# Matrix atom code (1..5) -> atomic number; bond code (1..4) -> order.
_CODE_TO_Z = np.zeros(MAX_ATOM_CODE + 1, dtype=np.int64)
for _code, _symbol in CODE_TO_SYMBOL.items():
    _CODE_TO_Z[_code] = _Z_BY_SYMBOL[_symbol]
_CODE_TO_ORDER = np.zeros(MAX_BOND_CODE + 1, dtype=np.float64)
for _order, _code in ((1.0, 1), (2.0, 2), (3.0, 3), (AROMATIC, 4)):
    _CODE_TO_ORDER[_code] = _order

# ``f"{order:g}"`` prefixes for environment-key entries.
_ORDER_PREFIX = {1.0: "1", 2.0: "2", 3.0: "3", AROMATIC: "1.5"}

_Z_C, _Z_N, _Z_O, _Z_F, _Z_P, _Z_S, _Z_CL = 6, 7, 8, 9, 15, 16, 17


class _Context:
    """Cached per-molecule graph quantities, each computed exactly once."""

    __slots__ = ("mol", "components", "bridges", "ring_bonds", "_rings")

    def __init__(self, mol: Molecule):
        self.mol = mol
        self.components = graphs.connected_components(mol)
        self.bridges = graphs.bridges(mol)
        self.ring_bonds = graphs.ring_bonds(mol, self.bridges)
        self._rings: list[list[int]] | None = None

    @property
    def rings(self) -> list[list[int]]:
        if self._rings is None:
            self._rings = graphs.rings(
                self.mol, self.ring_bonds, len(self.components)
            )
        return self._rings


class MoleculeBatch:
    """A molecule set packed into padded arrays plus cached graph contexts.

    Construct via :meth:`from_molecules` or :meth:`from_matrices`; the
    original :class:`Molecule` objects remain available as ``.molecules``
    (reconstructed with the same atom/bond insertion order as
    :func:`repro.chem.matrix.decode_molecule` when built from matrices, so
    graph tie-breaking matches the scalar decode path).
    """

    def __init__(self, molecules: list[Molecule], codes: np.ndarray,
                 orders: np.ndarray, counts: np.ndarray):
        self.molecules = molecules
        self.codes = codes
        self.orders = orders
        self.counts = counts
        self._cache: dict[str, np.ndarray] = {}
        self._contexts: list[_Context | None] = [None] * len(molecules)
        self._entry_strings: list[tuple[list[str], list[list[tuple[int, str]]]] | None]
        self._entry_strings = [None] * len(molecules)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.molecules)

    @property
    def width(self) -> int:
        """Padded atom axis length."""
        return self.codes.shape[1]

    @classmethod
    def from_molecules(cls, molecules: list[Molecule]) -> "MoleculeBatch":
        """Pack existing molecule graphs (atoms keep their index order)."""
        molecules = list(molecules)
        n = len(molecules)
        width = max((m.num_atoms for m in molecules), default=0)
        width = max(width, 1)
        codes = np.zeros((n, width), dtype=np.int64)
        orders = np.zeros((n, width, width), dtype=np.float64)
        counts = np.zeros(n, dtype=np.int64)
        for index, mol in enumerate(molecules):
            counts[index] = mol.num_atoms
            if mol.num_atoms:
                codes[index, : mol.num_atoms] = [
                    _Z_BY_SYMBOL[s] for s in mol.symbols
                ]
            for (i, j), order in mol._bonds.items():
                orders[index, i, j] = order
                orders[index, j, i] = order
        return cls(molecules, codes, orders, counts)

    @classmethod
    def from_matrices(cls, matrices: np.ndarray) -> "MoleculeBatch":
        """Vectorized decode of a ``(n, size, size)`` continuous matrix stack.

        Applies :func:`repro.chem.matrix.discretize` to the whole stack at
        once (symmetrize, round, clip), drops empty diagonal slots, and
        rebuilds molecules with the same construction order as
        ``decode_molecule(discretize(matrix))`` per matrix.
        """
        matrices = np.asarray(matrices, dtype=np.float64)
        if matrices.ndim == 1 and matrices.size == 0:
            matrices = matrices.reshape(0, 1, 1)
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise ValueError(
                f"expected a (n, size, size) matrix stack, got {matrices.shape}"
            )
        n, size, _ = matrices.shape
        if n == 0:
            return cls([], np.zeros((0, 1), np.int64),
                       np.zeros((0, 1, 1), np.float64), np.zeros(0, np.int64))

        # discretize(), batched: same elementwise ops as the scalar codec.
        sym = 0.5 * (matrices + matrices.transpose(0, 2, 1))
        rounded = np.rint(sym).astype(np.int64)
        diag = np.clip(np.diagonal(rounded, axis1=1, axis2=2), 0, MAX_ATOM_CODE)
        bond_codes = np.clip(rounded, 0, MAX_BOND_CODE)

        present = diag > 0
        counts = present.sum(axis=1)
        width = max(int(counts.max()), 1)
        # Stable compaction: occupied slots first, in slot order.
        order = np.argsort(~present, axis=1, kind="stable")
        rows = np.arange(n)[:, None]
        # Empty slots carry code 0, which maps to atomic number 0 (padding).
        packed_codes = np.take_along_axis(diag, order, axis=1)[:, :width]
        packed_codes = _CODE_TO_Z[packed_codes]

        gathered = bond_codes[rows[:, :, None], order[:, :, None],
                              order[:, None, :]][:, :width, :width]
        orders_arr = _CODE_TO_ORDER[gathered]
        occupied = packed_codes > 0
        orders_arr *= occupied[:, :, None] & occupied[:, None, :]
        diag_idx = np.arange(width)
        orders_arr[:, diag_idx, diag_idx] = 0.0

        molecules = [
            _molecule_from_packed(packed_codes[i], orders_arr[i],
                                  int(counts[i]))
            for i in range(n)
        ]
        return cls(molecules, packed_codes, orders_arr,
                   counts.astype(np.int64))

    # ------------------------------------------------------------------
    # Cached derived arrays
    # ------------------------------------------------------------------
    def _derived(self, name: str) -> np.ndarray:
        cached = self._cache.get(name)
        if cached is None:
            cached = getattr(self, f"_compute_{name}")()
            self._cache[name] = cached
        return cached

    def _compute_bonded(self) -> np.ndarray:
        return self.orders > 0

    def _compute_degree(self) -> np.ndarray:
        return self._derived("bonded").sum(axis=2)

    def _compute_valence(self) -> np.ndarray:
        # Bond orders are exact binary fractions (multiples of 0.5), so the
        # sum equals the scalar path's regardless of accumulation order.
        return self.orders.sum(axis=2)

    def _compute_max_valence(self) -> np.ndarray:
        return _MAX_VALENCE[self.codes]

    def _compute_hydrogens(self) -> np.ndarray:
        # max(0, int(free + 1e-9)) with int()'s truncation semantics.
        free = self._derived("max_valence") - self._derived("valence")
        return np.maximum(np.trunc(free + 1e-9), 0.0).astype(np.int64)

    def _compute_aromatic_atom(self) -> np.ndarray:
        return (self.orders == AROMATIC).any(axis=2)

    def _compute_any_double(self) -> np.ndarray:
        return (self.orders == 2.0).any(axis=2)

    def _compute_any_triple(self) -> np.ndarray:
        return (self.orders == 3.0).any(axis=2)

    def context(self, index: int) -> _Context:
        ctx = self._contexts[index]
        if ctx is None:
            ctx = _Context(self.molecules[index])
            self._contexts[index] = ctx
        return ctx

    # ------------------------------------------------------------------
    # Environment keys (SA scoring)
    # ------------------------------------------------------------------
    def _entries(self, index: int):
        """Per-atom labels and per-directed-edge entry strings, cached.

        ``labels[a]`` is the reference ``f"{sym}d{deg}h{h}"`` atom label;
        ``edges[a]`` lists ``(neighbor, f"{order:g}" + labels[neighbor])``
        pairs — the exact entry strings ``environment_key`` rebuilds from
        scratch for every shell visit.
        """
        cached = self._entry_strings[index]
        if cached is not None:
            return cached
        count = int(self.counts[index])
        degree = self._derived("degree")[index]
        hydrogens = self._derived("hydrogens")[index]
        symbols = self.molecules[index].symbols
        labels = [
            f"{symbols[a]}d{degree[a]}h{hydrogens[a]}" for a in range(count)
        ]
        orders = self.orders[index]
        edges: list[list[tuple[int, str]]] = []
        for a in range(count):
            nbrs = np.nonzero(orders[a, :count])[0]
            edges.append(
                [(int(b), _ORDER_PREFIX[orders[a, b]] + labels[b])
                 for b in nbrs]
            )
        cached = (labels, edges)
        self._entry_strings[index] = cached
        return cached

    def atom_shells(self, index: int, radius: int) -> list[list[str]]:
        """For every atom: its environment shell strings out to ``radius``.

        ``";".join(shells[:r + 1])`` reproduces
        :func:`repro.chem.sa.environment_key` at radius ``r`` for every
        ``r <= radius`` (shells are radius-prefix-stable; the list is
        truncated where the BFS frontier empties, exactly like the
        reference's early break).
        """
        labels, edges = self._entries(index)
        out: list[list[str]] = []
        for atom in range(int(self.counts[index])):
            shells = [labels[atom]]
            frontier = {atom}
            seen = {atom}
            for _ in range(radius):
                entries: list[str] = []
                next_frontier: set[int] = set()
                for a in frontier:
                    for b, entry in edges[a]:
                        entries.append(entry)
                        if b not in seen:
                            next_frontier.add(b)
                            seen.add(b)
                shells.append("|".join(sorted(entries)))
                frontier = next_frontier
                if not frontier:
                    break
            out.append(shells)
        return out

    def environment_keys(self, index: int, radius: int) -> list[str]:
        """``environment_key(mol, a, radius)`` for every atom, in one pass."""
        return [
            ";".join(shells[: radius + 1])
            for shells in self.atom_shells(index, radius)
        ]


def _molecule_from_packed(codes: np.ndarray, orders: np.ndarray,
                          count: int) -> Molecule:
    """Rebuild a Molecule with ``decode_molecule``'s construction order.

    Atoms are added in slot order and bonds in row-major ``(i, j)`` order
    with the same ``add``-per-endpoint adjacency updates, so internal dict
    and set layouts match a scalar ``decode_molecule`` result exactly
    (ring-perception tie-breaking observes those layouts).  The per-atom
    valence sums are kept the way ``Molecule.add_bond`` keeps them.
    """
    mol = Molecule()
    symbols = mol.symbols
    adjacency = mol._adjacency
    valence = mol._valence
    for slot in range(count):
        symbols.append(_SYMBOL_BY_Z[codes[slot]])
        adjacency[slot] = set()
        valence.append(0.0)
    bonds = mol._bonds
    ii, jj = np.nonzero(np.triu(orders[:count, :count], 1))
    for i, j in zip(ii.tolist(), jj.tolist()):
        order = float(orders[i, j])
        bonds[(i, j)] = order
        adjacency[i].add(j)
        adjacency[j].add(i)
        valence[i] += order
        valence[j] += order
    return mol


def _as_batch(molecules) -> MoleculeBatch:
    if isinstance(molecules, MoleculeBatch):
        return molecules
    return MoleculeBatch.from_molecules(molecules)


def _column_sum(values: np.ndarray) -> np.ndarray:
    """Sequential left-to-right per-molecule sum over the padded atom axis.

    Matches ``builtins.sum``'s accumulation order in the scalar reference;
    padding columns add exact ``0.0`` terms.
    """
    total = np.zeros(values.shape[0], dtype=np.float64)
    for column in range(values.shape[1]):
        total += values[:, column]
    return total


# ----------------------------------------------------------------------
# Array-tier descriptors
# ----------------------------------------------------------------------
def molecular_weight_batch(molecules) -> np.ndarray:
    """``Molecule.molecular_weight`` over the set, as one array op chain."""
    batch = _as_batch(molecules)
    heavy = _column_sum(_ATOMIC_WEIGHT[batch.codes])
    total_h = batch._derived("hydrogens").sum(axis=1)
    return heavy + HYDROGEN_WEIGHT * total_h


def crippen_logp_batch(molecules) -> np.ndarray:
    """Vectorized Crippen logP (see :func:`repro.chem.crippen.crippen_logp`).

    Atom-class assignment becomes boolean masks over the packed arrays;
    per-molecule totals accumulate in the reference's atom order
    (contribution then hydrogen term, atom by atom).
    """
    from .crippen import _CONTRIB, _H_ON_CARBON, _H_ON_HETERO

    batch = _as_batch(molecules)
    codes = batch.codes
    if np.any(codes == 1):
        raise ValueError("no Crippen class for element 'H'")
    orders = batch.orders
    bonded = batch._derived("bonded")
    arom = batch._derived("aromatic_atom")
    any2 = batch._derived("any_double")
    any3 = batch._derived("any_triple")
    hydrogens = batch._derived("hydrogens")

    neighbor_z = codes[:, None, :]
    hetero_nbr = (bonded & (neighbor_z != _Z_C) & (neighbor_z > 1)).any(axis=2)
    arom_hetero_nbr = (
        (orders == AROMATIC)
        & np.isin(neighbor_z, (_Z_N, _Z_O, _Z_S))
    ).any(axis=2)
    exocyclic = (bonded & (orders != AROMATIC)).any(axis=2)

    is_c = codes == _Z_C
    is_n = codes == _Z_N
    is_o = codes == _Z_O
    is_s = codes == _Z_S
    contrib = np.select(
        [
            is_c & arom & arom_hetero_nbr,
            is_c & arom & exocyclic,
            is_c & arom,
            is_c & hetero_nbr,
            is_c,
            is_n & arom,
            is_n & (any2 | any3),
            is_n & (hydrogens >= 2),
            is_n & (hydrogens == 1),
            is_n,
            is_o & arom,
            is_o & any2,
            is_o & (hydrogens >= 1),
            is_o,
            is_s & arom,
            is_s,
            codes == _Z_F,
            codes == _Z_CL,
            codes == _Z_P,
        ],
        [
            _CONTRIB["C_arom_hetero"],
            _CONTRIB["C_arom_sub"],
            _CONTRIB["C_arom"],
            _CONTRIB["C_aliph_hetero"],
            _CONTRIB["C_aliph"],
            _CONTRIB["N_arom"],
            _CONTRIB["N_unsaturated"],
            _CONTRIB["N_amine_primary"],
            _CONTRIB["N_amine_secondary"],
            _CONTRIB["N_amine_tertiary"],
            _CONTRIB["O_arom"],
            _CONTRIB["O_carbonyl"],
            _CONTRIB["O_hydroxyl"],
            _CONTRIB["O_ether"],
            _CONTRIB["S_arom"],
            _CONTRIB["S"],
            _CONTRIB["F"],
            _CONTRIB["Cl"],
            _CONTRIB["P"],
        ],
        default=0.0,
    )
    h_value = np.where(is_c, _H_ON_CARBON, _H_ON_HETERO)
    h_term = np.where(codes > 0, h_value * hydrogens, 0.0)

    total = np.zeros(len(batch), dtype=np.float64)
    for column in range(batch.width):
        total += contrib[:, column]
        total += h_term[:, column]
    return total


# Condensed TPSA contributions by (atomic number, environment class); the
# classes mirror ``descriptors._environment``'s decision order: aromatic
# (without/with H), triple, double, >=2 H, 1 H, bare.  Combinations absent
# from the scalar table contribute 0.0, matching its ``dict.get`` default.
_TPSA_CLASSES = {
    _Z_N: (12.89, 15.79, 23.79, 12.36, 26.02, 12.03, 3.24),
    _Z_O: (13.14, 0.0, 0.0, 17.07, 0.0, 20.23, 9.23),
    _Z_S: (28.24, 0.0, 0.0, 32.09, 0.0, 38.80, 25.30),
}


def tpsa_batch(molecules) -> np.ndarray:
    """Vectorized condensed-Ertl TPSA (see :func:`descriptors.tpsa`)."""
    batch = _as_batch(molecules)
    codes = batch.codes
    arom = batch._derived("aromatic_atom")
    any2 = batch._derived("any_double")
    any3 = batch._derived("any_triple")
    hydrogens = batch._derived("hydrogens")

    contrib = np.zeros_like(batch.orders[:, :, 0])
    for z, values in _TPSA_CLASSES.items():
        mask = codes == z
        contrib += mask * np.select(
            [
                arom & (hydrogens == 0),
                arom,
                any3,
                any2,
                hydrogens >= 2,
                hydrogens == 1,
            ],
            values[:6],
            default=values[6],
        )
    return _column_sum(contrib)


def hydrogen_bond_acceptors_batch(molecules) -> np.ndarray:
    batch = _as_batch(molecules)
    return np.isin(batch.codes, (_Z_N, _Z_O)).sum(axis=1)


def hydrogen_bond_donors_batch(molecules) -> np.ndarray:
    batch = _as_batch(molecules)
    donors = np.isin(batch.codes, (_Z_N, _Z_O)) & (
        batch._derived("hydrogens") > 0
    )
    return donors.sum(axis=1)


# ----------------------------------------------------------------------
# Ring-tier descriptors (one cached graph context per molecule)
# ----------------------------------------------------------------------
def _ring_tier(batch: MoleculeBatch) -> dict[str, np.ndarray]:
    """Ring-dependent descriptor columns, one graph context per molecule.

    Replays the scalar logic of ``rotatable_bonds``,
    ``aromatic_ring_count``, ``structural_alerts``'s ring patterns, and
    ``sa._complexity_penalty`` against cached rings/ring-bonds instead of
    recomputing them per descriptor.
    """
    cached = batch._cache.get("ring_tier")
    if cached is not None:
        return cached  # type: ignore[return-value]
    n = len(batch)
    degree = batch._derived("degree")
    rotatable = np.zeros(n, dtype=np.int64)
    aromatic_rings = np.zeros(n, dtype=np.int64)
    ring_alerts = np.zeros(n, dtype=np.int64)
    complexity = np.zeros(n, dtype=np.float64)
    for index, mol in enumerate(batch.molecules):
        ctx = batch.context(index)
        rings = ctx.rings
        ring_bond_set = ctx.ring_bonds
        bonds_list = list(mol._bonds.items())

        count = 0
        deg = degree[index]
        for (i, j), order in bonds_list:
            if order != 1.0 or (i, j) in ring_bond_set:
                continue
            if deg[i] >= 2 and deg[j] >= 2:
                count += 1
        rotatable[index] = count

        arom_count = 0
        for ring in rings:
            ring_set = set(ring)
            edges = [
                ((i, j), order)
                for (i, j), order in bonds_list
                if i in ring_set and j in ring_set
            ]
            if len(edges) == len(ring) and all(
                order == AROMATIC for _, order in edges
            ):
                arom_count += 1
        aromatic_rings[index] = arom_count

        symbols = mol.symbols
        ring_alerts[index] = int(
            any(
                len(ring) == 3 and any(symbols[a] != "C" for a in ring)
                for ring in rings
            )
        ) + int(any(len(ring) > 8 for ring in rings))

        atoms = int(batch.counts[index])
        size_penalty = atoms**1.005 - atoms
        ring_atoms = [set(r) for r in rings]
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
        macrocycle = (
            math.log10(2) if any(len(r) > 8 for r in rings) else 0.0
        )
        complexity[index] = size_penalty + ring_complexity + macrocycle

    cached = {
        "rotatable": rotatable,
        "aromatic_rings": aromatic_rings,
        "ring_alerts": ring_alerts,
        "complexity": complexity,
    }
    batch._cache["ring_tier"] = cached  # type: ignore[assignment]
    return cached


def structural_alerts_batch(molecules) -> np.ndarray:
    """Vectorized Brenk-style alert count (see ``descriptors``)."""
    batch = _as_batch(molecules)
    codes = batch.codes
    orders = batch.orders
    bonded = batch._derived("bonded")
    hydrogens = batch._derived("hydrogens")
    pair_o = codes == _Z_O
    pair_s = codes == _Z_S
    pair_n = codes == _Z_N

    def _pair(mask_a, mask_b, bond_mask):
        return (bond_mask & mask_a[:, :, None] & mask_b[:, None, :]).any(
            axis=(1, 2)
        )

    oo = _pair(pair_o, pair_o, bonded)
    ss = _pair(pair_s, pair_s, bonded)
    nn_single = _pair(pair_n, pair_n, orders == 1.0)
    nn_double = _pair(pair_n, pair_n, orders == 2.0)

    is_c = codes == _Z_C
    double = orders == 2.0
    carbonyl_c = is_c & (
        (double & (codes[:, None, :] == _Z_O)).any(axis=2)
    )
    aldehyde = (carbonyl_c & (hydrogens >= 1)).any(axis=1)
    thiocarbonyl = _pair(is_c, pair_s, double) | _pair(pair_s, is_c, double)
    fluoro_nbr = (bonded & (codes[:, None, :] == _Z_F)).any(axis=2)
    acyl_fluoride = (carbonyl_c & fluoro_nbr).any(axis=1)
    cumulated = (double.sum(axis=2) >= 2).any(axis=1)

    ring_alerts = _ring_tier(batch)["ring_alerts"]
    return (
        oo.astype(np.int64)
        + ss
        + nn_single
        + nn_double
        + aldehyde
        + thiocarbonyl
        + acyl_fluoride
        + cumulated
        + ring_alerts
    )


# ----------------------------------------------------------------------
# Composite scorers
# ----------------------------------------------------------------------
_QED_ORDER = ("MW", "ALOGP", "HBA", "HBD", "PSA", "ROTB", "AROM", "ALERTS")


def qed_batch(molecules) -> np.ndarray:
    """Vectorized QED: array-tier descriptor extraction, scalar ADS squash.

    The eight descriptors come from the batched extractors above; the
    final desirability transform runs through :func:`repro.chem.qed.ads`
    and :mod:`math` per molecule — the same calls the scalar reference
    makes — so results match it bit for bit.
    """
    batch = _as_batch(molecules)
    ring_tier = _ring_tier(batch)
    columns = {
        "MW": molecular_weight_batch(batch),
        "ALOGP": crippen_logp_batch(batch),
        "HBA": hydrogen_bond_acceptors_batch(batch),
        "HBD": hydrogen_bond_donors_batch(batch),
        "PSA": tpsa_batch(batch),
        "ROTB": ring_tier["rotatable"],
        "AROM": ring_tier["aromatic_rings"],
        "ALERTS": structural_alerts_batch(batch),
    }
    out = np.zeros(len(batch), dtype=np.float64)
    weights = [QED_WEIGHTS[name] for name in _QED_ORDER]
    params = [ADS_PARAMS[name] for name in _QED_ORDER]
    values = [columns[name] for name in _QED_ORDER]
    for index in range(len(batch)):
        if batch.counts[index] == 0:
            continue
        log_sum = 0.0
        weight_sum = 0.0
        for weight, param, column in zip(weights, params, values):
            log_sum += weight * math.log(ads(float(column[index]), param))
            weight_sum += weight
        out[index] = math.exp(log_sum / weight_sum)
    return out


def sa_score_batch(molecules, table=None) -> np.ndarray:
    """Vectorized SA score: one bulk environment-key pass per molecule.

    Environment keys for all atoms are extracted in a single shell pass
    (entry strings shared across atoms), contributions come from the
    fragment table's vectorized lookup, and the complexity penalty reuses
    the cached ring tier.  Matches :func:`repro.chem.sa.sa_score` exactly.
    """
    from .sa import default_fragment_table

    batch = _as_batch(molecules)
    table = table if table is not None else default_fragment_table()
    complexity = _ring_tier(batch)["complexity"]
    out = np.zeros(len(batch), dtype=np.float64)
    smin, smax = -4.0, 2.5
    for index in range(len(batch)):
        atoms = int(batch.counts[index])
        if atoms == 0:
            out[index] = 10.0
            continue
        keys = batch.environment_keys(index, table.radius)
        fragment = sum(table.bulk_contributions(keys).tolist()) / atoms
        score = fragment - complexity[index]
        raw = 11.0 - (score - smin) / (smax - smin) * 9.0
        if raw > 8.0:
            raw = 8.0 + math.log(raw + 1.0 - 9.0)
        out[index] = min(10.0, max(1.0, raw))
    return out


# ----------------------------------------------------------------------
# Validity, sanitization, uniqueness
# ----------------------------------------------------------------------
def valid_mask(molecules) -> np.ndarray:
    """``is_valid`` over the set: vectorized valence screen + cached graphs."""
    batch = _as_batch(molecules)
    valence_ok = ~(
        batch._derived("valence")
        > batch._derived("max_valence") + 1e-9
    ).any(axis=1)
    has_aromatic = batch._derived("aromatic_atom").any(axis=1)
    out = np.zeros(len(batch), dtype=bool)
    for index, mol in enumerate(batch.molecules):
        if batch.counts[index] == 0 or not valence_ok[index]:
            continue
        ctx = batch.context(index)
        if len(ctx.components) != 1:
            continue
        if has_aromatic[index]:
            ring_bond_set = ctx.ring_bonds
            if any(
                order == AROMATIC and key not in ring_bond_set
                for key, order in mol._bonds.items()
            ):
                continue
        out[index] = True
    return out


def sanitize_batch(molecules, validity: np.ndarray | None = None
                   ) -> list[Molecule]:
    """``sanitize_lenient`` over the set, with a vectorized clean fast path.

    Strictly valid molecules take the O(atoms + bonds) subgraph copy that
    ``sanitize_lenient`` reduces to when no repair fires (identical output,
    including internal construction order); only molecules that actually
    need repair run the scalar repair loop.
    """
    batch = _as_batch(molecules)
    if validity is None:
        validity = valid_mask(batch)
    out: list[Molecule] = []
    for index, mol in enumerate(batch.molecules):
        if validity[index]:
            out.append(mol.subgraph(set(range(mol.num_atoms))))
        else:
            out.append(sanitize_lenient(mol))
    return out


def _invariant_keys(batch: MoleculeBatch) -> list[bytes]:
    """Cheap renumbering-invariant key per molecule, from the packed arrays.

    Sorted multiset of per-atom ``(z, degree, hydrogens)`` triples plus the
    sorted multiset of ``(order, z_lo, z_hi)`` bond descriptors.  Two
    isomorphic molecules always collide; distinct keys imply distinct
    canonical signatures, so signature hashing is only needed inside key
    groups (see :func:`unique_fraction`).
    """
    codes = batch.codes
    atom_part = (
        codes * 10_000
        + batch._derived("degree") * 100
        + batch._derived("hydrogens")
    )
    atom_part = np.sort(atom_part, axis=1)
    mids, iis, jjs = np.nonzero(np.triu(batch.orders, 1))
    bond_orders = (batch.orders[mids, iis, jjs] * 2).astype(np.int64)
    z_i = codes[mids, iis]
    z_j = codes[mids, jjs]
    bond_part = (
        bond_orders * 10_000
        + np.minimum(z_i, z_j) * 100
        + np.maximum(z_i, z_j)
    )
    keys: list[bytes] = []
    for index in range(len(batch)):
        own = np.sort(bond_part[mids == index])
        keys.append(
            bytes((int(batch.counts[index]),))
            + atom_part[index].tobytes()
            + own.tobytes()
        )
    return keys


def unique_fraction(molecules) -> float:
    """Fraction of distinct molecules, equal to the reference ``uniqueness``.

    Cheap invariant grouping first; canonical signatures (the reference's
    equality oracle) are computed only inside groups with a potential
    duplicate, which skips the signature pass entirely for sets of
    pairwise-distinguishable molecules.
    """
    batch = _as_batch(molecules)
    if len(batch) == 0:
        return 0.0
    groups: dict[bytes, list[int]] = {}
    for index, key in enumerate(_invariant_keys(batch)):
        groups.setdefault(key, []).append(index)
    unique = 0
    for members in groups.values():
        if len(members) == 1:
            unique += 1
        else:
            unique += len(
                {canonical_signature(batch.molecules[i]) for i in members}
            )
    return unique / len(batch)
