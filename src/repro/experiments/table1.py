"""Table I — trainable-parameter comparison, classical vs baseline quantum.

Builds each 64-feature architecture (L = 3 entangling layers, latent 6) and
counts quantum / classical / total trainable scalars, next to the numbers
printed in the paper.  Everything reproduces exactly except the classical
rows: the 64-32-16-6 encoder and 6-16-32-64 decoder hold 5478 weights
(AE) and 5562 (VAE), 132 fewer than the paper prints for each, and the
paper's text names no layer that would account for them.  The VAE - AE
difference of 84 (two ``Linear(6, 6)`` heads) matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..models import (
    ClassicalAE,
    ClassicalVAE,
    FullyQuantumAE,
    FullyQuantumVAE,
    HybridQuantumAE,
    HybridQuantumVAE,
)
from .tables import format_table

__all__ = ["Table1Row", "Table1Result", "run_table1", "PAPER_TABLE1"]

# Paper values: {model: (quantum, classical, total)}.
PAPER_TABLE1 = {
    "VAE": (0, 5694, 5694),
    "AE": (0, 5610, 5610),
    "F-BQ-VAE": (108, 84, 192),
    "F-BQ-AE": (108, 0, 108),
    "H-BQ-VAE": (108, 4286, 4394),
    "H-BQ-AE": (108, 4202, 4310),
}


@dataclass
class Table1Row:
    model: str
    quantum: int
    classical: int
    total: int
    paper_quantum: int
    paper_classical: int
    paper_total: int

    @property
    def matches_paper(self) -> bool:
        return (self.quantum, self.classical, self.total) == (
            self.paper_quantum,
            self.paper_classical,
            self.paper_total,
        )


@dataclass
class Table1Result:
    rows: list[Table1Row] = field(default_factory=list)

    def format_table(self) -> str:
        return format_table(
            ["Model", "Quantum", "Classical", "Total",
             "Paper(Q)", "Paper(C)", "Paper(T)", "Match"],
            [
                [r.model, r.quantum, r.classical, r.total,
                 r.paper_quantum, r.paper_classical, r.paper_total,
                 "yes" if r.matches_paper else "no"]
                for r in self.rows
            ],
            title="Table I: trainable parameters (64 features, L=3, latent 6)",
        )


def run_table1(seed: int = 0) -> Table1Result:
    """Instantiate every Table I architecture and count parameters."""
    rng = np.random.default_rng(seed)
    builders = {
        "VAE": lambda: ClassicalVAE(rng=rng),
        "AE": lambda: ClassicalAE(rng=rng),
        "F-BQ-VAE": lambda: FullyQuantumVAE(rng=rng),
        "F-BQ-AE": lambda: FullyQuantumAE(rng=rng),
        "H-BQ-VAE": lambda: HybridQuantumVAE(rng=rng),
        "H-BQ-AE": lambda: HybridQuantumAE(rng=rng),
    }
    result = Table1Result()
    for name, build in builders.items():
        counts = build().parameter_count_by_group()
        paper_q, paper_c, paper_t = PAPER_TABLE1[name]
        result.rows.append(
            Table1Row(
                model=name,
                quantum=counts["quantum"],
                classical=counts["classical"],
                total=counts["total"],
                paper_quantum=paper_q,
                paper_classical=paper_c,
                paper_total=paper_t,
            )
        )
    return result
