"""Experiment scaling: paper-scale ("full") vs laptop-scale ("fast") runs.

Every experiment driver reads its workload sizes from a :class:`Scale`.
``fast`` (the default) subsamples datasets and epochs so the entire
benchmark suite finishes in minutes on a CPU; ``full`` restores the paper's
settings (2492 ligands, 20 epochs, 1000 sampled molecules, ...).  Select
with the ``REPRO_FULL=1`` environment variable or by passing a scale
explicitly.

The quantities reproduced are *shapes* (orderings, crossovers, win/loss),
which are stable under this subsampling.  Where the paper prints numbers
(Table I, Table II, the Fig. 7 optimum) the experiment prints them beside
ours; which of the paper's claims hold at this scale, seed by seed, is
listed in ROADMAP.md under "The paper's claims at quick scale".
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["Scale", "FAST", "FULL", "get_scale"]


@dataclass(frozen=True)
class Scale:
    """Workload knobs shared by the experiment drivers."""

    name: str
    qm9_samples: int
    digits_samples: int
    pdbbind_samples: int
    cifar_samples: int
    epochs: int  # stands in for the paper's 20-epoch budget
    ablation_epochs: int  # stands in for Fig. 6's 10-epoch budget
    eval_epochs: tuple[int, int]  # Fig. 6 reads losses at these epochs
    table2_samples: int  # molecules sampled per model (paper: 1000)
    lr_grid_samples: int  # training subset for the 5x5 Fig. 7 grid
    batch_size: int = 32
    bq_layers: int = 3
    sq_layers: int = 5

    @property
    def is_full(self) -> bool:
        return self.name == "full"


FAST = Scale(
    name="fast",
    qm9_samples=160,
    digits_samples=160,
    pdbbind_samples=96,
    cifar_samples=64,
    epochs=4,
    ablation_epochs=4,
    eval_epochs=(2, 4),
    table2_samples=60,
    lr_grid_samples=48,
)

FULL = Scale(
    name="full",
    qm9_samples=1024,
    digits_samples=500,
    pdbbind_samples=2492,
    cifar_samples=256,
    epochs=20,
    ablation_epochs=10,
    eval_epochs=(5, 10),
    table2_samples=1000,
    lr_grid_samples=512,
)


def get_scale() -> Scale:
    """FULL when ``REPRO_FULL`` is a truthy env value, else FAST."""
    value = os.environ.get("REPRO_FULL", "").strip().lower()
    return FULL if value not in ("", "0", "false", "no") else FAST
