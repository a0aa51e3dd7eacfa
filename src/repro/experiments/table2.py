"""Table II — drug properties of ligands sampled from SQ-VAEs vs VAEs.

For each latent-space dimension (18/32/56/96, i.e. 2/4/8/16 circuit
patches), train both generative models on the PDBbind ligand set for the
epoch budget, sample molecules from the Gaussian prior, and report the
normalized QED / logP / SA means over the (validity-corrected) sets —
exactly the paper's evaluation protocol with 1000 samples and 20 epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..chem.metrics import score_matrices
from ..chem.sa import default_fragment_table
from ..data import load_pdbbind_ligands, train_test_split
from ..evaluation.sampling import sample_matrices
from ..models import ClassicalVAE, ScalableQuantumVAE
from ..training import TrainConfig, Trainer
from .config import Scale, get_scale
from .tables import format_table

__all__ = ["Table2Config", "Table2Cell", "Table2Result", "run_table2",
           "PAPER_TABLE2"]

# Paper values: {(model, metric): {lsd: value}}.
PAPER_TABLE2 = {
    ("VAE", "QED"): {18: 0.138, 32: 0.179, 56: 0.139, 96: 0.142},
    ("SQ-VAE", "QED"): {18: 0.153, 32: 0.177, 56: 0.204, 96: 0.167},
    ("VAE", "logP"): {18: 0.357, 32: 0.472, 56: 0.496, 96: 0.761},
    ("SQ-VAE", "logP"): {18: 0.780, 32: 0.616, 56: 0.709, 96: 0.740},
    ("VAE", "SA"): {18: 0.192, 32: 0.292, 56: 0.307, 96: 0.599},
    ("SQ-VAE", "SA"): {18: 0.626, 32: 0.479, 56: 0.534, 96: 0.547},
}

_LSD_TO_PATCHES = {18: 2, 32: 4, 56: 8, 96: 16}


@dataclass
class Table2Config:
    lsds: tuple[int, ...] = (18, 32, 56, 96)
    n_ligands: int = 96
    n_samples: int = 60
    epochs: int = 4
    sq_layers: int = 5
    batch_size: int = 32
    seed: int = 0

    @classmethod
    def from_scale(cls, scale: Scale | None = None, seed: int = 0) -> "Table2Config":
        scale = scale if scale is not None else get_scale()
        return cls(
            n_ligands=scale.pdbbind_samples,
            n_samples=scale.table2_samples,
            epochs=scale.epochs,
            sq_layers=scale.sq_layers,
            batch_size=scale.batch_size,
            seed=seed,
        )


@dataclass
class Table2Cell:
    model: str
    lsd: int
    qed: float
    logp: float
    sa: float
    validity: float
    uniqueness: float


@dataclass
class Table2Result:
    cells: list[Table2Cell] = field(default_factory=list)
    config: Table2Config | None = None

    def value(self, model: str, metric: str, lsd: int) -> float:
        for cell in self.cells:
            if cell.model == model and cell.lsd == lsd:
                return getattr(cell, metric.lower().replace("logp", "logp"))
        raise KeyError((model, metric, lsd))

    def format_table(self) -> str:
        lsds = sorted({c.lsd for c in self.cells})
        rows = []
        for metric in ("qed", "logp", "sa"):
            for model in ("VAE", "SQ-VAE"):
                label = f"{model}-{metric.upper() if metric != 'logp' else 'logP'}"
                row = [label]
                for lsd in lsds:
                    row.append(self.value(model, metric, lsd))
                paper = PAPER_TABLE2.get(
                    (model, "logP" if metric == "logp" else metric.upper())
                )
                row.append(
                    " / ".join(f"{paper[lsd]:.3f}" for lsd in lsds if lsd in paper)
                    if paper
                    else "-"
                )
                rows.append(row)
        headers = ["Metric"] + [f"LSD-{lsd}" for lsd in lsds] + ["Paper"]
        return format_table(
            headers, rows,
            title="Table II: drug properties of sampled ligands",
        )


def run_table2(config: Table2Config | None = None) -> Table2Result:
    """Train VAE + SQ-VAE per LSD, sample from each prior, score the sets."""
    config = config if config is not None else Table2Config.from_scale()
    dataset = load_pdbbind_ligands(n_samples=config.n_ligands, seed=config.seed)
    train, __ = train_test_split(dataset, test_fraction=0.15, seed=config.seed)
    table = default_fragment_table()
    result = Table2Result(config=config)

    for lsd in config.lsds:
        patches = _LSD_TO_PATCHES[lsd]
        rng = np.random.default_rng(config.seed + lsd)
        models = {
            "VAE": ClassicalVAE(
                input_dim=1024, latent_dim=lsd, rng=rng,
                noise_seed=config.seed + lsd,
            ),
            "SQ-VAE": ScalableQuantumVAE(
                input_dim=1024, n_patches=patches, n_layers=config.sq_layers,
                rng=rng, noise_seed=config.seed + lsd,
            ),
        }
        for name, model in models.items():
            # Warm-start both decoders at the ligand-matrix mean so short
            # training budgets still sample non-empty molecules.  The VAE
            # and the SQ-VAE both end in a classical output layer, so both
            # get the same start and the comparison stays like-for-like.
            model.init_output_bias(train.features.mean(axis=0))
            train_config = TrainConfig.paper_sq(
                epochs=config.epochs, seed=config.seed
            )
            train_config.batch_size = config.batch_size
            Trainer(model, train_config).fit(train)
            name_offset = sum(map(ord, name))  # deterministic, unlike hash()
            # Sample the prior as one matrix stack and score it through the
            # batched decode -> sanitize -> score pipeline.
            matrices = sample_matrices(
                model, config.n_samples,
                np.random.default_rng(config.seed + lsd + name_offset),
            )
            scores = score_matrices(matrices, table=table)
            result.cells.append(
                Table2Cell(
                    model=name,
                    lsd=lsd,
                    qed=scores.qed,
                    logp=scores.logp,
                    sa=scores.sa,
                    validity=scores.validity,
                    uniqueness=scores.uniqueness,
                )
            )
    return result
