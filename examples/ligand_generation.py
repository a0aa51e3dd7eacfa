#!/usr/bin/env python3
"""De novo ligand generation with the scalable quantum VAE (SQ-VAE).

The paper's target application: learn the distribution of PDBbind-style
drug ligands (32x32 molecule matrices, 1024 features) with a *patched*
quantum circuit — far beyond what a monolithic 10-qubit autoencoder can
represent — then sample new candidate ligands from the latent prior and
rank them by drug properties (QED, logP, synthetic accessibility).

Run:
    python examples/ligand_generation.py            # fast demo
    LIGANDS=512 EPOCHS=10 python examples/ligand_generation.py
"""

from __future__ import annotations

import os

import numpy as np

from repro.chem import qed, sanitize_lenient, to_smiles
from repro.chem.metrics import normalized_logp, normalized_sa
from repro.chem.sa import default_fragment_table
from repro.data import load_pdbbind_ligands, train_test_split
from repro.evaluation import sample_batch
from repro.models import ScalableQuantumVAE
from repro.qnn import patched_latent_dim
from repro.training import TrainConfig, Trainer


def main() -> None:
    n_ligands = int(os.environ.get("LIGANDS", 96))
    epochs = int(os.environ.get("EPOCHS", 4))
    n_patches = int(os.environ.get("PATCHES", 8))
    seed = int(os.environ.get("SEED", 0))

    # 1. Ligand dataset: synthetic PDBbind-refined stand-in, filtered to
    #    <= 32 heavy atoms over C/N/O/F/S exactly like Section IV-A.
    data = load_pdbbind_ligands(n_samples=n_ligands, seed=seed)
    train, test = train_test_split(data, test_fraction=0.15, seed=seed)
    print(f"ligands: {len(train)} train / {len(test)} test")

    # 2. SQ-VAE with p patches -> latent dimension p * log2(1024/p).
    lsd = patched_latent_dim(1024, n_patches)
    print(f"patches: {n_patches} -> latent space dimension {lsd}")
    model = ScalableQuantumVAE(
        input_dim=1024, n_patches=n_patches, n_layers=5,
        rng=np.random.default_rng(seed), noise_seed=seed,
    )
    model.init_output_bias(train.features.mean(axis=0))
    counts = model.parameter_count_by_group()
    print(f"parameters: quantum={counts['quantum']} "
          f"classical={counts['classical']}")

    # 3. Train with the paper's heterogeneous learning rates (Fig. 7):
    #    quantum 0.03, classical 0.01.
    trainer = Trainer(model, TrainConfig.paper_sq(epochs=epochs, seed=seed))
    history = trainer.fit(train, test_data=test)
    for record in history.epochs:
        print(f"epoch {record.epoch}: train {record.train_loss:.4f} "
              f"test {record.test_loss:.4f}")

    # 4. Sample candidate ligands from the Gaussian prior and rank them.
    raw = sample_batch(model, 40, np.random.default_rng(seed + 1)).molecules
    table = default_fragment_table()
    candidates = []
    for mol in raw:
        repaired = sanitize_lenient(mol)
        if repaired.num_atoms < 3:
            continue
        candidates.append(
            (
                qed(repaired),
                normalized_logp(repaired),
                normalized_sa(repaired, table),
                repaired,
            )
        )
    candidates.sort(key=lambda item: item[0], reverse=True)
    print(f"\nsampled {len(raw)} matrices -> {len(candidates)} usable ligands")
    print(f"{'QED':>6} {'logP':>6} {'SA':>6}  candidate")
    for qed_score, logp_score, sa_score, mol in candidates[:8]:
        smiles = to_smiles(mol) if mol.is_connected() else mol.molecular_formula()
        print(f"{qed_score:6.3f} {logp_score:6.3f} {sa_score:6.3f}  "
              f"{mol.molecular_formula():12s} {smiles[:48]}")


if __name__ == "__main__":
    main()
