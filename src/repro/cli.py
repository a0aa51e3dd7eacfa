"""Command-line interface for the library.

Subcommands::

    python -m repro.cli train   --model sq-vae --dataset pdbbind \\
                                --samples 96 --epochs 4 --out runs/sq.npz
    python -m repro.cli sample  --checkpoint runs/sq.npz --count 20
    python -m repro.cli serve   --checkpoint runs/sq.npz --port 7411
    python -m repro.cli stats   --dataset qm9 --samples 256
    python -m repro.cli draw    --model f-bq-ae

``train`` checkpoints the model with enough metadata for ``sample`` and
``serve`` to rebuild the same architecture *at the same precision*
(``--precision`` is recorded in the checkpoint); ``sample`` decodes prior
noise into molecules and prints SMILES with QED / logP / SA scores.

``serve`` stands up the micro-batching generation service
(:mod:`repro.serving`) on a JSON-lines TCP socket.  Request lifecycle:
a client connection sends one JSON object per line (``{"kind":
"sample", "count": 8, "seed": 3}``, or ``encode`` with feature rows /
``score`` with matrix stacks); the handler thread validates it, resolves
the checkpoint through the warm :class:`~repro.serving.ModelRegistry`
(deserialization and plan lowering are paid once per model, never per
request), and enqueues it on the bounded micro-batch queue.  As soon as
the worker thread is free it takes the first pending request plus the
backlog queued behind it (up to ``--max-batch`` requests), executes each
model's group as ONE stacked engine pass, and splits the rows back per
request; requests arriving meanwhile form the next batch.  The handler
writes the JSON response line.  A line longer than
``server.MAX_LINE_BYTES`` is answered ``bad_request`` and the connection
closed; a full queue answers ``queue_full`` (backpressure) and a request
that outlives ``--timeout`` answers ``request_timeout`` — callers never
hang.
:class:`repro.serving.NetworkClient` speaks this protocol; in process,
call :class:`repro.serving.GenerationService` directly.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .chem import to_smiles
from .chem.batch import MoleculeBatch, qed_batch, sanitize_batch
from .chem.metrics import normalized_logp_batch, normalized_sa_batch
from .chem.sa import default_fragment_table
from .data import (
    dataset_statistics,
    load_cifar_gray,
    load_digits,
    load_pdbbind_ligands,
    load_qm9,
    train_test_split,
)
from .evaluation.sampling import sample_batch
from .models import MODEL_CHOICES, build_from_metadata, build_model
from .nn.precision import resolve_precision
from .nn.serialization import (
    load_module,
    read_checkpoint_metadata,
    resolve_checkpoint_path,
    save_module,
)
from .training import TrainConfig, Trainer

__all__ = ["main"]

_DATASETS = {
    "qm9": (load_qm9, 64),
    "pdbbind": (load_pdbbind_ligands, 1024),
    "digits": (load_digits, 64),
    "cifar": (load_cifar_gray, 1024),
}

_MOLECULE_DATASETS = {"qm9", "pdbbind"}

# Per-patch statevector size the draw command renders sq models at:
# 16 features -> 4 qubits per patch, matching the 64-feature/4-patch
# default shape whatever --patches is.
_DRAW_PATCH_FEATURES = 16


def _positive_int(value: str) -> int:
    """argparse type for flags that must be a positive integer.

    Raising ``ArgumentTypeError`` makes argparse exit with a clear
    message naming the flag (``argument --samples: expected a positive
    integer, got '0'``) instead of the deep traceback a zero batch size
    or sample count used to surface as.
    """
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}"
        ) from None
    if number < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value!r}"
        )
    return number


def _non_negative_int(value: str) -> int:
    """argparse type for ``--seed``, ``--layers`` and ``--max-requests``.

    numpy's ``default_rng`` rejects negative seeds and the circuit
    builders reject negative layer counts, both deep inside the run;
    rejecting them at parse time names the flag instead of printing a
    traceback.  0 keeps its meaning for the flags that give it one (the
    architecture's default depth, serve forever).
    """
    try:
        number = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value!r}"
        ) from None
    if number < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {value!r}"
        )
    return number


def _positive_float(value: str) -> float:
    """argparse type for strictly positive, finite float flags.

    ``nan`` and ``inf`` parse as floats but break the serving timers they
    feed (a ``nan`` timeout fails every request, an ``inf`` one overflows
    the wait), so they are rejected here.
    """
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not (math.isfinite(number) and number > 0):
        raise argparse.ArgumentTypeError(
            f"expected a positive finite number, got {value!r}"
        )
    return number


def _non_negative_float(value: str) -> float:
    """argparse type for ``--quantum-lr`` and ``--classical-lr``.

    ``nan`` and ``inf`` parse as floats, and a ``nan`` learning rate used
    to train a checkpoint whose every parameter is NaN; a negative one
    climbs the loss.  0 stays valid: it freezes that parameter family.
    """
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not (math.isfinite(number) and number >= 0):
        raise argparse.ArgumentTypeError(
            f"expected a non-negative finite number, got {value!r}"
        )
    return number


def _port(value: str) -> int:
    """argparse type for a TCP port: an integer in 0-65535 (0 = any)."""
    try:
        number = int(value)
    except ValueError:
        number = -1
    if not 0 <= number <= 65535:
        raise argparse.ArgumentTypeError(
            f"expected a port number in 0-65535, got {value!r}"
        )
    return number


def _load_dataset(name: str, n_samples: int, seed: int):
    loader, input_dim = _DATASETS[name]
    return loader(n_samples=n_samples, seed=seed), input_dim


def _cmd_train(args) -> int:
    data, input_dim = _load_dataset(args.dataset, args.samples, args.seed)
    if args.normalize:
        data = data.normalized()
    train, test = train_test_split(data, test_fraction=0.15, seed=args.seed)
    default_layers = 5 if args.model.startswith("sq") else 3
    n_layers = args.layers if args.layers else default_layers
    model = build_model(args.model, input_dim, args.patches, n_layers,
                        args.latent, args.seed, dtype=args.precision)
    if args.warm_start_bias:
        model.init_output_bias(train.features.mean(axis=0))

    config = TrainConfig(
        epochs=args.epochs, batch_size=args.batch_size,
        quantum_lr=args.quantum_lr, classical_lr=args.classical_lr,
        seed=args.seed, precision=args.precision,
    )
    trainer = Trainer(model, config)
    history = trainer.fit(train, test_data=test)
    for record in history.epochs:
        seconds = f" ({record.seconds:.2f}s)" if record.seconds is not None else ""
        print(f"epoch {record.epoch}: train {record.train_loss:.4f} "
              f"test {record.test_loss:.4f}{seconds}")

    if args.out:
        metadata = {
            "model": args.model,
            "input_dim": input_dim,
            "n_patches": args.patches,
            "n_layers": n_layers,
            "latent_dim": args.latent,
            "dataset": args.dataset,
            "seed": args.seed,
            # sample/serve rebuild the model with the *recorded* dtype, so
            # a float32 training run round-trips as a float32 module.
            "precision": resolve_precision(args.precision).name,
            "final_train_loss": history.final_train_loss,
        }
        path = save_module(model, args.out, metadata=metadata)
        print(f"checkpoint written to {path}")
    return 0


def _resolve_checkpoint(argument: str):
    """Resolve a CLI checkpoint argument or exit naming the probed path."""
    try:
        return resolve_checkpoint_path(argument)
    except FileNotFoundError as exc:
        raise SystemExit(str(exc)) from None


def _cmd_sample(args) -> int:
    # Rebuild the architecture from checkpoint metadata — at the recorded
    # precision — then load weights.
    path = _resolve_checkpoint(args.checkpoint)
    meta = read_checkpoint_metadata(path)
    model = build_from_metadata(meta)
    load_module(model, path)
    if not model.is_variational:
        raise SystemExit(
            f"{meta['model']} is a vanilla autoencoder; only VAEs sample "
            "(Section I of the paper)"
        )

    # Decode, repair, and score the whole sample set on the batched
    # substrate (values identical to the per-molecule scorers).
    batch = sample_batch(model, args.count, np.random.default_rng(args.seed))
    kept = [m for m in sanitize_batch(batch) if m.num_atoms]
    if not kept:
        # Nothing decoded to a usable molecule: skip the scorers and the
        # table header, report cleanly, and exit 0 (an undertrained model
        # is not a CLI failure).
        print(f"0/{args.count} samples decoded to usable molecules")
        return 0
    kept_batch = MoleculeBatch.from_molecules(kept)
    table = default_fragment_table()
    qed_values = qed_batch(kept_batch)
    logp_values = normalized_logp_batch(kept_batch)
    sa_values = normalized_sa_batch(kept_batch, table)
    print(f"{'QED':>6} {'logP':>6} {'SA':>6}  molecule")
    for index, repaired in enumerate(kept):
        smiles = (to_smiles(repaired) if repaired.is_connected()
                  else repaired.molecular_formula())
        print(f"{qed_values[index]:6.3f} {logp_values[index]:6.3f} "
              f"{sa_values[index]:6.3f}  {smiles[:60]}")
    print(f"\n{len(kept)}/{args.count} samples decoded to usable molecules")
    return 0


def _cmd_serve(args) -> int:
    from .serving import GenerationServer, GenerationService

    _resolve_checkpoint(args.checkpoint)
    service = GenerationService(
        default_checkpoint=args.checkpoint,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        default_timeout=args.timeout,
    )
    server = GenerationServer((args.host, args.port), service,
                              max_requests=args.max_requests)
    host, port = server.server_address[:2]
    print(f"serving {args.checkpoint} on {host}:{port} "
          f"(batches run when the worker is free, max batch "
          f"{args.max_batch}, queue {args.max_queue})")
    if args.ready_file:
        # Readiness handshake for supervisors and tests: the bound
        # address appears in the file only once the socket is listening.
        from pathlib import Path

        Path(args.ready_file).write_text(f"{host} {port}\n")
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    finally:
        server.server_close()
        service.close()
    return 0


def _cmd_stats(args) -> int:
    if args.dataset not in _MOLECULE_DATASETS:
        raise SystemExit("stats requires a molecule dataset (qm9 or pdbbind)")
    data, __ = _load_dataset(args.dataset, args.samples, args.seed)
    print(dataset_statistics(data).format_table())
    return 0


def _cmd_draw(args) -> int:
    from .quantum import draw

    # sq models patch the input: give them an input dim consistent with
    # --patches (patches x 16-feature patches -> 4 qubits per patch);
    # the non-patched models keep the 64-feature default.  (This used to
    # be a dead `64 if ... else 64` that drew 8-patch models with
    # 8-feature patches.)
    if args.model.startswith("sq"):
        input_dim = _DRAW_PATCH_FEATURES * args.patches
    else:
        input_dim = 64
    model = build_model(args.model, input_dim, args.patches,
                        args.layers or 3, 6, args.seed)
    if hasattr(model, "encoder_q"):
        encoder = model.encoder_q
        circuit = (encoder.patches[0].circuit
                   if hasattr(encoder, "patches") else encoder.circuit)
        print(draw(circuit, max_columns=args.columns))
    else:
        raise SystemExit(f"{args.model} has no quantum encoder to draw")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse ``argv`` (defaults to sys.argv) and dispatch."""
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="train an autoencoder")
    train.add_argument("--model", choices=MODEL_CHOICES, required=True)
    train.add_argument("--dataset", choices=sorted(_DATASETS), required=True)
    train.add_argument("--samples", type=_positive_int, default=96)
    train.add_argument("--epochs", type=_positive_int, default=4)
    train.add_argument("--batch-size", type=_positive_int, default=32)
    train.add_argument("--quantum-lr", type=_non_negative_float,
                       default=0.03)
    train.add_argument("--classical-lr", type=_non_negative_float,
                       default=0.01)
    train.add_argument("--patches", type=_positive_int, default=4)
    train.add_argument("--layers", type=_non_negative_int, default=0,
                       help="entangling layers (0 = architecture default)")
    train.add_argument("--latent", type=_positive_int, default=6)
    train.add_argument("--precision",
                       choices=("float64", "float32", "mixed32"),
                       default=None,
                       help="model + training precision policy (recorded "
                            "in the checkpoint; default float64)")
    train.add_argument("--normalize", action="store_true",
                       help="L1-normalize features (F-BQ models need this)")
    train.add_argument("--warm-start-bias", action="store_true")
    train.add_argument("--seed", type=_non_negative_int, default=0)
    train.add_argument("--out", type=str, default="")
    train.set_defaults(func=_cmd_train)

    sample = sub.add_parser("sample", help="sample molecules from a checkpoint")
    sample.add_argument("--checkpoint", required=True)
    sample.add_argument("--count", type=_positive_int, default=10)
    sample.add_argument("--seed", type=_non_negative_int, default=0)
    sample.set_defaults(func=_cmd_sample)

    serve = sub.add_parser(
        "serve", help="micro-batching generation service over TCP"
    )
    serve.add_argument("--checkpoint", required=True)
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=7411,
                       help="TCP port (0 = let the OS pick)")
    serve.add_argument("--max-batch", type=_positive_int, default=64,
                       help="max requests fused into one stacked pass")
    serve.add_argument("--max-queue", type=_positive_int, default=256,
                       help="pending-request bound (backpressure)")
    serve.add_argument("--timeout", type=_positive_float, default=30.0,
                       help="per-request timeout in seconds")
    serve.add_argument("--max-requests", type=_non_negative_int, default=0,
                       help="shut down after N requests (0 = serve forever)")
    serve.add_argument("--ready-file", type=str, default="",
                       help="write 'host port' here once listening")
    serve.set_defaults(func=_cmd_serve)

    stats = sub.add_parser("stats", help="dataset composition statistics")
    stats.add_argument("--dataset", choices=sorted(_DATASETS), required=True)
    stats.add_argument("--samples", type=_positive_int, default=128)
    stats.add_argument("--seed", type=_non_negative_int, default=0)
    stats.set_defaults(func=_cmd_stats)

    drawcmd = sub.add_parser("draw", help="ASCII-draw a model's encoder circuit")
    drawcmd.add_argument("--model", choices=MODEL_CHOICES, default="f-bq-ae")
    drawcmd.add_argument("--patches", type=_positive_int, default=4)
    drawcmd.add_argument("--layers", type=_non_negative_int, default=0)
    drawcmd.add_argument("--columns", type=_positive_int, default=12)
    drawcmd.add_argument("--seed", type=_non_negative_int, default=0)
    drawcmd.set_defaults(func=_cmd_draw)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
