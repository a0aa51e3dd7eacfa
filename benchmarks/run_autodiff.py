"""Autodiff-regression runner: time the compiled tape plan vs its reference.

``Tensor.backward`` runs a cached ``GraphPlan`` (:mod:`repro.nn.graph`):
the recorded tape lowered once into a flat program with fused elementwise
runs, plan-owned cotangent/edge/temp buffers, and matmul ``out=`` edges.
This runner times the same training step with its backward on that plan
and on the interpreted reference walk
(:func:`repro.nn.autodiff.naive_backward_pass`), derives
compiled-vs-tape speedups, and writes everything to ``BENCH_autodiff.json``
at the repo root — the file future PRs diff against.

Pairs are timed *interleaved*: each round runs the reference step then the
compiled step back to back, and the reported speedup is the median of the
per-round ratios.  Adjacent steps see the same machine state, so the ratio
is insensitive to the CPU-frequency drift that makes two separately-timed
minima incomparable on shared runners.  The ratios land in
``speedup_compiled_vs_tape`` and carry real multiples in
:data:`COMPILED_FLOORS` — the compiler exists to win, not to break even —
on three workloads: a deep tanh MLP, a long elementwise chain, and a hybrid
train step (patched quantum amplitude encoder feeding a deep classical
decoder, the MolQAE-style shape).

Alongside the pairs it records two absolute timings with no baseline: the
full SQ-AE hybrid train step (the number that matters end to end; quantum
statevector work dominates it, so it is tracked absolute rather than
floored against the compiler) and a Hessian-vector product on an MLP (the
higher-order capability of the tape).

Each payload is stamped with the git commit it was generated at plus the
CPU count, BLAS vendor and BLAS thread count (floors are only meaningful
on comparable machines), and ``--check`` turns the runner into a
perf-regression gate: it fails (exit 1) when any measured compiled-vs-tape
speedup drops below its floor in :data:`COMPILED_FLOORS`.

Usage::

    PYTHONPATH=src python benchmarks/run_autodiff.py [--only SUBSTR]
        [--rounds N] [--output PATH] [--check]
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from bench_machine import machine_stamp  # noqa: E402
from repro.nn.autodiff import naive_backward_pass  # noqa: E402

# Floors asserted by --check: the plan compiler must deliver a real
# multiple over the walk it caches.  Set from measured medians (~1.39x /
# ~1.76x / ~1.40x on the reference 1-core OpenBLAS runner) with margin for
# scheduler noise.  The hybrid
# floor is the lowest: the quantum encoder's statevector passes run as
# one opaque VJP node on both sides of the ratio and dilute the classical
# win the compiler is responsible for.
COMPILED_FLOORS = {
    "bench_compiled_mlp_fwd_bwd": 1.3,
    "bench_compiled_elementwise_chain": 1.3,
    "bench_compiled_hybrid_train_step": 1.15,
}


def git_commit() -> str | None:
    """The commit the benchmarked tree is based on, or None outside git.

    Suffixed with ``-dirty`` when the working tree has uncommitted changes,
    so BENCH_autodiff.json never attributes numbers measured on modified
    code to a clean commit.
    """
    def _git(*args):
        try:
            proc = subprocess.run(
                ["git", *args],
                cwd=REPO_ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout if proc.returncode == 0 else None

    head = _git("rev-parse", "HEAD")
    if head is None:
        return None
    status = _git("status", "--porcelain")
    dirty = "-dirty" if status is None or status.strip() else ""
    return head.strip() + dirty


class TimerShim:
    """Duck-types the pytest-benchmark fixture: ``benchmark(fn)`` times
    min/mean over ``rounds`` calls after one warmup (the warmup also absorbs
    one-time work like quantum plan compilation)."""

    def __init__(self, rounds: int):
        self.rounds = rounds
        self.stats: dict[str, float] | None = None

    def __call__(self, fn):
        result = fn()  # warmup
        times = []
        for _ in range(self.rounds):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
        self.stats = {
            "min_s": min(times),
            "mean_s": sum(times) / len(times),
            "max_s": max(times),
            "rounds": self.rounds,
        }
        return result


def _stats(times: list) -> dict:
    return {
        "min_s": min(times),
        "mean_s": sum(times) / len(times),
        "max_s": max(times),
        "rounds": len(times),
    }


# ----------------------------------------------------------------------
# Compiled-vs-tape workloads: one training step timed with its backward
# on the reference walk and on the cached plan, interleaved.  Shapes are
# chosen where the compiler's levers actually engage — wide tanh
# activations (fused runs + staged kernel temps), narrow/wide matmul edges
# (``out=`` GEMM into plan-owned buffers) — because bit-identity forbids
# the compiler from changing the math, so all of its win is allocation and
# dispatch.  Each builder returns ``step(backward)``, where ``backward``
# runs the scalar loss's backward pass.
# ----------------------------------------------------------------------

_CMLP_DIMS = (8, 512, 8, 512, 8, 512, 8)  # tanh hourglass
_CMLP_BATCH = 384
_CCHAIN_SHAPE = (256, 256)
_CCHAIN_DEPTH = 20


def _compiled_mlp_step():
    rng = np.random.default_rng(5)
    from repro.nn.tensor import Tensor

    ws = [
        Tensor(rng.normal(size=(a, b)) * 0.3, requires_grad=True)
        for a, b in zip(_CMLP_DIMS[:-1], _CMLP_DIMS[1:])
    ]
    bs = [
        Tensor(np.zeros(b), requires_grad=True) for b in _CMLP_DIMS[1:]
    ]
    params = ws + bs
    x = Tensor(rng.normal(size=(_CMLP_BATCH, _CMLP_DIMS[0])))
    scale = 1.0 / _CMLP_BATCH

    def step(backward):
        h = x
        for i, (w, b) in enumerate(zip(ws, bs)):
            h = h @ w + b
            if i < len(ws) - 1:
                h = h.tanh()
        loss = (h * h).sum() * scale
        backward(loss)
        grad = ws[0].grad
        for p in params:
            p.grad = None
        return grad

    return step


def _compiled_chain_step():
    rng = np.random.default_rng(6)
    from repro.nn.tensor import Tensor

    t0 = Tensor(rng.normal(size=_CCHAIN_SHAPE), requires_grad=True)

    def step(backward):
        t = t0
        for _ in range(_CCHAIN_DEPTH):
            t = (t * 0.98).tanh()
        backward(t.sum())
        grad = t0.grad
        t0.grad = None
        return grad

    return step


def _compiled_hybrid_step():
    """Hybrid train step shaped like MolQAE-style training: a patched
    quantum amplitude encoder (small statevectors) feeding a deep
    classical tanh decoder, MSE + SGD.  The quantum forward/adjoint is an
    opaque VJP node on both sides; the compiler's win comes from the
    classical decoder's backward."""
    from repro.nn import SGD, Linear, Sequential, Tanh
    from repro.nn.functional import mse_loss
    from repro.nn.modules import Module
    from repro.nn.tensor import Tensor
    from repro.qnn.circuits import amplitude_encoder_circuit
    from repro.qnn.patched import PatchedQuantumLayer, patch_qubits

    rng = np.random.default_rng(7)
    input_dim, n_patches, n_layers, batch, hidden = 16, 2, 1, 384, 512
    qubits = patch_qubits(input_dim, n_patches)
    latent = n_patches * qubits

    class HybridNet(Module):
        def __init__(self):
            super().__init__()
            self.encoder = PatchedQuantumLayer(
                lambda i: amplitude_encoder_circuit(
                    qubits, input_dim // n_patches, n_layers,
                    zero_fallback=True,
                ),
                n_patches=n_patches,
                rng=rng,
            )
            self.decoder = Sequential(
                Linear(latent, hidden, rng=rng), Tanh(),
                Linear(hidden, 8, rng=rng), Tanh(),
                Linear(8, hidden, rng=rng), Tanh(),
                Linear(hidden, input_dim, rng=rng),
            )

        def forward(self, x):
            return self.decoder(self.encoder(x))

    model = HybridNet()
    optimizer = SGD(model.parameters(), lr=0.001)
    x = Tensor(rng.normal(size=(batch, input_dim)))

    def step(backward):
        optimizer.zero_grad(set_to_none=True)
        loss = mse_loss(model(x), x)
        backward(loss)
        optimizer.step()
        return loss.data

    return step


COMPILED_BENCHES = {
    "bench_compiled_mlp_fwd_bwd": _compiled_mlp_step,
    "bench_compiled_elementwise_chain": _compiled_chain_step,
    "bench_compiled_hybrid_train_step": _compiled_hybrid_step,
}


def _compiled_backward(loss):
    loss.backward()


def _reference_backward(loss):
    naive_backward_pass(loss, np.ones_like(loss.data))


def run_compiled_pair(builder, rounds: int):
    """Time one workload interleaved: reference walk, then compiled plan.

    Returns ``(tape_stats, compiled_stats, median_ratio)`` where the
    ratio is tape-time / compiled-time per round, the drift-insensitive
    speedup the floors gate on.
    """
    step = builder()
    # Warm up both sides; the compiled one also populates the plan cache.
    step(_compiled_backward)
    step(_reference_backward)
    tape_times, compiled_times, ratios = [], [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        step(_reference_backward)
        t1 = time.perf_counter()
        step(_compiled_backward)
        t2 = time.perf_counter()
        tape_times.append(t1 - t0)
        compiled_times.append(t2 - t1)
        ratios.append((t1 - t0) / (t2 - t1))
    return (
        _stats(tape_times),
        _stats(compiled_times),
        statistics.median(ratios),
    )


# ----------------------------------------------------------------------
# Absolute timings (no pair): the end-to-end hybrid train step, and the
# tape's higher-order capability.
# ----------------------------------------------------------------------

_MLP_DIMS = (128, 256, 64)  # in -> hidden -> out
_MLP_BATCH = 64


def bench_hybrid_train_step(benchmark):
    """Full SQ-AE train step: forward, MSE, tape backward through the
    stacked quantum adjoints, SGD update."""
    from repro.models.scalable import ScalableQuantumAE
    from repro.nn.functional import mse_loss
    from repro.nn.optim import SGD
    from repro.nn.tensor import Tensor

    rng = np.random.default_rng(2)
    model = ScalableQuantumAE(
        input_dim=64, n_patches=2, n_layers=1, rng=np.random.default_rng(3)
    )
    optimizer = SGD(model.parameters(), lr=0.01)
    x = Tensor(rng.normal(size=(8, 64)))

    def step():
        optimizer.zero_grad()
        loss = mse_loss(model(x).reconstruction, x)
        loss.backward()
        optimizer.step()
        return loss.data

    benchmark(step)


def bench_hvp_mlp(benchmark):
    """Hessian-vector product through an MLP — grad-of-grad on the tape."""
    from repro.nn import Tensor, hvp

    rng = np.random.default_rng(4)
    d_in, d_hidden, d_out = _MLP_DIMS
    x = Tensor(rng.normal(size=(_MLP_BATCH, d_in)))
    y = Tensor(rng.normal(size=(_MLP_BATCH, d_out)))
    w1 = Tensor(rng.normal(size=(d_in, d_hidden)) * 0.1, requires_grad=True)
    w2 = Tensor(rng.normal(size=(d_hidden, d_out)) * 0.1, requires_grad=True)
    v1 = rng.normal(size=w1.shape)
    v2 = rng.normal(size=w2.shape)
    scale = 1.0 / (_MLP_BATCH * d_out)

    def step():
        pred = (x @ w1).relu() @ w2
        loss = ((pred - y) ** 2).sum() * scale
        h1, h2 = hvp(loss, [w1, w2], [v1, v2])
        return h1.data

    benchmark(step)


def discover(only: str | None):
    module = sys.modules[__name__]
    benches = []
    for name, fn in inspect.getmembers(module, inspect.isfunction):
        if not name.startswith("bench_"):
            continue
        if only and only not in name:
            continue
        params = inspect.signature(fn).parameters
        if list(params) != ["benchmark"]:
            continue
        benches.append((name, fn))
    return sorted(benches)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", help="substring filter on benchmark names")
    parser.add_argument("--rounds", type=int, default=30,
                        help="timed rounds per benchmark (default 30)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_autodiff.json")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any measured speedup falls below its "
                             "floor in COMPILED_FLOORS")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    results: dict[str, dict] = {}
    measured_compiled: dict[str, float] = {}
    ran = 0
    for name, builder in sorted(COMPILED_BENCHES.items()):
        if args.only and args.only not in name:
            continue
        tape_stats, compiled_stats, ratio = run_compiled_pair(
            builder, args.rounds
        )
        results[name] = compiled_stats
        results[name + "_tape"] = tape_stats
        measured_compiled[name] = round(ratio, 3)
        ran += 1
        print(f"{name:44s} min {compiled_stats['min_s'] * 1e3:10.3f} ms  "
              f"vs tape    {tape_stats['min_s'] * 1e3:10.3f} ms  "
              f"median ratio {ratio:6.3f}x", file=sys.stderr)

    for name, fn in discover(args.only):
        shim = TimerShim(args.rounds)
        fn(shim)
        results[name] = shim.stats
        ran += 1
        print(f"{name:44s} min {shim.stats['min_s'] * 1e3:10.3f} ms  "
              f"mean {shim.stats['mean_s'] * 1e3:10.3f} ms", file=sys.stderr)

    if not ran:
        print(f"no benchmarks match --only {args.only!r}; not writing output",
              file=sys.stderr)
        return 1

    payload = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_commit": git_commit(),
        **machine_stamp(),
        "rounds": args.rounds,
        "benchmarks": results,
        "speedup_compiled_vs_tape": measured_compiled,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}", file=sys.stderr)

    if args.check:
        for name in sorted(set(COMPILED_FLOORS) - set(measured_compiled)):
            print(f"warning: floored benchmark {name} was not measured "
                  f"(filtered by --only?)", file=sys.stderr)
        checked = 0
        failures = []
        for name, floor in sorted(COMPILED_FLOORS.items()):
            if name not in measured_compiled:
                continue
            checked += 1
            if measured_compiled[name] < floor:
                failures.append((name, measured_compiled[name], floor))
        for name, got, floor in failures:
            print(f"REGRESSION {name}: compiled-vs-tape speedup {got:.2f}x "
                  f"below floor {floor:.2f}x", file=sys.stderr)
        if failures:
            return 1
        if not checked:
            print("--check measured no floored benchmark; refusing to pass "
                  "an empty gate", file=sys.stderr)
            return 1
        print(f"--check ok: {checked} speedup floor(s) held",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
