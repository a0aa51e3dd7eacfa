#!/usr/bin/env python3
"""Compiled backward plans: the lower-once/run-many classical tape.

Every training step re-records a structurally identical autodiff tape,
so ``Tensor.backward`` lowers it once into a cached backward program
(``repro.nn.graph``: fused elementwise VJP chains, flattened dispatch,
plan-owned cotangent and GEMM buffers) and replays that program on steps
2+.  Gradients are bit-identical to the interpreted reference walk,
``repro.nn.autodiff.naive_backward_pass`` — the compiler only removes
allocation and dispatch, never changes the math.

This script demonstrates:

1. the plan cache — step 1 is a miss that lowers, steps 2+ are hits
   (``repro.nn.plan_cache_stats()``);
2. bit-identical gradients against the reference walk;
3. the measured per-step win on a deep tanh autoencoder-style MLP,
   timed interleaved (one reference step, one compiled step, repeat)
   so machine drift cannot bias the ratio.

Run:
    python examples/compiled_training.py
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from repro import nn
from repro.nn.autodiff import naive_backward_pass


def compiled(loss):
    loss.backward()


def reference(loss):
    naive_backward_pass(loss, np.ones_like(loss.data))


def build_step(rng):
    """One steady-state train step of a deep tanh hourglass MLP.

    ``step(backward)`` runs the forward pass, hands the scalar loss to
    ``backward`` (``compiled`` or ``reference``), and applies SGD.
    """
    dims = (8, 512, 8, 512, 8, 512, 8)
    batch = 384
    ws = [
        nn.Tensor(rng.normal(size=(a, b)) * 0.3, requires_grad=True)
        for a, b in zip(dims[:-1], dims[1:])
    ]
    bs = [nn.Tensor(np.zeros(b), requires_grad=True) for b in dims[1:]]
    params = ws + bs
    x = nn.Tensor(rng.normal(size=(batch, dims[0])))
    opt = nn.SGD(params, lr=1e-3)

    def step(backward):
        opt.zero_grad(set_to_none=True)
        h = x
        for i, (w, b) in enumerate(zip(ws, bs)):
            h = h @ w + b
            if i < len(ws) - 1:
                h = h.tanh()
        loss = (h * h).sum() * (1.0 / batch)
        backward(loss)
        opt.step()
        return float(loss.data), ws[0].data.copy()

    return step


def main() -> None:
    rounds = int(os.environ.get("ROUNDS", 40))
    step = build_step(np.random.default_rng(0))

    # -- plan cache: one miss to lower, then pure hits ------------------
    nn.clear_plan_cache()
    for _ in range(5):
        step(compiled)
    stats = nn.plan_cache_stats()
    print(f"plan cache after 5 steps: {stats['misses']} miss (lowered once), "
          f"{stats['hits']} hits, {stats['size']} cached plan(s)")

    # -- gradient equivalence: compiled == reference, bitwise -----------
    steps = [build_step(np.random.default_rng(1)) for _ in range(2)]
    loss_ref, w_ref = steps[0](reference)
    loss_com, w_com = steps[1](compiled)
    print(f"first-step loss reference {loss_ref:.12f} vs "
          f"compiled {loss_com:.12f}; updated weights bit-identical: "
          f"{np.array_equal(w_ref, w_com)}")

    # -- the measured win, interleaved ----------------------------------
    step(compiled)  # warm both plan cache and allocator
    step(reference)
    ratios, t_ref, t_com = [], [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        step(reference)
        t1 = time.perf_counter()
        step(compiled)
        t2 = time.perf_counter()
        t_ref.append(t1 - t0)
        t_com.append(t2 - t1)
        ratios.append((t1 - t0) / (t2 - t1))
    print(f"reference walk   {1e3 * statistics.median(t_ref):7.2f} ms/step")
    print(f"compiled plan    {1e3 * statistics.median(t_com):7.2f} ms/step")
    print(f"median speedup   {statistics.median(ratios):7.2f}x "
          f"over {rounds} interleaved rounds")


if __name__ == "__main__":
    main()
