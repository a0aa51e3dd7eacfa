"""Backward-plan cache counters, kept for tools that still read them.

``Tensor.backward`` walks the recorded tape directly
(:func:`repro.nn.autodiff.backward_pass`); nothing compiles or caches a
backward plan.  :func:`plan_cache_stats` stays importable only because
the end-to-end benchmark's tracer (``perfbench/traced.py``) reads it to
report ``autodiff.plan_hits`` and ``autodiff.plan_misses``.  Nothing in
the ``repro`` package imports this module.
"""

from __future__ import annotations

__all__ = ["plan_cache_stats"]


def plan_cache_stats() -> dict:
    """Plan-cache counters, always zero: there is no plan cache."""
    return {"hits": 0, "misses": 0, "size": 0}
