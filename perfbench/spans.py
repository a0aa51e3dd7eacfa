"""Span timers installed around each layer's public functions.

The benchmark changes nothing under ``src/``.  :func:`install` rebinds
each layer's public functions to timing wrappers everywhere a loaded
``repro`` module holds them (module globals, and tuples inside module
dicts such as the CLI's dataset table), and wraps the methods on their
classes, so the program's own call sites go through the wrappers.

Spans are kept per thread on a stack.  A span's self time is its
duration minus the time covered by the spans nested inside it, so the
layers' self times never count a second twice; they are summed per
layer in memory and written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    """Per-layer self seconds and counters for one process."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.data_keys: set = set()
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, layer: str, fn, count=None):
        """``fn`` timed as a span of ``layer``.

        ``count(tracer, outermost, args, kwargs, result)`` runs after the
        call; ``outermost`` is False when the call is nested inside
        another span of the same layer, so work is counted once.
        """
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            outermost = all(frame[0] != layer for frame in stack)
            frame = [layer, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                with tracer._lock:
                    tracer.self_s[layer] += duration - frame[1]
            if count is not None:
                count(tracer, outermost, args, kwargs, result)
            return result

        return timed

    def report(self) -> dict:
        return {"self_s": dict(self.self_s), "counters": dict(self.counters)}


def rebind(original, replacement, prefix: str = "repro") -> int:
    """Point every reference a loaded ``prefix`` module holds at ``replacement``."""
    swapped = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if value is original:
                namespace[key] = replacement
                swapped += 1
            elif isinstance(value, dict):
                for item_key, item in list(value.items()):
                    if isinstance(item, tuple) and any(x is original for x in item):
                        value[item_key] = tuple(
                            replacement if x is original else x for x in item
                        )
                        swapped += 1
    return swapped


def _wrap_function(tracer, module, name, layer, count=None, prefix="repro"):
    original = getattr(module, name)
    if rebind(original, tracer.wrap(layer, original, count), prefix) == 0:
        raise RuntimeError(f"no call site holds {module.__name__}.{name}")


def _wrap_method(tracer, cls, name, layer, count=None):
    setattr(cls, name, tracer.wrap(layer, cls.__dict__[name], count))


def _argument(fn, name, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# ----------------------------------------------------------------------
# Counters, one per instrumented boundary
# ----------------------------------------------------------------------
def _data_counter(loader):
    def count(tracer, outermost, args, kwargs, result):
        key = (loader.__name__, _argument(loader, "n_samples", args, kwargs),
               _argument(loader, "seed", args, kwargs))
        tracer.add("data.calls")
        tracer.add("data.rows", len(result))
        with tracer._lock:
            repeat = key in tracer.data_keys
            tracer.data_keys.add(key)
        if repeat:
            tracer.add("data.repeat_calls")
    return count


def _fit_counter(tracer, outermost, args, kwargs, result):
    train_data = args[1] if len(args) > 1 else kwargs["train_data"]
    tracer.add("training.fits")
    tracer.add("training.samples", len(train_data) * len(result.epochs))


def _forward_counter(stacked):
    def count(tracer, outermost, args, kwargs, result):
        inputs = args[1] if len(args) > 1 else kwargs.get("inputs")
        if inputs is None:
            weights = args[2] if len(args) > 2 else kwargs["weights"]
            rows = weights.shape[0] if stacked else 1
        else:
            rows = inputs.shape[0] * (inputs.shape[1] if stacked else 1)
        tracer.add("quantum.fwd_calls")
        tracer.add("quantum.fwd_rows", rows)
    return count


def _backward_counter(tracer, outermost, args, kwargs, result):
    tracer.add("quantum.bwd_calls")


def _tensor_backward_counter(tracer, outermost, args, kwargs, result):
    tracer.add("autodiff.backward_calls")


def _optim_counter(tracer, outermost, args, kwargs, result):
    optimizer = args[0]
    tracer.add("optim.steps")
    tracer.add("optim.param_elems",
               sum(param.data.size for param in optimizer.parameters()))


def _decode_counter(rows):
    def count(tracer, outermost, args, kwargs, result):
        if outermost:
            tracer.add("evaluation.decode_rows", rows(args, kwargs))
    return count


def _sanitize_counter(tracer, outermost, args, kwargs, result):
    tracer.add("chem.molecules", len(result))
    tracer.add("chem.usable", sum(1 for mol in result if mol.num_atoms))


def install(tracer: Tracer) -> None:
    """Wrap every instrumented boundary of the loaded ``repro`` modules.

    Import the entry point (and ``repro.serving`` for the server) first:
    only modules already loaded are rebound.
    """
    import repro.chem
    import repro.chem.batch as chem_batch
    import repro.chem.metrics as chem_metrics
    import repro.chem.sa as chem_sa
    import repro.data
    import repro.evaluation.sampling as sampling
    import repro.qnn.patched as patched
    import repro.qnn.qlayer as qlayer
    from repro.nn.optim import Optimizer
    from repro.nn.tensor import Tensor
    from repro.training import Trainer

    for name in ("load_pdbbind_ligands", "load_qm9", "load_digits",
                 "load_cifar_gray"):
        loader = getattr(repro.data, name)
        _wrap_function(tracer, repro.data, name, "data", _data_counter(loader))

    _wrap_method(tracer, Trainer, "fit", "training", _fit_counter)

    # Quantum kernels are timed at their repro.qnn call sites only.
    _wrap_function(tracer, qlayer, "q_execute", "quantum.fwd",
                   _forward_counter(stacked=False), prefix="repro.qnn")
    _wrap_function(tracer, patched, "execute_stacked", "quantum.fwd",
                   _forward_counter(stacked=True), prefix="repro.qnn")
    _wrap_function(tracer, qlayer, "q_backward", "quantum.bwd",
                   _backward_counter, prefix="repro.qnn")
    _wrap_function(tracer, patched, "backward_stacked", "quantum.bwd",
                   _backward_counter, prefix="repro.qnn")

    _wrap_method(tracer, Tensor, "backward", "autodiff",
                 _tensor_backward_counter)

    pending = [Optimizer]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "step" in cls.__dict__:
            _wrap_method(tracer, cls, "step", "optim", _optim_counter)

    for name in ("sample_matrices", "sample_batch"):
        fn = getattr(sampling, name)
        _wrap_function(tracer, sampling, name, "evaluation", _decode_counter(
            lambda a, k, fn=fn: _argument(fn, "n_samples", a, k)))
    decode = sampling.decode_latents
    _wrap_function(tracer, sampling, "decode_latents", "evaluation",
                   _decode_counter(lambda a, k: _argument(
                       decode, "latents", a, k).shape[0]))

    # Every set-level scorer defined in these modules (re-exports are
    # skipped by the __module__ test, so each is wrapped once).
    for module in (chem_batch, chem_metrics):
        for name, fn in list(vars(module).items()):
            if (name.endswith("_batch") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                count = _sanitize_counter if name == "sanitize_batch" else None
                _wrap_function(tracer, module, name, "chem", count)
    _wrap_function(tracer, chem_metrics, "score_matrices", "chem")
    _wrap_function(tracer, repro.chem, "to_smiles", "chem")
    # Building the SA fragment table generates reference molecules: chem
    # work every ``sample`` and SA scorer pays once per process.
    _wrap_function(tracer, chem_sa, "default_fragment_table", "chem")
    serving = sys.modules.get("repro.serving.service")
    if serving is not None:
        _wrap_function(tracer, serving, "per_molecule_scores", "chem")
