"""The end-to-end benchmark's span timers still find what they wrap.

``perfbench/spans.py`` looks up functions of the library by name and
rebinds every ``repro`` reference to them, and ``perfbench/traced.py``
imports ``repro.nn.graph.plan_cache_stats``.  A renamed or deleted name
only shows when a ``--trace 1`` run fails, so this runs the same
installation in a fresh interpreter, then one quantum layer and one patched
layer forward and backward, whose engine calls the spans must count.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PROBE = """
import json, sys
sys.path.insert(0, {perfbench!r})
import numpy as np
import repro.cli, repro.experiments.run, repro.serving
from spans import Tracer, install
tracer = Tracer()
install(tracer)
from repro.nn.graph import plan_cache_stats
from repro.nn import Tensor
from repro.qnn import PatchedQuantumLayer, QuantumLayer, amplitude_encoder_circuit
rng = np.random.default_rng(0)
single = QuantumLayer(amplitude_encoder_circuit(2, 4, 1), rng=rng)
patched = PatchedQuantumLayer(amplitude_encoder_circuit(2, 4, 1), 3, rng=rng)
single(Tensor(np.ones((5, 4)))).sum().backward()
patched(Tensor(np.ones((2, 12)))).sum().backward()
print(json.dumps({{"plan_cache": plan_cache_stats(),
                  "counters": tracer.report()["counters"]}}))
"""


def test_spans_install_and_time_every_quantum_call():
    result = subprocess.run(
        [sys.executable, "-c", PROBE.format(perfbench=str(PERFBENCH))],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.strip().splitlines()[-1])
    assert report["plan_cache"] == {"hits": 0, "misses": 0, "size": 0}
    counters = report["counters"]
    assert counters["quantum.fwd_calls"] == 2
    assert counters["quantum.fwd_rows"] == 5 + 3 * 2
    assert counters["quantum.bwd_calls"] == 2
    assert counters["autodiff.backward_calls"] == 2
