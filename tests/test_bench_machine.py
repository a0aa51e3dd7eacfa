"""The benchmark runners' shared discovery and interleaved pair timing."""

import sys
import types
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import bench_machine  # noqa: E402
import run_kernels  # noqa: E402


class FakeClock:
    """Stands in for ``time.perf_counter``; benchmarks advance it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def fake_module(costs, calls, clock):
    """A module of ``bench_*`` functions; each call of ``name``'s closure
    advances ``clock`` by the next of ``costs[name]`` and logs the name."""
    module = types.ModuleType("fake_benches")
    for name, steps in costs.items():
        setattr(module, name, _bench(name, list(steps), calls, clock))
    return module


def _bench(name, steps, calls, clock):
    def run():
        calls.append(name)
        clock.now += steps.pop(0) if steps else 1.0

    def bench(benchmark):
        return benchmark(run)

    return bench


def test_only_keeps_the_partner_of_each_selected_benchmark():
    names = ["bench_a", "bench_a_c64", "bench_a_naive", "bench_b"]
    module = fake_module({name: [] for name in names}, [], FakeClock())
    assert list(bench_machine.discover(module, "c64", run_kernels.pairs)) \
        == ["bench_a", "bench_a_c64"]
    assert list(bench_machine.discover(module, "bench_b",
                                       run_kernels.pairs)) == ["bench_b"]


def test_pair_sides_alternate_which_runs_first(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(bench_machine.time, "perf_counter", clock)
    calls = []
    module = fake_module({"bench_a": [], "bench_a_naive": [],
                          "bench_b": []}, calls, clock)
    benches = bench_machine.discover(module, None, run_kernels.pairs)
    bench_machine.time_benchmarks(benches, run_kernels.pairs, rounds=3)
    warmups = ["bench_a", "bench_a_naive"]
    rounds = ["bench_a", "bench_a_naive", "bench_a_naive", "bench_a",
              "bench_a", "bench_a_naive"]
    assert calls == warmups + rounds + ["bench_b"] * 4


def test_speedup_is_the_median_of_per_round_ratios(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(bench_machine.time, "perf_counter", clock)
    # The warmup is the first step; the three timed rounds read 2x, 4x
    # and 3x, so their median, not the ratio of minima (2 / 1), is kept.
    costs = {"bench_a": [9.0, 1.0, 1.0, 1.0],
             "bench_a_naive": [9.0, 2.0, 4.0, 3.0]}
    module = fake_module(costs, [], clock)
    benches = bench_machine.discover(module, None, run_kernels.pairs)
    results, ratios = bench_machine.time_benchmarks(
        benches, run_kernels.pairs, rounds=3)
    assert ratios == {("bench_a", "bench_a_naive"): 3.0}
    assert results["bench_a_naive"]["min_s"] == 2.0
    assert results["bench_a"]["rounds"] == 3
