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
        cost = steps.pop(0) if steps else 1.0
        clock.now += cost(clock.now) if callable(cost) else cost

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
    # Each benchmark's shim call, then two warm-up calls of one second
    # each: the second agrees with the first.
    warmups = ["bench_a"] * 3 + ["bench_a_naive"] * 3
    rounds = ["bench_a", "bench_a_naive", "bench_a_naive", "bench_a",
              "bench_a", "bench_a_naive"]
    assert calls == warmups + rounds + ["bench_b"] * 6


def test_speedup_is_the_median_of_per_round_ratios(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(bench_machine.time, "perf_counter", clock)
    # The shim call and the warm-up take the first three steps (the third
    # agrees with the second); the three timed rounds read 2x, 4x and 3x,
    # so their median, not the ratio of minima (2 / 1), is kept.
    costs = {"bench_a": [9.0, 1.0, 1.0, 1.0, 1.0, 1.0],
             "bench_a_naive": [9.0, 3.0, 3.0, 2.0, 4.0, 3.0]}
    module = fake_module(costs, [], clock)
    benches = bench_machine.discover(module, None, run_kernels.pairs)
    results, ratios = bench_machine.time_benchmarks(
        benches, run_kernels.pairs, rounds=3)
    assert ratios == {("bench_a", "bench_a_naive"): 3.0}
    assert results["bench_a_naive"]["min_s"] == 2.0
    assert results["bench_a"]["rounds"] == 3


def test_warm_up_runs_until_the_per_call_time_settles(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(bench_machine.time, "perf_counter", clock)
    calls = []

    # 40 ms a call for the first 100 ms, then 2 ms: the pattern of the
    # 1-5 ms kernels that timed at ~40 ms for their first rounds.
    def cost(now):
        return 0.040 if now < 0.100 else 0.002

    module = fake_module({"bench_a": [cost] * 1000}, calls, clock)
    benches = bench_machine.discover(module, None, run_kernels.pairs)
    results, __ = bench_machine.time_benchmarks(benches, run_kernels.pairs,
                                                rounds=5)
    assert results["bench_a"]["max_s"] < 0.003  # no 40 ms lap
    # The warm-up ran for at least WARMUP_S, not one call.
    assert len(calls) - 5 > bench_machine.WARMUP_S / 0.002 / 2


def test_warm_up_is_capped(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(bench_machine.time, "perf_counter", clock)
    laps = iter([0.001, 0.003] * bench_machine.WARMUP_CALLS)
    assert bench_machine.warm_up(
        lambda: setattr(clock, "now", clock.now + next(laps))
    ) == bench_machine.WARMUP_CALLS
    clock.now = 0.0
    slow = iter([1.5, 0.5, 1.5, 0.5])
    # Calls that never settle stop at WARMUP_MAX_S.
    assert bench_machine.warm_up(
        lambda: setattr(clock, "now", clock.now + next(slow))) == 2
