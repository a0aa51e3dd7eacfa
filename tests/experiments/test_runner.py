"""Tests for the experiment runner: the process pool and its arguments."""

import io
import multiprocessing
import os
import re
from contextlib import redirect_stdout

import pytest

from repro.experiments import run

NAMES = ["fig4", "table1"]
HEADER_SECONDS = re.compile(r"^(=== \w+) \([\d.]+s\) ===$", re.MULTILINE)


def _printed(names, workers):
    """What ``run._run`` prints, with the header timings stripped."""
    out = io.StringIO()
    with redirect_stdout(out):
        run._run(names, 0, workers)
    return HEADER_SECONDS.sub(r"\1 ===", out.getvalue())


@pytest.fixture(scope="module")
def pooled():
    """One pooled run of two cheap experiments, with the environment
    before and after it."""
    before = dict(os.environ)
    text = _printed(NAMES, workers=2)
    return text, before, dict(os.environ)


class TestPool:
    def test_pooled_output_equals_in_process(self, pooled):
        text, __, __ = pooled
        assert text == _printed(NAMES, workers=1)
        assert text.index("=== fig4 ===") < text.index("=== table1 ===")

    def test_environment_unchanged_after_the_pool(self, pooled):
        __, before, after = pooled
        assert after == before

    def test_panels_print_inside_their_experiment_block(self, pooled):
        text, __, __ = pooled
        fig4 = text[text.index("=== fig4 ==="):text.index("=== table1 ===")]
        assert "--- digit_panel ---" in fig4
        assert "--- molecule_panel ---" in fig4

    def test_single_worker_runs_in_this_process(self, monkeypatch, capsys):
        def no_pool():
            raise AssertionError("the in-process path pinned BLAS for a pool")

        monkeypatch.setattr(run, "_single_threaded_blas", no_pool)
        run._run(["table1"], 0, workers=1)
        assert capsys.readouterr().out.startswith("\n=== table1 (")

    def test_block_header_keeps_the_timed_form(self):
        # perfbench/run.py times each experiment off this header line.
        header = run._block("table1", 0).splitlines()[1]
        assert HEADER_SECONDS.fullmatch(header)

    def test_spawned_workers_start_with_one_blas_thread(self):
        from concurrent.futures import ProcessPoolExecutor

        with run._single_threaded_blas(), ProcessPoolExecutor(
            1, mp_context=multiprocessing.get_context("spawn")
        ) as pool:
            seen = list(pool.map(os.getenv, run._BLAS_THREAD_VARIABLES))
        assert seen == ["1", "1", "1"]

    def test_blas_pinning_restores_set_and_unset_variables(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        with run._single_threaded_blas():
            assert [os.environ[name] for name in run._BLAS_THREAD_VARIABLES] \
                == ["1", "1", "1"]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
        assert "OMP_NUM_THREADS" not in os.environ
        assert "MKL_NUM_THREADS" not in os.environ

    def test_blas_pinning_restored_when_the_body_raises(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        with pytest.raises(RuntimeError, match="inside"):
            with run._single_threaded_blas():
                raise RuntimeError("inside")
        assert os.environ["OMP_NUM_THREADS"] == "4"

    def test_worker_failure_cancels_terminates_and_propagates(self, capsys):
        # The unknown name fails its lookup inside a worker while fig5 is
        # still running in the other one: the KeyError must reach the
        # caller with the worker's traceback, fig5's block must never be
        # printed, and no worker may outlive the call.
        with pytest.raises(KeyError, match="nonsense") as excinfo:
            run._run(["fig5", "nonsense"], 0, workers=2)
        assert "Traceback" in str(excinfo.value.__cause__)
        assert capsys.readouterr().out == ""
        assert multiprocessing.active_children() == []


class TestMain:
    @pytest.mark.parametrize("argv, affinity, workers", [
        (["all"], {0}, 1),
        (["all"], {0, 1, 2}, 3),
        (["all"], set(range(64)), 7),
        (["fig4"], {0, 1}, 1),
    ])
    def test_pool_size_follows_cpu_affinity(self, argv, affinity, workers,
                                           monkeypatch):
        calls = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(run, "_run", lambda *args: calls.append(args))
        assert run.main(argv) == 0
        (names, seed, got), = calls
        assert got == workers
        assert names == (sorted(run.EXPERIMENTS) if argv == ["all"] else argv)

    def test_seed_reaches_the_experiments(self, monkeypatch):
        calls = []
        monkeypatch.setattr(run, "_run", lambda *args: calls.append(args))
        assert run.main(["fig4", "--seed", "5"]) == 0
        assert calls == [(["fig4"], 5, 1)]

    @pytest.mark.parametrize("experiment", ["fig4", "all"])
    def test_negative_seed_rejected_naming_the_flag(self, experiment, capsys):
        with pytest.raises(SystemExit):
            run.main([experiment, "--seed", "-1"])
        err = capsys.readouterr().err
        assert "argument --seed" in err
        assert "expected a non-negative integer" in err

    def test_non_integer_seed_rejected_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit):
            run.main(["fig4", "--seed", "abc"])
        err = capsys.readouterr().err
        assert "argument --seed" in err
        assert "expected a non-negative integer, got 'abc'" in err

    def test_unknown_experiment_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run.main(["fig9"])
        assert "invalid choice: 'fig9'" in capsys.readouterr().err
