"""Tests for the top-level command-line interface."""

import argparse

import numpy as np
import pytest

from repro.cli import (
    _non_negative_float, _non_negative_int, _port, _positive_float, main,
)


class TestTrain:
    def test_train_classical_vae(self, tmp_path, capsys):
        out = tmp_path / "vae.npz"
        code = main([
            "train", "--model", "vae", "--dataset", "qm9",
            "--samples", "32", "--epochs", "1", "--batch-size", "16",
            "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        output = capsys.readouterr().out
        assert "epoch 1" in output and "checkpoint written" in output

    def test_train_sq_ae_without_checkpoint(self, capsys):
        code = main([
            "train", "--model", "sq-ae", "--dataset", "qm9",
            "--samples", "24", "--epochs", "1", "--batch-size", "16",
            "--patches", "2", "--layers", "1",
        ])
        assert code == 0
        assert "checkpoint" not in capsys.readouterr().out

    def test_train_fbq_with_normalize(self, capsys):
        code = main([
            "train", "--model", "f-bq-vae", "--dataset", "qm9",
            "--samples", "24", "--epochs", "1", "--batch-size", "16",
            "--layers", "1", "--normalize",
        ])
        assert code == 0

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["train", "--model", "gan", "--dataset", "qm9"])


class TestSample:
    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "vae.npz"
        main([
            "train", "--model", "vae", "--dataset", "qm9",
            "--samples", "48", "--epochs", "3", "--batch-size", "16",
            "--warm-start-bias", "--out", str(path),
        ])
        return path

    def test_sample_prints_molecules(self, checkpoint, capsys):
        code = main(["sample", "--checkpoint", str(checkpoint),
                     "--count", "5"])
        assert code == 0
        output = capsys.readouterr().out
        assert "QED" in output
        assert "samples decoded" in output

    def test_sample_is_seeded(self, checkpoint, capsys):
        main(["sample", "--checkpoint", str(checkpoint), "--count", "3",
              "--seed", "5"])
        first = capsys.readouterr().out
        main(["sample", "--checkpoint", str(checkpoint), "--count", "3",
              "--seed", "5"])
        second = capsys.readouterr().out
        assert first == second

    def test_missing_checkpoint_names_resolved_path(self, tmp_path):
        missing = tmp_path / "nope.npz"
        with pytest.raises(SystemExit, match=f"checkpoint not found: {missing}"):
            main(["sample", "--checkpoint", str(missing)])

    def test_missing_checkpoint_bare_name_resolves_npz(self, tmp_path):
        # A bare name falls back to the .npz-suffixed form; the error must
        # name the path that was actually probed.
        bare = tmp_path / "nope"
        with pytest.raises(SystemExit, match=f"checkpoint not found: {bare}.npz"):
            main(["sample", "--checkpoint", str(bare)])

    def test_bare_checkpoint_name_loads_npz_file(self, checkpoint, capsys):
        bare = str(checkpoint)[: -len(".npz")]
        assert main(["sample", "--checkpoint", bare, "--count", "2"]) == 0
        assert "samples decoded" in capsys.readouterr().out

    def test_vanilla_ae_cannot_sample(self, tmp_path, capsys):
        path = tmp_path / "ae.npz"
        main(["train", "--model", "ae", "--dataset", "qm9", "--samples", "24",
              "--epochs", "1", "--batch-size", "16", "--out", str(path)])
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["sample", "--checkpoint", str(path)])

    def test_all_empty_decode_reports_cleanly(self, checkpoint, capsys,
                                              monkeypatch):
        # An undertrained model can decode every draw to an empty molecule;
        # that used to crash the scorers mid-table.  Now: clean 0/N, exit 0.
        import repro.cli as cli
        from repro.chem.batch import MoleculeBatch

        monkeypatch.setattr(
            cli, "sample_batch",
            lambda model, n, rng: MoleculeBatch.from_matrices(
                np.zeros((n, 8, 8))
            ),
        )
        code = main(["sample", "--checkpoint", str(checkpoint),
                     "--count", "7"])
        assert code == 0
        output = capsys.readouterr().out
        assert "0/7 samples decoded to usable molecules" in output
        assert "QED" not in output  # no orphaned table header


class TestCheckpointRoundTrip:
    def test_float32_training_round_trips_through_sample(self, tmp_path,
                                                         capsys,
                                                         recwarn):
        from repro.nn.serialization import read_checkpoint_metadata

        path = tmp_path / "vae32.npz"
        assert main([
            "train", "--model", "vae", "--dataset", "qm9", "--samples", "32",
            "--epochs", "1", "--batch-size", "16", "--precision", "float32",
            "--warm-start-bias", "--out", str(path),
        ]) == 0
        meta = read_checkpoint_metadata(path)
        assert meta["precision"] == "float32"
        assert "backend" not in meta
        # Sampling rebuilds the module at the recorded dtype, so the
        # width-mismatch warning must not fire.
        assert main(["sample", "--checkpoint", str(path), "--count", "3"]) == 0
        assert not [w for w in recwarn
                    if "parameters but the module was built"
                    in str(w.message)]
        capsys.readouterr()

    def test_recorded_backend_key_is_ignored_by_sample(self, tmp_path,
                                                      capsys):
        # Older checkpoints may record the kernel backend they trained on;
        # sampling them prints exactly what the same weights print without
        # the key.
        from repro.models import build_from_metadata
        from repro.nn.serialization import (
            load_module,
            read_checkpoint_metadata,
            save_module,
        )

        plain = tmp_path / "sq.npz"
        assert main([
            "train", "--model", "sq-vae", "--dataset", "qm9", "--samples",
            "24", "--epochs", "1", "--batch-size", "16", "--patches", "4",
            "--layers", "1", "--warm-start-bias", "--out", str(plain),
        ]) == 0
        meta = read_checkpoint_metadata(plain)
        model = build_from_metadata(meta)
        load_module(model, plain)
        old = save_module(model, tmp_path / "old",
                          metadata={**meta, "backend": "threaded"})
        capsys.readouterr()
        printed = []
        for path in (plain, old):
            assert main(["sample", "--checkpoint", str(path), "--count", "8",
                         "--seed", "3"]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[1] == printed[0]
        assert "samples decoded to usable molecules" in printed[0]

    def test_mismatched_manual_rebuild_warns(self, tmp_path):
        # Loading a float32 checkpoint into a float64-built module is the
        # legacy failure mode; it now names both dtypes.
        from repro.models import build_model
        from repro.nn.serialization import load_module, save_module

        source = build_model("vae", 64, 4, 3, 6, 0, dtype="float32")
        path = save_module(source, tmp_path / "w32")
        wide = build_model("vae", 64, 4, 3, 6, 1)
        with pytest.warns(UserWarning, match=r"float32 parameters but the "
                                             r"module was built float64"):
            load_module(wide, path)


class TestServe:
    def test_serve_answers_over_tcp_then_exits(self, tmp_path, capsys):
        import threading
        import time

        from repro.serving import NetworkClient

        ckpt = tmp_path / "vae.npz"
        main(["train", "--model", "vae", "--dataset", "qm9", "--samples",
              "32", "--epochs", "1", "--batch-size", "16",
              "--out", str(ckpt)])
        capsys.readouterr()

        ready = tmp_path / "ready.txt"
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(main([
                "serve", "--checkpoint", str(ckpt), "--port", "0",
                "--max-requests", "4", "--ready-file", str(ready),
            ])),
            daemon=True,
        )
        thread.start()
        deadline = time.monotonic() + 30.0
        while not ready.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        host, port = ready.read_text().split()

        with NetworkClient(host, int(port)) as client:
            assert client.ping()
            matrices = client.sample(3, seed=1)
            assert matrices.shape == (3, 8, 8)
            assert client.stats()["batcher"]["requests"] >= 1
            client.ping()  # 4th request spends the lifetime budget
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert codes == [0]
        assert "serving" in capsys.readouterr().out

    def test_serve_missing_checkpoint_exits_cleanly(self, tmp_path):
        missing = tmp_path / "gone.npz"
        with pytest.raises(SystemExit,
                           match=f"checkpoint not found: {missing}"):
            main(["serve", "--checkpoint", str(missing), "--port", "0"])


class TestFlagValidation:
    """Non-positive numeric flags exit with a message naming the flag."""

    @pytest.mark.parametrize("argv, flag", [
        (["train", "--model", "vae", "--dataset", "qm9",
          "--samples", "0"], "--samples"),
        (["train", "--model", "vae", "--dataset", "qm9",
          "--epochs", "-3"], "--epochs"),
        (["train", "--model", "vae", "--dataset", "qm9",
          "--batch-size", "0"], "--batch-size"),
        (["train", "--model", "vae", "--dataset", "qm9",
          "--patches", "-1"], "--patches"),
        (["train", "--model", "vae", "--dataset", "qm9",
          "--latent", "0"], "--latent"),
        (["sample", "--checkpoint", "x.npz", "--count", "0"], "--count"),
        (["sample", "--checkpoint", "x.npz", "--count", "two"], "--count"),
        (["stats", "--dataset", "qm9", "--samples", "-5"], "--samples"),
        (["draw", "--model", "sq-ae", "--patches", "0"], "--patches"),
        (["serve", "--checkpoint", "x.npz", "--max-batch", "0"],
         "--max-batch"),
        (["serve", "--checkpoint", "x.npz", "--timeout", "nan"],
         "--timeout"),
        (["serve", "--checkpoint", "x.npz", "--timeout", "inf"],
         "--timeout"),
    ])
    def test_rejected_with_flag_named(self, argv, flag, capsys):
        with pytest.raises(SystemExit):
            main(argv)
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert "expected a positive" in err

    @pytest.mark.parametrize("argv, flag, expected", [
        (["train", "--model", "vae", "--dataset", "qm9", "--layers", "-2"],
         "--layers", "expected a non-negative integer"),
        (["draw", "--model", "sq-ae", "--layers", "-2"],
         "--layers", "expected a non-negative integer"),
        (["serve", "--checkpoint", "x.npz", "--max-requests", "-1"],
         "--max-requests", "expected a non-negative integer"),
        (["serve", "--checkpoint", "x.npz", "--port", "70000"],
         "--port", "expected a port number in 0-65535"),
        (["serve", "--checkpoint", "x.npz", "--port", "-1"],
         "--port", "expected a port number in 0-65535"),
        (["serve", "--checkpoint", "x.npz", "--port", "http"],
         "--port", "expected a port number in 0-65535"),
    ])
    def test_out_of_range_rejected_with_flag_named(self, argv, flag,
                                                   expected, capsys):
        # Caught at parse time: past it, each of these ends in a traceback
        # (serve only after loading and warming the checkpoint).
        with pytest.raises(SystemExit):
            main(argv)
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        assert expected in err

    @pytest.mark.parametrize("argv", [
        ["train", "--model", "vae", "--dataset", "qm9"],
        ["sample", "--checkpoint", "x.npz"],
        ["stats", "--dataset", "qm9"],
        ["draw", "--model", "sq-ae"],
    ])
    def test_negative_seed_rejected_naming_the_flag(self, argv, capsys):
        with pytest.raises(SystemExit):
            main([*argv, "--seed", "-1"])
        err = capsys.readouterr().err
        assert "argument --seed" in err
        assert "expected a non-negative integer" in err

    @pytest.mark.parametrize("flag", ["--quantum-lr", "--classical-lr"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.01"])
    def test_bad_learning_rate_exits_2_naming_the_flag(self, flag, value,
                                                       tmp_path, capsys):
        # A nan learning rate used to exit 0 with a checkpoint whose every
        # parameter was NaN.
        out = tmp_path / "vae.npz"
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--model", "vae", "--dataset", "qm9",
                  "--samples", "32", "--epochs", "1", "--out", str(out),
                  flag, value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a non-negative finite number, " \
               f"got {value!r}" in err
        assert not out.exists()

    def test_data_parallel_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--model", "ae", "--dataset", "qm9",
                  "--workers", "1"])
        assert "unrecognized arguments: --workers 1" in capsys.readouterr().err

    def test_kernel_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["train", "--model", "ae", "--dataset", "qm9",
                  "--backend", "numpy"])
        assert "unrecognized arguments: --backend numpy" in \
            capsys.readouterr().err

    def test_flush_window_flag_is_gone(self, capsys):
        # serve runs each batch as soon as its worker is free.
        with pytest.raises(SystemExit):
            main(["serve", "--checkpoint", "x.npz", "--flush-ms", "5"])
        assert "unrecognized arguments: --flush-ms 5" in \
            capsys.readouterr().err


class TestNonNegativeInt:
    """The ``--seed`` / ``--layers`` / ``--max-requests`` argparse type."""

    @pytest.mark.parametrize("text, value", [
        ("0", 0),
        ("42", 42),
        ("18446744073709551616", 2**64),  # default_rng takes any size
    ])
    def test_accepts(self, text, value):
        assert _non_negative_int(text) == value

    @pytest.mark.parametrize("text", ["-1", "seven", "1.5", ""])
    def test_rejects_naming_the_value(self, text):
        with pytest.raises(argparse.ArgumentTypeError) as excinfo:
            _non_negative_int(text)
        assert str(excinfo.value) == \
            f"expected a non-negative integer, got {text!r}"


class TestPositiveFloat:
    """The ``serve --timeout`` argparse type."""

    @pytest.mark.parametrize("text, value", [
        ("0.5", 0.5),
        ("30", 30.0),
        ("1e-3", 0.001),
    ])
    def test_accepts(self, text, value):
        assert _positive_float(text) == value

    @pytest.mark.parametrize("text", ["0", "-1", "nan", "inf", "-inf",
                                      "1e999", "soon", ""])
    def test_rejects_naming_the_value(self, text):
        with pytest.raises(argparse.ArgumentTypeError) as excinfo:
            _positive_float(text)
        assert str(excinfo.value) == \
            f"expected a positive finite number, got {text!r}"


class TestNonNegativeFloat:
    """The ``train --quantum-lr`` / ``--classical-lr`` argparse type."""

    @pytest.mark.parametrize("text, value", [
        ("0", 0.0),  # freezes the family; the entry-point tests train at 0
        ("0.03", 0.03),
        ("1e-3", 0.001),
        ("2", 2.0),
    ])
    def test_accepts(self, text, value):
        assert _non_negative_float(text) == value

    @pytest.mark.parametrize("text", ["-1", "-1e-9", "nan", "inf", "-inf",
                                      "1e999", "fast", ""])
    def test_rejects_naming_the_value(self, text):
        with pytest.raises(argparse.ArgumentTypeError) as excinfo:
            _non_negative_float(text)
        assert str(excinfo.value) == \
            f"expected a non-negative finite number, got {text!r}"


class TestPort:
    """The ``serve --port`` argparse type."""

    @pytest.mark.parametrize("text, value", [
        ("0", 0),
        ("7411", 7411),
        ("65535", 65535),
    ])
    def test_accepts(self, text, value):
        assert _port(text) == value

    @pytest.mark.parametrize("text", ["-1", "65536", "70000", "http",
                                      "80.5", ""])
    def test_rejects_naming_the_value(self, text):
        with pytest.raises(argparse.ArgumentTypeError) as excinfo:
            _port(text)
        assert str(excinfo.value) == \
            f"expected a port number in 0-65535, got {text!r}"


class TestStatsAndDraw:
    def test_stats_qm9(self, capsys):
        assert main(["stats", "--dataset", "qm9", "--samples", "32"]) == 0
        assert "sparsity" in capsys.readouterr().out

    def test_stats_rejects_image_dataset(self):
        with pytest.raises(SystemExit):
            main(["stats", "--dataset", "cifar"])

    def test_draw_fbq_encoder(self, capsys):
        assert main(["draw", "--model", "f-bq-ae"]) == 0
        output = capsys.readouterr().out
        assert "amplitude embedding" in output
        assert "RZ(w0)" in output

    def test_draw_sq_patch(self, capsys):
        assert main(["draw", "--model", "sq-ae", "--patches", "2",
                     "--layers", "1"]) == 0
        assert "0:" in capsys.readouterr().out

    def test_draw_sq_patches_8_gets_consistent_input_dim(self, capsys):
        # The input dim used to be a dead `64 if ... else 64`, which gave
        # an 8-patch model 8-feature patches; patches are 16-feature (4
        # qubits) regardless of --patches now.
        assert main(["draw", "--model", "sq-ae", "--patches", "8",
                     "--layers", "1"]) == 0
        output = capsys.readouterr().out
        assert "0:" in output and "3:" in output  # 4 wires per patch

    def test_draw_classical_rejected(self):
        with pytest.raises(SystemExit):
            main(["draw", "--model", "ae"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
