"""Every CLI path the reproduction's entry points take, at toy size.

``cli train`` for every model on every dataset at every precision policy,
``--warm-start-bias`` for every model, ``cli sample`` from every
variational family, ``cli draw`` for every quantum model, and the serving
wire's request kinds on every variational checkpoint.  The library is cut
down to what these commands, ``experiments.run`` and the serving wire
reach, so a deletion that breaks any of them fails here.
"""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest

from repro.cli import main
from repro.data import load_pdbbind_ligands, train_test_split
from repro.models import MODEL_CHOICES, build_from_metadata
from repro.nn import Tensor, no_grad
from repro.nn.precision import resolve_precision
from repro.nn.serialization import load_module, read_checkpoint_metadata
from repro.serving import (
    GenerationServer,
    GenerationService,
    per_molecule_scores,
)

DATASETS = ("qm9", "pdbbind", "digits", "cifar")
PRECISIONS = ("float64", "float32", "mixed32")
VAE_FAMILIES = [name for name in MODEL_CHOICES if name.endswith("vae")]
QUANTUM_MODELS = [name for name in MODEL_CHOICES if name not in ("ae", "vae")]

EPOCH_LINE = re.compile(r"epoch 1: train (\S+) test (\S+) \(\d+\.\d\ds\)")
SAMPLED_LINE = re.compile(r"(\d+)/4 samples decoded to usable molecules")


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def train_argv(model, dataset, path, *flags):
    argv = ["train", "--model", model, "--dataset", dataset,
            "--samples", "16", "--epochs", "1", "--batch-size", "8",
            "--out", str(path), *flags]
    if model.startswith("f-bq"):
        argv.append("--normalize")
    return argv


def stored_arrays(path):
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files}


def rebuilt(path):
    """The model ``path`` holds, rebuilt from its metadata and loaded."""
    model = build_from_metadata(read_checkpoint_metadata(path))
    load_module(model, path)
    return model


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """``train(model, dataset, precision) -> (exit code, stdout,
    checkpoint)``, each triple trained once per module.  float64 runs
    leave ``--precision`` at its default."""
    root = tmp_path_factory.mktemp("entry_points")
    runs = {}

    def train(model, dataset, precision="float64"):
        key = model, dataset, precision
        if key not in runs:
            path = root / f"{model}-{dataset}-{precision}.npz"
            flags = ("--precision", precision) if precision != "float64" else ()
            argv = train_argv(model, dataset, path, *flags)
            runs[key] = run_cli(argv) + (path,)
        return runs[key]

    return train


def check_train(trained, model, dataset, precision):
    code, out, path = trained(model, dataset, precision)
    assert code == 0
    lines = out.splitlines()
    match = EPOCH_LINE.fullmatch(lines[0])
    assert match, lines[0]
    assert all(math.isfinite(float(value)) for value in match.groups())
    assert lines[-1] == f"checkpoint written to {path}"

    metadata = read_checkpoint_metadata(path)
    assert (metadata["model"], metadata["dataset"], metadata["precision"]) \
        == (model, dataset, precision)
    # mixed32 stores float32 weights: only its gradients are float64.
    real = resolve_precision(precision).real
    stored = stored_arrays(path)
    for name, param in rebuilt(path).named_parameters():
        assert param.data.dtype == stored[name].dtype == real, name
        assert (param.data == stored[name]).all(), name


@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("model", MODEL_CHOICES)
def test_train(trained, model, dataset):
    check_train(trained, model, dataset, "float64")


@pytest.mark.parametrize("precision", ["float32", "mixed32"])
@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("model", MODEL_CHOICES)
def test_train_single_precision(trained, model, dataset, precision):
    check_train(trained, model, dataset, precision)


@pytest.mark.parametrize("model", MODEL_CHOICES)
def test_train_warm_start_bias(tmp_path, model):
    """``--warm-start-bias`` sets the output bias to the training split's
    feature mean and nothing else; at learning rate 0 the checkpoint still
    holds the initial weights, so the two runs differ only there."""
    frozen = ("--quantum-lr", "0", "--classical-lr", "0")
    plain, warm = tmp_path / "plain.npz", tmp_path / "warm.npz"
    for path, flags in ((plain, frozen),
                        (warm, frozen + ("--warm-start-bias",))):
        code, __ = run_cli(train_argv(model, "pdbbind", path, *flags))
        assert code == 0
    plain_arrays, warm_arrays = stored_arrays(plain), stored_arrays(warm)

    loaded = rebuilt(warm)
    names = [name for name, __ in loaded.named_parameters()]
    bias = [name for name, param in loaded.named_parameters()
            if param is loaded.output_bias()]
    if model.startswith("f-bq"):
        assert bias == []  # probability outputs: nothing to warm-start
    else:
        data = load_pdbbind_ligands(n_samples=16, seed=0)
        train, __ = train_test_split(data, test_fraction=0.15, seed=0)
        assert len(bias) == 1
        assert (warm_arrays[bias[0]] == train.features.mean(axis=0)).all()
        assert not (plain_arrays[bias[0]] == warm_arrays[bias[0]]).all()
    for name in names:
        if name not in bias:
            assert (plain_arrays[name] == warm_arrays[name]).all(), name


def check_sample(trained, model, dataset, precision):
    __, __, path = trained(model, dataset, precision)
    code, out = run_cli(["sample", "--checkpoint", str(path),
                         "--count", "4"])
    assert code == 0
    lines = out.splitlines()
    match = SAMPLED_LINE.fullmatch(lines[-1])
    assert match, lines[-1]
    usable = int(match.group(1))
    if usable:
        assert lines[0].split() == ["QED", "logP", "SA", "molecule"]
        assert len(lines) == usable + 3  # header, rows, blank, summary
        for row in lines[1:1 + usable]:
            scores = [float(value) for value in row.split()[:3]]
            assert all(0.0 <= value <= 1.0 for value in scores), row
    else:
        assert lines == ["0/4 samples decoded to usable molecules"]


@pytest.mark.parametrize("dataset", ["qm9", "pdbbind"])
@pytest.mark.parametrize("model", VAE_FAMILIES)
def test_sample(trained, model, dataset):
    check_sample(trained, model, dataset, "float64")


@pytest.mark.parametrize("precision", ["float32", "mixed32"])
@pytest.mark.parametrize("dataset", ["qm9", "pdbbind"])
@pytest.mark.parametrize("model", VAE_FAMILIES)
def test_sample_single_precision(trained, model, dataset, precision):
    check_sample(trained, model, dataset, precision)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("model", VAE_FAMILIES)
def test_serve(trained, model, precision):
    """ping, sample, encode, score and stats through
    ``GenerationServer.respond``, each answer ``==`` the same call on a
    model rebuilt from the served checkpoint."""
    __, __, path = trained(model, "pdbbind", precision)
    direct = rebuilt(path)
    features = load_pdbbind_ligands(n_samples=3, seed=1).features
    service = GenerationService(default_checkpoint=path)
    server = GenerationServer(("127.0.0.1", 0), service)

    def ask(**request):
        line = json.dumps(request).encode() + b"\n"
        reply = json.loads(server.respond(line))
        assert reply.pop("ok") is True, reply
        return reply

    try:
        assert service.default_entry.precision.name == precision
        assert ask(kind="ping") == {}

        matrices = np.array(ask(kind="sample", count=3, seed=5)["matrices"])
        expected = direct.sample(3, np.random.default_rng(5))
        assert (matrices == expected.reshape(3, 32, 32)).all()

        latents = np.array(ask(kind="encode", features=features.tolist())
                           ["latents"])
        with no_grad():
            expected = direct.encode(Tensor(features)).data
        assert latents.shape == expected.shape == (3, direct.latent_dim)
        assert (latents == expected).all()

        scores = ask(kind="score", matrices=matrices.tolist())
        for name, values in per_molecule_scores(matrices).items():
            assert (np.array(scores[name]) == values).all(), name

        stats = ask(kind="stats")["stats"]
        assert stats["models"] == 1
        assert stats["batcher"]["requests"] == 3
    finally:
        server.server_close()
        service.close()


@pytest.mark.parametrize("model", QUANTUM_MODELS)
def test_draw(model):
    code, out = run_cli(["draw", "--model", model])
    assert code == 0
    lines = out.splitlines()
    features = 16 if model.startswith("sq") else 64
    assert lines[0] == f"state prep: amplitude embedding of {features} features"
    wires = int(math.log2(features))
    assert [line.split(":")[0] for line in lines[1:]] \
        == [str(wire) for wire in range(wires)]
