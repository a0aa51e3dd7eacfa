"""Tests for modules (Linear/Sequential), losses, and optimizers."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Linear,
    Module,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tensor,
    functional as F,
    heterogeneous_adam,
)


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_forward_value(self):
        layer = Linear(2, 2, rng=np.random.default_rng(0))
        layer.weight.data = np.array([[1.0, 2.0], [3.0, 4.0]])
        layer.bias.data = np.array([0.5, -0.5])
        out = layer(Tensor([[1.0, 1.0]]))
        np.testing.assert_allclose(out.data, [[3.5, 6.5]])

    def test_no_bias(self):
        layer = Linear(3, 2, bias=False, rng=np.random.default_rng(0))
        assert layer.bias is None
        assert layer.num_parameters() == 6

    def test_param_count(self):
        assert Linear(64, 32).num_parameters() == 64 * 32 + 32

    def test_gradients_flow(self):
        layer = Linear(3, 2, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((4, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None
        np.testing.assert_allclose(layer.bias.grad, [4.0, 4.0])


class TestModuleSystem:
    def test_named_parameters(self):
        model = Sequential(Linear(4, 3), ReLU(), Linear(3, 2))
        names = dict(model.named_parameters())
        assert "layers" not in names
        assert {"0.weight", "0.bias", "2.weight", "2.bias"} == set(names)

    def test_state_dict_roundtrip(self):
        rng = np.random.default_rng(3)
        model = Sequential(Linear(4, 3, rng=rng), Linear(3, 2, rng=rng))
        state = model.state_dict()
        model2 = Sequential(
            Linear(4, 3, rng=np.random.default_rng(99)),
            Linear(3, 2, rng=np.random.default_rng(98)),
        )
        model2.load_state_dict(state)
        x = Tensor(np.ones((1, 4)))
        np.testing.assert_allclose(model(x).data, model2(x).data)

    def test_load_state_dict_missing_key(self):
        model = Sequential(Linear(2, 2))
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_load_state_dict_shape_mismatch(self):
        model = Sequential(Linear(2, 2))
        state = model.state_dict()
        state["0.weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_load_state_dict_unexpected_key_is_named(self):
        model = Sequential(Linear(2, 2))
        state = model.state_dict()
        state["1.weight"] = np.zeros((2, 2))
        with pytest.raises(KeyError, match=r"unexpected.*'1\.weight'"):
            model.load_state_dict(state)

    @pytest.mark.parametrize("fault", ["missing", "unexpected", "shape"])
    def test_failed_load_writes_no_parameter(self, fault):
        # The shape fault sits in the last layer, so a load that wrote
        # as it checked would already have overwritten layer 0.
        rng = np.random.default_rng(4)
        model = Sequential(Linear(3, 4, rng=rng), Linear(4, 2, rng=rng))
        state = {name: value + 1.0
                 for name, value in model.state_dict().items()}
        if fault == "missing":
            del state["1.bias"]
        elif fault == "unexpected":
            state["2.weight"] = np.zeros((2, 2))
        else:
            state["1.weight"] = np.zeros((2, 5))
        arrays = {name: p.data for name, p in model.named_parameters()}
        values = {name: a.copy() for name, a in arrays.items()}
        with pytest.raises(KeyError if fault != "shape" else ValueError):
            model.load_state_dict(state)
        for name, param in model.named_parameters():
            assert param.data is arrays[name]
            assert (param.data == values[name]).all()

    def test_parameter_groups(self):
        class Hybrid(Module):
            def __init__(self):
                super().__init__()
                self.q = Parameter(np.zeros(5), group="quantum")
                self.c = Linear(2, 2)

        groups = Hybrid().parameter_groups()
        assert {p.size for p in groups["quantum"]} == {5}
        assert sum(p.size for p in groups["classical"]) == 6

    def test_train_eval_mode(self):
        model = Sequential(Linear(2, 2), ReLU())
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        model = Linear(2, 2)
        model(Tensor(np.ones((1, 2)))).sum().backward()
        model.zero_grad()
        assert model.weight.grad is None


class TestLosses:
    def test_mse(self):
        loss = F.mse_loss(Tensor([1.0, 2.0]), Tensor([0.0, 0.0]))
        np.testing.assert_allclose(loss.item(), 2.5)

    def test_mse_gradient(self):
        pred = Tensor([3.0], requires_grad=True)
        F.mse_loss(pred, Tensor([1.0])).backward()
        np.testing.assert_allclose(pred.grad, [4.0])

    def test_l1(self):
        loss = F.l1_loss(Tensor([2.0, -2.0]), Tensor([0.0, 0.0]))
        np.testing.assert_allclose(loss.item(), 2.0)

    def test_bce_matches_formula(self):
        p, t = 0.7, 1.0
        loss = F.bce_loss(Tensor([p]), Tensor([t]))
        np.testing.assert_allclose(loss.item(), -np.log(p), rtol=1e-10)

    def test_gaussian_kl_zero_at_prior(self):
        mu = Tensor(np.zeros((3, 4)))
        logvar = Tensor(np.zeros((3, 4)))
        np.testing.assert_allclose(F.gaussian_kl(mu, logvar).item(), 0.0)

    def test_gaussian_kl_positive(self):
        rng = np.random.default_rng(0)
        mu = Tensor(rng.normal(size=(5, 4)))
        logvar = Tensor(rng.normal(size=(5, 4)))
        assert F.gaussian_kl(mu, logvar).item() > 0

    def test_gaussian_kl_closed_form(self):
        mu = Tensor([[1.0, 0.0]])
        logvar = Tensor([[0.0, np.log(2.0)]])
        expected = 0.5 * (1.0 + (2.0 - np.log(2.0) - 1.0))
        np.testing.assert_allclose(F.gaussian_kl(mu, logvar).item(), expected)

    def test_softmax_normalizes(self):
        x = Tensor(np.random.default_rng(0).normal(size=(4, 7)))
        s = F.softmax(x)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(4), rtol=1e-12)

    def test_softplus_positive_and_smooth(self):
        x = Tensor([-50.0, 0.0, 50.0])
        y = F.softplus(x)
        assert (y.data >= 0).all()
        np.testing.assert_allclose(y.data[1], np.log(2.0), rtol=1e-10)
        np.testing.assert_allclose(y.data[2], 50.0, rtol=1e-10)


class TestOptimizers:
    def test_adam_first_step_size(self):
        # With a constant gradient, Adam's first step is exactly lr.
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.01)
        p.grad = np.array([123.0])
        opt.step()
        np.testing.assert_allclose(p.data, [1.0 - 0.01], rtol=1e-6)

    def test_adam_converges_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            opt.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        assert abs(p.data[0]) < 1e-2

    def test_param_groups_distinct_lrs(self):
        # Adam's first step is lr * g / (|g| + eps), so each group moves by
        # its own lr.
        a = Parameter(np.array([0.0]))
        b = Parameter(np.array([0.0]))
        opt = Adam([{"params": [a], "lr": 0.1}, {"params": [b], "lr": 1.0}],
                   lr=0.5)
        a.grad = np.array([1.0])
        b.grad = np.array([1.0])
        opt.step()
        np.testing.assert_allclose(a.data, [-0.1], rtol=1e-6)
        np.testing.assert_allclose(b.data, [-1.0], rtol=1e-6)

    def test_heterogeneous_adam_builder(self):
        class Hybrid(Module):
            def __init__(self):
                super().__init__()
                self.q = Parameter(np.zeros(3), group="quantum")
                self.c = Linear(2, 2)

        opt = heterogeneous_adam(Hybrid(), quantum_lr=0.03, classical_lr=0.01)
        lrs = sorted(g["lr"] for g in opt.param_groups)
        assert lrs == [0.01, 0.03]

    def test_optimizer_skips_params_without_grad(self):
        p = Parameter(np.array([1.0]))
        opt = Adam([p], lr=0.1)
        opt.step()  # no grad set: must not raise or move the parameter
        np.testing.assert_allclose(p.data, [1.0])


class TestZeroGrad:
    def _params(self):
        p = Tensor(np.arange(3.0), requires_grad=True)
        (p * p).sum().backward()
        return p

    def test_default_sets_none(self):
        p = self._params()
        Adam([p], lr=0.1).zero_grad()
        assert p.grad is None

    def test_set_to_none_option_is_gone(self):
        # zero_grad always drops the buffers; there is no in-place mode.
        p = self._params()
        with pytest.raises(TypeError):
            Adam([p], lr=0.1).zero_grad(set_to_none=False)


class TestTraining:
    def test_mlp_learns_xor(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float))
        y = Tensor(np.array([[0.0], [1.0], [1.0], [0.0]]))
        model = Sequential(
            Linear(2, 8, rng=rng), ReLU(), Linear(8, 1, rng=rng), Sigmoid()
        )
        opt = Adam(list(model.parameters()), lr=0.05)
        for _ in range(400):
            opt.zero_grad()
            loss = F.mse_loss(model(x), y)
            loss.backward()
            opt.step()
        assert F.mse_loss(model(x), y).item() < 0.01
