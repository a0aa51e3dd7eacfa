"""``Adam.step`` updates in place and matches the allocating expression.

``ReferenceAdam`` is the expression ``Adam.step`` ran before it worked in
place over chunks.  Every case steps both at least five times and compares
parameters and both moments with ``==`` (signed zeros included) at each
precision policy: float64, float32, and mixed32 (float32 parameters,
float64 gradients and moments).
"""

import numpy as np
import pytest

from repro.nn import Adam, Linear, Tensor, use_precision
from repro.nn.optim import _CHUNK, Optimizer

PRECISIONS = ["float64", "float32", "mixed32"]
# (parameter dtype, gradient dtype) under each policy.
DTYPES = {
    "float64": (np.float64, np.float64),
    "float32": (np.float32, np.float32),
    "mixed32": (np.float32, np.float64),
}
STEPS = 6


class ReferenceAdam(Optimizer):
    """The allocating Adam expression, kept as the in-place step's oracle."""

    def __init__(self, params, lr=0.001, betas=(0.9, 0.999), eps=1e-8):
        super().__init__(params, {"lr": lr, "betas": tuple(betas), "eps": eps})
        self._m, self._v, self._t = {}, {}, {}

    def step(self):
        for group in self.param_groups:
            lr = group["lr"]
            beta1, beta2 = group["betas"]
            eps = group["eps"]
            for param in group["params"]:
                if param.grad is None:
                    continue
                key = id(param)
                t = self._t.get(key, 0) + 1
                self._t[key] = t
                m = self._m.get(key)
                if m is None:
                    m = v = np.zeros_like(param.data)
                else:
                    v = self._v[key]
                m = beta1 * m + (1.0 - beta1) * param.grad
                v = beta2 * v + (1.0 - beta2) * param.grad**2
                self._m[key] = m
                self._v[key] = v
                m_hat = m / (1.0 - beta1**t)
                v_hat = v / (1.0 - beta2**t)
                param.data = (
                    param.data - lr * m_hat / (np.sqrt(v_hat) + eps)
                ).astype(param.data.dtype, copy=False)


def assert_same(actual, expected):
    """``==`` on every element, and the same dtype, shape and signed zeros."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert np.array_equal(actual, expected)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


def assert_states_match(adam, reference, pairs):
    """Parameters and both moments of each (in-place, reference) pair."""
    for param, twin in pairs:
        assert_same(param.data, twin.data)
        assert adam._t.get(id(param)) == reference._t.get(id(twin))
        if id(twin) not in reference._m:
            assert id(param) not in adam._m
            continue
        assert_same(adam._m[id(param)], reference._m[id(twin)])
        assert_same(adam._v[id(param)], reference._v[id(twin)])


def twin_params(shapes, dtype, seed=0):
    """Two lists of equal parameters, one per optimizer.  Each owns its
    array: the in-place step would move a shared one twice."""
    rng = np.random.default_rng(seed)
    values = [rng.normal(size=shape) for shape in shapes]
    return tuple([Tensor(v.copy(), dtype=dtype, requires_grad=True)
                  for v in values] for __ in range(2))


def step_both(adam, reference, pairs, grads):
    """Give each pair the same gradient, then step both optimizers."""
    for (param, twin), grad in zip(pairs, grads):
        param.grad = None if grad is None else grad.copy()
        twin.grad = None if grad is None else grad.copy()
    adam.step()
    reference.step()


def run_random(shapes, precision, steps=STEPS, seed=1, **kwargs):
    pdtype, gdtype = DTYPES[precision]
    params, twins = twin_params(shapes, pdtype)
    adam, reference = Adam(params, **kwargs), ReferenceAdam(twins, **kwargs)
    pairs = list(zip(params, twins))
    rng = np.random.default_rng(seed)
    for __ in range(steps):
        step_both(adam, reference, pairs,
                  [rng.normal(size=shape).astype(gdtype) for shape in shapes])
        assert_states_match(adam, reference, pairs)


@pytest.mark.parametrize("precision", PRECISIONS)
class TestMatchesReference:
    def test_linear_weight_with_f_ordered_gradient(self, precision):
        with use_precision(precision):
            models = [Linear(64, 48, rng=np.random.default_rng(3))
                      for __ in range(2)]
            adam = Adam(list(models[0].parameters()), lr=0.01)
            reference = ReferenceAdam(list(models[1].parameters()), lr=0.01)
            rng = np.random.default_rng(4)
            for __ in range(STEPS):
                x = Tensor(rng.normal(size=(16, 64)))
                for model in models:
                    model.zero_grad()
                    ((model(x) - 0.5) ** 2).mean().backward()
                weight_grad = models[0].weight.grad
                assert weight_grad.flags.f_contiguous
                assert not weight_grad.flags.c_contiguous
                adam.step()
                reference.step()
                assert_states_match(adam, reference, zip(
                    models[0].parameters(), models[1].parameters()))
        assert models[0].weight.data.dtype == DTYPES[precision][0]

    def test_several_chunks_and_a_ragged_tail(self, precision):
        run_random([(3 * _CHUNK + 5,)], precision)

    def test_0d_and_one_element_parameters(self, precision):
        run_random([(), (1,), (1, 1)], precision)

    def test_two_groups_with_different_lr(self, precision):
        pdtype, gdtype = DTYPES[precision]
        shapes = [(7, 5), (11,)]
        params, twins = twin_params(shapes, pdtype)
        adam = Adam([{"params": [params[0]], "lr": 0.03},
                     {"params": [params[1]], "lr": 0.5}], lr=0.01)
        reference = ReferenceAdam([{"params": [twins[0]], "lr": 0.03},
                                   {"params": [twins[1]], "lr": 0.5}],
                                  lr=0.01)
        pairs = list(zip(params, twins))
        rng = np.random.default_rng(2)
        for __ in range(STEPS):
            step_both(adam, reference, pairs,
                      [rng.normal(size=s).astype(gdtype) for s in shapes])
            assert_states_match(adam, reference, pairs)

    def test_parameter_without_gradient_is_skipped(self, precision):
        pdtype, gdtype = DTYPES[precision]
        shapes = [(4, 3), (6,)]
        params, twins = twin_params(shapes, pdtype)
        adam, reference = Adam(params, lr=0.1), ReferenceAdam(twins, lr=0.1)
        pairs = list(zip(params, twins))
        frozen = params[1].data.copy()
        rng = np.random.default_rng(5)
        for i in range(STEPS):
            grads = [rng.normal(size=s).astype(gdtype) for s in shapes]
            if i < 3:
                grads[1] = None
            step_both(adam, reference, pairs, grads)
            assert_states_match(adam, reference, pairs)
            if i < 3:
                assert_same(params[1].data, frozen)
                assert id(params[1]) not in adam._t
        # The skipped steps did not count toward the bias correction.
        assert adam._t[id(params[1])] == STEPS - 3
        assert adam._t[id(params[0])] == STEPS

    def test_negative_zero_gradient_on_the_first_step(self, precision):
        pdtype, gdtype = DTYPES[precision]
        shapes = [(9,)]
        params, twins = twin_params(shapes, pdtype)
        adam, reference = Adam(params, lr=0.1), ReferenceAdam(twins, lr=0.1)
        pairs = list(zip(params, twins))
        first = np.array([-0.0, 0.0, -0.0, 1.0, -1.0, -0.0, 0.0, 2.0, -0.0],
                         dtype=gdtype)
        step_both(adam, reference, pairs, [first])
        assert_states_match(adam, reference, pairs)
        # 0.9 * 0 + 0.1 * -0.0 is +0.0: m holds no negative zero.
        assert not np.signbit(adam._m[id(params[0])][first == 0]).any()
        rng = np.random.default_rng(6)
        for __ in range(STEPS - 1):
            step_both(adam, reference, pairs,
                      [rng.normal(size=9).astype(gdtype)])
            assert_states_match(adam, reference, pairs)

    def test_f_ordered_and_read_only_parameter_arrays(self, precision):
        pdtype, gdtype = DTYPES[precision]
        shapes = [(6, 5), (4, 7)]
        params, twins = twin_params(shapes, pdtype)
        params[0].data = np.asfortranarray(params[0].data)
        params[1].data.flags.writeable = False
        twins[1].data.flags.writeable = False
        adam, reference = Adam(params, lr=0.1), ReferenceAdam(twins, lr=0.1)
        pairs = list(zip(params, twins))
        fortran, read_only = params[0].data, params[1].data
        before = [p.data.copy() for p in params]
        rng = np.random.default_rng(7)
        for __ in range(STEPS):
            step_both(adam, reference, pairs,
                      [rng.normal(size=s).astype(gdtype) for s in shapes])
            assert_states_match(adam, reference, pairs)
        # The F array is updated in place; the read-only one is replaced by
        # a writeable C copy.
        assert params[0].data is fortran
        assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
        assert params[1].data is not read_only
        assert params[1].data.flags.c_contiguous
        for param, start in zip(params, before):
            assert param.data.flags.writeable
            assert not np.array_equal(param.data, start)

    @pytest.mark.parametrize("grad_order", ["F", "C"])
    def test_f_ordered_parameter_with_each_gradient_order(self, precision,
                                                          grad_order):
        pdtype, gdtype = DTYPES[precision]
        shapes = [(3 * _CHUNK // 64 + 3, 64)]
        params, twins = twin_params(shapes, pdtype)
        fortran = params[0].data = np.asfortranarray(params[0].data)
        twins[0].data = np.asfortranarray(twins[0].data)
        adam, reference = Adam(params, lr=0.1), ReferenceAdam(twins, lr=0.1)
        pairs = list(zip(params, twins))
        rng = np.random.default_rng(11)
        for __ in range(STEPS):
            grad = np.asarray(rng.normal(size=shapes[0]).astype(gdtype),
                              order=grad_order)
            step_both(adam, reference, pairs, [grad])
            assert_states_match(adam, reference, pairs)
            assert params[0].data is fortran
            assert adam._m[id(params[0])].flags.f_contiguous

    def test_parameter_rebound_to_the_other_layout_between_steps(
            self, precision):
        # ``param.data = param.data.copy()`` turns an F weight C.  The
        # moments follow the new layout, so each still pairs with its
        # own element.
        pdtype, gdtype = DTYPES[precision]
        shapes = [(9, 7)]
        params, twins = twin_params(shapes, pdtype)
        params[0].data = np.asfortranarray(params[0].data)
        adam, reference = Adam(params, lr=0.1), ReferenceAdam(twins, lr=0.1)
        pairs = list(zip(params, twins))
        rng = np.random.default_rng(13)
        for i in range(STEPS):
            if i == 3:
                params[0].data = params[0].data.copy()
                assert params[0].data.flags.c_contiguous
            step_both(adam, reference, pairs,
                      [rng.normal(size=shapes[0]).astype(gdtype)])
            assert_states_match(adam, reference, pairs)

    @pytest.mark.parametrize("kind", ["strided", "read_only"])
    def test_strided_or_read_only_parameter_becomes_one_c_copy(
            self, precision, kind):
        pdtype, gdtype = DTYPES[precision]
        params, twins = twin_params([(8, 6)], pdtype)
        if kind == "strided":
            params[0].data = np.ones((8, 12), pdtype)[:, ::2]
            params[0].data[...] = twins[0].data
        else:
            params[0].data.flags.writeable = False
        original = params[0].data
        adam, reference = Adam(params, lr=0.1), ReferenceAdam(twins, lr=0.1)
        pairs = list(zip(params, twins))
        rng = np.random.default_rng(12)
        arrays = []
        for __ in range(STEPS):
            step_both(adam, reference, pairs,
                      [rng.normal(size=(8, 6)).astype(gdtype)])
            assert_states_match(adam, reference, pairs)
            arrays.append(params[0].data)
        copy = arrays[0]
        assert copy is not original
        assert copy.flags.c_contiguous and copy.flags.writeable
        assert all(array is copy for array in arrays)

    def test_numpy_scalar_hyperparameters_act_as_python_floats(self,
                                                              precision):
        pdtype, gdtype = DTYPES[precision]
        shapes = [(5, 4)]
        results = []
        for lr, betas, eps in [(0.01, (0.9, 0.999), 1e-8),
                               (np.float64(0.01),
                                (np.float64(0.9), np.float64(0.999)),
                                np.float64(1e-8))]:
            params, __ = twin_params(shapes, pdtype)
            adam = Adam(params, lr=lr, betas=betas, eps=eps)
            rng = np.random.default_rng(8)
            for __ in range(STEPS):
                params[0].grad = rng.normal(size=shapes[0]).astype(gdtype)
                adam.step()
            results.append((params[0].data, adam._m[id(params[0])],
                            adam._v[id(params[0])]))
        for python, numpy_scalar in zip(*results):
            assert_same(numpy_scalar, python)
        assert results[0][0].dtype == pdtype


def test_gradient_dtype_widening_between_steps():
    # A float32 parameter whose gradient is float64 on steps 3, 4 and 6:
    # the moments widen at step 3, where beta * m still runs at float32,
    # and step 5 adds float32 gradient terms to float64 moments.
    shapes = [(3 * 1000 + 7,)]
    params, twins = twin_params(shapes, np.float32)
    adam, reference = Adam(params, lr=0.05), ReferenceAdam(twins, lr=0.05)
    pairs = list(zip(params, twins))
    rng = np.random.default_rng(9)
    for i in range(STEPS):
        gdtype = np.float32 if i < 2 or i == 4 else np.float64
        step_both(adam, reference, pairs,
                  [rng.normal(size=shapes[0]).astype(gdtype)])
        assert_states_match(adam, reference, pairs)
    assert adam._m[id(params[0])].dtype == np.float64
    assert params[0].data.dtype == np.float32


@pytest.mark.parametrize("precision", PRECISIONS)
def test_c_contiguous_parameter_keeps_its_array(precision):
    pdtype, gdtype = DTYPES[precision]
    (param,), __ = twin_params([(40, 30)], pdtype)
    array = param.data
    held = param.detach()
    adam = Adam([param], lr=0.1)
    rng = np.random.default_rng(10)
    moments = None
    for __ in range(STEPS):
        param.grad = np.asfortranarray(
            rng.normal(size=(40, 30)).astype(gdtype))
        before = array.copy()
        adam.step()
        assert param.data is array
        assert not np.array_equal(array, before)
        # A detached view shares the array, so it sees every step.
        assert held.data is array
        state = (adam._m[id(param)], adam._v[id(param)])
        if moments is not None:
            assert state[0] is moments[0] and state[1] is moments[1]
        moments = state
