"""Neural-network module system (the reproduction's ``torch.nn``).

Modules own named :class:`~repro.nn.tensor.Tensor` parameters and compose
through :class:`Sequential`.  Parameters are discovered recursively, and each
module can be tagged with a ``group`` label ("classical" or "quantum") which
the optimizer uses to apply the paper's heterogeneous learning rates.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np

from . import init as initializers
from .precision import resolve_precision
from .tensor import Tensor

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "Identity",
    "Lambda",
    "Sequential",
    "ModuleList",
]


class Parameter(Tensor):
    """A trainable tensor; distinguished from activations by its type."""

    def __init__(self, data, group: str = "classical", name: str = "", dtype=None):
        super().__init__(data, requires_grad=True, name=name, dtype=dtype)
        self.group = group

    __slots__ = ("group",)


class Module:
    """Base class with parameter registration and (sub)module traversal."""

    def __init__(self) -> None:
        self._parameters: dict[str, Parameter] = {}
        self._modules: dict[str, "Module"] = {}
        self.training = True

    # -- registration ---------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_parameter(self, name: str, param: Parameter) -> None:
        self._parameters[name] = param
        object.__setattr__(self, name, param)

    # -- traversal ------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield every parameter in this module and its children, once."""
        seen: set[int] = set()
        for __, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for child_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def num_parameters(self, group: str | None = None) -> int:
        """Total number of scalar trainable parameters (optionally one group)."""
        return sum(
            p.size for p in self.parameters() if group is None or p.group == group
        )

    def parameter_groups(self) -> dict[str, list[Parameter]]:
        """Parameters bucketed by their ``group`` tag (quantum vs classical)."""
        groups: dict[str, list[Parameter]] = {}
        for param in self.parameters():
            groups.setdefault(param.group, []).append(param)
        return groups

    # -- mode -----------------------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def requires_grad_(self, requires_grad: bool = True) -> "Module":
        """Freeze or unfreeze every parameter in place (torch-style).

        Frozen parameters drop out of the recorded tape entirely — ops on
        them record no node, so backward skips their whole subgraph rather
        than computing and discarding gradients.
        """
        for param in self.parameters():
            param.requires_grad = bool(requires_grad)
        return self

    # -- state ----------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter array keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters from a dotted-name -> array mapping.

        The stored floating dtype is preserved (a float32 checkpoint
        rehydrates as float32 parameters); non-float payloads are cast to
        float64.  Each parameter keeps the memory layout it was built with
        (``Linear.weight`` stays F-ordered).  Missing and unexpected names
        and every shape are checked before any parameter is written, so a
        state that does not fit leaves the module as it was.
        """
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        if missing:
            raise KeyError(f"state dict missing parameters: {sorted(missing)}")
        unexpected = set(state) - set(params)
        if unexpected:
            raise KeyError(
                f"state dict has unexpected parameters: {sorted(unexpected)}")
        values = {}
        for name, param in params.items():
            value = np.asarray(state[name])
            if value.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
                value = value.astype(np.float64)
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} vs {param.data.shape}"
                )
            values[name] = value
        for name, param in params.items():
            data = np.empty_like(param.data, dtype=values[name].dtype)
            data[...] = values[name]
            param.data = data

    # -- call -----------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine layer ``y = x W^T + b`` with Kaiming-uniform weights.

    ``dtype`` selects the parameter precision (a real dtype, a policy name,
    or a :class:`~repro.nn.precision.Precision`); None follows the active
    precision policy (float64 by default).

    The weight has shape ``(out_features, in_features)`` but is stored in
    Fortran order, so ``weight.T`` is a C-contiguous view: the forward GEMM
    reads it without a transposing copy, and the weight gradient leaves
    the transpose VJP already in the weight's layout, which ``Adam``
    updates in place as it is.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        group: str = "classical",
        dtype=None,
    ):
        super().__init__()
        rng = initializers.fresh_rng(rng)
        real = resolve_precision(dtype).real
        self.in_features = in_features
        self.out_features = out_features
        weight = initializers.kaiming_uniform((out_features, in_features), rng)
        self.weight = Parameter(
            np.asfortranarray(weight), group=group, dtype=real
        )
        if bias:
            bound = 1.0 / np.sqrt(in_features)
            self.bias = Parameter(
                initializers.uniform((out_features,), rng, -bound, bound),
                group=group,
                dtype=real,
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    """Elementwise rectifier."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    """Elementwise logistic sigmoid."""

    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class Tanh(Module):
    """Elementwise hyperbolic tangent."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Identity(Module):
    """Pass-through module."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Lambda(Module):
    """Wrap an arbitrary tensor function as a module (for simple glue)."""

    def __init__(self, fn: Callable[[Tensor], Tensor]):
        super().__init__()
        self.fn = fn

    def forward(self, x: Tensor) -> Tensor:
        return self.fn(x)


class Sequential(Module):
    """Feed-forward composition of child modules."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(layers):
            self._modules[str(index)] = layer

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class ModuleList(Module):
    """A list of modules whose parameters are all registered."""

    def __init__(self, modules: Iterable[Module] = ()):
        super().__init__()
        self._items: list[Module] = []
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> None:
        self._modules[str(len(self._items))] = module
        self._items.append(module)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]
