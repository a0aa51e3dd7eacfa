"""Minimal PyTorch-like neural-network substrate (autodiff, modules, optim).

Public surface::

    from repro.nn import Tensor, Linear, Sequential, ReLU, Adam
    from repro.nn import functional as F
"""

from . import autodiff
from . import functional
from . import init
from .modules import (
    Identity,
    Lambda,
    Linear,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from .optim import Adam, Optimizer, heterogeneous_adam
from .precision import (
    FLOAT32,
    FLOAT64,
    MIXED32,
    Precision,
    default_precision,
    resolve_precision,
    set_default_precision,
    use_precision,
)
from .serialization import load_module, module_fingerprint, save_module
from .tensor import Tensor, is_grad_enabled, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "autodiff",
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
    "Optimizer",
    "Adam",
    "heterogeneous_adam",
    "save_module",
    "load_module",
    "module_fingerprint",
    "functional",
    "init",
    "Precision",
    "FLOAT64",
    "FLOAT32",
    "MIXED32",
    "default_precision",
    "set_default_precision",
    "use_precision",
    "resolve_precision",
]
