"""Circuit intermediate representation and builder.

A :class:`Circuit` is a reusable template: a sequence of operations whose
parameters are *slots* bound at execution time, either to trainable weights
(``('weight', i)``) or to per-sample input features (``('input', i)``, used by
angle embedding).  State preparation is |0...0> by default or amplitude
embedding of the input vector.

The builder exposes exactly the pieces the paper's architectures need:
amplitude/angle embedding, RY/RZ rotations, CNOT entanglers and the
strongly-entangling-layer template (see
:meth:`Circuit.strongly_entangling_layers`), measured as Pauli-Z
expectations on every wire or as basis probabilities.  RY, RZ and CNOT
are the only gates.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Operation", "Circuit", "sel_weight_count"]

# Gate name -> (wires it acts on, whether it takes a parameter).
_GATES = {"RY": (1, True), "RZ": (1, True), "CNOT": (2, False)}


@dataclass(frozen=True)
class Operation:
    """One gate application: name, target wires, and the parameter source."""

    name: str
    wires: tuple[int, ...]
    source: tuple[str, int] | None = None

    def __post_init__(self) -> None:
        if self.name not in _GATES:
            raise ValueError(f"unknown gate {self.name!r}")
        arity, parametric = _GATES[self.name]
        if len(self.wires) != arity:
            raise ValueError(
                f"{self.name} acts on {arity} wire(s), got {self.wires}"
            )
        if parametric and self.source is None:
            raise ValueError(f"{self.name} requires a parameter source")
        if not parametric and self.source is not None:
            raise ValueError(f"{self.name} takes no parameter")


class Circuit:
    """Mutable builder for a parameterized quantum circuit template."""

    def __init__(self, n_wires: int):
        if n_wires < 1:
            raise ValueError("a circuit needs at least one wire")
        self.n_wires = n_wires
        self.ops: list[Operation] = []
        self.n_weights = 0
        self.n_inputs = 0
        self.state_prep: tuple[str, int] | None = None  # ("amplitude", n_features)
        self.measurement: tuple[str, tuple[int, ...] | None] | None = None

    # ------------------------------------------------------------------
    # State preparation / embeddings
    # ------------------------------------------------------------------
    def amplitude_embedding(
        self, n_features: int, zero_fallback: bool = False
    ) -> "Circuit":
        """Prepare the state as the L2-normalized, zero-padded input vector.

        Qubit-efficient (log2 features -> wires) but constrains outputs, as
        Section II-C of the paper discusses.  With ``zero_fallback=True`` an
        all-zero feature vector embeds as |0...0> instead of raising — the
        patched encoders need this because sparse ligand matrices produce
        empty patches.
        """
        if self.ops:
            raise ValueError("amplitude embedding must precede all gates")
        if n_features > 2**self.n_wires:
            raise ValueError(
                f"{n_features} features exceed state dimension {2**self.n_wires}"
            )
        if n_features < 1:
            raise ValueError("amplitude embedding needs at least one feature")
        self.state_prep = ("amplitude", n_features, bool(zero_fallback))
        self.n_inputs = max(self.n_inputs, n_features)
        return self

    def angle_embedding(self, n_features: int) -> "Circuit":
        """Embed feature ``i`` as an ``RY(x_i)`` on wire ``i``.

        One qubit per feature (not qubit-efficient, as the paper notes), but
        output-unconstrained; the SQ decoder uses it on the latent vector.
        """
        if n_features > self.n_wires:
            raise ValueError(
                f"angle embedding of {n_features} features needs {n_features} "
                f"wires, circuit has {self.n_wires}"
            )
        start = self.n_inputs
        for i in range(n_features):
            self.ops.append(Operation("RY", (i,), ("input", start + i)))
        self.n_inputs = start + n_features
        return self

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------
    def _new_weight(self) -> int:
        index = self.n_weights
        self.n_weights += 1
        return index

    def ry(self, wire: int) -> "Circuit":
        self.ops.append(Operation("RY", (wire,), ("weight", self._new_weight())))
        return self

    def rz(self, wire: int) -> "Circuit":
        self.ops.append(Operation("RZ", (wire,), ("weight", self._new_weight())))
        return self

    def rot(self, wire: int) -> "Circuit":
        """Rot(phi, theta, omega) decomposed as RZ(phi), RY(theta), RZ(omega).

        Three fresh weight slots are allocated in (phi, theta, omega) order,
        matching PennyLane's parameter layout for ``Rot``.
        """
        self.rz(wire)
        self.ry(wire)
        self.rz(wire)
        return self

    def cnot(self, control: int, target: int) -> "Circuit":
        self.ops.append(Operation("CNOT", (control, target)))
        return self

    # ------------------------------------------------------------------
    # Templates
    # ------------------------------------------------------------------
    def strongly_entangling_layers(self, n_layers: int) -> "Circuit":
        """The paper's repeatable hidden layer (Fig. 2b).

        Each layer applies ``Rot(phi, theta, omega)`` on every qubit followed
        by the nearest-neighbour CNOT ring ``CNOT(w, (w + 1) % n)``.
        """
        if n_layers < 1:
            raise ValueError("need at least one entangling layer")
        for __ in range(n_layers):
            for wire in range(self.n_wires):
                self.rot(wire)
            if self.n_wires > 1:
                for wire in range(self.n_wires):
                    self.cnot(wire, (wire + 1) % self.n_wires)
        return self

    # ------------------------------------------------------------------
    # Measurement
    # ------------------------------------------------------------------
    def measure_expval(self) -> "Circuit":
        """Measure the Pauli-Z expectation on every wire."""
        self.measurement = ("expval", tuple(range(self.n_wires)))
        return self

    def measure_probs(self) -> "Circuit":
        """Measure the full basis-state probability vector (dimension 2**n)."""
        self.measurement = ("probs", None)
        return self

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def output_dim(self) -> int:
        """Dimension of the execution output."""
        if self.measurement is None:
            raise ValueError("circuit has no measurement")
        kind, wires = self.measurement
        return len(wires) if kind == "expval" else 2**self.n_wires

    def weight_shape(self) -> tuple[int]:
        return (self.n_weights,)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        return (
            f"Circuit(wires={self.n_wires}, ops={len(self.ops)}, "
            f"weights={self.n_weights}, inputs={self.n_inputs})"
        )


def sel_weight_count(n_wires: int, n_layers: int) -> int:
    """Weights used by ``strongly_entangling_layers``: 3 per qubit per layer."""
    return 3 * n_wires * n_layers
