"""ASCII circuit drawing (debugging / documentation aid).

Renders a :class:`~repro.quantum.circuit.Circuit` as one text row per wire,
with parameterized gates annotated by their source slot, e.g.::

    0: --RZ(w0)--RY(w1)--RZ(w2)--o--------x--[Z]
    1: --RZ(w3)--RY(w4)--RZ(w5)--x--o-----|--[Z]
    2: --RZ(w6)--RY(w7)--RZ(w8)-----x--o--[Z]
"""

from __future__ import annotations

from .circuit import Circuit

__all__ = ["draw"]

_CONTROL = "o"
_TARGET = "x"


def draw(circuit: Circuit, max_columns: int | None = None) -> str:
    """Render the circuit; truncates after ``max_columns`` gate columns."""
    columns: list[dict[int, str]] = []
    for op in circuit.ops:
        label = _op_labels(op)
        columns.append(label)
        if max_columns is not None and len(columns) >= max_columns:
            break
    truncated = max_columns is not None and len(circuit.ops) > len(columns)

    lines = []
    for wire in range(circuit.n_wires):
        cells = []
        for column in columns:
            cells.append(column.get(wire, ""))
        width_cells = []
        for column_index, cell in enumerate(cells):
            width = max(
                (len(c) for c in columns[column_index].values()), default=1
            )
            if cell:
                width_cells.append(cell.center(width, "-"))
            elif _spans(columns[column_index], wire):
                width_cells.append("|".center(width, "-"))
            else:
                width_cells.append("-" * width)
        row = f"{wire}: --" + "--".join(width_cells) + "--"
        if truncated:
            row += "..."
        if circuit.measurement is not None:
            row += "[Z]" if circuit.measurement[0] == "expval" else "[P]"
        lines.append(row)

    header = []
    if circuit.state_prep is not None:
        __, n_features, _fallback = circuit.state_prep
        header.append(f"state prep: amplitude embedding of {n_features} features")
    return "\n".join(header + lines)


def _op_labels(op) -> dict[int, str]:
    if op.name == "CNOT":
        control, target = op.wires
        return {control: _CONTROL, target: _TARGET}
    return {op.wires[0]: f"{op.name}({_slot(op)})"}


def _slot(op) -> str:
    kind, index = op.source
    prefix = "w" if kind == "weight" else "x"
    return f"{prefix}{index}"


def _spans(column: dict[int, str], wire: int) -> bool:
    """Is this wire strictly between the column's occupied wires?"""
    if len(column) < 2:
        return False
    wires = sorted(column)
    return wires[0] < wire < wires[-1]
