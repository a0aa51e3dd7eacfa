"""Tests for the text circuit drawer behind ``repro.cli draw``."""

from repro.quantum import Circuit, draw


class TestDrawer:
    def test_draws_all_wires(self):
        circuit = Circuit(3).strongly_entangling_layers(1).measure_expval()
        art = draw(circuit)
        lines = art.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("0:")

    def test_gate_labels_present(self):
        circuit = Circuit(2).ry(0).cnot(0, 1).measure_expval()
        art = draw(circuit)
        assert "RY(w0)" in art
        assert "o" in art and "x" in art
        assert art.count("[Z]") == 2

    def test_probs_measurement_marker(self):
        art = draw(Circuit(1).ry(0).measure_probs())
        assert "[P]" in art

    def test_input_slots_labeled(self):
        circuit = Circuit(2).angle_embedding(2).measure_expval()
        art = draw(circuit)
        assert "RY(x0)" in art and "RY(x1)" in art

    def test_amplitude_header(self):
        circuit = Circuit(2).amplitude_embedding(4).measure_probs()
        assert "amplitude embedding of 4 features" in draw(circuit)

    def test_truncation(self):
        circuit = Circuit(1)
        for _ in range(10):
            circuit.ry(0)
        art = draw(circuit, max_columns=3)
        assert "..." in art
        assert "w9" not in art

    def test_vertical_connector(self):
        # CNOT between wires 0 and 2 must draw a connector through wire 1.
        circuit = Circuit(3).cnot(0, 2).measure_expval()
        art = draw(circuit)
        middle = art.splitlines()[1]
        assert "|" in middle


class TestDrawerOnFusedPlans:
    """The drawer renders the *circuit*, one column per op — fusion in the
    lowered plan must never change or truncate what is drawn."""

    def test_fused_plan_circuit_draws_every_op(self):
        from repro.quantum import stacked_plan

        circuit = Circuit(3).strongly_entangling_layers(2).measure_expval()
        plan = stacked_plan(circuit)
        # The plan fuses aggressively (Rot triples -> pair blocks, rings ->
        # one gather) ...
        assert plan.n_instructions < len(circuit.ops)
        # ... while the drawing still shows every weight slot and one "o"
        # control per CNOT of both rings.
        art = draw(circuit)
        for w in range(circuit.n_weights):
            assert f"(w{w})" in art
        assert art.count("o") == 6

    def test_adjacent_wire_merged_runs_keep_their_columns(self):
        from repro.quantum import stacked_plan
        from repro.quantum.engine import _SDense

        circuit = Circuit(2).rot(0).rot(1).measure_expval()
        plan = stacked_plan(circuit)
        pairs = [
            i for i in plan.instructions
            if isinstance(i, _SDense) and i.d == 4
        ]
        assert len(pairs) == 1  # the two Rot runs merged into one 4x4 block
        art = draw(circuit)
        lines = art.splitlines()
        assert "RZ(w0)" in lines[0] and "RZ(w3)" in lines[1]
