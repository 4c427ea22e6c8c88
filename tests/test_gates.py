import itertools

import pytest

from nmrlogic import gates as g


def test_truth_table_examples():
    assert g.XOR.outputs == (False, True, True, False)
    assert g.NAND.outputs == (True, True, True, False)
    assert g.T.outputs == (True, True, True, True)
    assert g.B.outputs == (False, True, False, True)


def test_gate_id_roundtrip():
    for gate_id in range(16):
        tt = g.truth_table(gate_id)
        assert tt.gate_id == gate_id
        assert g.TruthTable(tt.outputs) == tt


def test_gate_id_bit_convention():
    # output column read top-to-bottom as binary, most significant first
    assert g.truth_table(5).outputs == (False, True, False, True)  # gate B
    assert g.truth_table(6) is not None and g.truth_table(6) == g.XOR
    assert g.truth_table(14) == g.NAND
    assert g.AND.gate_id == 1
    assert g.OR.gate_id == 7


def test_truth_table_range_check():
    with pytest.raises(ValueError):
        g.truth_table(16)
    with pytest.raises(ValueError):
        g.truth_table(-1)
    with pytest.raises(ValueError, match="exactly 4 outputs"):
        g.TruthTable((1, 0, 1))


def test_named_constants_behave():
    for a, b in itertools.product((0, 1), repeat=2):
        assert g.AND(a, b) == (a and b)
        assert g.OR(a, b) == (a or b)
        assert g.XOR(a, b) == (a != b)
        assert g.NAND(a, b) == (not (a and b))
        assert g.GREATER(a, b) == (a > b)
        assert g.LESS(a, b) == (a < b)
        assert g.GREATER_EQUAL(a, b) == (a >= b)
        assert g.LESS_EQUAL(a, b) == (a <= b)
        assert g.A(a, b) == bool(a)
        assert g.NOT_B(a, b) == (not b)


def test_parse_gate_tokens():
    assert g.parse_gate("XOR") == g.XOR
    assert g.parse_gate("nand") == g.NAND
    assert g.parse_gate("Not A") == g.NOT_A
    assert g.parse_gate("not_b") == g.NOT_B
    assert g.parse_gate(">=") == g.GREATER_EQUAL
    assert g.parse_gate("5") == g.B
    assert g.parse_gate(" t ") == g.T
    # ids are read by int(), with its signs, padding and underscores
    assert [g.parse_gate(t) for t in ("-0", "+5", " 05 ", "1_0")] == [g.F, g.B, g.B, g.NOT_B]
    for token in ("frobnicate", "16", "17", "-1"):
        with pytest.raises(ValueError, match=rf"^unknown gate '{token}'\nvalid tokens: <, <=, "):
            g.parse_gate(token)


def test_canalising_value_examples():
    # A = 0 pins NAND to 1 and A = 1 leaves it to B: one canalising value;
    # no value of A pins XOR
    assert {g.NAND(0, b) for b in (0, 1)} == {True}
    assert {g.NAND(1, b) for b in (0, 1)} == {False, True}
    assert g.canalising_counts(g.NAND).count_a == 1
    assert g.canalising_counts(g.XOR).count_a == 0


def test_canalising_counts_examples():
    assert g.canalising_counts(g.T) == (2, 2)
    assert g.canalising_counts(g.B) == (0, 2)
    assert g.canalising_counts(g.A) == (2, 0)
    assert g.canalising_counts(g.NAND) == (1, 1)
    assert g.canalising_counts(g.XOR) == (0, 0)


def test_canalising_counts_against_brute_force():
    # definition: fixing (variable, value) pins the output across the other
    # input; on the 2x2 output matrix (A on rows) that is a constant row for
    # a value of A and a constant column for a value of B
    for tt in g.ALL_GATES:
        rows = [tt.outputs[0:2], tt.outputs[2:4]]
        columns = list(zip(*rows))
        expected_a = sum(len(set(row)) == 1 for row in rows)
        expected_b = sum(len(set(column)) == 1 for column in columns)
        assert g.canalising_counts(tt) == (expected_a, expected_b)


def test_gate_class_examples():
    assert g.gate_class(g.XOR) == g.GateClass.NONE
    assert g.gate_class(g.AND) == g.GateClass.WEAK
    assert g.gate_class(g.NOT_A) == g.GateClass.STRONG
    assert g.gate_class(g.T) == g.GateClass.CONSTANT


def test_class_member_sets():
    by_class = {}
    for tt in g.ALL_GATES:
        by_class.setdefault(g.gate_class(tt), set()).add(tt)
    assert by_class[g.GateClass.CONSTANT] == {g.T, g.F}
    assert by_class[g.GateClass.STRONG] == {g.A, g.NOT_A, g.B, g.NOT_B}
    assert by_class[g.GateClass.NONE] == {g.XOR, g.XNOR}
    assert len(by_class[g.GateClass.WEAK]) == 8


def test_orbit_examples():
    assert g.orbit(g.T) == frozenset({g.T, g.F})
    assert len(g.orbit(g.A)) == 4
    assert len(g.orbit(g.AND)) == 8
    assert g.orbit(g.XOR) == frozenset({g.XOR, g.XNOR})


def test_orbit_is_closed_under_every_move():
    moves = (
        g.swap_inputs, lambda t: g.negate_input(t, "A"), lambda t: g.negate_input(t, "B"),
        g.negate_output,
    )
    for tt in g.ALL_GATES:
        orbit = g.orbit(tt)
        assert tt in orbit
        assert all(move(image) in orbit for move in moves for image in orbit), tt.name


def test_orbits_partition_all_gates():
    orbits = {g.orbit(tt) for tt in g.ALL_GATES}
    sizes = sorted(len(o) for o in orbits)
    assert sizes == [2, 2, 4, 8]
    union = set()
    for o in orbits:
        assert union.isdisjoint(o)
        union |= o
    assert union == set(g.ALL_GATES)


def test_gate_class_constant_on_orbits():
    for tt in g.ALL_GATES:
        cls = g.gate_class(tt)
        for member in g.orbit(tt):
            assert g.gate_class(member) == cls


def test_class_invariant_under_each_transform():
    for tt in g.ALL_GATES:
        cls = g.gate_class(tt)
        assert g.gate_class(g.swap_inputs(tt)) == cls
        assert g.gate_class(g.negate_input(tt, "A")) == cls
        assert g.gate_class(g.negate_input(tt, "B")) == cls
        assert g.gate_class(g.negate_output(tt)) == cls


def test_transforms_are_involutions():
    for tt in g.ALL_GATES:
        assert g.swap_inputs(g.swap_inputs(tt)) == tt
        assert g.negate_input(g.negate_input(tt, "A"), "A") == tt
        assert g.negate_output(g.negate_output(tt)) == tt
    with pytest.raises(ValueError, match="variable must be 'A' or 'B', got 'C'"):
        g.negate_input(g.T, "C")


def test_gate_class_guards_impossible_profile(monkeypatch):
    monkeypatch.setattr(g, "canalising_counts", lambda tt: g.CanalisingProfile(2, 1))
    with pytest.raises(RuntimeError):
        g.gate_class(g.T)
