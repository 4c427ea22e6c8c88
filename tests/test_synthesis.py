import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nmrlogic import _kernels
from nmrlogic import gates as g
from nmrlogic import spincore as sc
from nmrlogic import synthesis as syn
from nmrlogic.observables import GridSpec, InitialState, ObservableKind, TWO_PULSE_PARAMS

PI = math.pi

THERMAL_MX = syn.reference_single_pulse_scenario()
DEFAULT_GRID = syn.DEFAULT_SYNTH_GRID  # pi/4 multiples over [0, 4pi)
HALF_PI_GRID = GridSpec(0.0, PI / 2, 8)  # pi/2 multiples over [0, 4pi)
SIGNED_GRID = GridSpec(-PI / 2, PI / 2, 10)  # includes -pi/2


def x_scenario(kind):
    return syn.Scenario(
        InitialState.SUPERPOSITION_X, 1, kind, ("phi", "beta")
    )


def test_evaluate_scenario_examples():
    assert syn.evaluate_scenario(THERMAL_MX, PI / 2, PI / 2) == pytest.approx(0.25, abs=1e-15)
    assert syn.evaluate_scenario(THERMAL_MX, 3 * PI / 2, PI / 2) == pytest.approx(-0.25, abs=1e-15)
    mxy = syn.Scenario(InitialState.THERMAL_Z, 1, ObservableKind.MXY, ("phi", "beta"))
    for phi in (0.0, 1.0, -2.5):
        assert syn.evaluate_scenario(mxy, phi, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_scenario_accepts_string_enums():
    s = syn.Scenario("z", 1, "mx", ("phi", "beta"))
    assert s.initial is InitialState.THERMAL_Z
    assert s.observable is ObservableKind.MX


def test_scenario_validation():
    with pytest.raises(ValueError):
        syn.Scenario(InitialState.THERMAL_Z, 1, ObservableKind.MX, ("phi", "phi"))
    with pytest.raises(ValueError):
        syn.Scenario(InitialState.THERMAL_Z, 1, ObservableKind.MX, ("phi", "beta2"))
    with pytest.raises(ValueError):
        syn.Scenario(
            InitialState.THERMAL_Z, 2, ObservableKind.MX, ("phi2", "beta1"),
            fixed=(("phi1", 0.0),),
        )


@pytest.mark.parametrize("twice", [1.0, 2.0], ids=["same-value", "new-value"])
def test_scenario_rejects_a_parameter_fixed_twice(twice):
    with pytest.raises(ValueError, match="parameter 'beta1' is fixed more than once"):
        syn.Scenario(
            "x", 2, "mx", ("phi2", "phi1"),
            fixed=(("beta1", 1.0), ("beta1", twice), ("beta2", 1.0)),
        )


def test_scenario_table_matches_scalar_evaluation():
    cand = DEFAULT_GRID.values()[:6]
    table = syn.scenario_table(THERMAL_MX, cand, cand)
    for i, a in enumerate(cand):
        for j, b in enumerate(cand):
            assert table[i, j] == pytest.approx(
                syn.evaluate_scenario(THERMAL_MX, a, b), abs=1e-14
            )


BINDINGS = [(1, ("phi", "beta"))] + [
    (2, pair) for pair in itertools.permutations(TWO_PULSE_PARAMS, 2)
]


@pytest.mark.parametrize("observable", list(ObservableKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("initial", list(InitialState), ids=lambda state: state.value)
@pytest.mark.parametrize(
    "pulses,inputs", BINDINGS, ids=[",".join(inputs) for _, inputs in BINDINGS]
)
def test_evaluate_scenario_equals_the_cells_of_scenario_table_bit_for_bit(
    pulses, inputs, initial, observable
):
    rng = np.random.default_rng(19)
    names = ("phi", "beta") if pulses == 1 else TWO_PULSE_PARAMS
    fixed = [(name, rng.uniform(-2 * PI, 2 * PI)) for name in names if name not in inputs]
    scenario = syn.Scenario(initial, pulses, observable, inputs, fixed, rng.uniform(0.1, 2.0))
    quarter_turns = rng.integers(-8, 9, size=(2, 2)) * (PI / 4)
    for a_values, b_values in (quarter_turns, rng.uniform(-2 * PI, 2 * PI, size=(2, 2))):
        table = syn.scenario_table(scenario, a_values, b_values)
        cells = [[syn.evaluate_scenario(scenario, a, b) for b in b_values] for a in a_values]
        assert table.tobytes() == np.array(cells).tobytes()


def test_two_pulse_scenario_matches_direct_observable():
    scenario = syn.Scenario(
        InitialState.SUPERPOSITION_X, 2, ObservableKind.MY, ("beta2", "phi1"),
        fixed=(("phi2", 0.4), ("beta1", -1.1)), lambda_b=0.8,
    )
    value = syn.evaluate_scenario(scenario, 2.0, -0.5)
    # pulse 1 (phi1, beta1) first, then pulse 2 (phi2, beta2)
    u = sc.rot_phi(0.4, 2.0) @ sc.rot_phi(-0.5, -1.1)
    direct = sc.magnetization(sc.propagate(sc.superposition_x_state(0.8), u)).my
    assert value == pytest.approx(direct, abs=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_evaluate_scenario_rejects_non_finite_inputs(bad):
    two_pulse = syn.Scenario(
        "x", 2, "mx", ("phi2", "beta1"), fixed=(("phi1", PI / 2), ("beta2", PI))
    )
    for scenario in (THERMAL_MX, two_pulse):
        with pytest.raises(ValueError):
            syn.evaluate_scenario(scenario, bad, 0.0)
        with pytest.raises(ValueError):
            syn.evaluate_scenario(scenario, 0.0, bad)


def test_reference_rows_realize_their_gates():
    for row in syn.REFERENCE_SINGLE_PULSE_GATES:
        assignment = syn.reference_assignment(row)
        assert syn.assignment_realizes(THERMAL_MX, assignment, row.gate), row.gate.name
        # and the recomputed corner values equal the quoted outputs
        for (a, b), expected in zip(((0, 0), (0, 1), (1, 0), (1, 1)), row.outputs):
            value = syn.evaluate_scenario(
                THERMAL_MX, row.a_values[a], row.b_values[b]
            )
            assert value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", ["a0", "a1", "b0", "b1"])
@pytest.mark.parametrize("tt", [g.XOR, g.AND], ids=["XOR", "AND"])
def test_assignment_realizes_rejects_non_finite_values(bad, slot, tt):
    # the XOR exemplar already fails AND at corner 01, before a1 is read
    values = dict(zip(["a0", "a1", "b0", "b1"], (PI / 2, 3 * PI / 2, -PI / 2, PI / 2)))
    values[slot] = bad
    assignment = syn.GateAssignment(
        (values["a0"], values["a1"]), (values["b0"], values["b1"]), ((-0.25, False), (0.25, True))
    )
    with pytest.raises(ValueError):
        syn.assignment_realizes(THERMAL_MX, assignment, tt)


def test_reference_row_does_not_realize_other_gate():
    xor_row = syn.REFERENCE_SINGLE_PULSE_GATES[3]
    assignment = syn.reference_assignment(xor_row)
    assert not syn.assignment_realizes(THERMAL_MX, assignment, g.AND)
    assert not syn.assignment_realizes(THERMAL_MX, assignment, g.XNOR)


def test_assignment_validation():
    with pytest.raises(ValueError):
        syn.GateAssignment((0.0, 1.0), (0.0, 1.0), ())
    with pytest.raises(ValueError):
        syn.GateAssignment((0.0, 1.0), (0.0, 1.0), ((0.25, True), (0.25, False)))
    with pytest.raises(ValueError):
        syn.GateAssignment((0.0, 1.0), (0.0, 1.0), ((0.25, True), (0.1, True)))
    # a negative or NaN tolerance would let two equal levels pass the gap test
    for tol in (math.nan, -1.0, math.inf):
        with pytest.raises(ValueError, match="tolerance"):
            syn.GateAssignment((0.0, 1.0), (0.0, 1.0), ((0.25, True), (0.25, False)), tol)
    with pytest.raises(ValueError, match="separated"):
        syn.GateAssignment((0.0, 1.0), (0.0, 1.0), ((math.nan, True), (0.0, False)))


def test_classify_level_unreachable_value():
    assignment = syn.GateAssignment((0.0, 1.0), (0.0, 1.0), ((0.25, True), (0.0, False)))
    assert assignment.classify_level(0.5) is None
    assert assignment.classify_level(0.25 + 5e-10) is True
    assert assignment.classify_level(-4e-10) is False


def test_synthesize_xor_on_half_pi_grid():
    found = syn.synthesize(THERMAL_MX, g.XOR, HALF_PI_GRID)
    assert found
    # the reference quadruple with -pi/2 shifted by a full period
    target_a = (PI / 2, 3 * PI / 2)
    target_b = (3 * PI / 2, PI / 2)
    hits = [
        asg
        for asg in found
        if np.allclose(asg.a_values, target_a) and np.allclose(asg.b_values, target_b)
    ]
    assert len(hits) == 1
    assert dict((bit, lvl) for lvl, bit in hits[0].level_map) == pytest.approx(
        {False: -0.25, True: 0.25}
    )


def test_synthesize_finds_literal_reference_quadruples():
    found = syn.synthesize(THERMAL_MX, g.XOR, SIGNED_GRID)
    row = syn.REFERENCE_SINGLE_PULSE_GATES[3]
    hits = [
        asg
        for asg in found
        if np.allclose(asg.a_values, row.a_values)
        and np.allclose(asg.b_values, row.b_values)
    ]
    assert len(hits) == 1

    found_t = syn.synthesize(THERMAL_MX, g.T, DEFAULT_GRID)
    row_t = syn.REFERENCE_SINGLE_PULSE_GATES[0]
    hits_t = [
        asg
        for asg in found_t
        if np.allclose(asg.a_values, row_t.a_values)
        and np.allclose(asg.b_values, row_t.b_values)
    ]
    assert len(hits_t) == 1


def test_synthesize_constant_false_with_zero_flip():
    grid = GridSpec(0.0, PI / 2, 4)  # includes beta = 0
    found = syn.synthesize(THERMAL_MX, g.F, grid)
    assert found
    for asg in found[:50]:
        assert syn.assignment_realizes(THERMAL_MX, asg, g.F)


def test_synthesize_no_xor_from_x_state():
    for kind in ObservableKind:
        scenario = x_scenario(kind)
        assert syn.synthesize(scenario, g.XOR, DEFAULT_GRID) == []
        assert syn.count_assignments(scenario, g.XNOR, DEFAULT_GRID) == 0


def test_synthesize_results_are_sound():
    for tt in (g.XOR, g.NAND, g.B, g.T, g.AND):
        found = syn.synthesize(THERMAL_MX, tt, HALF_PI_GRID)
        assert found, tt.name
        step = max(1, len(found) // 40)
        for asg in found[::step]:
            assert syn.assignment_realizes(THERMAL_MX, asg, tt), (tt.name, asg)


def test_synthesize_deterministic():
    first = syn.synthesize(THERMAL_MX, g.NAND, DEFAULT_GRID)
    second = syn.synthesize(THERMAL_MX, g.NAND, DEFAULT_GRID)
    assert first == second


def test_coincident_input_values_only_for_ignored_inputs():
    for asg in syn.synthesize(THERMAL_MX, g.XOR, DEFAULT_GRID):
        assert asg.a_values[0] != asg.a_values[1]
        assert asg.b_values[0] != asg.b_values[1]
    b_assignments = syn.synthesize(THERMAL_MX, g.B, DEFAULT_GRID)
    assert any(asg.a_values[0] == asg.a_values[1] for asg in b_assignments)
    assert all(asg.b_values[0] != asg.b_values[1] for asg in b_assignments)
    t_assignments = syn.synthesize(THERMAL_MX, g.T, DEFAULT_GRID)
    assert any(
        asg.a_values[0] == asg.a_values[1] and asg.b_values[0] == asg.b_values[1]
        for asg in t_assignments
    )


def test_symmetry_closure_of_assignments():
    nand_assignments = syn.synthesize(THERMAL_MX, g.NAND, HALF_PI_GRID)
    swapped_scenario = syn.Scenario(
        InitialState.THERMAL_Z, 1, ObservableKind.MX, ("beta", "phi")
    )
    step = max(1, len(nand_assignments) // 25)
    for asg in nand_assignments[::step]:
        negated_map = tuple((level, not bit) for level, bit in asg.level_map)
        negated = syn.GateAssignment(asg.a_values, asg.b_values, negated_map, asg.tolerance)
        assert syn.assignment_realizes(THERMAL_MX, negated, g.negate_output(g.NAND))

        flipped_a = syn.GateAssignment(
            (asg.a_values[1], asg.a_values[0]), asg.b_values, asg.level_map, asg.tolerance
        )
        assert syn.assignment_realizes(THERMAL_MX, flipped_a, g.negate_input(g.NAND, "A"))

        swapped = syn.GateAssignment(asg.b_values, asg.a_values, asg.level_map, asg.tolerance)
        assert syn.assignment_realizes(swapped_scenario, swapped, g.swap_inputs(g.NAND))


# ---------------------------------------------------------------------------
# Completeness oracle: an independent pure-python exhaustive enumeration.
# ---------------------------------------------------------------------------


def oracle_quadruples(table, outputs, tol=1e-9):
    """Yield every realizing (i0, i1, j0, j1), in lexicographic order."""
    table = np.asarray(table).tolist()  # python floats: the same doubles, faster
    o00, o01, o10, o11 = outputs
    rows = range(len(table))
    cols = range(len(table[0]))
    for i0 in rows:
        for i1 in rows:
            for j0 in cols:
                for j1 in cols:
                    corners = (
                        (table[i0][j0], o00),
                        (table[i0][j1], o01),
                        (table[i1][j0], o10),
                        (table[i1][j1], o11),
                    )
                    zeros = [v for v, bit in corners if not bit]
                    ones = [v for v, bit in corners if bit]
                    if zeros and max(zeros) - min(zeros) > tol:
                        continue
                    if ones and max(ones) - min(ones) > tol:
                        continue
                    if zeros and ones:
                        gap_up = min(ones) - max(zeros)
                        gap_down = min(zeros) - max(ones)
                        if not (gap_up > tol or gap_down > tol):
                            continue
                    yield (i0, i1, j0, j1)


def random_tables(seed=0, count=6, shape=(9, 9)):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        # quantised values so exact level coincidences actually occur
        yield np.round(rng.uniform(-0.25, 0.25, size=shape) * 8) / 8


def jittered_table(tol, seed=1, shape=(8, 8)):
    """Levels 4 tol apart, each value moved by up to 0.75 tol.

    Two values of one level can then lie more than tol apart while both
    lie within tol of a third, so closeness is not transitive.
    """
    rng = np.random.default_rng(seed)
    levels = rng.integers(-1, 2, size=shape) * 4 * tol
    return levels + rng.uniform(-0.75, 0.75, size=shape) * tol


def _oracle_cases():
    # a tolerance of one quantisation step puts corner gaps exactly at tol
    for tol in (1e-9, 1 / 8):
        for table in random_tables():
            yield table, tol
    yield next(random_tables(seed=2, count=1, shape=(7, 10))), 1 / 8
    yield jittered_table(1e-2), 1e-2


# (table, tol) pairs the kernel is compared with the oracle on
ORACLE_CASES = list(_oracle_cases())


@functools.cache
def oracle_hits(case, outputs):
    """The oracle's hits for one case and truth table, enumerated once."""
    table, tol = ORACLE_CASES[case]
    return list(oracle_quadruples(table, outputs, tol))


def test_jittered_table_closeness_is_not_transitive():
    tol = 1e-2
    flat = jittered_table(tol).ravel()
    close = (np.abs(flat[:, None] - flat[None, :]) <= tol).astype(int)
    # some a ~ b and b ~ c with a !~ c
    assert ((close @ close) > 0)[close == 0].any()


# A budget of 2^40 holds each of these tables in one block; a budget of
# 1 gives every (i0, i1) row pair a block of its own.
SEARCH_LIMITS = pytest.mark.parametrize(
    "limit", [1 << 40, 1], ids=["full-broadcast", "row-blocks"]
)


@SEARCH_LIMITS
def test_kernel_hits_equal_oracle_enumeration(monkeypatch, limit):
    monkeypatch.setattr(_kernels, "_BLOCK_QUADRUPLES", limit)
    for case, (table, tol) in enumerate(ORACLE_CASES):
        for tt in g.ALL_GATES:
            expected = oracle_hits(case, tt.outputs)
            found = _kernels.find_gate_quadruples(table, tt.outputs, tol)
            assert found.dtype == np.int64
            assert [tuple(row) for row in found.tolist()] == expected, (case, tt.name)
            count, blocks = _kernels.gate_quadruples(table, tt.outputs, tol)
            blocks = list(blocks)
            assert count == len(expected), (case, tt.name)
            assert all(len(hits) and hits.dtype == np.int64 for hits in blocks)
            streamed = [tuple(row) for hits in blocks for row in hits.tolist()]
            assert streamed == expected, (case, tt.name)
            assert _kernels.gate_counts(table, [tt.outputs], tol) == [len(expected)], (case, tt.name)


@pytest.mark.parametrize(
    "tol,labelled", [(syn.DEFAULT_LEVEL_TOL, True), (0.02, False)],
    ids=["label-route", "pairwise-route"],
)
def test_gate_quadruples_count_equals_its_blocks_and_gate_counts(tol, labelled):
    scenario = x_scenario(ObservableKind.MX)
    _, table = syn.candidate_table(scenario, GridSpec(0.0, PI / 8, 12), tol)
    assert (_kernels.level_labels(table, tol) is not None) == labelled
    expected = _kernels.gate_counts(table, [tt.outputs for tt in g.ALL_GATES], tol)
    for tt, total in zip(g.ALL_GATES, expected):
        count, blocks = _kernels.gate_quadruples(table, tt.outputs, tol)
        assert type(count) is int
        blocks = list(blocks)
        assert count == sum(len(hits) for hits in blocks) == total, tt.name
        assert all(len(hits) for hits in blocks), tt.name
    # x-state mx realizes no XOR: a count of 0 yields no block
    assert expected[g.XOR.gate_id] == 0


def _count_passes(monkeypatch):
    """List that gets one entry per search pass `_kernels` runs."""
    passes = []
    original = _kernels._quadruple_blocks

    def counted(*args):
        passes.append(args)
        yield from original(*args)

    monkeypatch.setattr(_kernels, "_quadruple_blocks", counted)
    return passes


@pytest.mark.parametrize("tt", [g.AND, g.XOR], ids=["AND", "XOR"])
def test_find_gate_quadruples_searches_the_pairwise_route_once(monkeypatch, tt):
    tol = 0.01
    _, table = syn.candidate_table(THERMAL_MX, GridSpec(0.0, 0.37 * PI / 8, 16), tol)
    assert _kernels.level_labels(table, tol) is None
    count, blocks = _kernels.gate_quadruples(table, tt.outputs, tol)
    expected = np.concatenate([np.empty((0, 4), dtype=np.int64), *blocks])
    assert count == len(expected)
    passes = _count_passes(monkeypatch)
    found = _kernels.find_gate_quadruples(table, tt.outputs, tol)
    assert len(passes) == 1
    assert found.dtype == np.int64
    assert np.array_equal(found, expected)


def test_a_label_route_count_of_0_runs_no_search_pass(monkeypatch):
    tol = syn.DEFAULT_LEVEL_TOL
    _, table = syn.candidate_table(x_scenario(ObservableKind.MX), GridSpec(0.0, PI / 8, 12), tol)
    assert _kernels.level_labels(table, tol) is not None
    passes = _count_passes(monkeypatch)
    assert _kernels.gate_quadruples(table, g.XOR.outputs, tol)[0] == 0
    assert _kernels.find_gate_quadruples(table, g.XOR.outputs, tol).shape == (0, 4)
    assert passes == []


def _refuse_row_tests(monkeypatch):
    """Make every 3-D `np.empty` (the (nA, nB, nB) row test) fail as a
    search too large for memory would, and list the shapes refused."""
    refused = []
    empty = np.empty

    def guarded(shape, *args, **kwargs):
        if np.ndim(shape) == 1 and len(shape) == 3:
            refused.append(tuple(shape))
            raise MemoryError("row test refused")
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", guarded)
    return refused


@pytest.mark.parametrize("labelled", [True, False], ids=["labels", "pairwise"])
def test_gate_quadruples_allocates_its_row_test_before_it_returns(monkeypatch, labelled):
    # `synthesize` prints the count once this returns: a row test that
    # cannot be allocated must fail here, not at the first block
    tol = 1e-9 if labelled else 0.01
    spacing = PI / 8 if labelled else 0.37 * PI / 8
    _, table = syn.candidate_table(THERMAL_MX, GridSpec(0.0, spacing, 16), tol)
    assert (_kernels.level_labels(table, tol) is not None) == labelled
    assert _kernels.gate_quadruples(table, g.AND.outputs, tol)[0] > 0
    refused = _refuse_row_tests(monkeypatch)
    with pytest.raises(MemoryError):
        _kernels.gate_quadruples(table, g.AND.outputs, tol)
    assert refused == [(16, 16, 16)]


def test_a_label_route_count_of_0_allocates_no_row_test(monkeypatch):
    tol = syn.DEFAULT_LEVEL_TOL
    _, table = syn.candidate_table(x_scenario(ObservableKind.MX), GridSpec(0.0, PI / 8, 12), tol)
    refused = _refuse_row_tests(monkeypatch)
    count, blocks = _kernels.gate_quadruples(table, g.XOR.outputs, tol)
    assert (count, list(blocks), refused) == (0, [], [])


def _gate_pair_counts(labels, outputs):
    """(nA, nA) label-route hits per row pair (i0, i1) for one truth table."""
    slot, transposed = _kernels.orbit_representative(outputs)
    counts = _kernels.level_pair_counts(labels)[slot]
    return counts.T if transposed else counts


def test_level_pair_counts_equal_oracle_hits_per_row_pair():
    transitive = 0
    for case, (table, tol) in enumerate(ORACLE_CASES):
        labels = _kernels.level_labels(table, tol)
        if labels is None:
            continue
        transitive += 1
        for tt in g.ALL_GATES:
            expected = np.zeros((len(table),) * 2, dtype=np.int64)
            for i0, i1, _, _ in oracle_hits(case, tt.outputs):
                expected[i0, i1] += 1
            counts = _gate_pair_counts(labels, tt.outputs)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, expected), (case, tt.name)
    assert transitive == 6  # the tol=1e-9 tables; the others chain gaps at tol


def test_and_pair_counts_equal_level_pair_counts_on_oracle_cases():
    labelled = 0
    for table, tol in ORACLE_CASES:
        labels = _kernels.level_labels(table, tol)
        if labels is None:
            continue
        labelled += 1
        counts = _kernels._and_pair_counts(labels)
        assert counts.dtype == np.int64
        assert np.array_equal(counts, _kernels.level_pair_counts(labels)[4])
    assert labelled == 6


@settings(max_examples=40)
@given(
    shape=st.tuples(st.integers(2, 6), st.integers(1, 6)),
    levels=st.sampled_from(["one", "columns", "columns + 1"]),
    data=st.data(),
)
def test_and_pair_counts_equal_level_pair_counts_about_the_level_rule(shape, levels, data):
    na, nb = shape
    m = {"one": 1, "columns": nb, "columns + 1": nb + 1}[levels]
    cells = data.draw(st.lists(st.integers(0, m - 1), min_size=na * nb, max_size=na * nb))
    cells[:m] = range(m)  # every level appears at least once
    cells = data.draw(st.permutations(cells))
    table = np.array(cells, dtype=np.float64).reshape(na, nb) / 8
    labels = _kernels.level_labels(table, 1e-9)
    assert labels.max() + 1 == m
    # all five sums take the sort; AND alone takes the gemm up to m = nB
    expected = _kernels.level_pair_counts(labels)[4]
    assert np.array_equal(_kernels._and_pair_counts(labels), expected)
    assert np.array_equal(_kernels.level_pair_counts(labels, (4,))[0], expected)


def _count_routes(monkeypatch):
    """List that gets (name, slots) for each label counter `_kernels` runs:
    the counter's name and the orbit slots it was asked for."""
    routes = []
    requested = {
        "level_pair_counts": lambda labels, slots=range(5): tuple(slots),
        "_and_pair_counts": lambda labels: (4,),
    }
    for name, slots_of in requested.items():
        original = getattr(_kernels, name)

        def counted(*args, name=name, original=original, slots_of=slots_of, **kwargs):
            routes.append((name, slots_of(*args, **kwargs)))
            return original(*args, **kwargs)

        monkeypatch.setattr(_kernels, name, counted)
    return routes


@pytest.mark.parametrize(
    "shape,levels,gemm",
    [((9, 9), 5, True), ((8, 4), 4, True), ((8, 3), 5, False)],
    ids=["fewer-levels", "levels-equal-columns", "more-levels"],
)
def test_gate_quadruples_count_the_and_orbit_by_the_level_rule(
    monkeypatch, shape, levels, gemm
):
    rng = np.random.default_rng(levels)
    table = rng.integers(0, levels, size=shape) / 8
    labels = _kernels.level_labels(table, 1e-9)
    assert labels.max() + 1 == levels
    # NOR is AND's representative with its rows swapped: the transposed case
    gate_set = (g.T, g.F, g.B, g.NOT_B, g.AND, g.NOR)
    expected = _kernels.gate_counts(table, [tt.outputs for tt in gate_set], 1e-9)
    routes = _count_routes(monkeypatch)
    for tt, total in zip(gate_set, expected):
        routes.clear()
        count, blocks = _kernels.gate_quadruples(table, tt.outputs, 1e-9)
        slot = _kernels.orbit_representative(tt.outputs)[0]
        # every search asks the one entry point for its own sum; only AND
        # on a table with no more levels than columns runs the gemm
        taken = [("_and_pair_counts", (4,))] if slot == 4 and gemm else []
        assert routes == [("level_pair_counts", (slot,))] + taken, tt.name
        hits = [tuple(row) for block in blocks for row in block.tolist()]
        assert count == len(hits) == total, tt.name
        assert hits == list(oracle_quadruples(table, tt.outputs)), tt.name
        assert total, tt.name
    for tt, slot in ((g.A, 1), (g.NOT_A, 1), (g.XOR, 3), (g.XNOR, 3)):
        routes.clear()
        _kernels.gate_quadruples(table, tt.outputs, 1e-9)
        assert routes == [("level_pair_counts", (slot,))], tt.name


@pytest.mark.parametrize(
    "gate_set,slots",
    [
        ((g.A, g.NOT_A), (1,)),
        ((g.XNOR, g.AND, g.NOR), (3, 4)),
        ((g.B, g.T, g.F, g.NOT_B), (0, 2)),
        (g.ALL_GATES, (0, 1, 2, 3, 4)),
    ],
    ids=["a-orbit", "xor-and-orbits", "t-b-orbits", "all-16"],
)
def test_gate_counts_ask_for_the_union_of_their_gates_slots(monkeypatch, gate_set, slots):
    table = np.random.default_rng(6).integers(0, 5, size=(9, 7)) / 8
    routes = _count_routes(monkeypatch)
    counts = _kernels.gate_counts(table, [tt.outputs for tt in gate_set], 1e-9)
    assert routes == [("level_pair_counts", slots)]
    assert counts == [sum(1 for _ in oracle_quadruples(table, tt.outputs)) for tt in gate_set]


def test_and_orbit_counts_take_the_gemm(monkeypatch):
    table = np.random.default_rng(7).integers(0, 3, size=(9, 7)) / 8
    assert _kernels.level_labels(table, 1e-9).max() + 1 == 3
    routes = _count_routes(monkeypatch)
    gemm = [("level_pair_counts", (4,)), ("_and_pair_counts", (4,))]
    counts = _kernels.gate_counts(table, [g.AND.outputs, g.NOR.outputs], 1e-9)
    assert routes == gemm
    assert counts == [sum(1 for _ in oracle_quadruples(table, tt.outputs)) for tt in (g.AND, g.NOR)]
    # count_assignments goes through gate_counts: the thermal mx table on
    # the pi/2 grid has 3 levels over 8 columns
    routes.clear()
    assert syn.count_assignments(THERMAL_MX, g.AND, HALF_PI_GRID) == 256
    assert routes == gemm


def test_and_pair_counts_hold_a_few_row_pair_arrays():
    # 96 x 40 cells, 3 levels: the sort's block of 2^16 cells alone is
    # 0.5 MiB per int64 array, and it keeps a few
    na, nb = 96, 40
    labels = np.random.default_rng(4).integers(0, 3, size=(na, nb))
    tracemalloc.start()
    try:
        counts = _kernels._and_pair_counts(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape == (na, na)
    # three (nA, nA) float64 arrays and the int64 result, one more to
    # spare, and the indicator
    assert peak < (5 * na + nb) * na * 8 + 4096, peak


def test_jittered_table_takes_the_pairwise_fallback():
    case = len(ORACLE_CASES) - 1
    table, tol = ORACLE_CASES[case]
    assert _kernels.level_labels(table, tol) is None
    counts = _kernels.gate_counts(table, [tt.outputs for tt in g.ALL_GATES], tol)
    assert counts == [len(oracle_hits(case, tt.outputs)) for tt in g.ALL_GATES]
    assert any(counts)


@settings(max_examples=40)
@given(
    levels=st.lists(
        st.lists(st.integers(-3, 3), min_size=5, max_size=5), min_size=2, max_size=5
    ),
    width=st.integers(2, 5),
    scale=st.sampled_from([1 / 8, 0.3, 1.0]),
    tol=st.sampled_from([0.0, 1e-9, 0.04]),
)
def test_label_counts_equal_kernel_and_oracle(levels, width, scale, tol):
    # integer levels times a scale: distinct values lie at least 1/8 apart
    table = np.array(levels, dtype=np.float64)[:, :width] * scale
    labels = _kernels.level_labels(table, tol)
    assert labels is not None
    counts = _kernels.gate_counts(table, [tt.outputs for tt in g.ALL_GATES], tol)
    for tt, count in zip(g.ALL_GATES, counts):
        assert _gate_pair_counts(labels, tt.outputs).sum() == count, tt.name
        assert len(_kernels.find_gate_quadruples(table, tt.outputs, tol)) == count
        assert sum(1 for _ in oracle_quadruples(table, tt.outputs, tol)) == count


def test_counts_keep_the_negations_but_not_the_input_swap():
    # x-state mx on a pi/8 grid; at n = 48 A has 469,800 hits and B 951,912
    scenario = x_scenario(ObservableKind.MX)
    grid = GridSpec(0.0, PI / 8, 12)
    counts = {
        tt: len(syn.synthesize(scenario, tt, grid)) for tt in g.ALL_GATES
    }
    for tt in g.ALL_GATES:
        assert syn.count_assignments(scenario, tt, grid) == counts[tt], tt.name
        for image in (
            g.negate_input(tt, "A"), g.negate_input(tt, "B"), g.negate_output(tt)
        ):
            assert counts[image] == counts[tt], (tt.name, image.name)
    # input swap maps A to B, one orbit under `gates.orbit`, with other counts
    assert g.swap_inputs(g.A) == g.B and g.B in g.orbit(g.A)
    assert (counts[g.A], counts[g.B]) == (1904, 3528)


def test_level_pair_counts_hold_one_block(monkeypatch):
    rng = np.random.default_rng(3)
    table = np.round(rng.uniform(-1, 1, size=(64, 64)) * 32) / 32
    labels = _kernels.level_labels(table, 1e-9)
    assert labels is not None
    monkeypatch.setattr(_kernels, "_BLOCK_QUADRUPLES", 64 * 64)  # one row i0
    tracemalloc.start()
    try:
        counts = _kernels.level_pair_counts(labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert counts.shape == (5, 64, 64)
    # unblocked, the 64^3 column label pairs alone take 2 MiB as one int64 array
    assert peak < 1 << 20, peak


def test_more_labels_than_one_byte_holds_equal_oracle_hits():
    # 289 distinct values: labels reach 288, so one byte would wrap
    # label 256 onto label 0 and make distinct levels equal
    rng = np.random.default_rng(5)
    table = rng.permutation(289).reshape(17, 17) / 8
    labels = _kernels.level_labels(table, 1e-9)
    assert labels.max() == 288
    for tt in (g.T, g.A, g.B, g.XOR, g.AND):  # the five orbit representatives
        found = _kernels.find_gate_quadruples(table, tt.outputs, 1e-9)
        expected = list(oracle_quadruples(table, tt.outputs, 1e-9))
        assert [tuple(row) for row in found.tolist()] == expected, tt.name


@pytest.mark.parametrize(
    "initial,step,tol,labelled",
    [
        (InitialState.SUPERPOSITION_X, PI / 8, syn.DEFAULT_LEVEL_TOL, True),
        (InitialState.THERMAL_Z, 0.37 * PI / 8, 0.01, False),
        # 2,017 levels at n = 64 and 8,129 at n = 128
        (InitialState.THERMAL_Z, 0.37 * PI / 8, syn.DEFAULT_LEVEL_TOL, True),
    ],
    ids=["label-route", "pairwise-route", "many-levels"],
)
@pytest.mark.parametrize("n", [64, 128])
def test_search_peak_is_one_row_test_and_a_few_blocks(initial, step, tol, labelled, n):
    scenario = syn.Scenario(initial, 1, ObservableKind.MX, ("phi", "beta"))
    candidates = GridSpec(0.0, step, n).values()
    table = syn.scenario_table(scenario, candidates, candidates)
    assert (_kernels.level_labels(table, tol) is not None) == labelled
    tracemalloc.start()
    try:
        blocks = _kernels.gate_quadruples(table, g.AND.outputs, tol)[1]
        hits = sum(len(block) for block in blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hits
    # one n^3 boolean row test and a few blocks; six n^3 float and boolean
    # arrays peaked at 50 MB at n = 128
    assert peak < n**3 + 6 * _kernels._BLOCK_QUADRUPLES * 8, peak


def _formula_pair_counts(labels):
    """`level_pair_counts` from a dense h(x, y) per row pair, the formulas
    of its docstring written out one row i0 at a time."""
    na, nb = labels.shape
    m = int(labels.max()) + 1
    counts = np.zeros((5, na, na), dtype=np.int64)
    for i0 in range(na):
        h = np.zeros((na, m, m), dtype=np.int64)
        np.add.at(h, (np.arange(na)[:, None], labels[i0][None, :], labels), 1)
        diag = np.einsum("ixx->ix", h)
        r = h[0].sum(axis=1)
        t = (diag * diag).sum(axis=1)
        counts[:, i0] = (
            t,
            (h * h).sum(axis=(1, 2)) - t,
            diag.sum(axis=1) ** 2 - t,
            (h * h.transpose(0, 2, 1)).sum(axis=(1, 2)) - t,
            (diag * (r - diag)).sum(axis=1),
        )
    return counts


def test_level_pair_counts_peak_is_a_few_blocks():
    # 65 levels over 64 columns: nearly every column label pair of a row
    # pair is its own histogram entry, so entry arrays are block-sized
    rng = np.random.default_rng(3)
    few = np.round(rng.uniform(-1, 1, size=(64, 64)) * 32) / 32
    # 128 x 128 distinct values, 16,384 levels: every row pair holds nB
    # entries h(x, y) = 1, with x == y on the diagonal row pairs only
    n = 128
    distinct = rng.permutation(n * n).reshape(n, n) / 8
    closed = np.zeros((5, n, n), dtype=np.int64)
    closed[1] = n  # A
    diagonal = np.arange(n)
    closed[:3, diagonal, diagonal] = [[n], [0], [n * (n - 1)]]  # T, A, B
    for table, levels in ((few, 65), (distinct, n * n)):
        labels = _kernels.level_labels(table, 1e-9)
        assert labels.max() + 1 == levels
        tracemalloc.start()
        try:
            counts = _kernels.level_pair_counts(labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = _formula_pair_counts(labels) if table is few else closed
        assert np.array_equal(counts, expected)
        # one block of 2^16 int64 cells is 0.5 MiB; keeping every temporary
        # of a block alive took about 8.9 MB, and a count of every label in
        # every row took 17 MB on the distinct table
        block = _kernels._BLOCK_QUADRUPLES * 8
        assert peak < 8 * block, (levels, peak)


def test_xor_pair_counts_peak_is_below_all_five():
    # the 65-level table above: XOR alone needs T, the entry keys and one
    # lookup per entry with x < y, not AND's column compare
    rng = np.random.default_rng(3)
    labels = _kernels.level_labels(np.round(rng.uniform(-1, 1, size=(64, 64)) * 32) / 32, 1e-9)
    assert labels.max() + 1 == 65
    tracemalloc.start()
    try:
        counts = _kernels.level_pair_counts(labels, (3,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(counts, _formula_pair_counts(labels)[[3]])
    # measured at 2.2 MB; all five sums may take 8 blocks of 0.5 MiB
    block = _kernels._BLOCK_QUADRUPLES * 8
    assert peak < 5 * block, peak


# every non-empty subset of the five orbit slots
SLOT_SUBSETS = [
    subset for size in range(1, 6) for subset in itertools.combinations(range(5), size)
]


@settings(max_examples=60, deadline=None)
@given(
    levels=st.sampled_from(["one", "fewer", "columns", "more", "181", "182"]),
    rows_per_block=st.integers(1, 4),
    data=st.data(),
)
def test_level_pair_counts_of_every_slot_subset_equal_the_formulas(
    levels, rows_per_block, data
):
    # 181 levels are the most whose keys x*m + y fit int16, 182 the fewest
    # that take int32
    sizes = st.integers(13, 16) if levels in ("181", "182") else st.integers(1, 7)
    na, nb = data.draw(st.tuples(sizes, sizes), label="shape")
    m = {
        "one": 1,
        "fewer": data.draw(st.integers(2, max(2, nb - 1))),
        "columns": nb,
        "more": data.draw(st.integers(nb + 1, max(nb + 1, na * nb))),
        "181": 181,
        "182": 182,
    }[levels]
    assume(2 <= m < nb if levels == "fewer" else m <= na * nb)
    cells = data.draw(st.lists(st.integers(0, m - 1), min_size=na * nb, max_size=na * nb))
    cells[:m] = range(m)  # every level appears at least once
    cells = data.draw(st.permutations(cells))
    labels = _kernels.level_labels(np.array(cells, dtype=np.float64).reshape(na, nb) / 8, 1e-9)
    assert labels.max() + 1 == m
    expected = _formula_pair_counts(labels)
    # blocks of 1 to 4 rows: each block mirrors the symmetric sums of the
    # blocks before it
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "_BLOCK_QUADRUPLES", rows_per_block * na * nb)
        for subset in SLOT_SUBSETS:
            slots = data.draw(st.permutations(subset))
            counts = _kernels.level_pair_counts(labels, slots)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, expected[list(slots)]), slots


@SEARCH_LIMITS
def test_kernel_without_hits_returns_empty_int64(monkeypatch, limit):
    monkeypatch.setattr(_kernels, "_BLOCK_QUADRUPLES", limit)
    # every corner equal: no two output levels can be told apart
    table = np.zeros((4, 4))
    found = _kernels.find_gate_quadruples(table, (False, True, True, False), 1e-9)
    assert found.shape == (0, 4)
    assert found.dtype == np.int64


@pytest.mark.parametrize(
    "scenario",
    [
        THERMAL_MX,
        x_scenario(ObservableKind.MX),
        x_scenario(ObservableKind.MY),
        x_scenario(ObservableKind.MXY),
    ],
    ids=["z-mx", "x-mx", "x-my", "x-mxy"],
)
def test_search_agrees_with_brute_force_oracle(scenario):
    cand = DEFAULT_GRID.values()
    table = [
        [syn.evaluate_scenario(scenario, a, b) for b in cand] for a in cand
    ]
    for tt in g.ALL_GATES:
        outputs = (tt(0, 0), tt(0, 1), tt(1, 0), tt(1, 1))
        expected = next(oracle_quadruples(table, outputs), None) is not None
        count = syn.count_assignments(scenario, tt, DEFAULT_GRID)
        assert count == len(syn.synthesize(scenario, tt, DEFAULT_GRID)), tt.name
        assert (count > 0) == expected, tt.name


def test_realizable_set_closed_under_orbit_moves():
    scenario = x_scenario(ObservableKind.MX)
    realizable = {
        tt for tt in g.ALL_GATES if syn.count_assignments(scenario, tt, DEFAULT_GRID)
    }
    for tt in realizable:
        assert g.negate_output(tt) in realizable
        assert g.negate_input(tt, "A") in realizable
        assert g.negate_input(tt, "B") in realizable


# ---------------------------------------------------------------------------
# Class capability checks and built-in verification report.
# ---------------------------------------------------------------------------


def test_achievable_classes_examples():
    assert syn.achievable_classes(THERMAL_MX, DEFAULT_GRID) == set(g.GateClass)
    assert syn.achievable_classes(x_scenario(ObservableKind.MX), DEFAULT_GRID) == {
        g.GateClass.CONSTANT,
        g.GateClass.STRONG,
        g.GateClass.WEAK,
    }


def test_equal_fix_two_pulse_classes_on_exemplar_grid():
    for inputs, fixed in (
        (("phi2", "phi1"), (("beta1", PI / 2), ("beta2", PI / 2))),
        (("phi2", "beta1"), (("phi1", PI / 2), ("beta2", PI / 2))),
        (("beta2", "beta1"), (("phi1", PI / 2), ("phi2", PI / 2))),
    ):
        scenario = syn.Scenario(
            InitialState.SUPERPOSITION_X, 2, ObservableKind.MX, inputs, fixed=fixed
        )
        assert syn.achievable_classes(scenario, syn.EXEMPLAR_GRID) == {
            g.GateClass.CONSTANT,
            g.GateClass.STRONG,
            g.GateClass.NONE,
        }, inputs


def test_equal_fix_quarter_grid_admits_accidental_weak_gates():
    # on the finer pi/4 grid exact level coincidences (three corners at
    # lambda/8) realize weakly-canalising gates; pinned so the behaviour
    # is not mistaken for a search bug
    scenario = syn.Scenario(
        InitialState.SUPERPOSITION_X, 2, ObservableKind.MX, ("phi2", "phi1"),
        fixed=(("beta1", PI / 2), ("beta2", PI / 2)),
    )
    found = syn.synthesize(scenario, g.AND, DEFAULT_GRID)
    assert found
    assert syn.assignment_realizes(scenario, found[0], g.AND)
    witness = syn.GateAssignment(
        (0.0, PI / 4), (7 * PI / 4, PI / 4), ((0.125, False), (0.0, True))
    )
    assert syn.assignment_realizes(scenario, witness, g.AND)


def test_mixed_fix_two_pulse_restores_all_classes():
    scenario = syn.Scenario(
        InitialState.SUPERPOSITION_X, 2, ObservableKind.MX, ("phi2", "beta1"),
        fixed=(("phi1", PI / 2), ("beta2", PI)),
    )
    assert syn.achievable_classes(scenario, DEFAULT_GRID) == set(g.GateClass)


def test_verify_reference_tables_all_pass():
    checks = syn.verify_reference_tables()
    assert checks
    failed = [c for c in checks if not c.passed]
    assert not failed, failed


def test_verify_reference_tables_evaluates_each_table_once(monkeypatch):
    # one 2x2 table per exemplar serves its four cells and its level map;
    # the closed-form checks take the other eight
    calls = []
    scenario_table = syn.scenario_table

    def counted(*args):
        calls.append(args)
        return scenario_table(*args)

    monkeypatch.setattr(syn, "scenario_table", counted)
    checks = syn.verify_reference_tables()
    assert len(calls) == 12
    assert all(c.passed for c in checks)


def test_verify_reference_tables_detects_wrong_scale():
    checks = syn.verify_reference_tables(lambda_b=0.5)
    assert any(not c.passed for c in checks)


def test_capability_checks_all_pass():
    checks = syn.capability_checks()
    assert len(checks) == 6
    failed = [c for c in checks if not c.passed]
    assert not failed, failed


def test_capability_checks_build_one_table_per_scenario(monkeypatch):
    original = syn.scenario_table
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(syn, "scenario_table", counted)
    syn.capability_checks()
    assert len(calls) == 6  # thermal, three x-state readouts, two 2-pulse


def test_count_assignments_holds_one_block_of_hits(monkeypatch):
    # lambda_b = 0 makes every table value 0: all n^4 quadruples realize T
    flat = syn.Scenario(
        InitialState.THERMAL_Z, 1, ObservableKind.MX, ("phi", "beta"), lambda_b=0.0
    )
    grid = GridSpec(0.0, PI / 8, 16)
    monkeypatch.setattr(_kernels, "_BLOCK_QUADRUPLES", 256)
    tracemalloc.start()
    try:
        count = syn.count_assignments(flat, g.T, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 16**4
    # the 65,536 hits alone take 2 MiB as one int64 array
    assert peak < 1 << 20, peak


# synthesize rows ---------------------------------------------------------------


MIXED_FIX = syn.Scenario(
    InitialState.SUPERPOSITION_X, 2, ObservableKind.MX, ("phi2", "beta1"),
    fixed=(("phi1", PI / 2), ("beta2", PI)),
)


@pytest.mark.parametrize("scenario", [THERMAL_MX, MIXED_FIX], ids=["1-pulse", "2-pulse"])
@pytest.mark.parametrize("tt", [g.T, g.F, g.B, g.NAND, g.XOR], ids=lambda tt: tt.name)
def test_search_rows_match_synthesize(scenario, tt):
    tol = syn.DEFAULT_LEVEL_TOL
    candidates, table = syn.candidate_table(scenario, HALF_PI_GRID, tol)
    hits = _kernels.find_gate_quadruples(table, tt.outputs, tol)
    assignments = syn.synthesize(scenario, tt, HALF_PI_GRID)
    assert hits.shape == (len(assignments), 4)
    assert syn.count_assignments(scenario, tt, HALF_PI_GRID) == len(assignments)
    np.testing.assert_array_equal(candidates, HALF_PI_GRID.values())
    np.testing.assert_array_equal(
        table, syn.scenario_table(scenario, candidates, candidates)
    )
    corners = syn.level_corners(tt)
    for k, (i0, i1, j0, j1) in enumerate(hits):
        asg = assignments[k]
        assert asg.a_values == (candidates[i0], candidates[i1])
        assert asg.b_values == (candidates[j0], candidates[j1])
        # each bit's level is the table value at its first corner
        assert asg.level_map == tuple(
            (table[(i0, i1)[a], (j0, j1)[b]], bit) for bit, (a, b) in corners.items()
        )


@pytest.mark.parametrize("scenario", [THERMAL_MX, MIXED_FIX], ids=["1-pulse", "2-pulse"])
def test_synthesize_returns_python_scalars(scenario):
    assignments = syn.synthesize(scenario, g.XOR, HALF_PI_GRID)
    assert assignments
    for asg in assignments:
        assert all(type(v) is float for v in asg.a_values + asg.b_values)
        assert all(type(level) is float and type(bit) is bool for level, bit in asg.level_map)


def test_level_corners_take_first_corner_per_bit():
    assert syn.level_corners(g.T) == {True: (0, 0)}
    assert syn.level_corners(g.F) == {False: (0, 0)}
    assert syn.level_corners(g.NAND) == {False: (1, 1), True: (0, 0)}
    assert syn.level_corners(g.AND) == {False: (0, 0), True: (1, 1)}
    assert list(syn.level_corners(g.XOR)) == [False, True]


# boundary validation -------------------------------------------------------------


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_scenario_rejects_non_finite_lambda(lam):
    with pytest.raises(ValueError, match="lambda_b"):
        syn.Scenario(InitialState.THERMAL_Z, 1, ObservableKind.MX, ("phi", "beta"),
                     lambda_b=lam)


@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-12, math.inf])
def test_searches_reject_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        syn.candidate_table(THERMAL_MX, HALF_PI_GRID, tol)
    with pytest.raises(ValueError, match="tolerance"):
        syn.synthesize(THERMAL_MX, g.XOR, HALF_PI_GRID, tol)
    with pytest.raises(ValueError, match="tolerance"):
        syn.count_assignments(THERMAL_MX, g.XOR, HALF_PI_GRID, tol)
    with pytest.raises(ValueError, match="tolerance"):
        syn.achievable_classes(THERMAL_MX, HALF_PI_GRID, tol)
    with pytest.raises(ValueError, match="tolerance"):
        syn.verify_reference_tables(tol=tol)


def test_zero_tolerance_is_accepted():
    assert syn.count_assignments(THERMAL_MX, g.XOR, HALF_PI_GRID, 0.0) > 0
