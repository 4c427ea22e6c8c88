"""The Bloch-vector route: two-pulse tables whose values are never printed
are labelled from `_kernels.bloch_components`, when `level_labels`
certifies those labels equal to the matrix table's."""

import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pinned_runs
from nmrlogic import _kernels, cli, gates, synthesis
from nmrlogic import spincore as sc
from nmrlogic.observables import GridSpec, TWO_PULSE_PARAMS

PI = math.pi
LAMBDAS = [0.0, 1.0, -0.37, 1e10]
TWO_PULSE_X = pinned_runs.TWO_PULSE_X.split()
EQUAL_FIX = synthesis.Scenario("x", 2, "mx", ("phi2", "phi1"), (("beta1", PI / 2), ("beta2", PI / 2)))
MIXED_FIX = synthesis.Scenario("x", 2, "mx", ("phi2", "beta1"), (("phi1", PI / 2), ("beta2", PI)))


def margin(lambda_b):
    """How close the Bloch route must stay to a matrix route: a thousandth
    of the bound that the certificate assumes."""
    return _kernels.rounding_bound(lambda_b) / 1000


angles = st.floats(-4 * PI, 4 * PI, allow_nan=False)


@settings(max_examples=100)
@given(pulses=st.tuples(angles, angles, angles, angles), from_x=st.booleans())
@pytest.mark.parametrize("lambda_b", LAMBDAS)
def test_bloch_components_match_spincore(lambda_b, pulses, from_x):
    phi2, beta2, phi1, beta1 = pulses
    # spincore checks Hermiticity and trace relative to the largest entry,
    # so the oracle runs at lambda 1e10 itself
    rho0 = (sc.superposition_x_state if from_x else sc.thermal_state)(lambda_b)
    oracle = sc.magnetization(sc.propagate(rho0, sc.rot_phi(phi2, beta2) @ sc.rot_phi(phi1, beta1)))
    mx, my = _kernels.bloch_components(*pulses, lambda_b, from_x)
    assert abs(float(mx) - oracle.mx) <= margin(lambda_b)
    assert abs(float(my) - oracle.my) <= margin(lambda_b)


# multiples of pi/8, where levels coincide, and angles of no pattern
AXIS = np.concatenate((PI / 8 * np.arange(-20, 21), np.random.default_rng(3).uniform(-13.0, 13.0, 40)))
FIXED = {"half-pi": (PI / 2,) * 4, "generic": (0.3, -1.1, 2.0, PI), "zeros": (0.0, 2 * PI, -0.0, PI)}


@pytest.mark.parametrize("lambda_b", LAMBDAS)
@pytest.mark.parametrize("fixed", FIXED)
@pytest.mark.parametrize("from_x", [False, True], ids=["z", "x"])
@pytest.mark.parametrize("inputs", list(itertools.permutations(TWO_PULSE_PARAMS, 2)), ids="-".join)
def test_bloch_components_match_two_pulse_components_on_every_binding(inputs, from_x, fixed, lambda_b):
    bound = dict(zip(TWO_PULSE_PARAMS, FIXED[fixed]))
    bound.update(zip(inputs, (AXIS[:, None], AXIS[None, :])))
    args = [bound[param] for param in TWO_PULSE_PARAMS] + [lambda_b, from_x]
    matrix = _kernels.two_pulse_components(*args)
    bloch = _kernels.bloch_components(*args)
    for old, new in zip((*matrix, np.hypot(*matrix)), (*bloch, np.hypot(*bloch))):
        assert new.shape == (len(AXIS), len(AXIS))
        assert np.max(np.abs(new - old)) <= margin(lambda_b)


def pinned_search(row):
    """(scenario, grid, tol) of a pinned `synthesize` row."""
    args = cli.build_parser().parse_args(row.argv())
    tol = args.tol if args.tol is not None else synthesis.DEFAULT_LEVEL_TOL
    return cli._scenario_from_args(args), cli.parse_grid(args.grid), tol


TWO_PULSE_ROWS = [
    row for row in pinned_runs.ROWS if row.argv()[0] == "synthesize" and "--pulses 2" in row.command
]


def test_every_two_pulse_synthesize_row_is_checked():
    assert [row.id for row in TWO_PULSE_ROWS] == [
        "synthesize_and_x_two_pulse_half_pi_48",
        "synthesize_not_b_x_two_pulse_half_pi_16_out",
    ]


def binding_search(inputs, initial, observable, fixed):
    """(scenario, grid, tol) of a pi/8 x 16 search on one two-pulse binding,
    the parameters that are not inputs fixed at their `FIXED[fixed]` values."""
    values = zip(TWO_PULSE_PARAMS, FIXED[fixed])
    scenario = synthesis.Scenario(
        initial, 2, observable, inputs, tuple((p, v) for p, v in values if p not in inputs)
    )
    return scenario, GridSpec(0.0, PI / 8, 16), synthesis.DEFAULT_LEVEL_TOL


# (scenario, grid, tol, certified): the pinned rows must be certified
SEARCHES = [pytest.param(*pinned_search(row), True, id=row.id) for row in TWO_PULSE_ROWS] + [
    pytest.param(
        *binding_search(inputs, initial, observable, fixed), False,
        id=f"{'-'.join(inputs)}-{initial}-{observable}-{fixed}",
    )
    for inputs in itertools.permutations(TWO_PULSE_PARAMS, 2)
    for initial in ("z", "x")
    for observable in ("mx", "my", "mxy")
    for fixed in FIXED
]


@pytest.mark.parametrize("scenario, grid, tol, certified", SEARCHES)
def test_certified_labels_equal_the_matrix_labels(scenario, grid, tol, certified):
    cand, table, labels = synthesis.search_table(scenario, grid, tol)
    assert np.array_equal(cand, grid.values())
    _, matrix = synthesis.candidate_table(scenario, grid)
    if certified:
        assert table is None  # the matrix table is not built
    if table is not None:
        assert np.array_equal(table, matrix)
    if labels is not None:
        assert np.array_equal(labels, _kernels.level_labels(matrix, tol))


TOL, SLACK = 1e-9, 1e-12


@pytest.mark.parametrize(
    "values",
    [[0.0, TOL - SLACK], [0.0, TOL + SLACK]],
    ids=["level-spanning-tol-less-slack", "gap-of-tol-plus-slack"],
)
def test_labels_within_twice_the_slack_of_tol_are_refused(values):
    assert _kernels.level_labels(np.array(values), TOL) is not None
    assert _kernels.level_labels(np.array(values), TOL, SLACK) is None


@pytest.mark.parametrize(
    "values",
    [[0.0, TOL - 3 * SLACK, -TOL], [0.0, TOL + 3 * SLACK, -TOL - 3 * SLACK]],
    ids=["levels-spanning-tol-less-three-slacks", "gaps-of-tol-plus-three-slacks"],
)
def test_labels_clear_of_twice_the_slack_are_certified(values):
    labels = _kernels.level_labels(np.array(values), TOL)
    assert np.array_equal(_kernels.level_labels(np.array(values), TOL, SLACK), labels)


# Bytes of `synthesize "NOT B" TWO_PULSE_X --grid 0:1/2pi:16 --tol 1e-17
# --out OUT` as the matrix route prints them: at this tol the round-off of
# the table splits its levels, so the search compares float gaps
TOL_1E_17 = [
    "synthesize", "NOT B", *TWO_PULSE_X, "--grid", "0:1/2pi:16", "--tol", "1e-17",
]
TOL_1E_17_STDOUT = "7011dcaf9893c0d5e9789eb4339bc739643787a923c221a8f7d88d947c037169"
TOL_1E_17_OUT = "1eab1db689529f77d5d65ef9106f53766b3f08d8867d8e6202146270e01ee64d"


def counting_matrix_calls(monkeypatch):
    """Count the calls of `_kernels.two_pulse_components` from here on."""
    calls = []
    original = _kernels.two_pulse_components

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(_kernels, "two_pulse_components", counted)
    return calls


def sha256(text):
    return hashlib.sha256(text if isinstance(text, bytes) else text.encode()).hexdigest()


def test_tol_1e_17_falls_back_to_the_matrix_table(tmp_path, capsys, monkeypatch):
    assert 1e-17 < 2 * _kernels.rounding_bound(EQUAL_FIX.lambda_b)
    _, table, labels = synthesis.search_table(EQUAL_FIX, GridSpec(0.0, PI / 2, 16), 1e-17)
    assert table is not None and labels is None  # the pairwise route
    calls = counting_matrix_calls(monkeypatch)
    out = tmp_path / "out.csv"
    code = cli.main(TOL_1E_17 + ["--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out.startswith("4620 NOT B assignment(s), class 1\n")
    assert (sha256(captured.out), sha256(out.read_bytes())) == (TOL_1E_17_STDOUT, TOL_1E_17_OUT)
    assert len(calls) == 1  # one matrix table, counted and printed


@pytest.fixture
def no_matrix_route(monkeypatch):
    def refused(*args):
        raise AssertionError("two_pulse_components was called")

    monkeypatch.setattr(_kernels, "two_pulse_components", refused)


def test_empty_two_pulse_synthesize_builds_no_matrix_table(capsys, no_matrix_route):
    row = {row.id: row for row in pinned_runs.ROWS}["synthesize_and_x_two_pulse_half_pi_48"]
    code = cli.main(row.argv())
    captured = capsys.readouterr()
    assert pinned_runs.mismatches(row, code, captured.out.encode(), captured.err.encode(), None) == []


def test_two_pulse_counts_build_no_matrix_table(no_matrix_route):
    half_pi_16 = GridSpec(0.0, PI / 2, 16)
    # the capability claims of `verify`
    assert synthesis.achievable_classes(EQUAL_FIX, synthesis.EXEMPLAR_GRID) == {
        gates.GateClass.CONSTANT, gates.GateClass.STRONG, gates.GateClass.NONE,
    }
    assert synthesis.achievable_classes(MIXED_FIX) == set(gates.GateClass)
    # the count line of synthesize_not_b_x_two_pulse_half_pi_16_out
    assert synthesis.count_assignments(EQUAL_FIX, gates.parse_gate("NOT B"), half_pi_16) == 13312
    assert [synthesis.count_assignments(MIXED_FIX, tt) for tt in (gates.T, gates.XOR, gates.AND)] == [
        20736, 1280, 3072,
    ]


def test_two_pulse_synthesize_with_hits_prints_the_matrix_table(tmp_path, capsys, monkeypatch):
    row = {row.id: row for row in pinned_runs.ROWS}["synthesize_not_b_x_two_pulse_half_pi_16_out"]
    calls = counting_matrix_calls(monkeypatch)
    out = tmp_path / "out.csv"
    code = cli.main(row.argv(str(out)))
    captured = capsys.readouterr()
    found = pinned_runs.mismatches(row, code, captured.out.encode(), captured.err.encode(), out.read_bytes())
    assert found == []
    assert len(calls) == 1
