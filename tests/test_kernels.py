import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmrlogic import _kernels as k
from nmrlogic import cli, synthesis
from nmrlogic import observables as obs
from nmrlogic._format import packed_12g

PI = math.pi


def test_quadruple_search_lexicographic_order():
    table = np.zeros((3, 3))
    found = k.find_gate_quadruples(table, (True, True, True, True), 1e-9)
    assert len(found) == 81
    assert np.array_equal(found[0], [0, 0, 0, 0])
    as_tuples = [tuple(row) for row in found]
    assert as_tuples == sorted(as_tuples)


def test_quadruple_search_level_separation():
    # two levels closer than the tolerance cannot encode distinct bits
    table = np.array([[0.0, 0.5e-9], [0.5e-9, 0.0]])
    found = k.find_gate_quadruples(table, (False, True, True, False), 1e-9)
    assert len(found) == 0
    table = np.array([[0.0, 1.0], [1.0, 0.0]])
    found = k.find_gate_quadruples(table, (False, True, True, False), 1e-9)
    # both level-map orientations work, for either input ordering
    assert [tuple(r) for r in found] == [
        (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)
    ]


def test_quadruple_search_within_level_spread():
    table = np.array([[0.0, 2e-9], [0.0, 1.0]])
    # corners (0,0),(0,1),(1,0) would need to share a level but differ by 2e-9
    found = k.find_gate_quadruples(table, (False, False, False, True), 1e-9)
    for i0, i1, j0, j1 in found:
        zeros = [table[i0, j0], table[i0, j1], table[i1, j0]]
        assert max(zeros) - min(zeros) <= 1e-9


def test_level_labels_need_finite_values_and_tight_levels():
    table = np.array([[0.3, 0.0], [0.3 + 1e-10, 1.0]])
    assert k.level_labels(table, 1e-9).tolist() == [[1, 0], [1, 2]]
    assert k.level_labels(np.array([[0.0, np.nan]]), 1e-9) is None
    assert k.level_labels(np.array([[0.0, np.inf]]), 1e-9) is None
    # 0 ~ 0.6 ~ 1.2 chain into one level that spans more than tol
    assert k.level_labels(np.array([[0.0, 0.6, 1.2]]), 1.0) is None


@settings(max_examples=60)
@given(
    shape=st.tuples(st.integers(1, 12), st.integers(1, 12)),
    data=st.data(),
    tol=st.sampled_from([0.0, 1e-9, 0.04]),
)
def test_level_labels_equal_a_stable_sort_on_exact_ties(shape, data, tol):
    # a few multiples of 1/8, -0.0 among them: most cells tie exactly
    eighths = st.sampled_from([-0.25, -0.125, -0.0, 0.0, 0.125, 0.375])
    cells = data.draw(st.lists(eighths, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    table = np.array(cells).reshape(shape)
    flat = table.ravel()
    order = np.argsort(flat, kind="stable")
    expected = np.empty(flat.size, dtype=np.int64)
    expected[order] = np.concatenate(([0], np.cumsum(np.diff(flat[order]) > tol)))
    labels = k.level_labels(table, tol)
    assert labels.dtype == np.int64
    assert np.array_equal(labels, expected.reshape(shape))


def _round_off_zero_rows():
    """The level labels and printed texts of the x-state mx table of
    `synthesize --initial x --pulses 2 --inputs phi2,beta1 --fix phi1=1/2pi
    --fix beta2=pi --grid=12/8pi:1/8pi:40`, whose zero level comes out as
    round-off that changes from one 2 pi period to the next."""
    scenario = synthesis.Scenario("x", 2, "mx", ("phi2", "beta1"), fixed=(("phi1", PI / 2), ("beta2", PI)))
    _, table = synthesis.candidate_table(scenario, cli.parse_grid("12/8pi:1/8pi:40"))
    return k.level_labels(table, synthesis.DEFAULT_LEVEL_TOL), packed_12g(table)


ROUND_OFF = _round_off_zero_rows()
ROW_CLASS_CASES = {
    # (tables, rows, their classes)
    "first-occurrence": ((np.array([[5, 5], [1, 2], [5, 5], [0, 0], [1, 2]]),), range(5), [0, 1, 0, 2, 1]),
    # row 1 differs from row 0 in the texts only, row 2 in the labels only
    "every-table": (
        (
            np.array([[0, 1], [0, 1], [1, 1], [0, 1]]),
            np.array([[b"0", b"1"], [b"-0", b"1"], [b"0", b"1"], [b"0", b"1"]]),
        ),
        range(4),
        [0, 1, 2, 0],
    ),
    "signed-zero": ((np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]),), range(3), [0, 1, 0]),
    # rows 1, 9 and 17 share their labels but print different zeros
    "round-off-labels": (ROUND_OFF[:1], (1, 9, 17), [1, 1, 1]),
    "round-off-texts": (ROUND_OFF, (1, 9, 17), [1, 8, 14]),
}


@pytest.mark.parametrize("tables,rows,expected", ROW_CLASS_CASES.values(), ids=ROW_CLASS_CASES)
def test_row_classes_join_rows_equal_in_every_table_by_first_occurrence(tables, rows, expected):
    classes = k.row_classes(*tables)
    assert len(classes) == len(tables[0])
    assert [classes[row] for row in rows] == expected


def test_chunked_numpy_search_matches_full_broadcast(monkeypatch):
    rng = np.random.default_rng(11)
    table = np.round(rng.uniform(-0.25, 0.25, size=(12, 12)) * 8) / 8
    for outputs in [
        (False, False, False, True),
        (True, True, True, True),
        (False, True, True, False),
    ]:
        monkeypatch.setattr(k, "_BLOCK_QUADRUPLES", 1 << 40)
        full = k.find_gate_quadruples(table, outputs, 1e-9)
        # one row pair per block, then 6 per block with a shorter last one
        for budget in (1, 6 * 12 * 12):
            monkeypatch.setattr(k, "_BLOCK_QUADRUPLES", budget)
            chunked = k.find_gate_quadruples(table, outputs, 1e-9)
            assert np.array_equal(full, chunked), budget
        monkeypatch.undo()


def test_two_pulse_components_broadcast_and_shape():
    phis = np.linspace(0, 2 * PI, 7)
    betas = np.linspace(-PI, PI, 5)
    mx, my = k.two_pulse_components(
        phis[:, None], betas[None, :], 0.0, 0.0, 1.0, False
    )
    assert mx.shape == my.shape == (7, 5)


def test_two_pulse_components_scalar_input():
    mx, my = k.two_pulse_components(PI / 2, PI / 2, 0.0, 0.0, 1.0, False)
    assert float(mx) == pytest.approx(0.25, abs=1e-15)
    assert float(my) == pytest.approx(0.0, abs=1e-15)


# The propagation chain as it stood before the per-pulse shapes and the
# row-stacked products: every angle broadcast to the full shape first, then
# stacked `@` throughout.  The kernel must match it bit for bit.


def _stacked_rotations(phi, beta):
    half = 0.5 * beta
    c = np.cos(half)
    s = np.sin(half)
    ph = np.exp(-1j * phi)
    out = np.empty(phi.shape + (2, 2), dtype=np.complex128)
    out[..., 0, 0] = c
    out[..., 0, 1] = -1j * s * ph
    out[..., 1, 0] = -1j * s * np.conj(ph)
    out[..., 1, 1] = c
    return out


def _stacked_components(phi2, beta2, phi1, beta1, lambda_b, from_x):
    phi2, beta2, phi1, beta1 = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (phi2, beta2, phi1, beta1))
    )
    u = _stacked_rotations(phi2, beta2) @ _stacked_rotations(phi1, beta1)
    rho0 = np.zeros((2, 2), dtype=np.complex128)
    rho0[0, 0] = rho0[1, 1] = 0.5
    if from_x:
        rho0[0, 1] = rho0[1, 0] = 0.25 * lambda_b
    else:
        rho0[0, 0] += 0.25 * lambda_b
        rho0[1, 1] -= 0.25 * lambda_b
    rho = u @ rho0 @ u.conj().swapaxes(-1, -2)
    mx = 0.5 * (rho[..., 0, 1] + rho[..., 1, 0]).real
    my = (0.5j * (rho[..., 0, 1] - rho[..., 1, 0])).real
    return mx, my


def _bits(values):
    """uint64 bits of a float64 array or scalar: -0.0 differs from 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


TWO_PULSE = ("phi2", "beta2", "phi1", "beta1")
# Angles whose rotations hold exactly zero parts, so that products sum
# exact zeros of either sign
ZERO_MAKERS = np.array([0.0, -0.0, PI, -PI, 2 * PI, -2 * PI, PI / 2])
# pi/100 steps, as grid exports use
AXIS_A = np.concatenate((ZERO_MAKERS, PI / 100 * np.arange(41) - 1.3))
AXIS_B = np.concatenate((ZERO_MAKERS[::-1], np.random.default_rng(5).uniform(-7.0, 7.0, 29)))
INPUT_FORMS = {
    "column-row": (AXIS_A[:, None], AXIS_B[None, :]),
    "row-column": (AXIS_A[None, :], AXIS_B[:, None]),
    "meshgrid": tuple(np.meshgrid(AXIS_A, AXIS_B, indexing="ij")),
    "1-d": (AXIS_A[: len(AXIS_B)], AXIS_B),
    "scalar": (AXIS_A[7], AXIS_B[3]),
}
# The values of the two parameters that are not inputs, by the order of
# TWO_PULSE.  "zeros" fixes both phases at +-0 (with beta2 and beta1 as
# inputs, the z-state coherences are then all imaginary), and "zeros" and
# "pis" fix the flips at multiples of pi, so that R2 R1 holds exact zeros.
FIXED = {
    "generic": (PI / 2, PI, 0.3, -1.1),
    "zeros": (0.0, 2 * PI, -0.0, PI),
    "pis": (PI, 2 * PI, PI, PI),
}


# At lambda 0 the coherences are pure round-off, so zero signs reach the
# readouts most often
@pytest.mark.parametrize("lambda_b", [0.8, 0.0])
@pytest.mark.parametrize("fixed", FIXED)
@pytest.mark.parametrize("form", INPUT_FORMS)
@pytest.mark.parametrize("from_x", [False, True], ids=["z", "x"])
@pytest.mark.parametrize(
    "inputs", list(itertools.permutations(TWO_PULSE, 2)), ids="-".join
)
def test_two_pulse_components_match_the_stacked_chain_bit_for_bit(
    inputs, from_x, form, fixed, lambda_b
):
    bound = dict(zip(TWO_PULSE, FIXED[fixed]))
    bound.update(zip(inputs, INPUT_FORMS[form]))
    args = [bound[p] for p in TWO_PULSE] + [lambda_b, from_x]
    for new, old in zip(k.two_pulse_components(*args), _stacked_components(*args), strict=True):
        assert np.shape(new) == np.shape(old)
        assert np.array_equal(_bits(new), _bits(old))


@pytest.mark.parametrize("form", INPUT_FORMS)
@pytest.mark.parametrize(
    "inputs",
    [*itertools.permutations(obs.ONE_PULSE_PARAMS), *itertools.permutations(TWO_PULSE, 2)],
    ids="-".join,
)
def test_scenario_components_return_mx_and_my_c_ordered(inputs, form):
    # exactly the two detectable readouts, on the one-pulse closed forms and
    # on propagation.  R2 R1 comes out as a transposed view on some layouts
    # (R1 varying along a later axis than R2); the outputs still come out
    # in C order, and own their memory rather than view a complex array;
    # two scalar inputs give two float64 scalars
    pulses = 1 if inputs[0] in obs.ONE_PULSE_PARAMS else 2
    generic = dict(zip(TWO_PULSE, FIXED["generic"])) if pulses == 2 else {}
    fixed = {p: v for p, v in generic.items() if p not in inputs}
    for initial in obs.InitialState:
        components = obs.scenario_components(
            initial, pulses, inputs, fixed, *INPUT_FORMS[form], 0.8
        )
        assert isinstance(components, tuple) and len(components) == 2
        for component in components:
            assert component.dtype == np.float64
            if form == "scalar":
                assert isinstance(component, np.float64)
            else:
                assert isinstance(component, np.ndarray)
                assert component.flags.c_contiguous and component.base is None


# `grid` propagates whole A-rows a block at a time; its bytes hold only if
# any slice of whole rows propagates to the same bits as those rows of the
# whole grid, at any row count from one row up.
SLICE_AXIS_B = PI / 100 * np.arange(-150, 150) + 0.05


@pytest.mark.parametrize("fixed", FIXED)
@pytest.mark.parametrize("from_x", [False, True], ids=["z", "x"])
@pytest.mark.parametrize(
    "inputs", list(itertools.permutations(TWO_PULSE, 2)), ids="-".join
)
def test_two_pulse_components_of_row_slices_equal_the_whole_grid_rows(inputs, from_x, fixed):
    def components(a, b):
        bound = dict(zip(TWO_PULSE, FIXED[fixed]))
        bound.update(zip(inputs, (a, b)))
        return k.two_pulse_components(*(bound[p] for p in TWO_PULSE), 0.8, from_x)

    whole = components(AXIS_A[:, None], SLICE_AXIS_B[None, :])
    for rows in (1, 3, 16):
        for k0 in range(0, len(AXIS_A), rows):
            part = components(AXIS_A[k0 : k0 + rows, None], SLICE_AXIS_B[None, :])
            for new, old in zip(part, whole):
                assert np.array_equal(_bits(new), _bits(old[k0 : k0 + rows])), (rows, k0)


def _grouped_product_factors(n, layout):
    # half the points normal, half with parts drawn from a few values that
    # make exact zeros of both signs in the factors and in the products
    rng = np.random.default_rng(n)
    normal = rng.standard_normal((2, n, 2, 2, 2))
    few = rng.choice([0.0, -0.0, 1.0, -1.0, 0.5, -2.0], size=(2, n, 2, 2, 2))
    parts = np.where(np.arange(n)[:, None, None, None] % 2 == 1, few, normal)
    # a view keeps the drawn signs of zero, which `re + 1j * im` would not
    left, right = parts.view(np.complex128)[..., 0]
    transposed = lambda m: np.ascontiguousarray(m.swapaxes(-1, -2)).swapaxes(-1, -2)
    if layout == "left-transposed":
        left = transposed(left)
    elif layout == "right-transposed":
        right = transposed(right)
    return left, right


CHUNK_POINTS = k._CHUNK_GROUPS * k._GROUP


@pytest.mark.parametrize("layout", ["c", "left-transposed", "right-transposed"])
@pytest.mark.parametrize(
    "n", [*range(1, 10), *(CHUNK_POINTS + d for d in (-5, -4, -1, 0, 1, 3, 4)), 2 * CHUNK_POINTS + 7]
)
def test_grouped_product_keeps_the_per_point_bits(n, layout):
    left, right = _grouped_product_factors(n, layout)
    expected = np.stack([a @ b for a, b in zip(left, right)])
    out = k._grouped_product(left, right, k._any_zero)
    assert out.flags.c_contiguous
    assert np.array_equal(out.view(np.uint64), expected.view(np.uint64))
