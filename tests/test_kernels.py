import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nmrlogic import _kernels as k

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
    mx, my, mz = k.two_pulse_components(
        phis[:, None], betas[None, :], 0.0, 0.0, 1.0, False
    )
    assert mx.shape == my.shape == mz.shape == (7, 5)


def test_two_pulse_components_scalar_input():
    mx, my, mz = k.two_pulse_components(PI / 2, PI / 2, 0.0, 0.0, 1.0, False)
    assert float(mx) == pytest.approx(0.25, abs=1e-15)
    assert float(mz) == pytest.approx(0.0, abs=1e-15)


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
    mz = 0.5 * (rho[..., 0, 0] - rho[..., 1, 1]).real
    return mx, my, mz


TWO_PULSE = ("phi2", "beta2", "phi1", "beta1")
AXIS_A = PI / 100 * np.arange(41) - 1.3  # pi/100 steps, as grid exports use
AXIS_B = np.random.default_rng(5).uniform(-7.0, 7.0, 29)
INPUT_FORMS = {
    "column-row": (AXIS_A[:, None], AXIS_B[None, :]),
    "row-column": (AXIS_A[None, :], AXIS_B[:, None]),
    "meshgrid": tuple(np.meshgrid(AXIS_A, AXIS_B, indexing="ij")),
    "1-d": (AXIS_A[:29], AXIS_B),
    "scalar": (AXIS_A[7], AXIS_B[3]),
}


@pytest.mark.parametrize("form", INPUT_FORMS)
@pytest.mark.parametrize("from_x", [False, True], ids=["z", "x"])
@pytest.mark.parametrize(
    "inputs", list(itertools.permutations(TWO_PULSE, 2)), ids="-".join
)
def test_two_pulse_components_match_the_stacked_chain_bit_for_bit(inputs, from_x, form):
    bound = dict(zip(TWO_PULSE, (PI / 2, PI, 0.3, -1.1)))
    bound.update(zip(inputs, INPUT_FORMS[form]))
    args = [bound[p] for p in TWO_PULSE]
    for new, old in zip(
        k.two_pulse_components(*args, 0.8, from_x), _stacked_components(*args, 0.8, from_x)
    ):
        assert np.shape(new) == np.shape(old)
        assert np.array_equal(new, old)


@pytest.mark.parametrize("form", INPUT_FORMS)
@pytest.mark.parametrize(
    "inputs", list(itertools.permutations(TWO_PULSE, 2)), ids="-".join
)
def test_two_pulse_components_keep_mx_and_mz_c_ordered(inputs, form):
    # U is a transposed view on some layouts (R1 varying along a later
    # axis than R2); the outputs still come out in C order
    bound = dict(zip(TWO_PULSE, (PI / 2, PI, 0.3, -1.1)))
    bound.update(zip(inputs, INPUT_FORMS[form]))
    args = [bound[p] for p in TWO_PULSE]
    for from_x in (False, True):
        mx, _, mz = k.two_pulse_components(*args, 0.8, from_x)
        assert mx.flags.c_contiguous and mz.flags.c_contiguous


def test_product_of_a_transposed_stack_and_a_constant_copies_nothing():
    # the phi2,phi1 grid export: R1 varies along the later axis, so U is
    # a transposed view, and U rho0 must not copy U before its gemm
    axis = PI / 100 * np.arange(200)
    flip = np.float64(PI / 2)
    u = k._product(
        k._rotation_stack(axis[:, None], flip), k._rotation_stack(axis[None, :], flip)
    )
    assert not u.flags.c_contiguous
    rho0 = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=np.complex128)
    tracemalloc.start()
    try:
        product = k._product(u, rho0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the product itself takes u.nbytes; a copy of U would take as much again
    assert peak < 1.5 * u.nbytes
    assert np.array_equal(product, u @ rho0)


# `grid` propagates whole A-rows a block at a time; its bytes hold only if
# any slice of whole rows propagates to the same bits as those rows of the
# whole grid, at any row count from one row up.
SLICE_AXIS_B = PI / 100 * np.arange(-150, 150) + 0.05


@pytest.mark.parametrize("from_x", [False, True], ids=["z", "x"])
@pytest.mark.parametrize(
    "inputs", list(itertools.permutations(TWO_PULSE, 2)), ids="-".join
)
def test_two_pulse_components_of_row_slices_equal_the_whole_grid_rows(inputs, from_x):
    def components(a, b):
        bound = dict(zip(TWO_PULSE, (PI / 2, PI, 0.3, -1.1)))
        bound.update(zip(inputs, (a, b)))
        return k.two_pulse_components(*(bound[p] for p in TWO_PULSE), 0.8, from_x)

    whole = components(AXIS_A[:, None], SLICE_AXIS_B[None, :])
    for rows in (1, 3, 16):
        for k0 in range(0, len(AXIS_A), rows):
            part = components(AXIS_A[k0 : k0 + rows, None], SLICE_AXIS_B[None, :])
            for new, old in zip(part, whole):
                assert np.array_equal(new, old[k0 : k0 + rows]), (rows, k0)
