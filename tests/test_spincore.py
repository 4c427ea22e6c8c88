import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from nmrlogic import spincore as sc

PI = math.pi

angles = st.floats(min_value=-15.0, max_value=15.0, allow_nan=False)
polarizations = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def test_spin_operator_algebra():
    for op in (sc.IX, sc.IY, sc.IZ):
        assert np.allclose(op, op.conj().T)
        assert abs(np.trace(op)) == 0
        assert np.allclose(sorted(np.linalg.eigvalsh(op)), [-0.5, 0.5])
    assert np.allclose(sc.IX @ sc.IY - sc.IY @ sc.IX, 1j * sc.IZ, atol=1e-15)
    assert np.allclose(sc.IY @ sc.IZ - sc.IZ @ sc.IY, 1j * sc.IX, atol=1e-15)
    assert np.allclose(sc.IZ @ sc.IX - sc.IX @ sc.IZ, 1j * sc.IY, atol=1e-15)


def test_rot_axis_examples():
    assert np.allclose(sc.rot_axis("x", 0.0), np.eye(2), atol=1e-15)
    r = math.sqrt(0.5)
    assert np.allclose(sc.rot_axis("y", PI / 2), [[r, -r], [r, r]], atol=1e-15)
    assert np.allclose(sc.rot_axis("z", PI), np.diag([-1j, 1j]), atol=1e-15)


@pytest.mark.parametrize("axis,op", [("x", sc.IX), ("y", sc.IY), ("z", sc.IZ)])
@pytest.mark.parametrize("beta", [-2 * PI, -1.1, 0.0, 0.3, PI / 2, PI, 7.5])
def test_rot_axis_matches_matrix_exponential(axis, op, beta):
    # independent oracle: the general matrix exponential
    assert np.allclose(sc.rot_axis(axis, beta), expm(-1j * beta * op), atol=1e-12)


@pytest.mark.parametrize("phi", [-PI, -0.4, 0.0, 1.0, PI / 3, 2 * PI, 9.0])
@pytest.mark.parametrize("beta", [-PI / 2, 0.0, 0.7, PI, 5.0])
def test_rot_phi_matches_matrix_exponential(phi, beta):
    generator = sc.IX * math.cos(phi) + sc.IY * math.sin(phi)
    assert np.allclose(sc.rot_phi(phi, beta), expm(-1j * beta * generator), atol=1e-12)


def test_rot_phi_axis_reductions():
    for beta in (-1.0, 0.0, 0.5, PI, 2.2):
        assert np.allclose(sc.rot_phi(0.0, beta), sc.rot_axis("x", beta), atol=1e-15)
        assert np.allclose(sc.rot_phi(PI / 2, beta), sc.rot_axis("y", beta), atol=1e-15)
    for phi in (0.0, 1.0, -3.0, 2 * PI):
        assert np.allclose(sc.rot_phi(phi, 0.0), np.eye(2), atol=1e-15)


def test_rot_rejects_non_finite():
    with pytest.raises(ValueError):
        sc.rot_axis("x", math.nan)
    with pytest.raises(ValueError):
        sc.rot_phi(math.inf, 1.0)


def test_rot_axis_rejects_an_unknown_axis():
    with pytest.raises(ValueError, match="unknown rotation axis 'w'"):
        sc.rot_axis("w", 1.0)


@given(phi=angles, beta=angles)
def test_rot_phi_unitary_and_special(phi, beta):
    u = sc.rot_phi(phi, beta)
    assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12
    assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-12


def test_rot_phi_unitarity_on_dense_grid():
    phis = np.linspace(0, 4 * PI, 33)
    betas = np.linspace(-2 * PI, 2 * PI, 33)
    for phi in phis:
        for beta in betas:
            u = sc.rot_phi(phi, beta)
            assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12
            assert abs(np.linalg.det(u) - 1.0) <= 1e-12


@given(phi=angles, beta=angles)
def test_rot_phi_zxz_decomposition(phi, beta):
    direct = sc.rot_phi(phi, beta)
    composed = sc.rot_axis("z", phi) @ sc.rot_axis("x", beta) @ sc.rot_axis("z", -phi)
    assert np.max(np.abs(direct - composed)) <= 1e-12


@given(phi=angles, beta=angles)
def test_rot_phi_periodicity(phi, beta):
    assert np.allclose(sc.rot_phi(phi, beta + 4 * PI), sc.rot_phi(phi, beta), atol=1e-12)
    assert np.allclose(sc.rot_phi(phi, beta + 2 * PI), -sc.rot_phi(phi, beta), atol=1e-12)


def test_thermal_state_examples():
    assert np.allclose(sc.thermal_state(1.0).matrix, np.diag([0.75, 0.25]), atol=1e-15)
    assert np.allclose(sc.thermal_state(0.0).matrix, np.diag([0.5, 0.5]), atol=1e-15)
    m = sc.magnetization(sc.thermal_state(1.0))
    assert (m.mx, m.my, m.mz) == pytest.approx((0.0, 0.0, 0.25), abs=1e-15)


def test_superposition_state_examples():
    rho = sc.superposition_x_state(1.0)
    assert np.allclose(rho.matrix, [[0.5, 0.25], [0.25, 0.5]], atol=1e-15)
    pulsed = sc.propagate(sc.thermal_state(1.0), sc.rot_phi(PI / 2, PI / 2))
    assert np.allclose(pulsed.matrix, rho.matrix, atol=1e-15)
    assert np.allclose(sc.superposition_x_state(0.0).matrix, np.diag([0.5, 0.5]))


def test_propagate_identity_and_commuting_pulse():
    rho = sc.thermal_state(1.0)
    assert np.allclose(sc.propagate(rho, sc.IDENTITY).matrix, rho.matrix)
    # the matrix holds the polarization scale: the vector keeps length 0.7/4
    after = sc.propagate(sc.thermal_state(0.7), sc.rot_phi(1.0, 2.0))
    assert sc.magnetization(after).norm == pytest.approx(0.175, abs=1e-15)
    rho_x = sc.superposition_x_state(1.0)
    for beta in (0.3, PI / 2, PI, -2.0):
        after = sc.propagate(rho_x, sc.rot_phi(0.0, beta))
        assert np.allclose(after.matrix, rho_x.matrix, atol=1e-15)


def test_propagate_rejects_non_unitary():
    with pytest.raises(ValueError):
        sc.propagate(sc.thermal_state(1.0), 2.0 * np.eye(2))
    with pytest.raises(ValueError):
        sc.propagate(sc.thermal_state(1.0), np.eye(3))


@given(phi=angles, beta=angles, lam=polarizations)
def test_propagate_preserves_trace_and_hermiticity(phi, beta, lam):
    after = sc.propagate(sc.thermal_state(lam), sc.rot_phi(phi, beta))
    m = after.matrix
    assert abs(np.trace(m) - 1.0) <= 1e-12
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12


@given(phi=angles, beta=angles, lam=polarizations)
def test_propagate_invariant_under_full_turn(phi, beta, lam):
    rho = sc.thermal_state(lam)
    once = sc.propagate(rho, sc.rot_phi(phi, beta))
    shifted = sc.propagate(rho, sc.rot_phi(phi, beta + 2 * PI))
    assert np.max(np.abs(once.matrix - shifted.matrix)) <= 1e-12


@given(lam=polarizations)
def test_density_matrix_eigenvalues_physical(lam):
    for rho in (sc.thermal_state(lam), sc.superposition_x_state(lam)):
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert np.all(eigs >= -1e-12)
        assert np.all(eigs <= 1.0 + 1e-12)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        sc.DensityMatrix(np.array([[1.0, 0.5], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValueError):
        sc.DensityMatrix(np.array([[0.9, 0.0], [0.0, 0.0]]))  # trace != 1
    # the bound is DEFAULT_TOL times the largest entry, but never below
    # DEFAULT_TOL: 8e-10 passes beside entries of 0.5, 1e-8 does not
    sc.DensityMatrix(np.array([[0.5, 8e-10], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="must be Hermitian"):
        sc.DensityMatrix(np.array([[0.5, 1e-8], [0.0, 0.5]]))
    with pytest.raises(ValueError, match="must have unit trace"):
        sc.DensityMatrix(np.diag([0.5, 0.5 + 1e-8]))
    # entries near 2.5e9 allow 2.5, far below an error of 1e3
    with pytest.raises(ValueError, match="must be Hermitian"):
        sc.DensityMatrix(np.array([[0.5 + 2.5e9, 1e3], [0.0, 0.5 - 2.5e9]]))
    with pytest.raises(ValueError, match="must have unit trace"):
        sc.DensityMatrix(np.diag([0.5 + 2.5e9, 0.5 - 2.5e9 + 1e3]))
    with pytest.raises(ValueError):
        sc.DensityMatrix(np.eye(3) / 3)
    with pytest.raises(ValueError, match="entries must be finite"):
        sc.DensityMatrix(np.array([[math.nan, 0.0], [0.0, 0.5]]))


LARGE_LAMBDAS = [1e10, -1e10, 1e16, 1e300, -1e300]


@pytest.mark.parametrize("lambda_b", LARGE_LAMBDAS)
@pytest.mark.parametrize("state", [sc.thermal_state, sc.superposition_x_state])
def test_large_polarization_states_are_accepted(state, lambda_b):
    # the checks allow DEFAULT_TOL times the largest entry: entries near
    # lambda/4 keep round-off far above the absolute 1e-9
    rho = state(lambda_b)
    for phi2, beta2, phi1, beta1 in [(0.0, 0.0, 0.0, 1.0), (0.3, -1.1, 2.0, PI), (6.271484375, 1.0, 1.7, 2.9)]:
        after = sc.propagate(rho, sc.rot_phi(phi2, beta2) @ sc.rot_phi(phi1, beta1))
        m = sc.magnetization(after)
        assert m.norm == pytest.approx(sc.magnetization(rho).norm, rel=1e-12)


def test_density_matrix_is_immutable():
    rho = sc.thermal_state(1.0)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 9.0


@given(phi=angles, beta=angles, lam=polarizations)
def test_norm_conserved_under_pulses(phi, beta, lam):
    rho = sc.thermal_state(lam)
    before = sc.magnetization(rho).norm
    after = sc.magnetization(sc.propagate(rho, sc.rot_phi(phi, beta))).norm
    assert abs(before - after) <= 1e-12


def test_magnetization_examples():
    m = sc.magnetization(sc.superposition_x_state(1.0))
    assert (m.mx, m.my, m.mz) == pytest.approx((0.25, 0.0, 0.0), abs=1e-15)
    assert m.mxy == pytest.approx(0.25, abs=1e-15)
    mixed = sc.magnetization(sc.thermal_state(0.0))
    assert (mixed.mx, mixed.my, mixed.mz) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("lambda_b,residue", [(1.0, 1e-3j), (1.0, 1e-8j), (1e10, 1e3j)])
def test_magnetization_rejects_corrupt_state(lambda_b, residue):
    rho = sc.thermal_state(lambda_b)
    corrupt = object.__new__(sc.DensityMatrix)
    object.__setattr__(corrupt, "matrix", rho.matrix + np.array([[0, residue], [0, 0]]))
    with pytest.raises(ArithmeticError):
        sc.magnetization(corrupt)


def commutator(u, rho):
    return u @ rho.matrix - rho.matrix @ u


def test_commutator_with_x_state():
    rho_x = sc.superposition_x_state(1.0)
    for beta in (0.5, PI / 2, PI, -1.0):
        for phi in (0.0, PI):
            assert np.max(np.abs(commutator(sc.rot_phi(phi, beta), rho_x))) <= 1e-12
    c = commutator(sc.rot_phi(PI / 2, PI), rho_x)
    assert np.allclose(c, -sc.IZ, atol=1e-15)


@given(phi=angles, beta=angles, lam=polarizations)
@settings(max_examples=200)
def test_commutator_closed_form(phi, beta, lam):
    # [R_phi(beta), rho_x] = -lam * I_z * sin(phi) * sin(beta/2)
    c = commutator(sc.rot_phi(phi, beta), sc.superposition_x_state(lam))
    expected = -lam * math.sin(phi) * math.sin(beta / 2) * sc.IZ
    assert np.max(np.abs(c - expected)) <= 1e-10


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("state", [sc.thermal_state, sc.superposition_x_state])
def test_states_reject_non_finite_lambda(state, bad):
    with pytest.raises(ValueError, match=rf"^lambda_b must be finite, got {bad!r}$"):
        state(bad)
