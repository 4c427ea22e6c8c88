import math

import numpy as np
import pytest

from nmrlogic import _kernels
from nmrlogic import observables as obs
from nmrlogic import spincore as sc

PI = math.pi


def numeric_single_pulse(phi, beta, lam, from_x):
    """Oracle: scalar 2x2 propagation through spincore."""
    rho0 = sc.superposition_x_state(lam) if from_x else sc.thermal_state(lam)
    return sc.magnetization(sc.propagate(rho0, sc.rot_phi(phi, beta)))


def test_single_pulse_from_z_examples():
    assert obs.single_pulse_from_z(PI / 2, PI / 2, 1.0).mx == pytest.approx(0.25, abs=1e-15)
    assert obs.single_pulse_from_z(PI / 2, -PI / 2, 1.0).mx == pytest.approx(-0.25, abs=1e-15)
    for phi in (0.0, 1.3, -2.0):
        m = obs.single_pulse_from_z(phi, 0.0, 0.8)
        assert (m.mx, m.my, m.mz) == pytest.approx((0.0, 0.0, 0.2), abs=1e-15)


def test_single_pulse_from_z_transverse_magnitude():
    for phi in (0.0, 0.7, 2.0):
        for beta in (-1.0, 0.4, PI / 2, 3.0):
            m = obs.single_pulse_from_z(phi, beta, 1.0)
            assert m.mxy == pytest.approx(0.25 * abs(math.sin(beta)), abs=1e-15)


def test_single_pulse_from_x_examples():
    for beta in (0.0, 0.5, PI, -2.5):
        assert obs.single_pulse_from_x(0.0, beta, 1.0).mx == pytest.approx(0.25, abs=1e-15)
    assert obs.single_pulse_from_x(PI / 2, PI, 1.0).mx == pytest.approx(-0.25, abs=1e-15)
    assert obs.single_pulse_from_x(PI / 2, PI / 2, 1.0).mz == pytest.approx(-0.25, abs=1e-15)


def test_single_pulse_from_x_transverse_magnitude():
    for phi in (0.0, 0.9, PI / 2):
        for beta in (-0.3, 1.1, PI):
            m = obs.single_pulse_from_x(phi, beta, 1.0)
            expected = 0.25 * math.sqrt(1 - math.sin(phi) ** 2 * math.sin(beta) ** 2)
            assert m.mxy == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("from_x", [False, True])
def test_closed_forms_match_scalar_propagation(from_x):
    closed = obs.single_pulse_from_x if from_x else obs.single_pulse_from_z
    for phi in np.linspace(0, 4 * PI, 17):
        for beta in np.linspace(-2 * PI, 2 * PI, 17):
            for lam in (0.3, 1.0):
                cf = closed(phi, beta, lam)
                nm = numeric_single_pulse(phi, beta, lam, from_x)
                assert abs(cf.mx - nm.mx) <= 1e-12
                assert abs(cf.my - nm.my) <= 1e-12
                assert abs(cf.mz - nm.mz) <= 1e-12
                assert abs(cf.mxy - nm.mxy) <= 1e-12


def test_two_pulse_examples():
    val = obs.two_pulse_observable(
        PI / 2, PI / 2, PI / 2, PI / 2, 1.0,
        obs.ObservableKind.MX, obs.InitialState.SUPERPOSITION_X,
    )
    assert val == pytest.approx(-0.25, abs=1e-14)
    for phi2, phi1 in ((0.3, 1.0), (2.0, -1.0)):
        val = obs.two_pulse_observable(
            phi2, 0.0, phi1, 0.0, 0.6,
            obs.ObservableKind.MX, obs.InitialState.SUPERPOSITION_X,
        )
        assert val == pytest.approx(0.15, abs=1e-14)


def test_two_pulse_undo_pulse_reduces_to_thermal_case():
    # a first (pi/2, -pi/2) pulse maps the x state back onto the thermal state
    for phi2 in np.linspace(0, 4 * PI, 9):
        for beta2 in np.linspace(-2 * PI, 2 * PI, 9):
            val = obs.two_pulse_observable(
                phi2, beta2, PI / 2, -PI / 2, 1.0,
                obs.ObservableKind.MX, obs.InitialState.SUPERPOSITION_X,
            )
            assert val == pytest.approx(
                obs.single_pulse_from_z(phi2, beta2, 1.0).mx, abs=1e-13
            )


def test_pi_half_closed_form_examples():
    assert obs.two_pulse_pi_half_closed_form("beta2,beta1", PI / 2, PI / 2) == pytest.approx(
        -0.25, abs=1e-15
    )
    assert obs.two_pulse_pi_half_closed_form("phi2,beta2", PI / 2, PI / 2) == pytest.approx(
        -0.25, abs=1e-15
    )
    with pytest.raises(ValueError):
        obs.two_pulse_pi_half_closed_form("beta1,beta2", 0.0, 0.0)


def test_pi_half_closed_forms_match_propagation():
    phis = np.linspace(0, 4 * PI, 21)
    betas = np.linspace(-2 * PI, 2 * PI, 21)
    axes = {"phi2": phis, "beta2": betas, "phi1": phis, "beta1": betas}
    for key, (free, formula) in obs.TWO_PULSE_PI_HALF_FORMS.items():
        fixed = {p: PI / 2 for p in obs.TWO_PULSE_PARAMS if p not in free}
        avals, bvals = np.meshgrid(axes[free[0]], axes[free[1]], indexing="ij")
        mx, _, _ = obs.scenario_components(
            obs.InitialState.SUPERPOSITION_X, 2, free, fixed, avals, bvals, 1.0
        )
        analytic = obs.two_pulse_pi_half_closed_form(key, avals, bvals, 1.0)
        assert np.max(np.abs(analytic - mx)) <= 1e-12, key


def test_last_pulse_free_pair_is_negated_single_pulse():
    # with the first pulse fixed at (pi/2, pi/2), the free last pulse gives
    # -mx of the single-pulse thermal case; same for the mirrored binding
    for phi in np.linspace(0, 4 * PI, 15):
        for beta in np.linspace(-2 * PI, 2 * PI, 15):
            base = obs.single_pulse_from_z(phi, beta, 0.7).mx
            assert obs.two_pulse_pi_half_closed_form("phi2,beta2", phi, beta, 0.7) == pytest.approx(
                -base, abs=1e-14
            )
            assert obs.two_pulse_pi_half_closed_form("phi1,beta1", phi, beta, 0.7) == pytest.approx(
                -base, abs=1e-14
            )


def test_mirrored_bindings_are_the_same_function():
    # the (beta2, phi1) form equals the (phi2, beta1) form with its phase
    # and flip arguments in the canonical (phase, flip) order
    for x in np.linspace(0, 4 * PI, 15):
        for y in np.linspace(-2 * PI, 2 * PI, 15):
            assert obs.two_pulse_pi_half_closed_form("beta2,phi1", y, x) == pytest.approx(
                obs.two_pulse_pi_half_closed_form("phi2,beta1", x, y), abs=1e-15
            )


def test_mixed_fix_closed_form_examples():
    assert obs.two_pulse_mixed_fix_closed_form(
        "phi1_half_pi,beta2_pi", 0.0, 0.0, 1.0
    ) == pytest.approx(0.25, abs=1e-15)
    # vertical zero trace at phi2 = pi/4
    for beta1 in (-2.0, 0.0, 1.0, PI):
        assert obs.two_pulse_mixed_fix_closed_form(
            "phi1_half_pi,beta2_pi", PI / 4, beta1, 1.0
        ) == pytest.approx(0.0, abs=1e-15)
    # horizontal zero trace at phi1 = pi/2
    for phi2 in (-1.0, 0.0, 0.8, 2 * PI):
        assert obs.two_pulse_mixed_fix_closed_form(
            "beta1_half_pi,beta2_pi", phi2, PI / 2, 1.0
        ) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        obs.two_pulse_mixed_fix_closed_form("nonsense", 0.0, 0.0)


def test_mixed_fix_closed_forms_match_propagation():
    phis = np.linspace(0, 4 * PI, 21)
    betas = np.linspace(-2 * PI, 2 * PI, 21)
    axes = {"phi2": phis, "beta2": betas, "phi1": phis, "beta1": betas}
    for case, (free, fixed, formula) in obs.TWO_PULSE_MIXED_FIX_FORMS.items():
        avals, bvals = np.meshgrid(axes[free[0]], axes[free[1]], indexing="ij")
        mx, _, _ = obs.scenario_components(
            obs.InitialState.SUPERPOSITION_X, 2, free, fixed, avals, bvals, 1.0
        )
        analytic = obs.two_pulse_mixed_fix_closed_form(case, avals, bvals, 1.0)
        assert np.max(np.abs(analytic - mx)) <= 1e-12, case


# Symmetry relations of the single-pulse observables -------------------------

PHIS = np.linspace(0, 4 * PI, 41)
BETAS = np.linspace(-2 * PI, 2 * PI, 41)
PHI_MESH, BETA_MESH = np.meshgrid(PHIS, BETAS, indexing="ij")


def _thermal():
    return obs._single_pulse_components(PHI_MESH, BETA_MESH, 1.0, from_x=False)


def _xstate():
    return obs._single_pulse_components(PHI_MESH, BETA_MESH, 1.0, from_x=True)


def test_thermal_mx_symmetric_under_argument_swap():
    mx, _, _ = _thermal()
    mx_swapped, _, _ = obs._single_pulse_components(BETA_MESH, PHI_MESH, 1.0, from_x=False)
    assert np.max(np.abs(mx - mx_swapped)) <= 1e-12


def test_thermal_mx_is_shifted_my():
    mx, _, _ = _thermal()
    _, my_shifted, _ = obs._single_pulse_components(
        PHI_MESH + PI / 2, BETA_MESH, 1.0, from_x=False
    )
    assert np.max(np.abs(mx - my_shifted)) <= 1e-12


def test_thermal_mx_sign_flips():
    mx, _, _ = _thermal()
    mx_neg_phi, _, _ = obs._single_pulse_components(-PHI_MESH, BETA_MESH, 1.0, from_x=False)
    mx_neg_beta, _, _ = obs._single_pulse_components(PHI_MESH, -BETA_MESH, 1.0, from_x=False)
    assert np.max(np.abs(mx + mx_neg_phi)) <= 1e-12
    assert np.max(np.abs(mx + mx_neg_beta)) <= 1e-12


def test_xstate_inversion_invariances():
    mx, my, _ = _xstate()
    mxy = np.hypot(mx, my)
    for flipped_mesh in ((-PHI_MESH, BETA_MESH), (PHI_MESH, -BETA_MESH)):
        fmx, fmy, _ = obs._single_pulse_components(*flipped_mesh, 1.0, from_x=True)
        assert np.max(np.abs(mx - fmx)) <= 1e-12
        assert np.max(np.abs(mxy - np.hypot(fmx, fmy))) <= 1e-12
    _, my_neg_beta, _ = obs._single_pulse_components(PHI_MESH, -BETA_MESH, 1.0, from_x=True)
    assert np.max(np.abs(my - my_neg_beta)) <= 1e-12


def test_xstate_pi_periodicity_in_phase():
    mx, my, _ = _xstate()
    pmx, pmy, _ = obs._single_pulse_components(PHI_MESH + PI, BETA_MESH, 1.0, from_x=True)
    assert np.max(np.abs(mx - pmx)) <= 1e-12
    assert np.max(np.abs(my - pmy)) <= 1e-12


def test_observable_values_bounded_by_quarter_lambda():
    for from_x in (False, True):
        mx, my, mz = obs._single_pulse_components(PHI_MESH, BETA_MESH, 0.9, from_x=from_x)
        for comp in (mx, my, mz, np.hypot(mx, my)):
            assert np.max(np.abs(comp)) <= 0.9 / 4 + 1e-12


# Grid sampling ---------------------------------------------------------------


def test_observable_grid_shape_and_convention():
    grid_a = obs.GridSpec(0.0, PI / 2, 5)
    grid_b = obs.GridSpec(-PI, PI / 4, 3)
    out = obs.observable_grid(
        obs.InitialState.THERMAL_Z, obs.ObservableKind.MX, 1,
        ("phi", "beta"), {}, grid_a, grid_b, 1.0,
    )
    assert out.shape == (5, 3)
    # row-major, first (row) axis is input A = phi
    for i, phi in enumerate(grid_a.values()):
        for j, beta in enumerate(grid_b.values()):
            assert out[i, j] == pytest.approx(
                obs.single_pulse_from_z(phi, beta).mx, abs=1e-15
            )


def test_observable_grid_known_point():
    grid = obs.GridSpec(0.0, PI / 2, 4)
    out = obs.observable_grid(
        obs.InitialState.THERMAL_Z, obs.ObservableKind.MX, 1,
        ("phi", "beta"), {}, grid, grid, 1.0,
    )
    assert out[1, 1] == pytest.approx(0.25, abs=1e-15)  # (pi/2, pi/2)


def test_observable_grid_thermal_mxy_rows_identical():
    grid = obs.GridSpec(0.0, PI / 8, 16)
    out = obs.observable_grid(
        obs.InitialState.THERMAL_Z, obs.ObservableKind.MXY, 1,
        ("phi", "beta"), {}, grid, grid, 1.0,
    )
    assert np.max(np.abs(out - out[0:1, :])) <= 1e-15


def test_observable_grid_xstate_pi_periodic_rows():
    grid_a = obs.GridSpec(0.0, PI / 4, 16)
    grid_b = obs.GridSpec(-PI, PI / 5, 10)
    for kind in obs.ObservableKind:
        out = obs.observable_grid(
            obs.InitialState.SUPERPOSITION_X, kind, 1,
            ("phi", "beta"), {}, grid_a, grid_b, 1.0,
        )
        assert np.max(np.abs(out - np.roll(out, -4, axis=0))) <= 1e-12


def test_observable_grid_two_pulse_binding():
    grid = obs.GridSpec(0.0, PI / 2, 4)
    out = obs.observable_grid(
        obs.InitialState.SUPERPOSITION_X, obs.ObservableKind.MX, 2,
        ("beta2", "beta1"), {"phi2": PI / 2, "phi1": PI / 2}, grid, grid, 1.0,
    )
    expected = obs.two_pulse_pi_half_closed_form(
        "beta2,beta1", grid.values()[:, None], grid.values()[None, :], 1.0
    )
    assert np.max(np.abs(out - expected)) <= 1e-13


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        obs.GridSpec(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        obs.GridSpec(0.0, 0.0, 5)
    with pytest.raises(ValueError):
        obs.GridSpec(math.nan, 1.0, 5)
    for count in (2.5, 4.0, "4"):
        with pytest.raises(ValueError):
            obs.GridSpec(0.0, 1.0, count)
    assert len(obs.GridSpec(0.0, 1.0, np.int64(3)).values()) == 3
    values = obs.GridSpec(1.0, 0.5, 4).values()
    assert np.allclose(values, [1.0, 1.5, 2.0, 2.5])


def test_binding_validation_errors():
    with pytest.raises(ValueError):
        obs.validate_binding(1, ("phi",), {})
    with pytest.raises(ValueError):
        obs.validate_binding(1, ("phi", "phi"), {})
    with pytest.raises(ValueError):
        obs.validate_binding(1, ("phi", "beta2"), {})
    with pytest.raises(ValueError):
        obs.validate_binding(2, ("phi2", "beta1"), {"phi1": 0.0})  # beta2 missing
    with pytest.raises(ValueError):
        obs.validate_binding(3, ("phi", "beta"), {})
    obs.validate_binding(2, ("phi2", "beta1"), {"phi1": 0.0, "beta2": PI})


def test_two_pulse_components_match_scalar_propagation():
    rng = np.random.default_rng(7)
    for _ in range(25):
        phi2, beta2, phi1, beta1 = rng.uniform(-7, 7, size=4)
        lam = rng.uniform(0, 1)
        for from_x in (False, True):
            mx, my, mz = _kernels.two_pulse_components(
                phi2, beta2, phi1, beta1, lam, from_x
            )
            rho0 = sc.superposition_x_state(lam) if from_x else sc.thermal_state(lam)
            u = sc.rot_phi(phi2, beta2) @ sc.rot_phi(phi1, beta1)
            m = sc.magnetization(sc.propagate(rho0, u))
            assert float(mx) == pytest.approx(m.mx, abs=1e-13)
            assert float(my) == pytest.approx(m.my, abs=1e-13)
            assert float(mz) == pytest.approx(m.mz, abs=1e-13)
