import math
import re

import numpy as np
import pytest

from nmrlogic import _kernels
from nmrlogic import observables as obs
from nmrlogic import spincore as sc
from nmrlogic import synthesis as syn

PI = math.pi


def numeric_single_pulse(phi, beta, lam, from_x):
    """Oracle: scalar 2x2 propagation through spincore."""
    rho0 = sc.superposition_x_state(lam) if from_x else sc.thermal_state(lam)
    return sc.magnetization(sc.propagate(rho0, sc.rot_phi(phi, beta)))


def numeric_two_pulse(phi2, beta2, phi1, beta1, lam, from_x):
    """Oracle: pulse 1 first, then pulse 2, through spincore."""
    rho0 = sc.superposition_x_state(lam) if from_x else sc.thermal_state(lam)
    u = sc.rot_phi(phi2, beta2) @ sc.rot_phi(phi1, beta1)
    return sc.magnetization(sc.propagate(rho0, u))


def closed_single_pulse(phi, beta, lam, from_x):
    """One point of the vectorised closed forms, checked against the oracle."""
    closed = sc.Magnetization(
        *(float(c) for c in obs._single_pulse_components(phi, beta, lam, from_x))
    )
    oracle = numeric_single_pulse(phi, beta, lam, from_x)
    for got, want in ((closed.mx, oracle.mx), (closed.my, oracle.my), (closed.mz, oracle.mz)):
        assert got == pytest.approx(want, abs=1e-12)
    return closed


def test_single_pulse_from_z_examples():
    assert closed_single_pulse(PI / 2, PI / 2, 1.0, False).mx == pytest.approx(0.25, abs=1e-15)
    assert closed_single_pulse(PI / 2, -PI / 2, 1.0, False).mx == pytest.approx(-0.25, abs=1e-15)
    for phi in (0.0, 1.3, -2.0):
        m = closed_single_pulse(phi, 0.0, 0.8, False)
        assert (m.mx, m.my, m.mz) == pytest.approx((0.0, 0.0, 0.2), abs=1e-15)


def test_single_pulse_from_z_transverse_magnitude():
    for phi in (0.0, 0.7, 2.0):
        for beta in (-1.0, 0.4, PI / 2, 3.0):
            m = closed_single_pulse(phi, beta, 1.0, False)
            assert m.mxy == pytest.approx(0.25 * abs(math.sin(beta)), abs=1e-15)


def test_single_pulse_from_x_examples():
    for beta in (0.0, 0.5, PI, -2.5):
        assert closed_single_pulse(0.0, beta, 1.0, True).mx == pytest.approx(0.25, abs=1e-15)
    assert closed_single_pulse(PI / 2, PI, 1.0, True).mx == pytest.approx(-0.25, abs=1e-15)
    assert closed_single_pulse(PI / 2, PI / 2, 1.0, True).mz == pytest.approx(-0.25, abs=1e-15)


def test_single_pulse_from_x_transverse_magnitude():
    for phi in (0.0, 0.9, PI / 2):
        for beta in (-0.3, 1.1, PI):
            m = closed_single_pulse(phi, beta, 1.0, True)
            expected = 0.25 * math.sqrt(1 - math.sin(phi) ** 2 * math.sin(beta) ** 2)
            assert m.mxy == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize("from_x", [False, True])
def test_closed_forms_match_scalar_propagation(from_x):
    phis = np.linspace(0, 4 * PI, 17)
    betas = np.linspace(-2 * PI, 2 * PI, 17)
    for lam in (0.3, 1.0):
        mx, my, mz = np.broadcast_arrays(
            *obs._single_pulse_components(phis[:, None], betas[None, :], lam, from_x)
        )
        for i, phi in enumerate(phis):
            for j, beta in enumerate(betas):
                nm = numeric_single_pulse(phi, beta, lam, from_x)
                assert abs(mx[i, j] - nm.mx) <= 1e-12
                assert abs(my[i, j] - nm.my) <= 1e-12
                assert abs(mz[i, j] - nm.mz) <= 1e-12
                assert abs(math.hypot(mx[i, j], my[i, j]) - nm.mxy) <= 1e-12


def x_state_two_pulse(inputs, fixed, kind=obs.ObservableKind.MX, lambda_b=1.0):
    return syn.Scenario(
        obs.InitialState.SUPERPOSITION_X, 2, kind, inputs, tuple(fixed.items()), lambda_b
    )


def test_two_pulse_examples():
    flips_half_pi = x_state_two_pulse(("phi2", "phi1"), {"beta2": PI / 2, "beta1": PI / 2})
    assert syn.evaluate_scenario(flips_half_pi, PI / 2, PI / 2) == pytest.approx(-0.25, abs=1e-14)
    assert numeric_two_pulse(PI / 2, PI / 2, PI / 2, PI / 2, 1.0, True).mx == pytest.approx(
        -0.25, abs=1e-14
    )
    no_flips = x_state_two_pulse(("phi2", "phi1"), {"beta2": 0.0, "beta1": 0.0}, lambda_b=0.6)
    for phi2, phi1 in ((0.3, 1.0), (2.0, -1.0)):
        assert syn.evaluate_scenario(no_flips, phi2, phi1) == pytest.approx(0.15, abs=1e-14)
        assert numeric_two_pulse(phi2, 0.0, phi1, 0.0, 0.6, True).mx == pytest.approx(
            0.15, abs=1e-14
        )


def test_two_pulse_undo_pulse_reduces_to_thermal_case():
    # a first (pi/2, -pi/2) pulse maps the x state back onto the thermal state
    phis = np.linspace(0, 4 * PI, 9)
    betas = np.linspace(-2 * PI, 2 * PI, 9)
    undo = x_state_two_pulse(("phi2", "beta2"), {"phi1": PI / 2, "beta1": -PI / 2})
    table = syn.scenario_table(undo, phis, betas)
    for i, phi2 in enumerate(phis):
        for j, beta2 in enumerate(betas):
            thermal = closed_single_pulse(phi2, beta2, 1.0, False).mx
            assert table[i, j] == pytest.approx(thermal, abs=1e-13)
            assert numeric_two_pulse(phi2, beta2, PI / 2, -PI / 2, 1.0, True).mx == pytest.approx(
                thermal, abs=1e-13
            )


def test_pi_half_closed_form_examples():
    assert obs.two_pulse_closed_form("beta2,beta1; others pi/2", PI / 2, PI / 2) == pytest.approx(
        -0.25, abs=1e-15
    )
    assert obs.two_pulse_closed_form("phi2,beta2; others pi/2", PI / 2, PI / 2) == pytest.approx(
        -0.25, abs=1e-15
    )
    with pytest.raises(ValueError):
        obs.two_pulse_closed_form("beta1,beta2; others pi/2", 0.0, 0.0)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_closed_form_rejects_non_finite_lambda(lam):
    for label in obs.TWO_PULSE_FORMS:
        with pytest.raises(ValueError, match="lambda_b"):
            obs.two_pulse_closed_form(label, 0.0, 0.0, lam)


def _check_forms_against_propagation(labels):
    phis = np.linspace(0, 4 * PI, 21)
    betas = np.linspace(-2 * PI, 2 * PI, 21)
    axes = {"phi2": phis, "beta2": betas, "phi1": phis, "beta1": betas}
    for label in labels:
        free, fixed, _ = obs.TWO_PULSE_FORMS[label]
        avals, bvals = np.meshgrid(axes[free[0]], axes[free[1]], indexing="ij")
        mx, _, _ = obs.scenario_components(
            obs.InitialState.SUPERPOSITION_X, 2, free, fixed, avals, bvals, 1.0
        )
        analytic = obs.two_pulse_closed_form(label, avals, bvals, 1.0)
        assert np.max(np.abs(analytic - mx)) <= 1e-12, label


PI_HALF_LABELS = [k for k in obs.TWO_PULSE_FORMS if k.endswith("; others pi/2")]
MIXED_FIX_LABELS = [k for k in obs.TWO_PULSE_FORMS if k not in PI_HALF_LABELS]


def test_pi_half_closed_forms_match_propagation():
    assert len(PI_HALF_LABELS) == 6
    _check_forms_against_propagation(PI_HALF_LABELS)


def test_mixed_fix_closed_forms_match_propagation():
    assert MIXED_FIX_LABELS == ["beta1_half_pi,beta2_pi", "phi1_half_pi,beta2_pi"]
    _check_forms_against_propagation(MIXED_FIX_LABELS)


def test_pi_half_forms_fix_the_other_pair_at_pi_half():
    for label, (free, fixed, _) in obs.TWO_PULSE_FORMS.items():
        if label.endswith("; others pi/2"):
            assert label == ",".join(free) + "; others pi/2"
            assert fixed == {p: PI / 2 for p in obs.TWO_PULSE_PARAMS if p not in free}


def test_last_pulse_free_pair_is_negated_single_pulse():
    # with the first pulse fixed at (pi/2, pi/2), the free last pulse gives
    # -mx of the single-pulse thermal case; same for the mirrored binding
    for phi in np.linspace(0, 4 * PI, 15):
        for beta in np.linspace(-2 * PI, 2 * PI, 15):
            base = closed_single_pulse(phi, beta, 0.7, False).mx
            assert obs.two_pulse_closed_form(
                "phi2,beta2; others pi/2", phi, beta, 0.7
            ) == pytest.approx(-base, abs=1e-14)
            assert obs.two_pulse_closed_form(
                "phi1,beta1; others pi/2", phi, beta, 0.7
            ) == pytest.approx(-base, abs=1e-14)


def test_mirrored_bindings_are_the_same_function():
    # the (beta2, phi1) form equals the (phi2, beta1) form with its phase
    # and flip arguments in the canonical (phase, flip) order
    for x in np.linspace(0, 4 * PI, 15):
        for y in np.linspace(-2 * PI, 2 * PI, 15):
            assert obs.two_pulse_closed_form(
                "beta2,phi1; others pi/2", y, x
            ) == pytest.approx(
                obs.two_pulse_closed_form("phi2,beta1; others pi/2", x, y), abs=1e-15
            )


def test_mixed_fix_closed_form_examples():
    assert obs.two_pulse_closed_form(
        "phi1_half_pi,beta2_pi", 0.0, 0.0, 1.0
    ) == pytest.approx(0.25, abs=1e-15)
    # vertical zero trace at phi2 = pi/4
    for beta1 in (-2.0, 0.0, 1.0, PI):
        assert obs.two_pulse_closed_form(
            "phi1_half_pi,beta2_pi", PI / 4, beta1, 1.0
        ) == pytest.approx(0.0, abs=1e-15)
    # horizontal zero trace at phi1 = pi/2
    for phi2 in (-1.0, 0.0, 0.8, 2 * PI):
        assert obs.two_pulse_closed_form(
            "beta1_half_pi,beta2_pi", phi2, PI / 2, 1.0
        ) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        obs.two_pulse_closed_form("nonsense", 0.0, 0.0)


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
    scenario = syn.Scenario("z", 1, "mx", ("phi", "beta"))
    out = syn.scenario_table(scenario, grid_a.values(), grid_b.values())
    assert out.shape == (5, 3)
    # row-major, first (row) axis is input A = phi
    for i, phi in enumerate(grid_a.values()):
        for j, beta in enumerate(grid_b.values()):
            assert out[i, j] == pytest.approx(
                numeric_single_pulse(phi, beta, 1.0, False).mx, abs=1e-15
            )
            assert out[i, j] == syn.evaluate_scenario(scenario, phi, beta)


def test_observable_grid_known_point():
    grid = obs.GridSpec(0.0, PI / 2, 4).values()
    out = syn.scenario_table(syn.Scenario("z", 1, "mx", ("phi", "beta")), grid, grid)
    assert out[1, 1] == pytest.approx(0.25, abs=1e-15)  # (pi/2, pi/2)


def test_observable_grid_thermal_mxy_rows_identical():
    grid = obs.GridSpec(0.0, PI / 8, 16).values()
    out = syn.scenario_table(syn.Scenario("z", 1, "mxy", ("phi", "beta")), grid, grid)
    assert np.max(np.abs(out - out[0:1, :])) <= 1e-15


def test_observable_grid_xstate_pi_periodic_rows():
    grid_a = obs.GridSpec(0.0, PI / 4, 16).values()
    grid_b = obs.GridSpec(-PI, PI / 5, 10).values()
    for kind in obs.ObservableKind:
        scenario = syn.Scenario("x", 1, kind, ("phi", "beta"))
        out = syn.scenario_table(scenario, grid_a, grid_b)
        assert np.max(np.abs(out - np.roll(out, -4, axis=0))) <= 1e-12


def test_observable_grid_two_pulse_binding():
    grid = obs.GridSpec(0.0, PI / 2, 4).values()
    scenario = x_state_two_pulse(("beta2", "beta1"), {"phi2": PI / 2, "phi1": PI / 2})
    out = syn.scenario_table(scenario, grid, grid)
    expected = obs.two_pulse_closed_form(
        "beta2,beta1; others pi/2", grid[:, None], grid[None, :], 1.0
    )
    assert np.max(np.abs(out - expected)) <= 1e-13
    for i, beta2 in enumerate(grid):
        for j, beta1 in enumerate(grid):
            oracle = numeric_two_pulse(PI / 2, beta2, PI / 2, beta1, 1.0, True).mx
            assert out[i, j] == pytest.approx(oracle, abs=1e-13)


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        obs.GridSpec(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        obs.GridSpec(0.0, 0.0, 5)
    with pytest.raises(ValueError):
        obs.GridSpec(math.nan, 1.0, 5)
    # finite start and step whose last value overflows
    for start, step, count in ((1e308, 1e308, 2), (np.float64(1e308), 1e308, np.int64(3))):
        with pytest.raises(ValueError, match="overflows"):
            obs.GridSpec(start, step, count)
    # steps below the spacing of float64 at the start repeat values
    for start, step, count in ((1.0, 1e-17, 3), (1e16, 1.0, 4)):
        message = f"step {step!r} is too small for start {start!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            obs.GridSpec(start, step, count)
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
