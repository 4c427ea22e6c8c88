"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; budgets are asserted as part of each test.
"""

import math
import time

import numpy as np

from nmrlogic import _kernels
from nmrlogic import gates as g
from nmrlogic import observables as obs
from nmrlogic import spincore as sc
from nmrlogic import synthesis as syn
from nmrlogic.observables import GridSpec, InitialState, ObservableKind

PI = math.pi

PHI_AXIS = GridSpec(0.0, 4 * PI / 101, 101)  # [0, 4pi)
BETA_AXIS = GridSpec(-2 * PI, 4 * PI / 101, 101)  # [-2pi, 2pi)
QUARTER_GRID = GridSpec(0.0, PI / 4, 16)  # pi/4 multiples over [0, 4pi)


class Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.failures = []
        self.started = time.perf_counter()

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)

    def finish(self):
        elapsed = time.perf_counter() - self.started
        status = "PASS" if not self.failures and elapsed < self.budget_s else "FAIL"
        print(
            f"\nACCEPTANCE {self.number} ({self.label}): {status} "
            f"[{elapsed:.2f}s / budget {self.budget_s:.0f}s]"
        )
        for failure in self.failures:
            print(f"  - {failure}")
        assert not self.failures, self.failures
        assert elapsed < self.budget_s, f"runtime {elapsed:.2f}s over budget"


def test_criterion_1_reference_gate_values():
    crit = Criterion(1, "single-pulse reference gate table", budget_s=1.0)
    scenario = syn.reference_single_pulse_scenario(1.0)
    for row in syn.REFERENCE_SINGLE_PULSE_GATES:
        for (a, b), expected in zip(((0, 0), (0, 1), (1, 0), (1, 1)), row.outputs):
            value = syn.scenario_table(scenario, [row.a_values[a]], [row.b_values[b]])[0, 0]
            crit.check(
                abs(value - expected) <= 1e-12,
                f"{row.gate.name} cell {a}{b}: {value!r} != {expected!r}",
            )
    crit.finish()


def test_criterion_2_closed_forms_match_propagation():
    crit = Criterion(2, "closed-form vs numeric propagation", budget_s=10.0)
    phis, betas = np.meshgrid(PHI_AXIS.values(), BETA_AXIS.values(), indexing="ij")

    for from_x in (False, True):
        cmx, cmy = obs._single_pulse_components(phis, betas, 1.0, from_x)
        nmx, nmy = _kernels.two_pulse_components(phis, betas, 0.0, 0.0, 1.0, from_x)
        label = "x-state" if from_x else "thermal"
        for name, closed, numeric in (
            ("mx", cmx, nmx),
            ("my", cmy, nmy),
            ("mxy", np.hypot(cmx, cmy), np.hypot(nmx, nmy)),
        ):
            err = float(np.max(np.abs(closed - numeric)))
            crit.check(err <= 1e-10, f"single-pulse {label} {name}: max err {err:.3e}")

    axis = {"phi2": PHI_AXIS, "beta2": BETA_AXIS, "phi1": PHI_AXIS, "beta1": BETA_AXIS}

    def numeric_mx(free, fixed):
        avals, bvals = np.meshgrid(
            axis[free[0]].values(), axis[free[1]].values(), indexing="ij"
        )
        mx, _ = obs.scenario_components(
            InitialState.SUPERPOSITION_X, 2, free, fixed, avals, bvals, 1.0
        )
        return avals, bvals, mx

    for key, (free, fixed, formula) in obs.TWO_PULSE_FORMS.items():
        avals, bvals, mx = numeric_mx(free, fixed)
        err = float(np.max(np.abs(formula(avals, bvals, 0.25) - mx)))
        crit.check(err <= 1e-10, f"two-pulse ({key}) closed form: max err {err:.3e}")

    crit.finish()


def test_criterion_3_universality_claims():
    crit = Criterion(3, "gate-class capability claims", budget_s=60.0)

    thermal = syn.reference_single_pulse_scenario(1.0)
    for tt in g.ALL_GATES:
        n = syn.count_assignments(thermal, tt, QUARTER_GRID)
        crit.check(n > 0, f"(i) thermal mx cannot realize {tt.name}")

    for kind in ObservableKind:
        scenario = syn.Scenario(
            InitialState.SUPERPOSITION_X, 1, kind, ("phi", "beta")
        )
        for tt in (g.XOR, g.XNOR):
            n = syn.count_assignments(scenario, tt, QUARTER_GRID)
            crit.check(n == 0, f"(ii) x-state {kind.value} found {n} {tt.name} assignments")
        classes = syn.achievable_classes(scenario, QUARTER_GRID)
        crit.check(
            classes == {g.GateClass.CONSTANT, g.GateClass.STRONG, g.GateClass.WEAK},
            f"(ii) x-state {kind.value} classes {sorted(c.value for c in classes)}",
        )

    equal_fix = syn.Scenario(
        InitialState.SUPERPOSITION_X, 2, ObservableKind.MX, ("phi2", "phi1"),
        fixed=(("beta1", PI / 2), ("beta2", PI / 2)),
    )
    classes = syn.achievable_classes(equal_fix, syn.EXEMPLAR_GRID)
    crit.check(
        classes == {g.GateClass.CONSTANT, g.GateClass.STRONG, g.GateClass.NONE},
        f"(iii) equal-fix classes {sorted(c.value for c in classes)}",
    )

    mixed_fix = syn.Scenario(
        InitialState.SUPERPOSITION_X, 2, ObservableKind.MX, ("phi2", "beta1"),
        fixed=(("phi1", PI / 2), ("beta2", PI)),
    )
    classes = syn.achievable_classes(mixed_fix, QUARTER_GRID)
    crit.check(
        classes == set(g.GateClass),
        f"(iv) mixed-fix classes {sorted(c.value for c in classes)}",
    )
    crit.finish()


def test_criterion_4_canalising_and_orbit_structure():
    crit = Criterion(4, "canalising counts and orbit partition", budget_s=1.0)
    expectations = {
        g.T: (2, 2),
        g.B: (0, 2),
        g.NAND: (1, 1),
        g.XOR: (0, 0),
    }
    for tt, expected in expectations.items():
        counts = g.canalising_counts(tt)
        crit.check(
            tuple(counts) == expected,
            f"{tt.name} canalising counts {tuple(counts)} != {expected}",
        )
    orbits = {g.orbit(tt) for tt in g.ALL_GATES}
    sizes = sorted(len(o) for o in orbits)
    crit.check(sizes == [2, 2, 4, 8], f"orbit sizes {sizes}")
    covered = set()
    for o in orbits:
        crit.check(covered.isdisjoint(o), "orbits overlap")
        covered |= o
        classes = {g.gate_class(member) for member in o}
        crit.check(len(classes) == 1, f"orbit {sorted(m.gate_id for m in o)} mixes classes")
    crit.check(covered == set(g.ALL_GATES), "orbits do not cover all 16 gates")
    crit.finish()


def test_criterion_5_randomized_physics_properties():
    crit = Criterion(5, "randomized physics property suite", budget_s=5.0)
    rng = np.random.default_rng(12345)
    n_draws = 10_000
    phis = rng.uniform(-4 * PI, 4 * PI, n_draws)
    betas = rng.uniform(-4 * PI, 4 * PI, n_draws)
    lams = rng.uniform(0.0, 1.0, n_draws)

    eye = np.eye(2)
    worst = {"unitary": 0.0, "det": 0.0, "zxz": 0.0, "trace": 0.0, "herm": 0.0,
             "norm": 0.0, "antisym": 0.0, "commutator": 0.0}
    for phi, beta, lam in zip(phis, betas, lams):
        u = sc.rot_phi(phi, beta)
        worst["unitary"] = max(worst["unitary"], np.max(np.abs(u @ u.conj().T - eye)))
        worst["det"] = max(worst["det"], abs(abs(np.linalg.det(u)) - 1.0))

        zxz = sc.rot_axis("z", phi) @ sc.rot_axis("x", beta) @ sc.rot_axis("z", -phi)
        worst["zxz"] = max(worst["zxz"], np.max(np.abs(u - zxz)))

        rho = sc.thermal_state(lam)
        after = sc.propagate(rho, u)
        worst["trace"] = max(worst["trace"], abs(np.trace(after.matrix) - 1.0))
        worst["herm"] = max(
            worst["herm"], np.max(np.abs(after.matrix - after.matrix.conj().T))
        )
        worst["norm"] = max(
            worst["norm"],
            abs(sc.magnetization(after).norm - sc.magnetization(rho).norm),
        )

        pair = sc.rot_phi(phi, -beta) @ sc.rot_phi(phi, beta)
        worst["antisym"] = max(worst["antisym"], np.max(np.abs(pair - eye)))

        rho_x = sc.superposition_x_state(lam)
        comm = u @ rho_x.matrix - rho_x.matrix @ u
        expected = -lam * math.sin(phi) * math.sin(beta / 2) * sc.IZ
        worst["commutator"] = max(worst["commutator"], np.max(np.abs(comm - expected)))

    for name, bound in (
        ("unitary", 1e-12), ("det", 1e-12), ("zxz", 1e-12), ("trace", 1e-12),
        ("herm", 1e-12), ("norm", 1e-12), ("antisym", 1e-12), ("commutator", 1e-10),
    ):
        crit.check(
            worst[name] <= bound, f"{name}: worst residual {worst[name]:.3e} > {bound}"
        )
    crit.finish()


def test_criterion_6_symmetry_relations():
    crit = Criterion(6, "single-pulse symmetry relations", budget_s=5.0)
    axis = np.linspace(-2 * PI, 4 * PI, 61)
    pa, pb = np.meshgrid(axis, axis, indexing="ij")

    mx, my = obs._single_pulse_components(pa, pb, 1.0, from_x=False)
    mx_swap, _ = obs._single_pulse_components(pb, pa, 1.0, from_x=False)
    err = float(np.max(np.abs(mx - mx_swap)))
    crit.check(err <= 1e-12, f"thermal mx argument swap: max err {err:.3e}")

    _, my_shift = obs._single_pulse_components(pa + PI / 2, pb, 1.0, from_x=False)
    err = float(np.max(np.abs(mx - my_shift)))
    crit.check(err <= 1e-12, f"thermal mx = shifted my: max err {err:.3e}")

    xmx, xmy = obs._single_pulse_components(pa, pb, 1.0, from_x=True)
    pmx, pmy = obs._single_pulse_components(pa + PI, pb, 1.0, from_x=True)
    for name, base, shifted in (
        ("mx", xmx, pmx), ("my", xmy, pmy), ("mxy", np.hypot(xmx, xmy), np.hypot(pmx, pmy)),
    ):
        err = float(np.max(np.abs(base - shifted)))
        crit.check(err <= 1e-12, f"x-state {name} pi-periodicity: max err {err:.3e}")

    _, my_neg = obs._single_pulse_components(pa, -pb, 1.0, from_x=True)
    err = float(np.max(np.abs(xmy - my_neg)))
    crit.check(err <= 1e-12, f"x-state my flip-angle inversion: max err {err:.3e}")

    crit.finish()
