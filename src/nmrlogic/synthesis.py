"""Mapping continuous observables onto discrete boolean gates.

A `Scenario` fixes everything about the experiment except the two pulse
parameters serving as logic inputs A and B.  A `GateAssignment` picks two
candidate values per input plus a two-level output map.  `synthesize`
returns every assignment over a candidate grid that realizes a target
truth table, as `GateAssignment` objects.  The search is exhaustive and
deterministic (lexicographic over grid indices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from . import _kernels
from .gates import ALL_GATES, GateClass, NAND, TruthTable, B, T, XOR, gate_class
from .observables import (
    GridSpec,
    InitialState,
    ObservableKind,
    TWO_PULSE_FORMS,
    default_axis,
    scenario_components,
    validate_binding,
    _select_component,
)
from .spincore import _require_finite

DEFAULT_LEVEL_TOL = 1e-9
# Tolerance of the reference-table checks of `verify_reference_tables`.
DEFAULT_REFERENCE_TOL = 1e-10
DEFAULT_SYNTH_GRID = GridSpec(start=0.0, step=math.pi / 4, count=16)


@dataclass(frozen=True)
class Scenario:
    """An experiment with two pulse parameters left free as logic inputs."""

    initial: InitialState
    pulses: int
    observable: ObservableKind
    inputs: Tuple[str, str]
    fixed: Tuple[Tuple[str, float], ...] = ()
    lambda_b: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial", InitialState(self.initial))
        object.__setattr__(self, "observable", ObservableKind(self.observable))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        fixed = dict(self.fixed)
        if len(fixed) < len(self.fixed):
            names = [name for name, _ in self.fixed]
            twice = next(name for name in names if names.count(name) > 1)
            raise ValueError(f"parameter {twice!r} is fixed more than once")
        validate_binding(self.pulses, self.inputs, fixed)
        object.__setattr__(self, "fixed", tuple(sorted(fixed.items())))
        if not math.isfinite(self.lambda_b):
            raise ValueError(f"lambda_b must be finite, got {self.lambda_b!r}")

    @property
    def fixed_values(self) -> dict:
        return dict(self.fixed)


def evaluate_scenario(scenario: Scenario, a_value: float, b_value: float) -> float:
    """Observable with input A bound to `a_value` and B to `b_value`."""
    _require_finite(a_value, b_value)
    mx, my, _ = scenario_components(
        scenario.initial,
        scenario.pulses,
        scenario.inputs,
        scenario.fixed_values,
        a_value,
        b_value,
        scenario.lambda_b,
    )
    return float(_select_component(scenario.observable, mx, my))


def scenario_table(scenario: Scenario, a_values, b_values) -> np.ndarray:
    """Observable over the Cartesian product of candidate values, A on rows."""
    mx, my, _ = scenario_components(
        scenario.initial,
        scenario.pulses,
        scenario.inputs,
        scenario.fixed_values,
        np.asarray(a_values, dtype=np.float64).reshape(-1, 1),
        np.asarray(b_values, dtype=np.float64).reshape(1, -1),
        scenario.lambda_b,
    )
    return np.asarray(_select_component(scenario.observable, mx, my), dtype=np.float64)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")


def candidate_table(scenario: Scenario, grid: GridSpec, tol: float):
    """The grid's candidates and the observable over them, for a search at `tol`."""
    _check_tol(tol)
    cand = grid.values()
    return cand, scenario_table(scenario, cand, cand)


@dataclass(frozen=True)
class GateAssignment:
    """Concrete gate realization: input values plus the output level map.

    `a_values[k]` is the parameter value encoding logic value k on input A,
    likewise `b_values`.  `level_map` holds (observable level, bit) pairs;
    one entry for constant gates, two for all others.
    """

    a_values: Tuple[float, float]
    b_values: Tuple[float, float]
    level_map: Tuple[Tuple[float, bool], ...]
    tolerance: float = DEFAULT_LEVEL_TOL

    def __post_init__(self) -> None:
        _check_tol(self.tolerance)
        if not 1 <= len(self.level_map) <= 2:
            raise ValueError("level map needs one or two levels")
        bits = [bit for _, bit in self.level_map]
        if len(set(bits)) != len(bits):
            raise ValueError("level map must be injective on bits")
        if len(self.level_map) == 2:
            gap = abs(self.level_map[0][0] - self.level_map[1][0])
            if not gap > self.tolerance:
                raise ValueError(
                    f"levels must be separated by more than {self.tolerance}, gap {gap}"
                )

    def classify_level(self, value: float) -> Optional[bool]:
        """Bit for an observable value, or None if no level is within reach."""
        best = None
        best_dist = self.tolerance
        for level, bit in self.level_map:
            dist = abs(value - level)
            if dist <= best_dist:
                best = bit
                best_dist = dist
        return best


def assignment_realizes(
    scenario: Scenario, assignment: GateAssignment, tt: TruthTable
) -> bool:
    """Do the four corner evaluations reproduce the truth table?"""
    for a in (0, 1):
        for b in (0, 1):
            value = evaluate_scenario(
                scenario, assignment.a_values[a], assignment.b_values[b]
            )
            bit = assignment.classify_level(value)
            if bit is None or bit != tt(a, b):
                return False
    return True


_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def level_corners(tt: TruthTable) -> Dict[bool, Tuple[int, int]]:
    """Corner (a, b) whose observable value is each output bit's level.

    A bit's level is the value at the first corner, in the order 00, 01,
    10, 11, whose output is that bit.  Keys are the bits `tt` outputs,
    0 before 1.
    """
    first = {}
    for a, b in _CORNERS:
        first.setdefault(tt(a, b), (a, b))
    return dict(sorted(first.items()))


def synthesize(
    scenario: Scenario,
    tt: TruthTable,
    grid: GridSpec = DEFAULT_SYNTH_GRID,
    tol: float = DEFAULT_LEVEL_TOL,
) -> List[GateAssignment]:
    """Every assignment over the candidate grid that realizes `tt`.

    Both inputs draw candidates from the same grid, and the rows follow
    the search's lexicographic order.  The corners of a hit's two levels
    have different bits, so the search has already found them more than
    `tol` apart.  Returns the empty list when the scenario cannot express
    the gate on this grid.
    """
    cand, table = candidate_table(scenario, grid, tol)
    hits = _kernels.find_gate_quadruples(table, tt.outputs, tol)
    a0, a1, b0, b1 = cand[hits.T].tolist()
    levels = [
        [(level, bit) for level in table[hits[:, a], hits[:, 2 + b]].tolist()]
        for bit, (a, b) in level_corners(tt).items()
    ]
    return [
        GateAssignment((x0, x1), (y0, y1), level_map, tol)
        for x0, x1, y0, y1, level_map in zip(a0, a1, b0, b1, zip(*levels))
    ]


def count_assignments(
    scenario: Scenario,
    tt: TruthTable,
    grid: GridSpec = DEFAULT_SYNTH_GRID,
    tol: float = DEFAULT_LEVEL_TOL,
) -> int:
    """Number of realizing assignments, without holding them."""
    _, table = candidate_table(scenario, grid, tol)
    return _kernels.gate_counts(table, [tt.outputs], tol)[0]


def achievable_classes(
    scenario: Scenario,
    grid: GridSpec = DEFAULT_SYNTH_GRID,
    tol: float = DEFAULT_LEVEL_TOL,
) -> Set[GateClass]:
    """Gate classes with at least one realizable member on the grid."""
    _, table = candidate_table(scenario, grid, tol)
    counts = _kernels.gate_counts(table, [tt.outputs for tt in ALL_GATES], tol)
    return {gate_class(tt) for tt, count in zip(ALL_GATES, counts) if count}


# ---------------------------------------------------------------------------
# Built-in reference values and verification report.
# ---------------------------------------------------------------------------


class ReferenceGateRow(NamedTuple):
    """One exemplar single-pulse realization (thermal state, mx readout)."""

    gate: TruthTable
    a_values: Tuple[float, float]
    b_values: Tuple[float, float]
    outputs: Tuple[float, float, float, float]  # at inputs 00, 01, 10, 11


_PI = math.pi

REFERENCE_SINGLE_PULSE_GATES: Tuple[ReferenceGateRow, ...] = (
    ReferenceGateRow(
        T,
        (_PI / 2, 5 * _PI / 2), (_PI / 2, 5 * _PI / 2),
        (0.25, 0.25, 0.25, 0.25),
    ),
    ReferenceGateRow(
        B,
        (_PI / 2, 5 * _PI / 2), (-_PI / 2, _PI / 2),
        (-0.25, 0.25, -0.25, 0.25),
    ),
    ReferenceGateRow(
        NAND,
        (_PI, 3 * _PI / 2), (0.0, _PI / 2),
        (0.0, 0.0, 0.0, -0.25),
    ),
    ReferenceGateRow(
        XOR,
        (_PI / 2, 3 * _PI / 2), (-_PI / 2, _PI / 2),
        (-0.25, 0.25, 0.25, -0.25),
    ),
)


def reference_single_pulse_scenario(lambda_b: float = 1.0) -> Scenario:
    return Scenario(
        initial=InitialState.THERMAL_Z,
        pulses=1,
        observable=ObservableKind.MX,
        inputs=("phi", "beta"),
        lambda_b=lambda_b,
    )


def reference_assignment(row: ReferenceGateRow, tol: float = DEFAULT_LEVEL_TOL) -> GateAssignment:
    outputs = dict(zip(_CORNERS, row.outputs))
    level_map = tuple(
        (outputs[corner], bit) for bit, corner in level_corners(row.gate).items()
    )
    return GateAssignment(row.a_values, row.b_values, level_map, tol)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def verify_reference_tables(
    lambda_b: float = 1.0, tol: float = DEFAULT_REFERENCE_TOL
) -> List[CheckResult]:
    """Recompute the built-in gate exemplars and pin every two-pulse closed
    form against numeric propagation; one result entry per check."""
    _check_tol(tol)
    results: List[CheckResult] = []
    scenario = reference_single_pulse_scenario(lambda_b)
    for row in REFERENCE_SINGLE_PULSE_GATES:
        for (a, b), expected in zip(_CORNERS, row.outputs):
            value = evaluate_scenario(scenario, row.a_values[a], row.b_values[b])
            err = abs(value - expected)
            results.append(
                CheckResult(
                    f"single-pulse {row.gate.name} cell {a}{b}",
                    err <= tol,
                    f"value {value:.12g}, expected {expected:.12g}",
                )
            )
        realized = assignment_realizes(scenario, reference_assignment(row), row.gate)
        results.append(
            CheckResult(
                f"single-pulse {row.gate.name} realizes gate",
                realized,
                "corner evaluations map onto the truth table"
                if realized
                else "corner evaluations do not map onto the truth table",
            )
        )

    for label, (free, fixed, formula) in TWO_PULSE_FORMS.items():
        err = _closed_form_max_error(free, fixed, formula, lambda_b)
        results.append(
            CheckResult(
                f"two-pulse closed form ({label})",
                err <= tol,
                f"max |closed - numeric| = {err:.3e}",
            )
        )
    return results


def _closed_form_max_error(free, fixed, formula, lambda_b) -> float:
    """Largest |closed form - propagated x-state mx| over the default axes."""
    a_values = default_axis(free[0]).values()
    b_values = default_axis(free[1]).values()
    scenario = Scenario(
        InitialState.SUPERPOSITION_X,
        2,
        ObservableKind.MX,
        free,
        fixed=tuple(fixed.items()),
        lambda_b=lambda_b,
    )
    numeric = scenario_table(scenario, a_values, b_values)
    analytic = formula(a_values[:, None], b_values[None, :], 0.25 * lambda_b)
    return float(np.max(np.abs(analytic - numeric)))


# Coarsest grid containing every exemplar parameter value (all multiples of
# pi/2).  The equal-fixed-pair claims hold exactly here; finer grids admit
# accidental level coincidences (e.g. three corners at lambda/8) that realize
# weakly-canalising gates without any zero-valued trace.
EXEMPLAR_GRID = GridSpec(start=0.0, step=math.pi / 2, count=8)


def capability_checks(
    grid: GridSpec = DEFAULT_SYNTH_GRID, lambda_b: float = 1.0
) -> List[CheckResult]:
    """The class-capability claims, re-established by exhaustive search.

    Claims are grid-relative: the equal-fixed-pair claim runs on
    `EXEMPLAR_GRID`, every other claim on `grid`.
    """
    tol = DEFAULT_LEVEL_TOL

    def x_state(pulses, observable, inputs, fixed=()):
        return Scenario(InitialState.SUPERPOSITION_X, pulses, observable, inputs, fixed, lambda_b)

    def grid_tag(g: GridSpec) -> str:
        return f"grid {g.start:.6g}:{g.step:.6g}:{g.count}"

    _, thermal = candidate_table(reference_single_pulse_scenario(lambda_b), grid, tol)
    counts = _kernels.gate_counts(thermal, [tt.outputs for tt in ALL_GATES], tol)
    missing = [tt.name for tt, count in zip(ALL_GATES, counts) if not count]
    results = [
        CheckResult(
            f"thermal 1-pulse mx realizes all 16 gates [{grid_tag(grid)}]",
            not missing,
            "all gates found" if not missing else f"missing: {missing}",
        )
    ]
    # (name, scenario, grid, achievable classes)
    claims = [
        (
            f"x-state 1-pulse {kind.value} classes == {{0,1,2}}",
            x_state(1, kind, ("phi", "beta")),
            grid,
            {GateClass.CONSTANT, GateClass.STRONG, GateClass.WEAK},
        )
        for kind in ObservableKind
    ] + [
        (
            "x-state 2-pulse (phi2, phi1), flips pi/2: classes == {0,1,3}",
            x_state(2, ObservableKind.MX, ("phi2", "phi1"), (("beta1", _PI / 2), ("beta2", _PI / 2))),
            EXEMPLAR_GRID,
            {GateClass.CONSTANT, GateClass.STRONG, GateClass.NONE},
        ),
        (
            "x-state 2-pulse (phi2, beta1), phi1=pi/2, beta2=pi: all classes",
            x_state(2, ObservableKind.MX, ("phi2", "beta1"), (("phi1", _PI / 2), ("beta2", _PI))),
            grid,
            set(GateClass),
        ),
    ]
    for name, scenario, claim_grid, expected in claims:
        classes = achievable_classes(scenario, claim_grid, tol)
        results.append(
            CheckResult(
                f"{name} [{grid_tag(claim_grid)}]",
                classes == expected,
                f"achievable classes {sorted(c.value for c in classes)}",
            )
        )
    return results
