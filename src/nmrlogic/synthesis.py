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
    propagator_arguments,
    scenario_components,
    two_pulse_closed_form,
    validate_binding,
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
        _require_finite(self.lambda_b, name="lambda_b")


def scenario_table(scenario: Scenario, a_values, b_values) -> np.ndarray:
    """Observable over the Cartesian product of candidate values, A on rows."""
    mx, my = scenario_components(
        scenario.initial, scenario.pulses, scenario.inputs, scenario.fixed,
        np.asarray(a_values, dtype=np.float64).reshape(-1, 1),
        np.asarray(b_values, dtype=np.float64).reshape(1, -1),
        scenario.lambda_b,
    )
    return _readout(scenario, mx, my)


def _readout(scenario: Scenario, mx, my):
    if scenario.observable is ObservableKind.MXY:
        return np.hypot(mx, my)
    return mx if scenario.observable is ObservableKind.MX else my


def candidate_table(scenario: Scenario, grid: GridSpec):
    """The grid's candidates and the observable over them, A on rows."""
    cand = grid.values()
    return cand, scenario_table(scenario, cand, cand)


def search_table(scenario: Scenario, grid: GridSpec, tol: float):
    """(cand, table, labels) for a search that prints no table value: the
    candidates, the `candidate_table` observable or None, and its level
    labels (`_kernels.level_labels`).

    Which tables take which route: a one-pulse table takes the closed
    forms of `observables`.  A two-pulse table whose values are printed
    (`grid`, the rows of a `synthesize` with hits, this module's
    `synthesize`, `verify`'s closed-form checks) takes matrix propagation,
    `_kernels.two_pulse_components`, as the routes differ in round-off.
    One that is only counted (a `synthesize` until its count is known, and
    every count of this module) is first propagated as Bloch vectors
    (`_kernels.bloch_components`).  Its labels are kept, and the table is
    None, when `level_labels` certifies them within
    `_kernels.rounding_bound` to be the labels of the matrix table.
    Otherwise the table is `candidate_table`'s.
    """
    if scenario.pulses == 2:
        cand = grid.values()
        args = propagator_arguments(
            scenario.initial, scenario.pulses, scenario.inputs, scenario.fixed,
            cand[:, None], cand[None, :], scenario.lambda_b,
        )
        mx, my = _kernels.bloch_components(*args)
        slack = _kernels.rounding_bound(scenario.lambda_b)
        labels = _kernels.level_labels(_readout(scenario, mx, my), tol, slack)
        if labels is not None:
            return cand, None, labels
    cand, table = candidate_table(scenario, grid)
    return cand, table, _kernels.level_labels(table, tol)


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
        _kernels._check_tol(self.tolerance)
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


_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def assignment_realizes(
    scenario: Scenario, assignment: GateAssignment, tt: TruthTable
) -> bool:
    """Do the four corner evaluations reproduce the truth table?"""
    _require_finite(*assignment.a_values, *assignment.b_values)
    table = scenario_table(scenario, assignment.a_values, assignment.b_values)
    return _corners_realize(assignment, tt, table.ravel().tolist())


def _corners_realize(assignment: GateAssignment, tt: TruthTable, values) -> bool:
    """Does the level map send the corner `values`, in the order 00, 01,
    10, 11, onto the truth table?"""
    return all(
        assignment.classify_level(value) == tt(a, b)
        for (a, b), value in zip(_CORNERS, values)
    )


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
    cand, table = candidate_table(scenario, grid)
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
    return _gate_counts(scenario, (tt,), grid, tol)[0]


# the class of each gate of ALL_GATES, in its order
_GATE_CLASSES = tuple(map(gate_class, ALL_GATES))


def achievable_classes(
    scenario: Scenario,
    grid: GridSpec = DEFAULT_SYNTH_GRID,
    tol: float = DEFAULT_LEVEL_TOL,
) -> Set[GateClass]:
    """Gate classes with at least one realizable member on the grid."""
    counts = _gate_counts(scenario, ALL_GATES, grid, tol)
    return {cls for cls, count in zip(_GATE_CLASSES, counts) if count}


def _gate_counts(scenario: Scenario, tts, grid: GridSpec, tol: float) -> List[int]:
    """Number of realizing assignments of each truth table in `tts`,
    counted on `search_table`'s table and labels."""
    _, table, labels = search_table(scenario, grid, tol)
    return _kernels.gate_counts(table, [tt.outputs for tt in tts], tol, labels)


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


def reference_assignment(row: ReferenceGateRow) -> GateAssignment:
    outputs = dict(zip(_CORNERS, row.outputs))
    level_map = tuple((outputs[c], bit) for bit, c in level_corners(row.gate).items())
    return GateAssignment(row.a_values, row.b_values, level_map)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def verify_reference_tables(
    lambda_b: float = 1.0, tol: float = DEFAULT_REFERENCE_TOL
) -> List[CheckResult]:
    """Recompute the built-in gate exemplars and pin every two-pulse closed
    form against numeric propagation; one result entry per check."""
    _kernels._check_tol(tol)
    results: List[CheckResult] = []
    scenario = reference_single_pulse_scenario(lambda_b)
    for row in REFERENCE_SINGLE_PULSE_GATES:
        values = scenario_table(scenario, row.a_values, row.b_values).ravel().tolist()
        for (a, b), value, expected in zip(_CORNERS, values, row.outputs):
            err = abs(value - expected)
            results.append(
                CheckResult(
                    f"single-pulse {row.gate.name} cell {a}{b}",
                    err <= tol,
                    f"value {value:.12g}, expected {expected:.12g}",
                )
            )
        realized = _corners_realize(reference_assignment(row), row.gate, values)
        results.append(
            CheckResult(
                f"single-pulse {row.gate.name} realizes gate",
                realized,
                "corner evaluations map onto the truth table"
                if realized
                else "corner evaluations do not map onto the truth table",
            )
        )

    for label in TWO_PULSE_FORMS:
        err = _closed_form_max_error(label, lambda_b)
        results.append(
            CheckResult(
                f"two-pulse closed form ({label})",
                err <= tol,
                f"max |closed - numeric| = {err:.3e}",
            )
        )
    return results


def _closed_form_max_error(label, lambda_b) -> float:
    """Largest |closed form - propagated x-state mx| of the `TWO_PULSE_FORMS`
    entry `label` over the default axes."""
    free, fixed, _ = TWO_PULSE_FORMS[label]
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
    analytic = two_pulse_closed_form(label, a_values[:, None], b_values[None, :], lambda_b)
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

    counts = _gate_counts(reference_single_pulse_scenario(lambda_b), ALL_GATES, grid, tol)
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
