"""Mapping continuous observables onto discrete boolean gates.

A `Scenario` fixes everything about the experiment except the two pulse
parameters serving as logic inputs A and B.  A `GateAssignment` picks two
candidate values per input plus a two-level output map.  `search`
enumerates, as columns of grid indices, every assignment over a candidate
grid that realizes a target truth table; `synthesize` returns the same
rows as `GateAssignment` objects.  The search is exhaustive and
deterministic (lexicographic over grid indices).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from . import _kernels
from .gates import ALL_GATES, GateClass, NAND, TruthTable, B, T, XOR, gate_class
from .observables import (
    GridSpec,
    InitialState,
    ObservableKind,
    TWO_PULSE_MIXED_FIX_FORMS,
    TWO_PULSE_PARAMS,
    TWO_PULSE_PI_HALF_FORMS,
    default_axis,
    scenario_components,
    validate_binding,
    _select_component,
)
from .spincore import _require_finite

DEFAULT_LEVEL_TOL = 1e-9
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
    avals, bvals = np.meshgrid(
        np.asarray(a_values, dtype=np.float64),
        np.asarray(b_values, dtype=np.float64),
        indexing="ij",
    )
    mx, my, _ = scenario_components(
        scenario.initial,
        scenario.pulses,
        scenario.inputs,
        scenario.fixed_values,
        avals,
        bvals,
        scenario.lambda_b,
    )
    return np.asarray(_select_component(scenario.observable, mx, my), dtype=np.float64)


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be finite and non-negative, got {tol!r}")


def _candidate_table(scenario: Scenario, grid: GridSpec, tol: float):
    """The grid's candidates and the observable over them, for a search at `tol`."""
    _check_tol(tol)
    cand = grid.values()
    return cand, scenario_table(scenario, cand, cand)


def _realizable(table: np.ndarray, tt: TruthTable, tol: float) -> bool:
    """Does any quadruple over `table` realize `tt`?  Stops at the first hit."""
    return next(_kernels.iter_gate_quadruples(table, tt.outputs, tol), None) is not None


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


class SearchResult(NamedTuple):
    """Every realizing quadruple of one search, kept as columns.

    Row k of `indices` is (i0, i1, j0, j1): input A takes `candidates[i0]`
    for logic 0 and `candidates[i1]` for 1, input B likewise with j0, j1.
    Rows are in lexicographic order.  `table[i, j]` is the observable with
    A at candidate i and B at candidate j.
    """

    indices: np.ndarray
    candidates: np.ndarray
    table: np.ndarray


def search(
    scenario: Scenario,
    tt: TruthTable,
    grid: GridSpec = DEFAULT_SYNTH_GRID,
    tol: float = DEFAULT_LEVEL_TOL,
) -> SearchResult:
    """Every quadruple over the candidate grid that realizes `tt`.

    Both inputs draw candidates from the same grid.  Builds no
    `GateAssignment`; `synthesize` does, row by row.
    """
    cand, table = _candidate_table(scenario, grid, tol)
    indices = _kernels.find_gate_quadruples(table, tt.outputs, tol)
    return SearchResult(indices, cand, table)


def level_cells(
    found: SearchResult, tt: TruthTable, tol: float
) -> Dict[bool, np.ndarray]:
    """Flat index into `found.table` of every row's level, per output bit.

    Checks over all rows at once what `GateAssignment` checks per object:
    a gate's two levels lie more than `tol` apart.
    """
    idx = found.indices
    n_b = found.table.shape[1]
    cells = {
        bit: idx[:, a] * n_b + idx[:, 2 + b] for bit, (a, b) in level_corners(tt).items()
    }
    if len(cells) == 2:
        flat = found.table.ravel()
        gap = np.abs(flat[cells[False]] - flat[cells[True]])
        too_close = np.flatnonzero(~(gap > tol))
        if len(too_close):
            raise ValueError(
                f"levels must be separated by more than {tol}, "
                f"gap {float(gap[too_close[0]])}"
            )
    return cells


def _assignment_from_indices(
    table: np.ndarray,
    cand: np.ndarray,
    idx: Sequence[int],
    corners: Dict[bool, Tuple[int, int]],
    tol: float,
) -> GateAssignment:
    i0, i1, j0, j1 = idx
    rows, cols = (i0, i1), (j0, j1)
    level_map = tuple(
        (float(table[rows[a], cols[b]]), bit) for bit, (a, b) in corners.items()
    )
    return GateAssignment(
        a_values=(float(cand[i0]), float(cand[i1])),
        b_values=(float(cand[j0]), float(cand[j1])),
        level_map=level_map,
        tolerance=tol,
    )


def synthesize(
    scenario: Scenario,
    tt: TruthTable,
    grid: GridSpec = DEFAULT_SYNTH_GRID,
    tol: float = DEFAULT_LEVEL_TOL,
) -> List[GateAssignment]:
    """Every assignment over the candidate grid that realizes `tt`.

    The rows of `search`, in its order, as objects.  Returns the empty
    list when the scenario cannot express the gate on this grid.
    """
    found = search(scenario, tt, grid, tol)
    corners = level_corners(tt)
    return [
        _assignment_from_indices(found.table, found.candidates, idx, corners, tol)
        for idx in found.indices
    ]


def count_assignments(
    scenario: Scenario,
    tt: TruthTable,
    grid: GridSpec = DEFAULT_SYNTH_GRID,
    tol: float = DEFAULT_LEVEL_TOL,
) -> int:
    """Number of realizing assignments, holding one block of hits at a time."""
    _, table = _candidate_table(scenario, grid, tol)
    blocks = _kernels.iter_gate_quadruples(table, tt.outputs, tol)
    return sum(len(hits) for hits in blocks)


def achievable_classes(
    scenario: Scenario,
    grid: GridSpec = DEFAULT_SYNTH_GRID,
    tol: float = DEFAULT_LEVEL_TOL,
) -> Set[GateClass]:
    """Gate classes with at least one realizable member on the grid."""
    _, table = _candidate_table(scenario, grid, tol)
    found: Set[GateClass] = set()
    for tt in ALL_GATES:
        cls = gate_class(tt)
        if cls not in found and _realizable(table, tt, tol):
            found.add(cls)
    return found


# ---------------------------------------------------------------------------
# Built-in reference values and verification report.
# ---------------------------------------------------------------------------


class ReferenceGateRow(NamedTuple):
    """One exemplar single-pulse realization (thermal state, mx readout)."""

    gate: TruthTable
    gate_cls: GateClass
    a_values: Tuple[float, float]
    b_values: Tuple[float, float]
    outputs: Tuple[float, float, float, float]  # at inputs 00, 01, 10, 11


_PI = math.pi

REFERENCE_SINGLE_PULSE_GATES: Tuple[ReferenceGateRow, ...] = (
    ReferenceGateRow(
        T, GateClass.CONSTANT,
        (_PI / 2, 5 * _PI / 2), (_PI / 2, 5 * _PI / 2),
        (0.25, 0.25, 0.25, 0.25),
    ),
    ReferenceGateRow(
        B, GateClass.STRONG,
        (_PI / 2, 5 * _PI / 2), (-_PI / 2, _PI / 2),
        (-0.25, 0.25, -0.25, 0.25),
    ),
    ReferenceGateRow(
        NAND, GateClass.WEAK,
        (_PI, 3 * _PI / 2), (0.0, _PI / 2),
        (0.0, 0.0, 0.0, -0.25),
    ),
    ReferenceGateRow(
        XOR, GateClass.NONE,
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
    lambda_b: float = 1.0, tol: float = 1e-10, grid_points: int = 101
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

    forms = []
    for pair, (free, formula) in TWO_PULSE_PI_HALF_FORMS.items():
        others = {p: _PI / 2 for p in TWO_PULSE_PARAMS if p not in free}
        forms.append((f"{pair}; others pi/2", free, others, formula))
    forms += [(case, *form) for case, form in TWO_PULSE_MIXED_FIX_FORMS.items()]
    for label, free, fixed, formula in forms:
        err = _closed_form_max_error(free, fixed, formula, lambda_b, grid_points)
        results.append(
            CheckResult(
                f"two-pulse closed form ({label})",
                err <= tol,
                f"max |closed - numeric| = {err:.3e}",
            )
        )
    return results


def _closed_form_max_error(free, fixed, formula, lambda_b, grid_points) -> float:
    """Largest |closed form - propagated x-state mx| over the default axes."""
    a_values = default_axis(free[0], grid_points).values()
    b_values = default_axis(free[1], grid_points).values()
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
    grid: GridSpec = DEFAULT_SYNTH_GRID,
    tol: float = DEFAULT_LEVEL_TOL,
    lambda_b: float = 1.0,
    equal_fix_grid: GridSpec = EXEMPLAR_GRID,
) -> List[CheckResult]:
    """The class-capability claims, re-established by exhaustive search.

    Claims are grid-relative: single-pulse and mixed-fix claims run on
    `grid`, the equal-fixed-pair claims on `equal_fix_grid`.
    """
    results: List[CheckResult] = []

    def _grid_tag(g: GridSpec) -> str:
        return f"grid {g.start:.6g}:{g.step:.6g}:{g.count}"

    _, thermal = _candidate_table(reference_single_pulse_scenario(lambda_b), grid, tol)
    missing = [tt.name for tt in ALL_GATES if not _realizable(thermal, tt, tol)]
    results.append(
        CheckResult(
            f"thermal 1-pulse mx realizes all 16 gates [{_grid_tag(grid)}]",
            not missing,
            "all gates found" if not missing else f"missing: {missing}",
        )
    )

    for kind in ObservableKind:
        scenario = Scenario(
            InitialState.SUPERPOSITION_X, 1, kind, ("phi", "beta"), lambda_b=lambda_b
        )
        classes = achievable_classes(scenario, grid, tol)
        expected = {GateClass.CONSTANT, GateClass.STRONG, GateClass.WEAK}
        results.append(
            CheckResult(
                f"x-state 1-pulse {kind.value} classes == {{0,1,2}} [{_grid_tag(grid)}]",
                classes == expected,
                f"achievable classes {sorted(c.value for c in classes)}",
            )
        )

    equal_fix = Scenario(
        InitialState.SUPERPOSITION_X,
        2,
        ObservableKind.MX,
        ("phi2", "phi1"),
        fixed=(("beta1", _PI / 2), ("beta2", _PI / 2)),
        lambda_b=lambda_b,
    )
    classes = achievable_classes(equal_fix, equal_fix_grid, tol)
    results.append(
        CheckResult(
            "x-state 2-pulse (phi2, phi1), flips pi/2: classes == {0,1,3} "
            f"[{_grid_tag(equal_fix_grid)}]",
            classes == {GateClass.CONSTANT, GateClass.STRONG, GateClass.NONE},
            f"achievable classes {sorted(c.value for c in classes)}",
        )
    )

    mixed_fix = Scenario(
        InitialState.SUPERPOSITION_X,
        2,
        ObservableKind.MX,
        ("phi2", "beta1"),
        fixed=(("phi1", _PI / 2), ("beta2", _PI)),
        lambda_b=lambda_b,
    )
    classes = achievable_classes(mixed_fix, grid, tol)
    results.append(
        CheckResult(
            f"x-state 2-pulse (phi2, beta1), phi1=pi/2, beta2=pi: all classes "
            f"[{_grid_tag(grid)}]",
            classes == set(GateClass),
            f"achievable classes {sorted(c.value for c in classes)}",
        )
    )
    return results
