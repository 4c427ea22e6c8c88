"""Single-spin NMR pulse simulator and boolean logic gate synthesis."""

from .spincore import (
    DensityMatrix,
    Magnetization,
    magnetization,
    propagate,
    rot_phi,
    superposition_x_state,
    thermal_state,
)
from .observables import (
    GridSpec,
    InitialState,
    ObservableKind,
    two_pulse_closed_form,
)
from .gates import (
    ALL_GATES,
    CanalisingProfile,
    GateClass,
    TruthTable,
    canalising_counts,
    gate_class,
    orbit,
    parse_gate,
    truth_table,
)
from .synthesis import (
    GateAssignment,
    Scenario,
    achievable_classes,
    assignment_realizes,
    capability_checks,
    synthesize,
    verify_reference_tables,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_GATES",
    "CanalisingProfile",
    "DensityMatrix",
    "GateAssignment",
    "GateClass",
    "GridSpec",
    "InitialState",
    "Magnetization",
    "ObservableKind",
    "Scenario",
    "TruthTable",
    "achievable_classes",
    "assignment_realizes",
    "canalising_counts",
    "capability_checks",
    "gate_class",
    "magnetization",
    "orbit",
    "parse_gate",
    "propagate",
    "rot_phi",
    "superposition_x_state",
    "synthesize",
    "thermal_state",
    "truth_table",
    "two_pulse_closed_form",
    "verify_reference_tables",
]
