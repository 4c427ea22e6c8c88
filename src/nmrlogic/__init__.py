"""Single-spin NMR pulse simulator and boolean logic gate synthesis.

The root exports the gate-search method; the independent oracles stay in
`nmrlogic.spincore` and `nmrlogic.observables.two_pulse_closed_form`.
"""

from .observables import GridSpec, InitialState, ObservableKind
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
    "GateAssignment",
    "GateClass",
    "GridSpec",
    "InitialState",
    "ObservableKind",
    "Scenario",
    "TruthTable",
    "achievable_classes",
    "assignment_realizes",
    "canalising_counts",
    "capability_checks",
    "gate_class",
    "orbit",
    "parse_gate",
    "synthesize",
    "truth_table",
    "verify_reference_tables",
]
