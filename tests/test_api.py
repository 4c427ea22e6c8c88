import nmrlogic

PUBLIC_NAMES = [
    "ALL_GATES",
    "CanalisingProfile",
    "DensityMatrix",
    "GateAssignment",
    "GateClass",
    "GridSpec",
    "InitialState",
    "Magnetization",
    "ObservableKind",
    "Pulse",
    "Scenario",
    "TruthTable",
    "achievable_classes",
    "assignment_realizes",
    "canalising_counts",
    "capability_checks",
    "commutator",
    "commutes",
    "evaluate_scenario",
    "gate_class",
    "is_canalising_value",
    "magnetization",
    "orbit",
    "parse_gate",
    "propagate",
    "rot_axis",
    "rot_phi",
    "sequence_propagator",
    "spin_operator",
    "spin_vector",
    "superposition_x_state",
    "synthesize",
    "thermal_state",
    "truth_table",
    "two_pulse_closed_form",
    "verify_reference_tables",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(nmrlogic.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(nmrlogic, name) is not None, name
